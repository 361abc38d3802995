"""Deviation cost of terminal states for the controlled linear skeleton.

The exact cost is the least control energy that steers the linear skeleton
from zero to a target: (1/2) t' G^+ t, with t the target's driven real
Fourier parts and G their controllability Gramian in closed form, for every
noise family.  A penalty-method optimizer provides upper bounds for the
nonlinear problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .fields import SpectralField, dft
from .models import ModelSpec
from .oracle import (
    _GRAMIAN_FLOOR,
    _interval_kernel,
    duhamel_mdp_skeleton,
    linearized_mode_arrays,
)
from .skeleton import Control, solve_controlled_spde
from .solver import SolverConfig, control_gradient, plan_steps

__all__ = [
    "RateReport",
    "RateOptions",
    "mdp_rate_exact",
    "ldp_rate_iterative",
    "verify_rate_bound",
    "report_to_json",
]

@dataclass(frozen=True, eq=False)
class RateReport:
    """Outcome of a rate evaluation.

    value is None exactly when infinite is set; +infinity is never encoded
    as a float sentinel.  residual is the terminal L2 gap of the returned
    control; upper_bound marks iterative results that only bound the true
    cost from above.
    """

    value: float | None
    infinite: bool = False
    unreachable_modes: tuple = ()
    optimal_control: Control | None = None
    residual: float = 0.0
    iterations: int = 0
    upper_bound: bool = False
    converged: bool = True


@dataclass(frozen=True)
class RateOptions:
    """Knobs for the iterative minimizer."""

    intervals: int = 8
    dt: float = 1e-3
    flux_scheme: str = "rusanov"
    eta: float = 0.0
    penalty: float = 10.0
    penalty_growth: float = 10.0
    rounds: int = 3
    maxiter: int = 30
    gradient_tol: float = 1e-9
    residual_target: float = 1e-2


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on its first call.

    Only the iterative rate needs an optimizer; a module-level import would
    make every command that loads this module pay for scipy.optimize at
    start-up.  The name stays module-level so callers can wrap or replace it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _l2(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values ** 2)))


def _gramian_value(target: SpectralField, model: ModelSpec, T: float, eta: float):
    """mdp_rate_exact's value, None if infinite, the unreachable modes, and
    the rates, drives and targets of its constraint rows."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    n = target.grid.size
    mu, weights = linearized_mode_arrays(model, target.grid, eta)
    tau = target.spectrum[:n // 2 + 1]
    driven = np.flatnonzero(np.any(weights[:n // 2 + 1], axis=1))
    # row r reads Re(c_r u_k(T)): c = 1 for every driven mode, and c = -i for
    # the imaginary parts a real field leaves free (all but k = 0 and N/2)
    paired = driven[(driven > 0) & (2 * driven < n)]
    row_mode = np.concatenate([driven, paired])
    phase = np.concatenate([np.ones(len(driven)), np.full(len(paired), -1j)])
    rates, drive = mu[row_mode], phase[:, None] * weights[row_mode]
    t = (phase * tau[row_mode]).real
    # Re a . Re b = Re(a conj(b) + a b) / 2, integrated over the horizon
    h = (drive @ drive.conj().T) * _interval_kernel(
        rates[:, None] + rates.conj(), T, 0.0, T)
    p = (drive @ drive.T) * _interval_kernel(rates[:, None] + rates, T, 0.0, T)
    gram = 0.5 * (h + p).real
    solved = np.linalg.pinv(gram, rcond=_GRAMIAN_FLOOR, hermitian=True) @ t

    tau_tol = 1e-12 * max(1.0, float(np.max(np.abs(tau))))
    unreachable = np.abs(tau) > tau_tol
    unreachable[driven] = False
    unreachable[row_mode[np.abs(t - gram @ solved) > tau_tol]] = True
    modes = tuple(int(k) for k in np.flatnonzero(unreachable))
    return None if modes else 0.5 * float(t @ solved), modes, rates, drive, t


def mdp_rate_exact(target: SpectralField, model: ModelSpec, T: float,
                   eta: float = 0.0, control_intervals: int = 64) -> RateReport:
    """Exact quadratic deviation cost of a terminal state under the linear
    skeleton, and the least-energy control constant on each of
    control_intervals equal intervals that steers to it.

    Mode k ends at u_k(T) = int_0^T e^{-mu_k (T - s)} w_k . l(s) ds.  The
    constraints t are the real parts of the driven modes 0 <= k <= N/2 (as
    oracle decides) and the imaginary parts of those other than 0 and N/2;
    the value is (1/2) t' G^+ t with G their Gramian.  Target parts below
    1e-12 of the field scale count as zero; a larger part outside the range
    of G, or on a mode the noise does not drive, makes the report infinite
    and lists its mode.  G and the control's responses are oracle's Duhamel
    kernel.  residual is the control's miss by the Duhamel oracle.
    """
    value, unreachable, rates, drive, t = _gramian_value(target, model, T, eta)
    if value is None:
        return RateReport(value=None, infinite=True, unreachable_modes=unreachable)

    # the same rows of the responses to a unit coefficient on each interval,
    # columns scaled by 1/sqrt(width): the least-norm solution has the least
    # energy, and a singular value is the root of a Gramian eigenvalue
    m, K = control_intervals, drive.shape[1]
    times = np.linspace(0.0, T, m + 1)
    root = np.sqrt(T / m)
    kernel = _interval_kernel(rates[:, None], T, times[:-1], times[1:])
    response = (kernel[:, :, None] * drive[:, None, :] / root).real
    scaled, *_ = np.linalg.lstsq(response.reshape(len(t), m * K), t,
                                 rcond=np.sqrt(_GRAMIAN_FLOOR))
    control = Control(times=times, coeffs=scaled.reshape(m, K) / root)
    achieved = duhamel_mdp_skeleton(control, model, T, target.grid, eta).values
    return RateReport(value=value, optimal_control=control,
                      residual=_l2(achieved - target.values))


def ldp_rate_iterative(target: SpectralField, u0: SpectralField, model: ModelSpec,
                       T: float, opts: RateOptions | None = None) -> RateReport:
    """Upper bound on the deviation cost under the nonlinear skeleton.

    Minimizes energy plus a quadratic terminal penalty over piecewise
    constant controls, escalating the penalty weight, then rescales the
    control so the dominant target mode is hit exactly.  Never silently
    fails: the report carries converged and the achieved residual.

    Each objective evaluation is one skeleton solve that records the path,
    and its gradient, exact for the discrete objective, is one backward
    sweep of the transposed step along that path (solver.control_gradient).
    The sweep carries the cotangent 2 (u_N - target) / N of a unit penalty
    and the penalty scales its result, so each distinct point costs one
    solve and one sweep: a round starts at the point the round before
    ended, under a larger penalty, at no cost.
    """
    opts = opts or RateOptions()
    K = model.noise.truncation
    m = opts.intervals
    times = np.linspace(0.0, T, m + 1)
    widths = np.diff(times)[:, None]
    config = SolverConfig(dt=opts.dt, t_end=T, eta=opts.eta,
                          flux_scheme=opts.flux_scheme)
    target_values = target.values
    size = target.grid.size

    # every step recorded: the gradient sweeps the whole path
    every_step = replace(config, snapshot_count=plan_steps(config)[0] + 1)
    # the last point solved, its (control, states), and the gradient of its
    # penalty term at a unit penalty, swept when first asked for
    last = [None, None, None]

    def forward(flat):
        """The control of flat and the states u_0 .. u_N of its path; the
        last point solved is kept, so a repeated point costs no solve."""
        if np.array_equal(last[0], flat):
            return last[1]
        flat = np.array(flat, dtype=float)
        control = Control(times=times, coeffs=flat.reshape(m, K))
        states = solve_controlled_spde(u0, model, control, every_step).values
        last[:] = flat, (control, states), None
        return control, states

    def value_and_gradient(flat, penalty):
        control, states = forward(flat)
        gap = states[-1] - target_values
        value = control.energy + penalty * float(np.mean(gap ** 2))
        # the sweep is linear in its cotangent: a point met again under
        # another penalty, as a round's start is, costs no sweep
        if last[2] is None:
            last[2] = control_gradient(states, model, config, control,
                                       2.0 * gap / size)
        return value, (penalty * last[2] + widths * control.coeffs).ravel()

    x = np.zeros(m * K)
    # the first evaluation of the first round is at x = 0
    base = forward(x)[1][-1]
    penalty = opts.penalty
    iterations = 0
    success = True
    for _ in range(opts.rounds):
        result = minimize(value_and_gradient, x, args=(penalty,), method="L-BFGS-B",
                          jac=True,
                          options={"maxiter": opts.maxiter, "gtol": opts.gradient_tol})
        x = result.x
        iterations += int(result.nit)
        success = bool(result.success) and success
        penalty *= opts.penalty_growth

    control, states = forward(x)
    terminal = states[-1]
    # rescale along the found direction so the dominant deviation mode is hit
    # with the exact amplitude; keeps the value an honest upper bound
    tau_dev = dft(target_values - base)
    response = dft(terminal - base)
    idx = int(np.argmax(np.abs(tau_dev)))
    if np.abs(tau_dev[idx]) > 1e-12 and np.abs(response[idx]) > 1e-12:
        factor = float(np.abs(tau_dev[idx]) / np.abs(response[idx]))
        factor = min(max(factor, 0.1), 10.0)
        x = factor * x
        control, states = forward(x)
        terminal = states[-1]

    residual = _l2(terminal - target_values)
    scale = max(1.0, _l2(target_values))
    return RateReport(value=control.energy, optimal_control=control,
                      residual=residual, iterations=iterations,
                      upper_bound=True,
                      converged=success and residual <= opts.residual_target * scale)


def verify_rate_bound(control: Control, target: SpectralField, model: ModelSpec,
                      T: float, eta: float = 0.0,
                      feasibility_tol: float = 1e-6) -> float:
    """Energy of a feasible steering control; any such energy upper-bounds the
    exact cost, which is asserted before returning."""
    achieved = duhamel_mdp_skeleton(control, model, T, target.grid, eta)
    residual = _l2(achieved.values - target.values)
    scale = max(1.0, _l2(target.values))
    if residual > feasibility_tol * scale:
        raise ValueError(
            f"control misses the target: residual {residual:g} exceeds "
            f"{feasibility_tol:g} of scale"
        )
    energy = control.energy
    exact = _gramian_value(target, model, T, eta)[0]
    if exact is not None and energy < exact - 1e-8 * max(1.0, exact):
        raise ValueError(
            f"control energy {energy:g} undercuts the exact minimum {exact:g}"
        )
    return energy


def report_to_json(report: RateReport, control_path=None) -> str:
    payload = {
        "value": report.value,
        "infinite": report.infinite,
        "unreachable_modes": list(report.unreachable_modes),
        "residual": report.residual,
        "iterations": report.iterations,
        "upper_bound": report.upper_bound,
        "converged": report.converged,
        "control_csv": str(control_path) if control_path is not None else None,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
