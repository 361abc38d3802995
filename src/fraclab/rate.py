"""Deviation cost of terminal states for the controlled linear skeleton.

The minimal control energy to steer one driven mode pair to a terminal
value is a quadratic form in the target with the reachability Gramian

    G_k(T) = sum_n |h_n(., 1)^_k|^2 (1 - e^{-2 Re mu_k T}) / (2 Re mu_k)

as its kernel.  Summed over the conjugate-symmetric mode layout with weight
1/2 (so each conjugate pair counts once at full weight and the self-paired
modes at half), this gives the exact cost for noise families that drive
each frequency isotropically; for anisotropic families it is the standard
circular relaxation.  A penalty-method optimizer provides upper bounds for
the nonlinear problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fields import SpectralField
from .models import ModelSpec
from .oracle import (
    duhamel_mdp_skeleton,
    linearized_mode_arrays,
    ou_variance,
    _interval_kernel,
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

# a mode is unreachable when its Gramian is this far below the natural scale
GRAMIAN_FLOOR = 1e-14


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


def _adjoint_control(tau, mu, weights, gram, usable, T, intervals, tau_tol):
    """Closed-form steering control: superposition of time-reversed adjoint
    profiles per targeted mode, sampled at interval midpoints, with the mode-0
    coefficient solved against the discrete response so the mean is hit
    exactly."""
    n_modes, K = weights.shape
    times = np.linspace(0.0, T, intervals + 1)
    mids = 0.5 * (times[:-1] + times[1:])
    coeffs = np.zeros((intervals, K))
    half = n_modes // 2
    for idx in range(1, half + 1):
        if idx == half and n_modes % 2 == 0:
            continue  # nyquist carries no usable targets in practice
        if not usable[idx]:
            continue
        beta = tau[idx] / gram[idx]
        profile = np.conj(np.exp(-mu[idx] * (T - mids)))
        coeffs += 2.0 * np.real(beta * profile[:, None] * np.conj(weights[idx])[None, :])

    kern0 = np.array([_interval_kernel(np.array([mu[0]]), T, times[i], times[i + 1])[0]
                      for i in range(intervals)])
    w0 = weights[0].real
    induced = complex(np.sum(kern0 * (coeffs @ weights[0])))
    target0 = tau[0].real
    # only compensate a mean drift that is actually there; a near-zero
    # mode-0 response would otherwise amplify roundoff
    if usable[0] or abs(induced) > tau_tol:
        decay0 = np.exp(-mu[0].real * (T - mids))
        response0 = float(np.real(np.sum(kern0 * decay0)) * np.sum(w0 * w0))
        if response0 > 0.0:
            beta0 = (target0 - induced.real) / response0
            coeffs += beta0 * decay0[:, None] * w0[None, :]
    return Control(times=times, coeffs=coeffs)


def mdp_rate_exact(target: SpectralField, model: ModelSpec, T: float,
                   eta: float = 0.0, control_intervals: int = 64) -> RateReport:
    """Exact quadratic deviation cost of a terminal state under the linear
    skeleton, with the closed-form steering control.

    Target coefficients below 1e-12 of the field scale are treated as zero.
    Modes with nonzero targets but Gramian below 1e-14 of its natural scale
    are unreachable: the report carries the infinite flag and lists them.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    grid = target.grid
    mu, weights = linearized_mode_arrays(model, grid, eta)
    weight_sq = np.sum(np.abs(weights) ** 2, axis=1)
    gram = ou_variance(weight_sq, mu.real, T)
    tau = target.spectrum
    # the floor references the strongest driven mode: weights that are pure
    # transform roundoff produce a Gramian proportional to themselves, so a
    # per-mode relative test could never fire
    floor = GRAMIAN_FLOOR * float(np.max(weight_sq)) * T
    tau_tol = 1e-12 * max(1.0, float(np.max(np.abs(tau))))
    active = np.abs(tau) > tau_tol
    reachable = gram > floor

    dead = active & ~reachable
    if np.any(dead):
        k = grid.wavenumbers().astype(int)
        return RateReport(value=None, infinite=True,
                          unreachable_modes=tuple(int(v) for v in k[dead]))

    usable = active & reachable
    value = 0.0
    if np.any(usable):
        value = 0.5 * float(np.sum(np.abs(tau[usable]) ** 2 / gram[usable]))
    control = _adjoint_control(tau, mu, weights, gram, usable, T,
                               control_intervals, tau_tol)
    achieved = duhamel_mdp_skeleton(control, model, T, grid, eta)
    residual = _l2(achieved.values - target.values)
    return RateReport(value=value, optimal_control=control, residual=residual)


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

    n_steps, _ = plan_steps(config)

    def forward(flat):
        """The control of flat and the states u_0 .. u_N of its path."""
        control = Control(times=times, coeffs=np.reshape(flat, (m, K)))
        states = np.empty((n_steps + 1, size))

        def observe(step, values, dbeta):
            states[step] = values

        solve_controlled_spde(u0.values, model, control, config, observe=observe)
        return control, states

    def value_and_gradient(flat, penalty):
        control, states = forward(flat)
        gap = states[-1] - target_values
        value = control.energy + penalty * float(np.mean(gap ** 2))
        grad = control_gradient(states, model, config, control,
                                2.0 * penalty * gap / size)
        return value, (grad + widths * control.coeffs).ravel()

    x = np.zeros(m * K)
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

    base = forward(np.zeros_like(x))[1][-1]
    control, states = forward(x)
    terminal = states[-1]
    # rescale along the found direction so the dominant deviation mode is hit
    # with the exact amplitude; keeps the value an honest upper bound
    tau_dev = np.fft.fft(target_values - base) / size
    response = np.fft.fft(terminal - base) / size
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
    exact = mdp_rate_exact(target, model, T, eta)
    if not exact.infinite and energy < exact.value - 1e-8 * max(1.0, exact.value):
        raise ValueError(
            f"control energy {energy:g} undercuts the exact minimum {exact.value:g}"
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
