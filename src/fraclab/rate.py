"""Deviation cost of terminal states for the controlled linear skeleton.

The exact cost is the least control energy that steers the linear skeleton
from zero to a target: (1/2) t' G^+ t, with t the target's driven real
Fourier parts and G their controllability Gramian in closed form, for every
noise family.  Under the nonlinear skeleton a Gauss-Newton loop solves for
the least-energy control on the terminal constraint, with the Gramian of
the scheme's own sensitivities, and bounds the cost from above whenever its
control reaches the target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .fields import SpectralField
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

# the feasible miss, of the deviation; the Gauss-Newton step's pinv cutoff,
# above _GRAMIAN_FLOOR as its Gramian is swept, not closed form; the step's
# halvings; and the least fall of the miss a step makes for the loop to go on
_MISS, _STEP_CUTOFF, _HALVINGS, _STALL = 1e-2, 1e-10, 3, 1e-2

@dataclass(frozen=True, eq=False)
class RateReport:
    """Outcome of a rate evaluation.

    value is None exactly when infinite is set; +infinity is never encoded
    as a float sentinel.  residual is the terminal L2 gap of the returned
    control; upper_bound marks an iterative control that reaches its target
    (ldp_rate_iterative), whose energy bounds the true cost from above.
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
    """Knobs of the iterative rate: control intervals, the solves' step and
    flux scheme, the cap on Gauss-Newton steps; rounds is read by nothing."""

    intervals: int = 8
    dt: float = 1e-3
    flux_scheme: str = "rusanov"
    rounds: int = 3
    maxiter: int = 30


def minimize(path, sensitivity, target, widths, maxiter, floor):
    """Gauss-Newton on min (1/2) c' W c subject to u_N(c) = target, from c = 0.

    path(c) is the control of the flat coefficients c and its states u_0
    .. u_N; sensitivity(control, states) is S = du_N/dc, (N, len(c)); widths
    is W's diagonal.  A step aims at c* = W^-1 S' Gamma^+ (target - u_N + S c),
    Gamma = S W^-1 S', the least-energy point of the constraint linearized
    at c, so a fixed point is a KKT point.  It moves to the first of
    c + (c* - c) / 2^j, j = 0 .. _HALVINGS, whose miss L2(u_N - target) is
    lower.  The loop stops when no such point is lower, when the miss is at
    most floor or fell by less than _STALL of itself, or after maxiter steps.
    Returns the point of least miss (x, its control and terminal state), the
    miss of c = 0 (deviation), the steps nit, the sweeps njev (one a step),
    and success: the loop stopped by its own test.
    """
    x = np.zeros(len(widths))
    control, states = path(x)
    miss = deviation = _l2(states[-1] - target)
    nit = 0
    stopped = miss <= floor
    while not stopped and nit < maxiter:
        s = sensitivity(control, states)
        scaled = s / widths
        gamma = np.linalg.pinv(scaled @ s.T, rcond=_STEP_CUTOFF, hermitian=True)
        aim = scaled.T @ (gamma @ (target - states[-1] + s @ x)) - x
        nit += 1
        stopped = True
        for j in range(_HALVINGS + 1):
            trial = x + aim / 2 ** j
            trial_control, trial_states = path(trial)
            trial_miss = _l2(trial_states[-1] - target)
            if trial_miss < miss:
                stopped = trial_miss <= floor or trial_miss > (1.0 - _STALL) * miss
                x, control, states, miss = trial, trial_control, trial_states, trial_miss
                break
    return SimpleNamespace(x=x, control=control, terminal=states[-1], deviation=deviation,
                           nit=nit, njev=nit, success=stopped)


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
                       T: float, opts: RateOptions | None = None,
                       eta: float = 0.0) -> RateReport:
    """Upper bound on the deviation cost under the nonlinear skeleton.

    The least-energy control, constant on opts.intervals equal intervals,
    whose noise-free path from u0 ends at target, by minimize from the zero
    control, with at most opts.maxiter steps and the rounding floor n_steps
    * machine eps * max(1, max |target|) of the miss.  A step is one solve
    that records every step and one sweep of the N unit cotangents
    (solver.control_gradient), S = du_N/dc exact for the scheme; iterations
    counts the steps.  upper_bound: the miss of target, absolute, is at most
    1e-2 of L2(target - u^0(T)), u^0 uncontrolled (0 if that is); converged:
    that, and the loop stopped by its own test, not by the cap.
    """
    opts = opts or RateOptions()
    times = np.linspace(0.0, T, opts.intervals + 1)
    config = SolverConfig(dt=opts.dt, t_end=T, eta=eta, flux_scheme=opts.flux_scheme)
    n_steps = plan_steps(config)[0]
    # every step recorded: the sweep runs along the whole path
    every_step = replace(config, snapshot_count=n_steps + 1)
    shape = (opts.intervals, model.noise.truncation)
    unit = np.eye(target.grid.size)

    def path(x):
        control = Control(times=times, coeffs=x.reshape(shape))
        return control, solve_controlled_spde(u0, model, control, every_step).values

    def sensitivity(control, states):
        grad = control_gradient(states, model, config, control, unit)
        return grad.transpose(1, 0, 2).reshape(len(unit), -1)

    floor = n_steps * np.finfo(float).eps * max(1.0, float(np.max(np.abs(target.values))))
    result = minimize(path, sensitivity, target.values,
                      np.repeat(np.diff(times), shape[1]), opts.maxiter, floor)
    residual = _l2(result.terminal - target.values)
    feasible = residual <= _MISS * result.deviation
    return RateReport(value=result.control.energy, optimal_control=result.control,
                      residual=residual, iterations=result.nit,
                      upper_bound=feasible, converged=result.success and feasible)


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
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
