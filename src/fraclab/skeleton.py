"""Deterministic controlled equations.

The skeleton equation replaces the noise with a control pairing
h(u) l(t) dt; the moderate-deviation skeleton is its linearization about the
constant state 1 started from zero; the mixed equation keeps both the control
and the noise.  All three hand the control to the IMEX integrator, which
pairs it with the noise coefficients like the increments, so discretization
conventions stay identical across the ladder.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .fields import GridSpec, SpectralField, constant_field
from .models import ConfigurationError, ModelSpec, linearize_model
from .solver import SolverConfig, Trajectory, solve

__all__ = [
    "Control",
    "random_control",
    "control_from_csv",
    "control_to_csv",
    "solve_skeleton",
    "solve_mdp_skeleton",
    "solve_controlled_spde",
]


@dataclass(frozen=True, eq=False)
class Control:
    """Piecewise constant control: coeffs row i acts on [times[i], times[i+1])."""

    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if times.ndim != 1 or len(times) < 2:
            raise ConfigurationError("need at least one control interval")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ConfigurationError("breakpoints must increase strictly from 0")
        if coeffs.shape[0] != len(times) - 1:
            raise ConfigurationError(
                f"{coeffs.shape[0]} coefficient rows for {len(times) - 1} intervals"
            )
        for name, array in (("breakpoints", times), ("coefficients", coeffs)):
            if not np.all(np.isfinite(array)):
                raise ConfigurationError(f"{name} must be finite")
        times.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def truncation(self) -> int:
        return int(self.coeffs.shape[1])

    @property
    def energy(self) -> float:
        """Half the time integral of the squared coefficient norm."""
        widths = np.diff(self.times)
        return 0.5 * float(widths @ np.sum(self.coeffs ** 2, axis=1))

    def within_level_set(self, bound: float) -> bool:
        return 2.0 * self.energy <= bound * (1.0 + 1e-12)

    def check_fits(self, t_end: float, truncation: int) -> None:
        """Raise ConfigurationError unless the control spans [0, t_end] with
        one coefficient per noise mode."""
        if self.horizon < t_end * (1.0 - 1e-12):
            raise ConfigurationError(
                f"control horizon {self.horizon:g} ends before t = {t_end:g}")
        if self.truncation != truncation:
            raise ConfigurationError(
                f"control has {self.truncation} modes, noise has {truncation}")


def random_control(seed: int, truncation: int, t_end: float,
                   intervals: int = 8, amplitude: float = 1.0) -> Control:
    """Deterministic random control: uniform breakpoints, Gaussian rows with
    mode decay 1/k."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, t_end, intervals + 1)
    decay = 1.0 / np.arange(1, truncation + 1, dtype=float)
    coeffs = amplitude * rng.standard_normal((intervals, truncation)) * decay
    return Control(times=times, coeffs=coeffs)


def control_to_csv(control: Control, path) -> None:
    """Rows: t_start, t_end, then one column per coefficient."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t_start", "t_end"] + [f"l_{k + 1}" for k in range(control.truncation)]
        writer.writerow(header)
        for i, row in enumerate(control.coeffs):
            writer.writerow([repr(float(control.times[i])), repr(float(control.times[i + 1]))]
                            + [repr(float(v)) for v in row])


def control_from_csv(path) -> Control:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ConfigurationError(f"no control rows in {path}")
    starts, ends, coeffs = [], [], []
    for i, row in enumerate(rows[1:], start=1):
        values = [float(v) for v in row]
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(f"non-finite value in control row {i}")
        starts.append(values[0])
        ends.append(values[1])
        coeffs.append(values[2:])
    for i in range(1, len(starts)):
        if abs(starts[i] - ends[i - 1]) > 1e-12:
            raise ConfigurationError(f"control intervals not contiguous at row {i + 1}")
    return Control(times=np.array(starts + [ends[-1]]), coeffs=np.array(coeffs))


def solve_skeleton(u0: SpectralField, model: ModelSpec, control: Control,
                   config: SolverConfig) -> Trajectory:
    """Controlled deterministic equation: noise channel replaced by h(u) l(t) dt."""
    if config.eps != 0.0:
        raise ConfigurationError("the skeleton equation is noise-free; use eps = 0")
    return solve(u0, model, config, control=control)


def solve_mdp_skeleton(control: Control, model: ModelSpec, config: SolverConfig,
                       grid: GridSpec) -> Trajectory:
    """Linear skeleton about the constant state 1, started from zero.

    Coefficients freeze at the base state: flux slope F'(1), diffusion slope
    Phi'(1), additive forcing h(x, 1) l(t).  The solution is linear in the
    control.
    """
    linear = linearize_model(model, state=1.0)
    return solve_skeleton(constant_field(grid, 0.0), linear, control, config)


def solve_controlled_spde(u0, model: ModelSpec, control, config: SolverConfig,
                          path=None, observe=None):
    """Control plus driving noise; reduces to the skeleton when eps = 0 and
    to the plain driven equation when the control vanishes.

    u0 may be a batch (see solve) that every row drives with the one
    control; observe is passed on to solve.
    """
    return solve(u0, model, config, path=path, control=control, observe=observe)
