"""Deterministic controlled equations.

The skeleton equation replaces the noise with a control pairing
h(u) l(t) dt; the moderate-deviation skeleton is its linearization about the
constant state 1 started from zero; the mixed equation keeps both the control
drift and the noise.  All three delegate to the IMEX integrator with a drift
provider, so discretization conventions stay identical across the ladder.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .fields import GridSpec, SpectralField, constant_field
from .models import ConfigurationError, ModelSpec, linearize_model, noise_pairing
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

    def interval(self, t: float) -> int:
        """Index of the interval containing t, clamped to the first and last."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(idx, 0), self.coeffs.shape[0] - 1)

    def at(self, t: float) -> np.ndarray:
        return self.coeffs[self.interval(t)]


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
    for row in rows[1:]:
        starts.append(float(row[0]))
        ends.append(float(row[1]))
        coeffs.append([float(v) for v in row[2:]])
    for i in range(1, len(starts)):
        if abs(starts[i] - ends[i - 1]) > 1e-12:
            raise ConfigurationError(f"control intervals not contiguous at row {i + 1}")
    return Control(times=np.array(starts + [ends[-1]]), coeffs=np.array(coeffs))


def _control_drift(model: ModelSpec, grid: GridSpec, controls,
                   config: SolverConfig, rows=None):
    """Drift provider evaluating h(u(x)) l(t) nodewise.

    controls is one Control for every row, or a sequence of Controls with
    rows[m] the index of the control that drives batch row m; each must
    span t_end.  Each solver step is attributed to the control interval
    containing its midpoint, so breakpoints that are exact multiples of dt
    never flip an interval boundary through time-accumulation roundoff.
    """
    if isinstance(controls, Control):
        controls = (controls,)
    for control in controls:
        if control.horizon < config.t_end * (1.0 - 1e-12):
            raise ConfigurationError(
                f"control horizon {control.horizon:g} is shorter than t_end {config.t_end:g}"
            )
        if control.truncation != model.noise.truncation:
            raise ConfigurationError(
                f"control has {control.truncation} modes, noise has {model.noise.truncation}"
            )
    shift = 0.5 * config.dt
    pair = noise_pairing(model.noise, grid)
    # controls with the same breakpoints share every step's interval
    groups = {}
    for c, control in enumerate(controls):
        groups.setdefault(control.times.tobytes(), []).append(c)
    lookup = [(controls[members[0]], members,
               np.stack([controls[c].coeffs for c in members]))
              for members in groups.values()]

    def drift(values, t):
        table = np.empty((len(controls), model.noise.truncation))
        for lead, members, coeffs in lookup:
            table[members] = coeffs[:, lead.interval(t + shift)]
        return pair(values, table[0] if rows is None else table[rows])

    return drift


def solve_skeleton(u0: SpectralField, model: ModelSpec, control: Control,
                   config: SolverConfig) -> Trajectory:
    """Controlled deterministic equation: noise channel replaced by h(u) l(t) dt."""
    if config.eps != 0.0:
        raise ConfigurationError("the skeleton equation is noise-free; use eps = 0")
    drift = _control_drift(model, u0.grid, control, config)
    return solve(u0, model, config, drift=drift)


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
                          path=None, rows=None, observe=None):
    """Control drift plus driving noise; reduces to the skeleton when eps = 0
    and to the plain driven equation when the control vanishes.

    For a batch (see solve), control may be a sequence with rows[m] the
    control of row m; observe is passed on to solve.
    """
    grid = u0.grid if isinstance(u0, SpectralField) else GridSpec(np.shape(u0)[-1])
    drift = _control_drift(model, grid, control, config, rows)
    return solve(u0, model, config, path=path, drift=drift, observe=observe)
