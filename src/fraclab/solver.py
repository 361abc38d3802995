"""IMEX time integration of the driven nonlocal conservation law

    du + div F(u) dt + (-Lap)^theta Phi(u) dt
       = eta Lap u dt - gamma Lap^2 u dt + drift dt + noise_scale h(u) dW.

Flux, fractional term, drift, and noise are explicit (Ito, left endpoint);
the viscous and biharmonic terms are inverted exactly in Fourier space, so
only the flux and fractional terms constrain the step size.  All randomness
flows from seeded Wiener streams; a run is a pure function of
(initial data, model, config, seed, stream).
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    FOUR_PI_SQ,
    GridSpec,
    SpectralField,
    fractional_multiplier,
    laplacian_multiplier,
)
from .models import ConfigurationError, ModelSpec, noise_pairing

__all__ = [
    "SolverConfig",
    "WienerPath",
    "Trajectory",
    "DivergenceError",
    "stable_dt",
    "solve",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    eta: float = 0.0
    gamma: float = 0.0
    eps: float = 0.0
    lambda_eps: float = 1.0
    flux_scheme: str = "rusanov"
    cfl_safety: float = 0.5
    snapshot_count: int = 64

    def __post_init__(self):
        for name in ("dt", "t_end", "eta", "gamma", "eps", "lambda_eps", "cfl_safety"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.t_end <= 0.0:
            raise ConfigurationError("t_end must be positive")
        if self.eta < 0.0 or self.gamma < 0.0 or self.eps < 0.0:
            raise ConfigurationError("eta, gamma, eps must be nonnegative")
        if self.lambda_eps <= 0.0:
            raise ConfigurationError("lambda_eps must be positive")
        if self.flux_scheme not in ("rusanov", "spectral"):
            raise ConfigurationError(f"unknown flux scheme {self.flux_scheme!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigurationError("cfl_safety must lie in (0, 1]")
        if self.snapshot_count < 2:
            raise ConfigurationError("need at least two snapshots")

    @property
    def noise_scale(self) -> float:
        return float(np.sqrt(self.eps) / self.lambda_eps)


class WienerPath:
    """Reproducible truncated cylindrical Wiener increments.

    Stream (master_seed, stream_index) is an indexed family of independent
    standard normal blocks of size K; the increment for step i is block i
    scaled by sqrt(dt).  Asking for an earlier step re-seeds and redraws, so
    identical (seed, stream, step) always yields identical increments.
    """

    def __init__(self, master_seed: int, stream_index: int, truncation: int):
        if truncation < 1:
            raise ValueError("truncation must be positive")
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        self.truncation = int(truncation)
        self._rng = self._fresh_rng()
        self._position = 0

    def _fresh_rng(self):
        return np.random.default_rng((self.master_seed, self.stream_index))

    def increments(self, step_index: int, dt: float) -> np.ndarray:
        if step_index < 0:
            raise ValueError("step_index must be nonnegative")
        if step_index < self._position:
            self._rng = self._fresh_rng()
            self._position = 0
        while self._position < step_index:
            self._rng.standard_normal(self.truncation)
            self._position += 1
        block = self._rng.standard_normal(self.truncation)
        self._position += 1
        return block * np.sqrt(dt)

    def digest(self, step_count: int, dt: float) -> str:
        """Hash of the first step_count increment blocks; used to assert that
        coupled legs consumed identical noise."""
        rng = self._fresh_rng()
        h = hashlib.blake2b(digest_size=16)
        root = np.sqrt(dt)
        for _ in range(step_count):
            h.update((rng.standard_normal(self.truncation) * root).tobytes())
        return h.hexdigest()


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    snapshots: tuple

    def __post_init__(self):
        if len(self.times) != len(self.snapshots):
            raise ValueError("times and snapshots must have equal length")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def terminal(self) -> SpectralField:
        return self.snapshots[-1]

    def values_matrix(self) -> np.ndarray:
        return np.stack([s.values for s in self.snapshots])


class DivergenceError(RuntimeError):
    def __init__(self, step_index: int, time: float):
        super().__init__(f"solution lost finiteness at step {step_index} (t = {time:g})")
        self.step_index = step_index
        self.time = time


def stable_dt(model: ModelSpec, grid: GridSpec, config: SolverConfig) -> float:
    """Largest admissible step under the explicit-term CFL conditions.

    The implicit viscous and biharmonic terms impose no constraint; zero
    Lipschitz bounds mean no constraint either, giving back t_end.
    """
    dx = grid.cell_width
    theta = model.diffusion.theta
    bounds = []
    if model.flux.lipschitz_bound > 0.0:
        bounds.append(dx / model.flux.lipschitz_bound)
    if model.diffusion.lipschitz_bound > 0.0:
        bounds.append(dx ** (2.0 * theta)
                      / (FOUR_PI_SQ ** theta * model.diffusion.lipschitz_bound))
    if not bounds:
        return config.t_end
    return config.cfl_safety * min(bounds)


def _rusanov_divergence(values, flux, dx):
    # conservative difference of local Lax-Friedrichs interface fluxes
    right = np.roll(values, -1)
    f_here = np.asarray(flux.eval(values), dtype=float)
    f_right = np.asarray(flux.eval(right), dtype=float)
    speed = np.maximum(np.abs(np.asarray(flux.deriv(values), dtype=float)),
                       np.abs(np.asarray(flux.deriv(right), dtype=float)))
    interface = 0.5 * (f_here + f_right) - 0.5 * speed * (right - values)
    return (interface - np.roll(interface, 1)) / dx


def _spectral_divergence(values, flux, deriv_mult, dealias):
    spec = np.fft.fft(np.asarray(flux.eval(values), dtype=float))
    spec *= deriv_mult
    spec[dealias] = 0.0
    return np.fft.ifft(spec).real


class _StepContext:
    """Per-run precomputation shared by every step."""

    def __init__(self, grid: GridSpec, model: ModelSpec, config: SolverConfig):
        self.model = model
        self.config = config
        self.dt = config.dt
        self.dx = grid.cell_width
        self.flux_on = model.flux.lipschitz_bound > 0.0
        self.frac_on = model.diffusion.lipschitz_bound > 0.0
        if self.frac_on:
            self.frac_mult = fractional_multiplier(grid, model.diffusion.theta)
        lap = laplacian_multiplier(grid)
        self.implicit_on = config.eta > 0.0 or config.gamma > 0.0
        if self.implicit_on:
            self.implicit_div = 1.0 + self.dt * config.eta * lap \
                + self.dt * config.gamma * lap * lap
        k = grid.wavenumbers()
        self.deriv_mult = 2j * np.pi * k
        self.dealias = np.abs(k) > grid.points_per_axis / 3.0
        self.noise_scale = config.noise_scale
        if config.eps > 0.0:
            self.pair = noise_pairing(model.noise, grid)

    def advance(self, values, dbeta=None, drift_values=None):
        out = values.copy()
        if self.flux_on:
            if self.config.flux_scheme == "rusanov":
                out -= self.dt * _rusanov_divergence(values, self.model.flux, self.dx)
            else:
                out -= self.dt * _spectral_divergence(values, self.model.flux,
                                                      self.deriv_mult, self.dealias)
        if self.frac_on:
            spec = np.fft.fft(np.asarray(self.model.diffusion.eval(values), dtype=float))
            out -= self.dt * np.fft.ifft(self.frac_mult * spec).real
        if drift_values is not None:
            out += self.dt * drift_values
        if dbeta is not None:
            out += self.noise_scale * self.pair(values, dbeta)
        if self.implicit_on:
            out = np.fft.ifft(np.fft.fft(out) / self.implicit_div).real
        return out


def _plan_steps(config: SolverConfig):
    n_steps = int(round(config.t_end / config.dt))
    if n_steps < 1 or abs(n_steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise ConfigurationError(
            f"dt = {config.dt:g} does not divide t_end = {config.t_end:g}"
        )
    stride = max(1, -(-n_steps // (config.snapshot_count - 1)))
    record = sorted(set(range(0, n_steps + 1, stride)) | {n_steps})
    return n_steps, record


def solve(u0: SpectralField, model: ModelSpec, config: SolverConfig,
          path: WienerPath | None = None, drift=None) -> Trajectory:
    """Iterate the IMEX step to t_end, recording snapshots at a fixed stride.

    Deterministic given (u0, model, config, path seed and stream).  drift,
    when present, is called as drift(values, t) and returns the nodal drift
    at the left endpoint.  Raises DivergenceError with the offending step if
    the state loses finiteness.
    """
    grid = u0.grid
    ctx = _StepContext(grid, model, config)
    limit = stable_dt(model, grid, config)
    if config.dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt = {config.dt:g} exceeds the stable step {limit:g}"
        )
    if config.eps > 0.0 and path is None:
        raise ConfigurationError("eps > 0 requires a Wiener path")

    n_steps, record = _plan_steps(config)
    values = u0.values.copy()
    times = [0.0]
    snapshots = [SpectralField(grid, values)]
    noise_on = config.eps > 0.0
    for i in range(n_steps):
        dbeta = path.increments(i, config.dt) if noise_on else None
        drift_values = None
        if drift is not None:
            drift_values = np.asarray(drift(values, i * config.dt), dtype=float)
        values = ctx.advance(values, dbeta, drift_values)
        if not np.all(np.isfinite(values)):
            raise DivergenceError(i, (i + 1) * config.dt)
        if (i + 1) in record:
            times.append((i + 1) * config.dt)
            snapshots.append(SpectralField(grid, values))
    return Trajectory(times=np.array(times), snapshots=tuple(snapshots))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Rows: time, node, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "node", "value"])
        for t, snap in zip(traj.times, traj.snapshots):
            for j, v in enumerate(snap.values):
                writer.writerow([repr(float(t)), j, repr(float(v))])
