"""IMEX time integration of the driven nonlocal conservation law

    du + div F(u) dt + (-Lap)^theta Phi(u) dt
       = eta Lap u dt - gamma Lap^2 u dt + h(u) l(t) dt + sqrt(eps) h(u) dW.

Flux, fractional term, control l, and noise are explicit (Ito, left
endpoint), and the control and the noise pair the coefficients h_k through
one routine; the viscous and biharmonic terms are inverted exactly in
Fourier space, so only the flux and fractional terms constrain the step
size.  A step is one real-FFT spectral solve: one rfft of the explicit
nodal update and the spectral terms' nodal functions together, the terms
applied on the half spectrum, one irfft.
All randomness flows from seeded Wiener streams; a run is a pure function
of (initial data, model, config, seed, stream).  The step acts on a batch
of rows, one sample each, and a single path is the batch of one: every row
of a batch is bit for bit the path its own stream gives alone, and an axis
of noise intensities runs several eps on the same streams.  The
transposed step, the same pieces in reverse order, gives control_gradient
the exact gradient of a noise-free path's end state in its control; it
sweeps the path backward a block of steps at a time, with each block's
path-only factors evaluated on all its states at once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy imports numpy.random on its first use; importing it here loads it
# before any worker pool forks, so pool workers do not each import it again
from numpy.random import default_rng

from .fields import FOUR_PI_SQ, GridSpec, SpectralField, laplacian_multiplier
from .models import ConfigurationError, ModelSpec, noise_pairing

__all__ = [
    "SolverConfig",
    "WienerPath",
    "WienerBatch",
    "Trajectory",
    "DivergenceError",
    "stable_dt",
    "plan_steps",
    "solve",
    "control_gradient",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    eta: float = 0.0
    gamma: float = 0.0
    eps: float = 0.0
    flux_scheme: str = "rusanov"
    cfl_safety: float = 0.5
    snapshot_count: int = 64

    def __post_init__(self):
        # each message leads with the field name: the CLI names solver.<field>
        for name in ("dt", "t_end", "eta", "gamma", "eps", "cfl_safety"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name}: must be finite")
        for name in ("dt", "t_end"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name}: must be positive")
        for name in ("eta", "gamma", "eps"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name}: must be nonnegative")
        if self.flux_scheme not in ("rusanov", "spectral"):
            raise ConfigurationError(f"flux_scheme: unknown flux scheme {self.flux_scheme!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigurationError("cfl_safety: must lie in (0, 1]")
        if self.snapshot_count < 2:
            raise ConfigurationError("snapshot_count: need at least two snapshots")


class WienerPath:
    """Reproducible truncated cylindrical Wiener increments.

    Stream (master_seed, stream_index) is an indexed family of independent
    standard normal blocks of size K; the increment for step i is block i
    scaled by sqrt(dt), so identical (seed, stream, step) always yields
    identical increments.
    """

    def __init__(self, master_seed: int, stream_index: int, truncation: int):
        if truncation < 1:
            raise ValueError("truncation must be positive")
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        self.truncation = int(truncation)

    def increments(self, step_index: int, dt: float) -> np.ndarray:
        if step_index < 0:
            raise ValueError("step_index must be nonnegative")
        rng = default_rng((self.master_seed, self.stream_index))
        return rng.standard_normal((step_index + 1, self.truncation))[-1] * np.sqrt(dt)

    def digest(self, step_count: int, dt: float) -> str:
        """Hash of the first step_count increment blocks, as a solve
        consuming this stream would log it."""
        batch = WienerBatch(self.master_seed, self.stream_index,
                            self.truncation, digest_rows=(0,))
        for _ in batch.steps(step_count, dt):
            pass
        return batch.digest(0)


class WienerBatch:
    """Wiener streams (master_seed, s), s in streams, one per batch row.

    Row m's increments are bit for bit those of WienerPath(master_seed,
    streams[m], truncation); each stream draws a block of steps at a time.
    A single stream index gives the increments of one path, shape (K,).
    The increments of the rows in digest_rows are hashed as they are handed
    to the solver, so digest(row) is evidence of the noise that row consumed.
    """

    def __init__(self, master_seed: int, streams, truncation: int,
                 digest_rows=()):
        if truncation < 1:
            raise ValueError("truncation must be positive")
        self.master_seed = int(master_seed)
        self.streams = np.array(streams, dtype=int)
        self.truncation = int(truncation)
        self._hashes = {int(r): hashlib.blake2b(digest_size=16) for r in digest_rows}

    def steps(self, n_steps: int, dt: float):
        """Increments of steps 0 .. n_steps - 1 in order, (M, K) or (K,)."""
        block = 32
        rngs = [default_rng((self.master_seed, s)) for s in self.streams.flat]
        root = np.sqrt(dt)
        buf = np.empty((len(rngs), min(block, n_steps), self.truncation))
        for start in range(0, n_steps, block):
            count = min(block, n_steps - start)
            for rng, rows in zip(rngs, buf):
                rng.standard_normal(out=rows[:count])
            for j in range(count):
                dbeta = buf[:, j] * root
                for row, h in self._hashes.items():
                    h.update(dbeta[row].tobytes())
                yield dbeta.reshape(self.streams.shape + (self.truncation,))

    def digest(self, row: int) -> str:
        return self._hashes[row].hexdigest()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The state at times[r] is values[r], row r of one read-only (R, N) array."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or len(self.times) != len(values):
            raise ValueError("values must hold one row per time")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def terminal(self) -> SpectralField:
        return SpectralField(GridSpec(self.values.shape[-1]), self.values[-1])

    def values_matrix(self) -> np.ndarray:
        return self.values


class DivergenceError(RuntimeError):
    def __init__(self, step_index: int, time: float, what: str = "solution",
                 slices=()):
        super().__init__(f"{what} lost finiteness at step {step_index} (t = {time:g})")
        self.step_index = step_index
        self.time = time
        self.what = what
        self.slices = slices

    def __reduce__(self):  # pickled back from a pool worker by its fields
        return type(self), (self.step_index, self.time, self.what, self.slices)


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


def _shift(a, s):
    """np.roll(a, s) along the last axis, by slices."""
    return np.concatenate((a[..., -s:], a[..., :-s]), axis=-1)


def _rusanov_divergence(values, flux, dx):
    # conservative difference of local Lax-Friedrichs interface fluxes; the
    # flux is pointwise, so its values at the right neighbours are a shift
    f_here = np.asarray(flux.eval(values), dtype=float)
    speed = np.abs(np.asarray(flux.deriv(values), dtype=float))
    interface = 0.5 * (f_here + _shift(f_here, -1)) \
        - 0.5 * np.maximum(speed, _shift(speed, -1)) * (_shift(values, -1) - values)
    return (interface - _shift(interface, 1)) / dx


def _rusanov_transpose_factors(values, flux):
    """The path-only factors of the transposed derivative of
    _rusanov_divergence at values, one row per state: twice the derivatives
    of interface j + 1/2 in nodes j and j + 1.

    The dissipation speed max(|F'(u_j)|, |F'(u_j+1)|) is differentiated
    through the left node on a tie, and |F'| through sign +1 where F' = 0.
    """
    fp = np.asarray(flux.deriv(values), dtype=float)
    speed = np.abs(fp)
    dspeed = np.where(fp < 0.0, -1.0, 1.0) * np.asarray(flux.deriv2(values), dtype=float)
    right = _shift(speed, -1)
    left_wins = speed >= right
    jump = _shift(values, -1) - values
    big = np.maximum(speed, right)
    here = fp + big - np.where(left_wins, dspeed, 0.0) * jump
    there = _shift(fp, -1) - big - np.where(left_wins, 0.0, _shift(dspeed, -1)) * jump
    return here, there


class _StepContext:
    """Per-run half-spectrum multipliers shared by every step.

    The step is linear in its spectral terms: one rfft transforms the
    explicit nodal update and the nodal functions of the fractional and
    spectral flux terms, stacked in one buffer; the terms are subtracted and
    the implicit symbol divided out before one irfft, or no transform when
    no spectral term is on.  Transforms along the last axis keep each row's
    step independent of its batch.  transpose applies the same pieces in
    reverse order, along a block of states.
    """

    def __init__(self, grid: GridSpec, model: ModelSpec, config: SolverConfig,
                 eps=None):
        self.model = model
        self.dt = dt = config.dt
        self.dx = grid.cell_width
        self.n = n = grid.points_per_axis
        k = np.arange(n // 2 + 1)
        lap = laplacian_multiplier(grid)[: len(k)]
        flux_on = model.flux.lipschitz_bound > 0.0
        self.rusanov = flux_on and config.flux_scheme == "rusanov"
        # the explicit spectral terms: (dt times the symbol, the nodal
        # function, its derivative)
        terms = []
        if model.diffusion.lipschitz_bound > 0.0:
            terms.append((dt * lap ** model.diffusion.theta, model.diffusion.eval,
                          model.diffusion.deriv))
        if flux_on and not self.rusanov:
            # the modes |k| > N/3 are dealiased
            terms.append((np.where(k > n / 3.0, 0.0, dt * 2j * np.pi * k),
                          model.flux.eval, model.flux.deriv))
        self.terms = tuple(terms)
        self.implicit = None
        if config.eta > 0.0 or config.gamma > 0.0:
            self.implicit = 1.0 + dt * config.eta * lap + dt * config.gamma * lap * lap
        # one noise scale per leading slice of the rows, or one for all
        self.noise_scale = np.sqrt(config.eps if eps is None else eps)
        self.pair = noise_pairing(model.noise, grid)
        self._buffer = self._spectrum = None

    def advance(self, values, dbeta=None, control=None):
        """One step from values.  control, when given, arrives paired:
        pair.split of the coefficients of the step's control, which the
        caller splits once per control interval."""
        # the explicit update and each spectral term's nodal function share
        # one buffer, so one rfft transforms them all (into a kept spectrum:
        # numpy's FFTs take out= from 2.0 on, the floor in pyproject.toml)
        if self._buffer is None or self._buffer.shape[1:] != values.shape:
            self._buffer = np.empty((1 + len(self.terms),) + values.shape)
            self._spectrum = np.empty(self._buffer.shape[:-1] + (self.n // 2 + 1,),
                                      dtype=complex)
        buf = self._buffer
        out = buf[0]
        out[...] = values
        if self.rusanov:
            out -= self.dt * _rusanov_divergence(values, self.model.flux, self.dx)
        if control is not None:
            out += self.dt * self.pair.at(values, control)
        if dbeta is not None:
            out += self.noise_scale * self.pair(values, dbeta)
        if not self.terms and self.implicit is None:
            return out.copy()
        for j, (_, nodal, _) in enumerate(self.terms, 1):
            buf[j] = nodal(values)
        spec = np.fft.rfft(buf, out=self._spectrum)
        head = spec[0]
        for (mult, _, _), z in zip(self.terms, spec[1:]):
            head -= mult * z
        if self.implicit is not None:
            head /= self.implicit
        return np.fft.irfft(head, n=self.n)

    @cached_property
    def _transposed_symbols(self):
        """Rows 1/I and conj(m_i)/I of the implicit symbol I and the
        spectral terms' symbols m_i: the transposes of the linear maps from
        the explicit update and from each nodal term to the next state."""
        inverse = 1.0 if self.implicit is None else 1.0 / self.implicit
        rows = [np.broadcast_to(inverse, self.n // 2 + 1)]
        rows += [np.conj(mult) * inverse for mult, _, _ in self.terms]
        return np.stack(rows)

    def transpose(self, states, cotangent, slopes):
        """The transposed noise-free steps about the rows of states, last
        row first, applied to each row of an (R, N) block of cotangents;
        slopes[s] is dt times pair.slope of step s's coefficients.

        Returns (J_0^T ... J_S-1^T cotangent, w), J_s the derivative of
        advance(states[s], None, control) in the state: w[s], (R, N), the
        cotangent after step s through L0^T (L0 the implicit solve), is the
        cotangent of step s's explicit update, which the control
        coefficients pair with.  The path-only factors take one call on all
        the states, and broadcast over the cotangent rows; the transforms
        run along the last axis, so each row is the bits of its own sweep.
        """
        derivs = [np.asarray(deriv(states), dtype=float) for _, _, deriv in self.terms]
        if self.rusanov:
            here, there = _rusanov_transpose_factors(states, self.model.flux)
        spectral = bool(self.terms) or self.implicit is not None
        if spectral:
            # the transforms write into buffers of this call; w and nodal
            # are views of the last, which the next step overwrites
            symbols = self._transposed_symbols[:, None]
            spec = np.empty(cotangent.shape[:-1] + symbols.shape[-1:], dtype=complex)
            product = np.empty(symbols.shape[:1] + spec.shape, dtype=complex)
            stack = np.empty(symbols.shape[:1] + cotangent.shape)
        ws = np.empty((len(states),) + cotangent.shape)
        lam = cotangent
        for s in reversed(range(len(states))):
            w, nodal = lam, ()
            if spectral:
                np.multiply(symbols, np.fft.rfft(lam, out=spec), out=product)
                np.fft.irfft(product, n=self.n, out=stack)
                w, nodal = stack[0], stack[1:]
            # out of place, so lam shares no memory with the buffer of w or
            # with the caller's cotangent
            lam = w
            for deriv, z in zip(derivs, nodal):
                lam = lam - deriv[s] * z
            if self.rusanov:
                # half the cotangent of interface j + 1/2, which depends on
                # nodes j and j + 1
                half = (w - _shift(w, -1)) / self.dx * 0.5
                lam = lam - self.dt * (half * here[s] + _shift(half * there[s], 1))
            lam = lam + slopes[s] * w
            ws[s] = w
        return lam, ws


def plan_steps(config: SolverConfig):
    """Step count and the record plan: an ordered map from each recorded
    step (a fixed stride, and the last step) to its row of the path."""
    n_steps = int(round(config.t_end / config.dt))
    if n_steps < 1 or abs(n_steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise ConfigurationError(
            f"dt = {config.dt:g} does not divide t_end = {config.t_end:g}"
        )
    stride = max(1, -(-n_steps // (config.snapshot_count - 1)))
    steps = sorted(set(range(0, n_steps + 1, stride)) | {n_steps})
    return n_steps, {step: r for r, step in enumerate(steps)}


def _interval_index(times, t):
    """Index of the interval [times[j], times[j + 1]) holding each t,
    clamped to the first and last."""
    return np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)


def solve(u0, model: ModelSpec, config: SolverConfig, path=None, control=None,
          rows=None, observe=None, eps=None):
    """Iterate the IMEX step to t_end.

    u0 is an (..., M, N) array of rows, or one path, the batch of one, as
    a SpectralField or an (N,) array.  path, a WienerBatch, drives row m by
    stream m (leading axes share their row's increments); one path takes a
    scalar stream index.  eps, when given, replaces config.eps by one noise
    intensity per slice along u0's first axis: slice e is bit for bit the
    run of replace(config, eps=eps[e]), and one path takes one eps.
    observe(step, values, dbeta) sees the rows after every step: step 0 is
    u0 with dbeta None.  For a SpectralField, or an (N,) array given no
    observe, the Trajectory of the rows that plan_steps's record plan names
    is returned; a SpectralField given an observe, or a batch given none, is
    a config error naming observe.  control, when present, is one Control
    for every row, or with rows a sequence of Controls on the same
    breakpoints, rows[m] the index of batch row m's control.  Each step pairs h(u) with the coefficients
    of the interval holding its midpoint, so breakpoints at multiples of dt
    never flip an interval by roundoff; the coefficients are paired with
    the noise tables once per interval.  A non-finite u0 is a config error
    naming u0; DivergenceError names the first step at which any row loses
    finiteness, and the leading indices of the rows that lost it.
    """
    field = isinstance(u0, SpectralField)
    values = np.array(u0.values if field else u0, dtype=float, order="C")
    single = observe is None
    grid = GridSpec(values.shape[-1])
    eps = np.reshape(np.asarray(config.eps if eps is None else eps, dtype=float),
                     (-1,) + (1,) * (values.ndim - 1))
    if not np.all(np.isfinite(eps) & (eps >= 0.0)):
        raise ConfigurationError("eps: must be finite and nonnegative")
    if values.ndim == 1 and eps.size > 1:
        raise ConfigurationError(
            f"eps: one path takes one noise intensity, got {eps.size}")
    if eps.size not in (1, len(values)):
        raise ConfigurationError(
            f"eps: {eps.size} noise intensities for {len(values)} slices "
            "along u0's first axis")
    if field and observe is not None:
        raise ConfigurationError("observe: a SpectralField's path is returned, not observed")
    if observe is None and values.ndim > 1:
        raise ConfigurationError("observe: a batch of rows needs an observer")
    ctx = _StepContext(grid, model, config, eps)
    limit = stable_dt(model, grid, config)
    if config.dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt = {config.dt:g} exceeds the stable step {limit:g}"
        )
    if eps.max() > 0.0 and path is None:
        raise ConfigurationError("eps > 0 requires a Wiener path")

    n_steps, record = plan_steps(config)
    dt = config.dt
    noise = path.steps(n_steps, dt) if eps.max() > 0.0 else None
    if control is not None:
        controls = (control,) if rows is None else tuple(control)
        for c in controls:
            c.check_fits(config.t_end, model.noise.truncation)
        if any(not np.array_equal(c.times, controls[0].times) for c in controls):
            raise ConfigurationError("the controls of one batch must share breakpoints")
        stack = np.stack([c.coeffs for c in controls])
        interval = _interval_index(controls[0].times,
                                   np.arange(n_steps) * dt + 0.5 * dt).tolist()
        lead = 0 if rows is None else rows
    if single:
        recorded = np.empty((len(record), grid.size))

        def observe(step, state, dbeta):
            if step in record:
                recorded[record[step]] = state

    if not np.all(np.isfinite(values)):
        raise ConfigurationError("u0: must be finite")
    observe(0, values, None)
    # the control of the current interval, paired with the noise tables
    current = paired = None
    for i in range(n_steps):
        dbeta = None if noise is None else next(noise)
        if control is not None and interval[i] != current:
            current = interval[i]
            paired = ctx.pair.split(stack[lead, current])
        values = ctx.advance(values, dbeta, paired)
        if not np.isfinite(values).all():
            lost = np.argwhere(~np.all(np.isfinite(values), axis=-1)).tolist()
            raise DivergenceError(i, (i + 1) * dt, slices=[tuple(j) for j in lost])
        observe(i + 1, values, dbeta)
    if single:
        return Trajectory(times=np.array(list(record)) * dt, values=recorded)


# steps per block of the backward sweep: the path-only factors of a block's
# transposed steps and its K-sums take one call each
_SWEEP_BLOCK = 32


def control_gradient(states, model: ModelSpec, config: SolverConfig, control,
                     cotangent):
    """Gradient of <cotangent, u_N> in control.coeffs, shape (m, K), by one
    backward sweep of the transposed step; an (R, N) block of cotangents
    gives one gradient per row, shape (m, R, K), in the same sweep.

    states holds u_0 .. u_N of the noise-free row that solve gives with
    this control.  Step n adds dt (A w_n + B (u_n w_n)) to the gradient of
    the interval holding its midpoint.  The sweep runs backward in blocks
    of 32 steps: a block's path-only factors take one call on its states,
    and its K-sums one row-stacked product over its steps and cotangent
    rows.  Every row of a block is the bits of its cotangent swept alone.
    Raises DivergenceError naming the adjoint cotangent and the last step
    at which it is not finite, and for a block the rows not finite there.
    """
    ctx = _StepContext(GridSpec(states.shape[-1]), model, config)
    n_steps = len(states) - 1
    dt = config.dt
    interval = _interval_index(control.times, np.arange(n_steps) * dt + 0.5 * dt).tolist()
    lam = np.atleast_2d(cotangent)
    # one (R, K) block per step; no (steps, R, N) array
    rows = np.empty((n_steps, len(lam), control.truncation))
    current = slope = None
    for stop in range(n_steps, 0, -_SWEEP_BLOCK):
        start = max(stop - _SWEEP_BLOCK, 0)
        slopes = []
        for j in interval[start:stop][::-1]:
            if j != current:
                current, slope = j, dt * ctx.pair.slope(control.coeffs[j])
            slopes.append(slope)
        block = states[start:stop]
        lam, w = ctx.transpose(block, lam, slopes[::-1])
        rows[start:stop] = ctx.pair.transpose(block[:, None], w)
    lost = ~np.all(np.isfinite(rows), axis=-1)
    if lost.any():
        step = int(np.flatnonzero(lost.any(axis=1))[-1])
        slices = () if cotangent.ndim == 1 else [(int(r),) for r in np.flatnonzero(lost[step])]
        raise DivergenceError(step, (step + 1) * dt, "the adjoint cotangent", slices)
    if cotangent.ndim == 1:
        rows = rows[:, 0]
    # the steps of one interval are contiguous
    edges = np.searchsorted(interval, np.arange(len(control.coeffs) + 1))
    return dt * np.array([rows[a:b].sum(axis=0) for a, b in zip(edges[:-1], edges[1:])])


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Rows: time, node, value.

    The bytes are those of csv.writer with its default dialect: no field
    (a float repr or an integer) needs quoting, and every line ends in CRLF.
    """
    with open(path, "w", newline="") as fh:
        fh.write("time,node,value\r\n")
        # a row at a time: the lines of the whole path at once raise peak memory
        for t, row in zip(traj.times, traj.values):
            stamp = repr(float(t))
            fh.write("".join([f"{stamp},{j},{v!r}\r\n"
                              for j, v in enumerate(row.tolist())]))
