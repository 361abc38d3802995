"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's own FFT/closed-form code
paths: direct DFT summation, dense operator matrices, adaptive quadrature and
least-squares solves, so that agreement with the package is a two-route check.
The per-step references at the end are the exception: they repeat the
solver's arithmetic one step at a time, in its operation order, so that the
solver's batched loops can be held to them bit for bit.
"""

import numpy as np
from scipy.integrate import quad

from fraclab.fields import GridSpec
from fraclab.models import noise_tables
from fraclab.solver import _StepContext


def direct_dft(values):
    """O(N^2) summation DFT with the (1/N) sum_j u_j e^{-2 pi i k x_j} convention."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    j = np.arange(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    phase = np.exp(-2j * np.pi * np.outer(k, j) / n)
    return phase @ values / n


def direct_idft(spectrum):
    spectrum = np.asarray(spectrum, dtype=complex)
    n = len(spectrum)
    j = np.arange(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    phase = np.exp(2j * np.pi * np.outer(j, k) / n)
    return phase @ spectrum


def dense_fractional_matrix(n, theta):
    """Dense matrix of the multiplier operator built from explicit DFT matrices."""
    j = np.arange(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    fwd = np.exp(-2j * np.pi * np.outer(k, j) / n) / n
    inv = np.exp(2j * np.pi * np.outer(j, k) / n)
    mult = (4.0 * np.pi**2 * k**2) ** theta
    return (inv * mult) @ fwd


def ou_variance_quadrature(noise_sq_sum, re_mu, t):
    """High-resolution quadrature of int_0^t e^{-2 re_mu (t-s)} * noise_sq_sum ds."""
    val, _ = quad(lambda s: np.exp(-2.0 * re_mu * (t - s)) * noise_sq_sum, 0.0, t,
                  epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def duhamel_mode_quadrature(mu, weights, control_times, control_coeffs, t, n_sub=20000):
    """Composite-midpoint quadrature of int_0^t e^{-mu (t-s)} sum_n w_n l_n(s) ds,
    integrating each control interval separately so breakpoints are exact."""
    weights = np.asarray(weights)
    total = 0.0 + 0.0j
    for i in range(len(control_coeffs)):
        a = float(control_times[i])
        b = min(float(control_times[i + 1]), t)
        if a >= t:
            break
        s = a + (np.arange(n_sub) + 0.5) * ((b - a) / n_sub)
        forcing = control_coeffs[i] @ weights
        total += np.sum(np.exp(-mu * (t - s))) * forcing * ((b - a) / n_sub)
    return total


def least_norm_mode_energy(mu, weights, T, m, target, constrain_imag=True):
    """Minimal REAL-control energy steering one or several complex modes at
    once to `target`.

    mu and target hold one entry per mode and weights one row per mode (a
    scalar and one row for a single mode); constrain_imag is one flag, or
    one per mode, and is False for the self-conjugate modes, whose value is
    real.  Discretizes the control onto m equal intervals, builds the exact
    Duhamel response of each (interval, channel) pair, stacks every mode's
    real constraint row and the imaginary rows asked for, and takes the real
    min-norm least-squares solution. Returns (energy, coefficients) with
    energy = (1/2) sum_i dt sum_n l_in^2.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    weights = np.atleast_2d(np.asarray(weights, dtype=complex))
    target = np.atleast_1d(np.asarray(target, dtype=complex))
    imag = np.broadcast_to(constrain_imag, mu.shape)
    dt = T / m
    edges = np.linspace(0.0, T, m + 1)
    rows, rhs = [], []
    for rate, weight, tau, both in zip(mu, weights, target, imag):
        if rate == 0:
            a = np.full(m, dt, dtype=complex)
        else:
            a = (np.exp(-rate * (T - edges[1:])) - np.exp(-rate * (T - edges[:-1]))) / rate
        # response of unit l_in is weight[n] * a[i]; scale columns by sqrt(dt)
        # so the euclidean min-norm solution minimizes sum_i dt sum_n l_in^2
        response = (a[:, None] * weight[None, :]).ravel() / np.sqrt(dt)
        rows.append(response.real)
        rhs.append(tau.real)
        if both:
            rows.append(response.imag)
            rhs.append(tau.imag)
    sol, *_ = np.linalg.lstsq(np.stack(rows), np.array(rhs), rcond=None)
    energy = 0.5 * float(sol @ sol)
    coeffs = sol.reshape(m, weights.shape[1]) / np.sqrt(dt)
    return energy, coeffs


def three_transform_step(values, model, config, pair, dbeta=None, coeffs=None):
    """One IMEX step with a complex FFT pair for each spectral term in turn:
    the spectral flux divergence, the fractional term and the implicit
    viscous and biharmonic solve.  pair(values, coeffs) is the noise pairing."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    dt = config.dt
    k = np.fft.fftfreq(n, d=1.0 / n)
    lap = 4.0 * np.pi**2 * k**2
    out = values.copy()
    flux = model.flux
    if flux.lipschitz_bound > 0.0:
        if config.flux_scheme == "rusanov":
            out -= dt * _rusanov_divergence(values, flux, 1.0 / n)
        else:
            spec = np.fft.fft(np.asarray(flux.eval(values), dtype=float)) * (2j * np.pi * k)
            spec[..., np.abs(k) > n / 3.0] = 0.0
            out -= dt * np.fft.ifft(spec).real
    if model.diffusion.lipschitz_bound > 0.0:
        spec = np.fft.fft(np.asarray(model.diffusion.eval(values), dtype=float))
        out -= dt * np.fft.ifft(lap ** model.diffusion.theta * spec).real
    if coeffs is not None:
        out += dt * pair(values, coeffs)
    if dbeta is not None:
        out += np.sqrt(config.eps) * pair(values, dbeta)
    if config.eta > 0.0 or config.gamma > 0.0:
        symbol = 1.0 + dt * config.eta * lap + dt * config.gamma * lap**2
        out = np.fft.ifft(np.fft.fft(out) / symbol).real
    return out


# ---------------------------------------------------------------------------
# per-step references of the controlled step and of its adjoint sweep.  The
# half-spectrum symbols come from the solver's step context; everything the
# solver evaluates once per control interval or once per block of steps is
# evaluated here at every step, in the step's own operation order, so the
# solver agrees with these bit for bit.


def _pair_rows(coeffs, table):
    """coeffs @ table, one vector-matrix product per row."""
    if coeffs.ndim == 1:
        return coeffs @ table
    return np.array([c @ table for c in coeffs])


def _rusanov_divergence(values, flux, dx):
    f = np.asarray(flux.eval(values), dtype=float)
    speed = np.abs(np.asarray(flux.deriv(values), dtype=float))
    f_r, speed_r, values_r = (np.roll(a, -1, axis=-1) for a in (f, speed, values))
    interface = 0.5 * (f + f_r) - 0.5 * np.maximum(speed, speed_r) * (values_r - values)
    return (interface - np.roll(interface, 1, axis=-1)) / dx


def _rusanov_divergence_transpose(values, flux, dx, cotangent):
    """The transposed derivative of _rusanov_divergence at one state: the
    speed max(|F'_j|, |F'_j+1|) is differentiated through the left node on
    a tie, and |F'| through sign +1 where F' = 0."""
    fp = np.asarray(flux.deriv(values), dtype=float)
    speed = np.abs(fp)
    dspeed = np.where(fp < 0.0, -1.0, 1.0) * np.asarray(flux.deriv2(values), dtype=float)
    fp_r, speed_r, dspeed_r = (np.roll(a, -1) for a in (fp, speed, dspeed))
    left_wins = speed >= speed_r
    jump = np.roll(values, -1) - values
    face = (cotangent - np.roll(cotangent, -1)) / dx
    big = np.maximum(speed, speed_r)
    here = face * 0.5 * (fp + big - np.where(left_wins, dspeed, 0.0) * jump)
    there = face * 0.5 * (fp_r - big - np.where(left_wins, 0.0, dspeed_r) * jump)
    return here + np.roll(there, 1)


def _midpoint_intervals(times, n_steps, dt):
    mid = np.arange(n_steps) * dt + 0.5 * dt
    return np.clip(np.searchsorted(times, mid, side="right") - 1, 0, len(times) - 2)


def per_step_controlled_path(u0, model, config, controls, rows=None):
    """u_0 .. u_N of solve's noise-free controlled rows, stacked: u0 is one
    row (N,) under controls[0], or a batch (M, N) with row m under
    controls[rows[m]].  Each step pairs its interval's coefficients with the
    noise tables afresh, row by row."""
    values = np.asarray(u0, dtype=float)
    grid = GridSpec(values.shape[-1])
    ctx = _StepContext(grid, model, config)
    a, b = noise_tables(model.noise, grid.nodes())
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    interval = _midpoint_intervals(controls[0].times, n_steps, dt)
    states = [values]
    for i in range(n_steps):
        if rows is None:
            coeffs = controls[0].coeffs[interval[i]]
        else:
            coeffs = np.stack([controls[r].coeffs[interval[i]] for r in rows])
        out = values.copy()
        if ctx.rusanov:
            out -= dt * _rusanov_divergence(values, model.flux, ctx.dx)
        out += dt * (_pair_rows(coeffs, a) + values * _pair_rows(coeffs, b))
        if ctx.terms or ctx.implicit is not None:
            spec = np.fft.rfft(out)
            for mult, nodal, _ in ctx.terms:
                spec -= mult * np.fft.rfft(nodal(values))
            if ctx.implicit is not None:
                spec /= ctx.implicit
            out = np.fft.irfft(spec, n=ctx.n)
        values = out
        states.append(values)
    return np.array(states)


def per_step_control_gradient(states, model, config, control, cotangent):
    """control_gradient by one transposed step at a time, last step first,
    each step's path factors and K sums evaluated on that step alone."""
    grid = GridSpec(states.shape[-1])
    ctx = _StepContext(grid, model, config)
    a, b = noise_tables(model.noise, grid.nodes())
    dt = config.dt
    n_steps = len(states) - 1
    interval = _midpoint_intervals(control.times, n_steps, dt)
    rows = np.empty((n_steps, model.noise.truncation))
    lam = cotangent
    for i in reversed(range(n_steps)):
        values = states[i]
        w, nodal = lam, ()
        if ctx.terms or ctx.implicit is not None:
            stack = np.fft.irfft(ctx._transposed_symbols * np.fft.rfft(lam), n=ctx.n)
            w, nodal = stack[0], stack[1:]
        out = w.copy()
        for (_, _, deriv), z in zip(ctx.terms, nodal):
            out -= np.asarray(deriv(values), dtype=float) * z
        if ctx.rusanov:
            out -= dt * _rusanov_divergence_transpose(values, model.flux, ctx.dx, w)
        out += dt * (control.coeffs[interval[i]] @ b) * w
        rows[i] = w @ a.T + (values * w) @ b.T
        lam = out
    edges = np.searchsorted(interval, np.arange(len(control.coeffs) + 1))
    return dt * np.array([rows[p:q].sum(axis=0) for p, q in zip(edges[:-1], edges[1:])])
