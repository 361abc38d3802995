"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's own FFT/closed-form code
paths: direct DFT summation, dense operator matrices, adaptive quadrature and
least-squares solves, so that agreement with the package is a two-route check.
"""

import numpy as np
from scipy.integrate import quad


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
        f = np.asarray(flux.eval(values), dtype=float)
        if config.flux_scheme == "rusanov":
            speed = np.abs(np.asarray(flux.deriv(values), dtype=float))
            f_r, speed_r, values_r = (np.roll(a, -1, axis=-1) for a in (f, speed, values))
            interface = 0.5 * (f + f_r) - 0.5 * np.maximum(speed, speed_r) * (values_r - values)
            out -= dt * n * (interface - np.roll(interface, 1, axis=-1))
        else:
            spec = np.fft.fft(f) * (2j * np.pi * k)
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
