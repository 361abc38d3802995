"""Exact Fourier-mode solutions for the constant-coefficient equations.

Linearizing about the constant state 1 decouples the dynamics into scalar
complex modes with drift rate

    mu_k = 2 pi i F'(1) k + Phi'(1) (2 pi |k|)^(2 theta) + eta 4 pi^2 k^2,

driven additively by the frozen noise coefficients h_n(., 1).  Everything
here is closed form: the Ornstein-Uhlenbeck variance of the zero-start
driven modes and the Duhamel solution of the linear controlled skeleton.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    FOUR_PI_SQ,
    GridSpec,
    SpectralField,
    field_from_spectrum,
    fractional_multiplier,
)
from .models import ModelSpec, noise_tables
from .skeleton import Control

__all__ = [
    "linearized_mode_arrays",
    "ou_variance",
    "duhamel_mdp_skeleton",
]


def linearized_mode_arrays(model: ModelSpec, grid: GridSpec, eta: float = 0.0):
    """Drift rates (fft layout) and noise weight matrix of shape (modes, K).

    Column n holds the Fourier coefficients of h_n(., 1) = A_n + B_n in the
    same layout, so comparisons with the discrete solver carry no truncation
    mismatch.
    """
    fslope = float(model.flux.deriv(1.0))
    pslope = float(model.diffusion.deriv(1.0))
    k = grid.wavenumbers()
    mu = (2j * np.pi * fslope * k
          + pslope * fractional_multiplier(grid, model.diffusion.theta)
          + eta * FOUR_PI_SQ * k * k)
    a, b = noise_tables(model.noise, grid.nodes())
    n = grid.size
    weights = np.stack([np.fft.fft(row) / n for row in a + b], axis=1)
    return mu, weights


def ou_variance(total_sq, re_mu, t: float):
    """Variance at time t of a zero-start driven complex mode, which is also
    its reachability Gramian: total_sq (1 - e^{-2 re_mu t}) / (2 re_mu), or
    total_sq t where re_mu is zero; elementwise over arrays.  total_sq is the
    squared norm of the mode's noise weights; the real and imaginary parts
    carry half the variance each."""
    undamped = np.asarray(re_mu) == 0.0
    rate = np.where(undamped, 1.0, re_mu)
    return np.where(undamped, total_sq * t,
                    total_sq * -np.expm1(-2.0 * rate * t) / (2.0 * rate))


def _interval_kernel(mu: np.ndarray, t: float, a: float, b: float) -> np.ndarray:
    """Closed form of the Duhamel interval integral of e^{-mu (t - s)} ds."""
    out = np.empty_like(mu)
    zero = mu == 0.0
    out[zero] = b - a
    nz = ~zero
    out[nz] = (np.exp(-mu[nz] * (t - b)) - np.exp(-mu[nz] * (t - a))) / mu[nz]
    return out


def duhamel_mdp_skeleton(control: Control, model: ModelSpec, t: float,
                         grid: GridSpec, eta: float = 0.0) -> SpectralField:
    """Exact linear-skeleton solution at time t by per-mode Duhamel integrals."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    control.check_fits(t, model.noise.truncation)
    mu, weights = linearized_mode_arrays(model, grid, eta)
    spectrum = np.zeros_like(mu)
    for i in range(control.coeffs.shape[0]):
        a = float(control.times[i])
        b = min(float(control.times[i + 1]), t)
        if a >= t:
            break
        forcing = weights @ control.coeffs[i]
        spectrum += _interval_kernel(mu, t, a, b) * forcing
    return field_from_spectrum(grid, spectrum)
