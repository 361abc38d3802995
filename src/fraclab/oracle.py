"""Exact Fourier-mode solutions for the constant-coefficient equations.

Linearizing about the constant state 1 decouples the dynamics into scalar
complex modes with drift rate

    mu_k = 2 pi i F'(1) k + Phi'(1) (2 pi |k|)^(2 theta) + eta 4 pi^2 k^2,

driven additively by the frozen noise coefficients h_n(., 1).  Everything
here is closed form: the Ornstein-Uhlenbeck moments of the zero-start driven
modes and the Duhamel solution of the linear controlled skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    FOUR_PI_SQ,
    GridSpec,
    SpectralField,
    field_from_spectrum,
    fractional_multiplier,
)
from .models import ConfigurationError, ModelSpec
from .skeleton import Control

__all__ = [
    "ModeParams",
    "linearized_mode_arrays",
    "mode_params",
    "star_moments",
    "star_variance_profile",
    "duhamel_mdp_skeleton",
]


@dataclass(frozen=True, eq=False)
class ModeParams:
    """One complex Fourier mode of the linearized dynamics."""

    wavenumber: int
    drift_rate: complex
    noise_weights: np.ndarray

    def __post_init__(self):
        if self.drift_rate.real < -1e-12:
            raise ValueError("mode drift rate must have nonnegative real part")


def linearized_mode_arrays(model: ModelSpec, grid: GridSpec, eta: float = 0.0):
    """Drift rates (fft layout) and noise weight matrix of shape (modes, K).

    Column n holds the Fourier coefficients of h_n(., 1) in the same layout,
    so comparisons with the discrete solver carry no truncation mismatch.
    """
    fslope = float(model.flux.deriv(1.0))
    pslope = float(model.diffusion.deriv(1.0))
    k = grid.wavenumbers()
    mu = (2j * np.pi * fslope * k
          + pslope * fractional_multiplier(grid, model.diffusion.theta)
          + eta * FOUR_PI_SQ * k * k)
    x = grid.nodes()
    ones = np.ones_like(x)
    n = grid.size
    weights = np.stack(
        [np.fft.fft(np.asarray(h(x, ones), dtype=float)) / n
         for h in model.noise.coefficient_fns],
        axis=1,
    )
    return mu, weights


def mode_params(model: ModelSpec, grid: GridSpec, wavenumber: int,
                eta: float = 0.0) -> ModeParams:
    mu, weights = linearized_mode_arrays(model, grid, eta)
    k = grid.wavenumbers().astype(int)
    matches = np.nonzero(k == wavenumber)[0]
    if len(matches) == 0:
        raise ValueError(f"wavenumber {wavenumber} is not resolvable on this grid")
    idx = int(matches[0])
    return ModeParams(wavenumber=wavenumber, drift_rate=complex(mu[idx]),
                      noise_weights=weights[idx].copy())


def _ou_variance(total_sq: float, re_mu: float, t: float) -> float:
    if re_mu == 0.0:
        return total_sq * t
    return total_sq * float(-np.expm1(-2.0 * re_mu * t)) / (2.0 * re_mu)


def star_moments(mode: ModeParams, t: float):
    """Mean and variance of the zero-start driven complex mode at time t.

    The variance convention is for the full complex mode; the real and
    imaginary parts carry half each.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    total_sq = float(np.sum(np.abs(mode.noise_weights) ** 2))
    return 0.0 + 0.0j, _ou_variance(total_sq, mode.drift_rate.real, t)


def star_variance_profile(model: ModelSpec, grid: GridSpec, t: float,
                          eta: float = 0.0) -> np.ndarray:
    """Variance of every resolvable complex mode at time t (fft layout)."""
    mu, weights = linearized_mode_arrays(model, grid, eta)
    total_sq = np.sum(np.abs(weights) ** 2, axis=1)
    re = mu.real
    out = np.empty_like(total_sq)
    zero = re == 0.0
    out[zero] = total_sq[zero] * t
    nz = ~zero
    out[nz] = total_sq[nz] * (-np.expm1(-2.0 * re[nz] * t)) / (2.0 * re[nz])
    return out


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
    if control.horizon < t * (1.0 - 1e-12):
        raise ConfigurationError(
            f"control horizon {control.horizon:g} is shorter than t = {t:g}"
        )
    if control.truncation != model.noise.truncation:
        raise ConfigurationError(
            f"control has {control.truncation} modes, noise has {model.noise.truncation}"
        )
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
