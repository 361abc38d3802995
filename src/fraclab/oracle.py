"""Exact Fourier-mode solutions for the constant-coefficient equations.

Linearizing about a constant state c decouples the dynamics into scalar
complex modes with drift rate

    mu_k = 2 pi i F'(c) k + Phi'(c) (2 pi |k|)^(2 theta) + eta 4 pi^2 k^2
           + gamma (4 pi^2 k^2)^2,

or Rusanov's advection symbol in place of 2 pi i F'(c) k, driven additively
by the frozen noise coefficients h_n(., c).  One closed form, the Duhamel
kernel, gives the Ornstein-Uhlenbeck variance of the zero-start driven
modes, the linear controlled skeleton and the exact rate.  A run is
linearized once, by linearize_run, about its constant initial state.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    FOUR_PI_SQ,
    GridSpec,
    SpectralField,
    dft,
    field_from_spectrum,
    fractional_multiplier,
)
from .models import ConfigurationError, ModelSpec, linearize_model, noise_tables
from .skeleton import Control

__all__ = [
    "linearize_run",
    "linearized_mode_arrays",
    "ou_variance",
    "duhamel_mdp_skeleton",
]

# a mode is driven when its squared noise weight exceeds this fraction of the
# largest, and the exact rate's pseudo-inverse drops Gramian eigenvalues below it
_GRAMIAN_FLOOR = 1e-14


def linearized_mode_arrays(model: ModelSpec, grid: GridSpec, eta: float = 0.0,
                           flux_scheme: str = "spectral", gamma: float = 0.0):
    """Drift rates (fft layout) and noise weight matrix of shape (modes, K)
    about the state 1, or c for linearize_model(model, c).

    Rusanov's symbol i a N sin(2 pi k/N) + |a| N (1 - cos(2 pi k/N)), a = F'(1),
    replaces 2 pi i a k.  Column n holds the Fourier coefficients of
    h_n(., 1) = A_n + B_n in the same layout, so comparisons with the solver
    carry no truncation mismatch.  The row of a mode the noise does not
    drive, whose squared norm is at most _GRAMIAN_FLOOR times the largest
    and holds only transform rounding, is exactly zero.
    """
    fslope = float(model.flux.deriv(1.0))
    pslope = float(model.diffusion.deriv(1.0))
    k = grid.wavenumbers()
    mu = (pslope * fractional_multiplier(grid, model.diffusion.theta)
          + eta * FOUR_PI_SQ * k * k + gamma * (FOUR_PI_SQ * k * k) ** 2)
    if flux_scheme == "rusanov":
        phase = 2.0 * np.pi * k / grid.size
        mu = mu + grid.size * (abs(fslope) * (1.0 - np.cos(phase))
                               + 1j * fslope * np.sin(phase))
    else:
        mu = 2j * np.pi * fslope * k + mu
    a, b = noise_tables(model.noise, grid.nodes())
    weights = dft(a + b).T.copy()
    weight_sq = np.sum(np.abs(weights) ** 2, axis=1)
    weights[weight_sq <= _GRAMIAN_FLOOR * np.max(weight_sq)] = 0.0
    return mu, weights


def ou_variance(total_sq, re_mu, t: float):
    """Variance at time t of a zero-start driven complex mode, which is also
    its reachability Gramian: total_sq times the Duhamel kernel at rate
    2 re_mu on [0, t]; elementwise over arrays.  total_sq is the squared norm
    of the mode's noise weights; the real and imaginary parts carry half the
    variance each."""
    return total_sq * _interval_kernel(2.0 * re_mu, t, 0.0, t)


def linearize_run(model: ModelSpec, u0: SpectralField, config):
    """A run linearized about u0's constant state c: (c, the model frozen at
    c, its modes' drift rates and noise weights under the SolverConfig's
    eta, flux_scheme and gamma, and their zero-start variances at its
    t_end).  A nonconstant u0 is a config error naming initial.kind."""
    state = float(np.mean(u0.values))
    if float(np.max(np.abs(u0.values - state))) > 1e-13 * max(1.0, abs(state)):
        raise ConfigurationError(
            "initial.kind: linearizing needs a constant initial state")
    frozen = linearize_model(model, state)
    mu, weights = linearized_mode_arrays(frozen, u0.grid, config.eta,
                                         config.flux_scheme, config.gamma)
    variance = ou_variance(np.sum(np.abs(weights) ** 2, axis=1), mu.real, config.t_end)
    return state, frozen, mu, weights, variance


def _interval_kernel(mu, t, a, b):
    """int_a^b e^{-mu (t - s)} ds for a <= b <= t, broadcast: e^{-mu (t - b)}
    (1 - e^{-mu (b - a)}) / mu with the last factor by expm1, or b - a at mu = 0."""
    zero = mu == 0.0
    rate = np.where(zero, 1.0, mu)
    return np.where(zero, b - a,
                    np.exp(-rate * (t - b)) * -np.expm1(-rate * (b - a)) / rate)


def duhamel_mdp_skeleton(control: Control, model: ModelSpec, t: float,
                         grid: GridSpec, eta: float = 0.0) -> SpectralField:
    """Exact linear-skeleton solution at time t by per-mode Duhamel integrals."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    control.check_fits(t, model.noise.truncation)
    mu, weights = linearized_mode_arrays(model, grid, eta)
    edges = np.minimum(control.times, t)
    kernel = _interval_kernel(mu[:, None], t, edges[:-1], edges[1:])
    spectrum = np.sum(kernel * (weights @ control.coeffs.T), axis=1)
    return field_from_spectrum(grid, spectrum)
