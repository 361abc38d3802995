"""Tests for the exact mode oracle: drift rates, driven-mode variances, and
the Duhamel solution of the linear skeleton."""

import numpy as np
import pytest

from fraclab.fields import GridSpec, dft
from fraclab.models import (
    ConfigurationError,
    ModelSpec,
    additive_noise,
    burgers_clamped,
    diagonal_decay_noise,
    linear_diffusion,
    noise_tables,
)
from fraclab.oracle import (
    duhamel_mdp_skeleton,
    linearized_mode_arrays,
    ou_variance,
)
from fraclab.skeleton import Control, random_control, solve_mdp_skeleton
from fraclab.solver import SolverConfig

from oracles import duhamel_mode_quadrature, ou_variance_quadrature


def make_model(noise=None):
    return ModelSpec(
        flux=burgers_clamped(4.0),
        diffusion=linear_diffusion(0.5, 0.5),
        noise=noise if noise is not None else diagonal_decay_noise(4),
    )


GRID = GridSpec(points_per_axis=64)


def mode(model, k, eta=0.0):
    """Drift rate and noise weights of wavenumber k on GRID."""
    mu, weights = linearized_mode_arrays(model, GRID, eta)
    idx = list(GRID.wavenumbers().astype(int)).index(k)
    return mu[idx], weights[idx]


def mode_variance(model, k, t):
    mu, weights = mode(model, k)
    return float(ou_variance(np.sum(np.abs(weights) ** 2), mu.real, t))


class TestModeParams:
    def test_drift_rate_formula(self):
        # F'(1) = 1, Phi'(1) = 0.5, theta = 0.5: mu_1 = pi + 2 pi i
        mu, _ = mode(make_model(), 1)
        assert abs(mu - (np.pi + 2j * np.pi)) < 1e-13

    def test_viscosity_enters_real_part(self):
        mu, _ = mode(make_model(), 2, eta=0.1)
        base, _ = mode(make_model(), 2)
        assert abs((mu - base) - 0.1 * 4 * np.pi ** 2 * 4) < 1e-10

    def test_conjugate_pairing(self):
        mu, _ = linearized_mode_arrays(make_model(), GRID)
        k = GRID.wavenumbers().astype(int)
        plus = mu[list(k).index(3)]
        minus = mu[list(k).index(-3)]
        assert abs(plus - np.conj(minus)) < 1e-12

    def test_noise_weights(self):
        # diagonal-decay at state 1: h_n = n^-1 (sin(2 pi n x) + 1), so mode n
        # carries -i/(2n) and mode 0 carries n^-1
        _, weights = mode(make_model(), 1)
        assert abs(weights[0] - (-0.5j)) < 1e-14
        assert abs(np.sum(np.abs(weights) ** 2) - 0.25) < 1e-14
        _, zero = mode(make_model(), 0)
        assert np.allclose(zero, [1, 0.5, 1 / 3, 0.25], atol=1e-14)

    def test_undriven_rows_are_exact_zeros(self):
        # diagonal-decay (K = 6) at state 1 drives the frequencies |k| <= 6;
        # the other rows of the transform hold only rounding, and read 0
        grid = GridSpec(32)
        model = make_model(diagonal_decay_noise(6))
        _, weights = linearized_mode_arrays(model, grid)
        a, b = noise_tables(model.noise, grid.nodes())
        driven = np.abs(grid.wavenumbers()) <= 6
        assert np.array_equal(weights[driven], dft(a + b).T[driven])
        assert np.all(np.any(weights[driven], axis=1))
        assert not np.any(weights[~driven])


class TestStarMoments:
    def test_zero_time(self):
        assert mode_variance(make_model(), 1, 0.0) == 0.0

    def test_brownian_mode_zero(self):
        # k = 0 with eta = 0 is undamped: variance grows linearly; the
        # additive offset family has weight 0.5/n at mode zero
        model = make_model(noise=additive_noise(3, q=1.0, offset=0.5))
        assert mode(model, 0)[0] == 0.0
        var = mode_variance(model, 0, 2.0)
        expected = sum((0.5 / n) ** 2 for n in (1, 2, 3)) * 2.0
        assert abs(var - expected) < 1e-14
        assert abs(var - 0.6805555555555556) < 1e-14

    def test_generic_mode_matches_quadrature(self):
        mu, weights = mode(make_model(), 1)
        var = mode_variance(make_model(), 1, 0.5)
        total_sq = float(np.sum(np.abs(weights) ** 2))
        quad = ou_variance_quadrature(total_sq, mu.real, 0.5)
        assert abs(var - quad) < 1e-10
        assert abs(var - 0.03806930859746171) < 1e-15

    def test_tiny_rate_keeps_full_precision(self):
        # (1 - e^{-2 r t}) / (2 r) = t (1 - r t) to O(r^2 t^3); a difference
        # of exponentials would lose about 4 digits at r = 1e-12
        re_mu, t, total_sq = 1e-12, 1.0, 0.37
        var = float(ou_variance(total_sq, re_mu, t))
        expected = total_sq * t * (1.0 - re_mu * t)
        assert abs(var - expected) <= 1e-15 * expected

    def test_monotone_and_bounded(self):
        mu, weights = mode(make_model(), 2)
        times = np.linspace(0.0, 3.0, 40)
        variances = [mode_variance(make_model(), 2, t) for t in times]
        assert np.all(np.diff(variances) >= 0)
        cap = float(np.sum(np.abs(weights) ** 2)) / (2 * mu.real)
        assert variances[-1] <= cap + 1e-14


class TestDuhamel:
    def test_zero_control(self):
        ctrl = Control(times=np.array([0.0, 0.5]), coeffs=np.zeros((1, 4)))
        out = duhamel_mdp_skeleton(ctrl, make_model(), 0.5, GRID)
        assert np.max(np.abs(out.values)) == 0.0

    def test_single_mode_closed_form(self):
        # additive K=1, constant control: z_hat_1(T) = (1 - e^{-mu T})/mu * c/2
        model = make_model(noise=additive_noise(1))
        ctrl = Control(times=np.array([0.0, 0.4]), coeffs=np.array([[0.8]]))
        out = duhamel_mdp_skeleton(ctrl, model, 0.4, GRID)
        mu, w = linearized_mode_arrays(model, GRID)
        zhat1 = (1.0 - np.exp(-mu[1] * 0.4)) / mu[1] * (0.8 * w[1, 0])
        assert abs(zhat1 - (0.03984813346189324 - 0.058396332695399795j)) < 1e-14
        x = GRID.nodes()
        expected = 2.0 * np.real(zhat1 * np.exp(2j * np.pi * x))
        assert np.max(np.abs(out.values - expected)) < 1e-14
        quad = duhamel_mode_quadrature(mu[1], w[1], ctrl.times, ctrl.coeffs, 0.4)
        assert abs(zhat1 - quad) < 1e-9

    # t at the control's horizon, on an inner breakpoint and inside an interval
    @pytest.mark.parametrize("t", [0.5, 0.25, 0.3])
    def test_multi_interval_matches_quadrature(self, t):
        model = make_model()
        ctrl = random_control(23, 4, 0.5, intervals=6)
        out = duhamel_mdp_skeleton(ctrl, model, t, GRID)
        mu, w = linearized_mode_arrays(model, GRID)
        spec = out.spectrum
        k = GRID.wavenumbers().astype(int)
        for kk in (0, 1, 2, 3):
            idx = list(k).index(kk)
            quad = duhamel_mode_quadrature(mu[idx], w[idx], ctrl.times, ctrl.coeffs, t)
            assert abs(spec[idx] - quad) < 1e-8

    def test_superposition(self):
        model = make_model()
        a = random_control(1, 4, 0.5)
        b = random_control(2, 4, 0.5)
        za = duhamel_mdp_skeleton(a, model, 0.5, GRID).values
        zb = duhamel_mdp_skeleton(b, model, 0.5, GRID).values
        zab = duhamel_mdp_skeleton(
            Control(times=a.times, coeffs=a.coeffs + b.coeffs), model, 0.5, GRID).values
        assert np.max(np.abs(zab - (za + zb))) < 1e-12

    def test_output_is_real_field(self):
        out = duhamel_mdp_skeleton(random_control(5, 4, 0.5), make_model(), 0.5, GRID)
        assert out.values.dtype == np.float64

    def test_horizon_guard(self):
        ctrl = Control(times=np.array([0.0, 0.2]), coeffs=np.zeros((1, 4)))
        with pytest.raises(ConfigurationError):
            duhamel_mdp_skeleton(ctrl, make_model(), 0.5, GRID)

    def test_discrete_solver_approaches_duhamel(self):
        # moderate-resolution smoke check; the pinned-tolerance comparison is
        # in the acceptance suite
        model = make_model()
        ctrl = random_control(41, 4, 0.2, intervals=4)
        config = SolverConfig(dt=2e-4, t_end=0.2, flux_scheme="spectral")
        traj = solve_mdp_skeleton(ctrl, model, config, GRID)
        exact = duhamel_mdp_skeleton(ctrl, model, 0.2, GRID)
        err = np.sqrt(np.mean((traj.terminal.values - exact.values) ** 2))
        scale = np.sqrt(np.mean(exact.values ** 2))
        assert err / scale < 1e-2
