"""Tests for model specs: builtin families, sampled validation,
linearization, and the noise pairing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclab.fields import GridSpec, SpectralField
from fraclab.models import (
    ConfigurationError,
    DiffusionSpec,
    FluxSpec,
    ModelSpec,
    NoiseSpec,
    additive_noise,
    burgers_clamped,
    cubic_smoothed,
    diagonal_decay_noise,
    linear_advection,
    linear_diffusion,
    linearize_model,
    noise_pairing,
    noise_tables,
    paired_harmonic_noise,
    validate_model,
)
from fraclab.skeleton import random_control, solve_skeleton
from fraclab.solver import SolverConfig, WienerPath, solve


def basic_model(flux=None, diffusion=None, noise=None):
    return ModelSpec(
        flux=flux or burgers_clamped(4.0),
        diffusion=diffusion or linear_diffusion(1.0, 0.5),
        noise=noise or diagonal_decay_noise(8, 1.0, 1.0, 1.0),
    )


class TestBuiltinFamilies:
    def test_advection(self):
        f = linear_advection(2.0)
        assert f.eval(3.0) == 6.0
        assert f.deriv(-1.0) == 2.0
        assert f.lipschitz_bound == 2.0

    def test_burgers_inside_clamp(self):
        f = burgers_clamped(4.0)
        u = np.linspace(-3.9, 3.9, 41)
        assert np.allclose(f.eval(u), 0.5 * u * u)
        assert np.allclose(f.deriv(u), u)

    def test_burgers_outside_clamp(self):
        f = burgers_clamped(2.0)
        assert f.eval(5.0) == 2.0 * 5.0 - 2.0
        assert f.deriv(5.0) == 2.0
        assert f.deriv(-7.0) == -2.0
        # continuous at the kink
        assert abs(f.eval(2.0) - 2.0) < 1e-15

    def test_cubic_continuity(self):
        f = cubic_smoothed(4.0)
        r = 2.0
        assert abs(f.eval(r) - r ** 3 / 3.0) < 1e-14
        assert abs(f.eval(r + 1e-12) - f.eval(r)) < 1e-10
        assert f.deriv(10.0) == 4.0

    def test_noise_family_shapes(self):
        n = diagonal_decay_noise(6)
        assert n.truncation == 6
        x = np.linspace(0, 1, 17)[:-1]
        out = n.coefficient_fns[2](x, np.zeros_like(x))
        assert np.allclose(out, (1 / 3) * np.sin(2 * np.pi * 3 * x))

    def test_paired_harmonic_layout(self):
        n = paired_harmonic_noise(3, q=1.0)
        assert n.truncation == 6
        x = np.linspace(0, 1, 33)[:-1]
        u = np.zeros_like(x)
        assert np.allclose(n.coefficient_fns[0](x, u), np.cos(2 * np.pi * x))
        assert np.allclose(n.coefficient_fns[1](x, u), np.sin(2 * np.pi * x))
        assert np.allclose(n.coefficient_fns[4](x, u), (1 / 3) * np.cos(6 * np.pi * x))
        # equal-weight pairs sum to a state-free constant
        total = sum(np.asarray(h(x, u)) ** 2 for h in n.coefficient_fns)
        assert np.allclose(total, 1.0 + 0.25 + 1 / 9)


class TestValidateModel:
    def test_standard_model_passes(self):
        rep = validate_model(basic_model(), sample_count=256)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert {"flux-lipschitz", "diffusion-monotone", "noise-growth"} <= names

    def test_decreasing_diffusion_fails_monotonicity(self):
        bad = DiffusionSpec(eval=lambda u: -np.asarray(u, dtype=float),
                            deriv=lambda u: np.full_like(np.asarray(u, dtype=float), -1.0),
                            theta=0.5, lipschitz_bound=1.0)
        rep = validate_model(basic_model(diffusion=bad), sample_count=128)
        assert not rep.check("diffusion-monotone").passed
        assert not rep.passed

    def test_understated_lipschitz_fails(self):
        f = FluxSpec(eval=lambda u: 3.0 * np.asarray(u, dtype=float),
                     deriv=lambda u: np.full_like(np.asarray(u, dtype=float), 3.0),
                     lipschitz_bound=1.0)
        rep = validate_model(basic_model(flux=f), sample_count=128)
        assert not rep.check("flux-lipschitz").passed

    def test_wrong_derivative_fails(self):
        f = FluxSpec(eval=lambda u: np.asarray(u, dtype=float) ** 2 / 2.0,
                     deriv=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     lipschitz_bound=100.0)
        rep = validate_model(basic_model(flux=f), sample_count=128)
        assert not rep.check("flux-derivative").passed

    def test_diagonal_growth_frozen_ratio(self):
        # independent direct supremum over the same Halton points gives
        # ratio 0.7561856630183167 against declared C = 2 sum k^-2 (K=8)
        rep = validate_model(basic_model(), sample_count=256)
        chk = rep.check("noise-growth")
        assert chk.passed
        assert abs(chk.worst - 0.7561856630183167) < 1e-12
        computed_c = chk.worst * basic_model().noise.growth_const
        assert abs(computed_c - 2.310029314434036) < 1e-12

    def test_degenerate_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(truncation=2, coefficient_fns=(lambda x, u: x,),
                      decay_exponent=1.0, growth_const=1.0)
        with pytest.raises(ConfigurationError):
            DiffusionSpec(eval=lambda u: u, deriv=lambda u: 1.0,
                          theta=1.5, lipschitz_bound=1.0)
        # theta = 1 constructs but does not validate as a full model
        border = linear_diffusion(1.0, theta=1.0)
        with pytest.raises(ConfigurationError):
            validate_model(basic_model(diffusion=border), sample_count=128)
        empty = NoiseSpec(truncation=0, coefficient_fns=(), decay_exponent=1.0,
                          growth_const=1.0)
        with pytest.raises(ConfigurationError):
            validate_model(basic_model(noise=empty), sample_count=128)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            validate_model(basic_model(), sample_count=50)


def term_by_term(noise):
    """The same family declared not affine, so the pairing loops over h_k."""
    return dataclasses.replace(noise, affine_in_state=False)


class TestNoiseEvaluation:
    def test_zero_coeffs(self):
        grid = GridSpec(points_per_axis=32)
        pair = noise_pairing(diagonal_decay_noise(4), grid)
        out = pair(np.ones(32), np.zeros(4))
        assert np.max(np.abs(out)) == 0.0

    def test_unit_additive_constant(self):
        grid = GridSpec(points_per_axis=16)
        unit = NoiseSpec(truncation=1,
                         coefficient_fns=(lambda x, u: np.ones_like(np.asarray(x, dtype=float)),),
                         decay_exponent=1.0, growth_const=1.0, affine_in_state=True)
        out = noise_pairing(unit, grid)(np.zeros(16), np.array([2.5]))
        assert np.allclose(out, 2.5)

    def test_unit_vectors_reproduce_each_mode(self):
        grid = GridSpec(points_per_axis=64)
        n = diagonal_decay_noise(5)
        x = grid.nodes()
        u = 1.0 + 0.5 * np.sin(2 * np.pi * x)
        for family in (n, term_by_term(n)):
            pair = noise_pairing(family, grid)
            for k in range(5):
                coeffs = np.zeros(5)
                coeffs[k] = 1.0
                direct = n.coefficient_fns[k](x, u)
                assert np.allclose(pair(u, coeffs), direct, atol=1e-14)

    def test_length_mismatch(self):
        grid = GridSpec(points_per_axis=16)
        with pytest.raises(ValueError):
            noise_pairing(diagonal_decay_noise(4), grid)(np.zeros(16), np.zeros(3))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linear_in_coeffs(self, seed, a, b):
        grid = GridSpec(points_per_axis=32)
        n = diagonal_decay_noise(6)
        rng = np.random.default_rng(seed)
        u = SpectralField(grid, rng.standard_normal(32))
        c1 = rng.standard_normal(6)
        c2 = rng.standard_normal(6)
        pair = noise_pairing(n, grid)
        lhs = pair(u.values, a * c1 + b * c2)
        rhs = a * pair(u.values, c1) + b * pair(u.values, c2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("family", [
        diagonal_decay_noise(5), additive_noise(5, offset=0.3), paired_harmonic_noise(3),
    ])
    def test_affine_tables(self, family):
        grid = GridSpec(points_per_axis=32)
        a, b = noise_tables(family, grid)
        assert a.shape == (family.truncation, 32)
        x = grid.nodes()
        rng = np.random.default_rng(1)
        u = rng.standard_normal(32)
        for k, h in enumerate(family.coefficient_fns):
            assert np.allclose(a[k] + b[k] * u, h(x, u), atol=1e-14)

    def test_table_and_loop_branches_agree_in_solves(self):
        # the noise term of solve and the control drift of solve_skeleton both
        # go through noise_pairing; either branch gives the same paths
        grid = GridSpec(points_per_axis=32)
        tables = basic_model(noise=diagonal_decay_noise(4))
        loop = dataclasses.replace(tables, noise=term_by_term(tables.noise))
        u0 = SpectralField(grid, 1.0 + 0.2 * np.sin(2 * np.pi * grid.nodes()))
        noisy = SolverConfig(dt=1e-3, t_end=0.05, eps=1e-2)
        paths = [solve(u0, m, noisy, WienerPath(3, 0, 4)).values_matrix()
                 for m in (tables, loop)]
        control = random_control(5, 4, 0.05, intervals=5)
        quiet = SolverConfig(dt=1e-3, t_end=0.05)
        skeletons = [solve_skeleton(u0, m, control, quiet).values_matrix()
                     for m in (tables, loop)]
        for a, b in (paths, skeletons):
            assert not np.array_equal(a, a[0])
            assert np.max(np.abs(a - b)) <= 1e-14


class TestLinearize:
    def test_slopes(self):
        lin = linearize_model(basic_model(), state=1.0)
        assert float(lin.flux.deriv(0.0)) == 1.0  # clamped Burgers: F'(1) = 1
        assert float(lin.diffusion.deriv(0.0)) == 1.0
        xi = np.linspace(-2, 2, 5)
        assert np.allclose(lin.flux.eval(xi), xi)

    def test_noise_frozen_at_state(self):
        grid = GridSpec(points_per_axis=32)
        lin = linearize_model(basic_model(), state=1.0)
        x = grid.nodes()
        base = basic_model().noise
        for k, h in enumerate(lin.noise.coefficient_fns):
            expected = base.coefficient_fns[k](x, np.ones_like(x))
            # frozen coefficients ignore the state argument
            assert np.allclose(h(x, 77.0 * np.ones_like(x)), expected, atol=1e-15)
        assert lin.noise.affine_in_state
