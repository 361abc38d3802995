"""Tests for model specs: builtin families, sampled validation,
linearization, and the noise pairing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclab.fields import GridSpec, SpectralField
from fraclab.models import (
    ConfigurationError,
    _halton,
    DiffusionSpec,
    FluxSpec,
    ModelSpec,
    NoiseSpec,
    additive_noise,
    build_model,
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

    def test_second_derivatives_take_the_outer_side_at_the_kinks(self):
        assert np.all(linear_advection(2.0).deriv2(np.linspace(-3, 3, 7)) == 0.0)
        burgers = burgers_clamped(2.0)
        assert list(burgers.deriv2(np.array([-2.5, -2.0, -1.0, 0.0, 1.9, 2.0]))) \
            == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
        cubic = cubic_smoothed(4.0)
        assert list(cubic.deriv2(np.array([-3.0, -2.0, -1.5, 0.5, 2.0]))) \
            == [0.0, 0.0, -3.0, 1.0, 0.0]

    def test_noise_family_shapes(self):
        n = diagonal_decay_noise(6)
        assert n.truncation == 6
        x = np.linspace(0, 1, 17)[:-1]
        a, b = noise_tables(n, x)
        assert a.shape == b.shape == (6, 16)
        assert np.allclose(a[2], (1 / 3) * np.sin(2 * np.pi * 3 * x))
        assert np.allclose(b[2], 1 / 3)

    def test_paired_harmonic_layout(self):
        n = paired_harmonic_noise(3, q=1.0)
        assert n.truncation == 6
        x = np.linspace(0, 1, 33)[:-1]
        a, b = noise_tables(n, x)
        assert np.allclose(a[0], np.cos(2 * np.pi * x))
        assert np.allclose(a[1], np.sin(2 * np.pi * x))
        assert np.allclose(a[4], (1 / 3) * np.cos(6 * np.pi * x))
        assert not np.any(b)
        # equal-weight pairs sum to a state-free constant
        assert np.allclose(np.sum(a ** 2, axis=0), 1.0 + 0.25 + 1 / 9)

    @pytest.mark.parametrize("make", [
        lambda: diagonal_decay_noise(q=0.5),
        lambda: additive_noise(q=0.4),
        lambda: paired_harmonic_noise(q=0.5),
        lambda: build_model({"flux": {"kind": "burgers"},
                             "diffusion": {"kind": "linear"},
                             "noise": {"kind": "diagonal-decay", "q": 0.5}}),
    ], ids=["diagonal-decay", "additive", "paired-harmonic", "build_model"])
    def test_decay_exponent_must_exceed_one_half(self, make):
        # k^-q is square summable over every truncation only for q > 1/2
        with pytest.raises(ConfigurationError,
                           match=r"decay exponent must exceed 1/2, got 0\.[45]"):
            make()


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
                     deriv2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     lipschitz_bound=1.0)
        rep = validate_model(basic_model(flux=f), sample_count=128)
        assert not rep.check("flux-lipschitz").passed

    def test_wrong_derivative_fails(self):
        f = FluxSpec(eval=lambda u: np.asarray(u, dtype=float) ** 2 / 2.0,
                     deriv=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     deriv2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     lipschitz_bound=100.0)
        rep = validate_model(basic_model(flux=f), sample_count=128)
        assert not rep.check("flux-derivative").passed

    def test_wrong_second_derivative_fails(self):
        f = FluxSpec(eval=lambda u: np.asarray(u, dtype=float) ** 2 / 2.0,
                     deriv=lambda u: np.asarray(u, dtype=float),
                     deriv2=lambda u: np.full_like(np.asarray(u, dtype=float), 2.0),
                     lipschitz_bound=100.0)
        rep = validate_model(basic_model(flux=f), sample_count=128)
        assert rep.check("flux-derivative").passed
        assert not rep.check("flux-second-derivative").passed

    def test_builtin_second_derivatives_pass(self):
        for flux in (linear_advection(1.5), burgers_clamped(4.0), cubic_smoothed(4.0)):
            rep = validate_model(basic_model(flux=flux), sample_count=256)
            assert rep.check("flux-second-derivative").passed

    def test_a_kink_on_any_sampled_node_passes(self):
        # the difference quotient across a kink of F' or F'' lies between
        # its one-sided values; u = -8 is Halton index 0
        u = 8.0 * (2.0 * _halton(256)[:, 1] - 1.0)
        for node in np.abs(u[u != 0.0]):
            for flux in (burgers_clamped(node), cubic_smoothed(node * node)):
                rep = validate_model(basic_model(flux=flux), sample_count=256)
                assert rep.passed, (flux.name, node)

    @pytest.mark.parametrize("slope", [1e6, 1e12])
    def test_steep_diffusion_passes_coercivity(self, slope):
        # the compared terms reach slope * 16^2: rounding scales with them
        rep = validate_model(basic_model(diffusion=linear_diffusion(slope, 0.5)))
        assert rep.passed

    def test_non_finite_noise_fails_without_a_warning(self):
        # pytest turns warnings into errors here
        rep = validate_model(basic_model(noise=diagonal_decay_noise(8, a=1e300)))
        assert not rep.check("noise-growth").passed
        assert rep.check("flux-lipschitz").passed

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
        one_row = NoiseSpec(truncation=2,
                            tables=lambda x: (np.ones((1, len(x))),) * 2,
                            growth_const=1.0)
        with pytest.raises(ConfigurationError):
            noise_tables(one_row, np.zeros(4))
        with pytest.raises(ConfigurationError):
            validate_model(basic_model(noise=one_row), sample_count=128)
        with pytest.raises(ConfigurationError):
            DiffusionSpec(eval=lambda u: u, deriv=lambda u: 1.0,
                          theta=1.5, lipschitz_bound=1.0)
        # theta = 1 constructs but does not validate as a full model
        border = linear_diffusion(1.0, theta=1.0)
        with pytest.raises(ConfigurationError):
            validate_model(basic_model(diffusion=border), sample_count=128)
        with pytest.raises(ConfigurationError):
            NoiseSpec(truncation=0, tables=lambda x: (np.zeros((0, len(x))),) * 2,
                      growth_const=1.0)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            validate_model(basic_model(), sample_count=50)

    @pytest.mark.parametrize("n", [1, 100, 256, 1000, 4096])
    def test_halton_points_match_scipy(self, n):
        from scipy.stats import qmc

        expected = qmc.Halton(d=2, scramble=False).random(n)
        assert np.array_equal(_halton(n), expected)


# each builtin family with the closure h_k(x, u), k = 1..K, that defines it
FAMILIES = (
    (diagonal_decay_noise(8, q=1.5, a=0.7, b=1.3),
     lambda k, x, u: float(k) ** -1.5 * (0.7 * np.sin(2.0 * np.pi * k * x) + 1.3 * u)),
    (additive_noise(8, q=1.5, offset=0.3),
     lambda k, x, u: float(k) ** -1.5 * (np.cos(2.0 * np.pi * k * x) + 0.3)),
    (paired_harmonic_noise(4, q=1.5),
     lambda k, x, u: float((k + 1) // 2) ** -1.5
     * (np.cos if k % 2 else np.sin)(2.0 * np.pi * ((k + 1) // 2) * x)),
)


def unit_additive_noise():
    """h_1(x, u) = 1."""
    return NoiseSpec(truncation=1,
                     tables=lambda x: (np.ones((1, len(x))), np.zeros((1, len(x)))),
                     growth_const=1.0)


class TestNoiseEvaluation:
    def test_zero_coeffs(self):
        grid = GridSpec(points_per_axis=32)
        pair = noise_pairing(diagonal_decay_noise(4), grid)
        out = pair(np.ones(32), np.zeros(4))
        assert np.max(np.abs(out)) == 0.0

    def test_unit_additive_constant(self):
        grid = GridSpec(points_per_axis=16)
        out = noise_pairing(unit_additive_noise(), grid)(np.zeros(16), np.array([2.5]))
        assert np.allclose(out, 2.5)

    def test_unit_vectors_reproduce_each_mode(self):
        grid = GridSpec(points_per_axis=64)
        family, h = FAMILIES[0]
        x = grid.nodes()
        u = 1.0 + 0.5 * np.sin(2 * np.pi * x)
        pair = noise_pairing(family, grid)
        for k in range(1, family.truncation + 1):
            coeffs = np.zeros(family.truncation)
            coeffs[k - 1] = 1.0
            assert np.allclose(pair(u, coeffs), h(k, x, u), atol=1e-14)

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

    def test_slope_and_transpose(self):
        # pair.slope is the derivative in the state, pair.transpose the
        # transpose in the coefficients
        grid = GridSpec(points_per_axis=32)
        pair = noise_pairing(diagonal_decay_noise(6), grid)
        rng = np.random.default_rng(2)
        u, w = rng.standard_normal((2, 32))
        c = rng.standard_normal(6)
        assert np.allclose(pair(u, c) - pair(np.zeros(32), c), u * pair.slope(c),
                           rtol=0.0, atol=1e-14)
        assert pair(u, c) @ w == pytest.approx(c @ pair.transpose(u, w), rel=1e-13)
        rows = pair.transpose(np.stack([u, w]), np.stack([w, u]))
        assert np.allclose(rows[0], pair.transpose(u, w), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("rows", [5, 32])
    @pytest.mark.parametrize("n", [32, 64, 1024])
    @pytest.mark.parametrize("family", [family for family, _ in FAMILIES],
                             ids=lambda family: family.name)
    def test_transpose_rows_are_each_row_alone(self, family, n, rows):
        # the K sums of an (S, N) batch of steps, as the adjoint sweep takes
        # them per block, are bit for bit those of each step fed alone
        pair = noise_pairing(family, GridSpec(points_per_axis=n))
        rng = np.random.default_rng(n + rows)
        u, w = rng.standard_normal((2, rows, n))
        batch = pair.transpose(u, w)
        alone = np.array([pair.transpose(u_s, w_s) for u_s, w_s in zip(u, w)])
        assert batch.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_affine_tables(self, family):
        family, h = family
        grid = GridSpec(points_per_axis=32)
        a, b = noise_tables(family, grid.nodes())
        assert a.shape == (family.truncation, 32)
        x = grid.nodes()
        rng = np.random.default_rng(1)
        u = rng.standard_normal(32)
        for k in range(1, family.truncation + 1):
            assert np.allclose(a[k - 1] + b[k - 1] * u, h(k, x, u), atol=1e-14)

    @pytest.mark.parametrize("n", [32, 1024])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0].name)
    def test_tables_are_the_closures_bit_for_bit(self, family, n):
        # A_k is h_k(x, 0) and B_k the exact factor of u, k^-q b for
        # diagonal-decay; h_k(x, 1) - h_k(x, 0) rounds away from it
        family, h = family
        x = GridSpec(points_per_axis=n).nodes()
        a, b = noise_tables(family, x)
        for k in range(1, family.truncation + 1):
            assert a[k - 1].tobytes() == h(k, x, 0.0).tobytes()
            slope = float(k) ** -1.5 * 1.3 if family.name == "diagonal-decay" else 0.0
            assert np.all(b[k - 1] == slope)


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
        a, b = noise_tables(lin.noise, x)
        # frozen coefficients ignore the state: h_k(x, 1) of diagonal decay
        assert not np.any(b)
        for k in range(1, 9):
            expected = (1.0 / k) * (np.sin(2 * np.pi * k * x) + 1.0)
            assert np.allclose(a[k - 1], expected, atol=1e-15)
