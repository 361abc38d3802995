"""Tests for the periodic field algebra: transforms, fractional Laplacian,
path norm, and CSV input."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclab.fields import (
    GridSpec,
    SpectralField,
    apply_fractional_laplacian,
    constant_field,
    field_from_csv,
    field_from_spectrum,
    fractional_multiplier,
    laplacian_multiplier,
    PathL1,
)

from oracles import dense_fractional_matrix, direct_dft


def random_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return SpectralField(grid, scale * rng.standard_normal(grid.shape))


class TestGridSpec:
    def test_basic(self):
        grid = GridSpec(points_per_axis=16)
        assert grid.cell_width == 1.0 / 16
        assert grid.shape == (16,)
        assert np.allclose(grid.nodes(), np.arange(16) / 16)

    @pytest.mark.parametrize("n", [7, 12, 100, 4, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            GridSpec(points_per_axis=n)

    def test_wavenumbers(self):
        k = GridSpec(points_per_axis=8).wavenumbers()
        assert np.array_equal(k, [0, 1, 2, 3, -4, -3, -2, -1])


class TestTransform:
    def test_constant_mode(self):
        grid = GridSpec(points_per_axis=32)
        spec = constant_field(grid, 3.25).spectrum
        assert abs(spec[0] - 3.25) < 1e-14
        assert np.max(np.abs(spec[1:])) < 1e-14

    def test_single_harmonic(self):
        # u = sin(2 pi x) has coefficients -i/2 at k=1 and +i/2 at k=-1
        grid = GridSpec(points_per_axis=32)
        u = SpectralField(grid, np.sin(2 * np.pi * grid.nodes()))
        spec = u.spectrum
        assert abs(spec[1] - (-0.5j)) < 1e-14
        assert abs(spec[-1] - 0.5j) < 1e-14
        mask = np.ones(32, dtype=bool)
        mask[[1, -1]] = False
        assert np.max(np.abs(spec[mask])) < 1e-14

    def test_matches_direct_summation_dft(self):
        grid = GridSpec(points_per_axis=16)
        u = random_field(grid, seed=7)
        assert np.allclose(u.spectrum, direct_dft(u.values), atol=1e-13)

    def test_round_trip(self):
        grid = GridSpec(points_per_axis=16)
        u = random_field(grid, seed=3)
        back = field_from_spectrum(grid, u.spectrum)
        assert np.max(np.abs(back.values - u.values)) < 1e-12 * max(1.0, np.max(np.abs(u.values)))

    @pytest.mark.parametrize("exponent", range(3, 11))
    def test_round_trip_all_sizes(self, exponent):
        grid = GridSpec(points_per_axis=2**exponent)
        u = random_field(grid, seed=exponent)
        back = field_from_spectrum(grid, u.spectrum)
        rel = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
        assert rel < 1e-12

    def test_conjugate_symmetry(self):
        grid = GridSpec(points_per_axis=32)
        spec = random_field(grid, seed=5).spectrum
        klist = list(grid.wavenumbers().astype(int))
        for idx, kk in enumerate(klist):
            if -kk not in klist:
                # nyquist mode of a real signal is real
                assert abs(spec[idx].imag) < 1e-13
                continue
            assert abs(spec[idx] - np.conj(spec[klist.index(-kk)])) < 1e-13

    def test_rejects_non_finite(self):
        grid = GridSpec(points_per_axis=8)
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            SpectralField(grid, bad)


class TestFractionalLaplacian:
    def test_annihilates_constants(self):
        grid = GridSpec(points_per_axis=64)
        out = apply_fractional_laplacian(constant_field(grid, 2.0), theta=0.7)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_eigenfunction_half_order(self):
        # sin(2 pi x) is an eigenfunction with eigenvalue (4 pi^2)^(1/2) = 2 pi
        grid = GridSpec(points_per_axis=64)
        u = SpectralField(grid, np.sin(2 * np.pi * grid.nodes()))
        out = apply_fractional_laplacian(u, theta=0.5)
        assert np.max(np.abs(out.values - 2 * np.pi * u.values)) < 1e-12 * 2 * np.pi

    def test_integer_order_matches_laplacian(self):
        grid = GridSpec(points_per_axis=64)
        u = random_field(grid, seed=2)
        out = apply_fractional_laplacian(u, theta=1.0)
        ref = field_from_spectrum(grid, laplacian_multiplier(grid) * u.spectrum)
        assert np.allclose(out.values, ref.values, atol=1e-9)

    def test_multiplier_bitwise_at_theta_one(self):
        grid = GridSpec(points_per_axis=128)
        assert np.array_equal(fractional_multiplier(grid, 1.0), laplacian_multiplier(grid))

    def test_matches_dense_matrix_oracle(self):
        grid = GridSpec(points_per_axis=16)
        u = random_field(grid, seed=9)
        for theta in (0.25, 0.5, 0.9):
            dense = dense_fractional_matrix(16, theta)
            ref = (dense @ u.values).real
            out = apply_fractional_laplacian(u, theta)
            assert np.max(np.abs(out.values - ref)) < 1e-10

    @pytest.mark.parametrize("theta", [0.0, -0.3, 1.5])
    def test_rejects_bad_theta(self, theta):
        grid = GridSpec(points_per_axis=16)
        with pytest.raises(ValueError):
            apply_fractional_laplacian(constant_field(grid, 1.0), theta)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_linearity(self, seed, a, b):
        grid = GridSpec(points_per_axis=32)
        rng = np.random.default_rng(seed)
        u = SpectralField(grid, rng.standard_normal(32))
        v = SpectralField(grid, rng.standard_normal(32))
        lhs = apply_fractional_laplacian(SpectralField(grid, a * u.values + b * v.values), 0.6)
        rhs = (a * apply_fractional_laplacian(u, 0.6).values
               + b * apply_fractional_laplacian(v, 0.6).values)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * scale

    def test_multiplier_monotone_in_theta(self):
        grid = GridSpec(points_per_axis=64)
        m1 = fractional_multiplier(grid, 0.3)
        m2 = fractional_multiplier(grid, 0.8)
        k = np.abs(grid.wavenumbers())
        sel = 2 * np.pi * k >= 1.0
        assert np.all(m1[sel] <= m2[sel] * (1 + 1e-15))

    def test_output_real(self):
        grid = GridSpec(points_per_axis=32)
        u = random_field(grid, seed=4)
        spec = fractional_multiplier(grid, 0.5) * u.spectrum * grid.size
        imag = np.max(np.abs(np.fft.ifft(spec).imag))
        assert imag < 1e-12


class TestNorms:
    def test_path_integral_rectangle_rule(self):
        grid = GridSpec(points_per_axis=8)
        values = np.array([constant_field(grid, c).values for c in (1.0, 2.0, 4.0)])
        path = PathL1()
        for t, row in zip([0.0, 0.5, 1.0], values):
            path.add(t, row)
        # left rule over [0, 0.5, 1.0]: 0.5*1 + 0.5*2 = 1.5
        assert abs(path.total - 1.5) < 1e-14

    def test_path_integral_is_batch_invariant(self):
        # each (e, m) slice of a batch sums the terms of its rows fed alone,
        # in the same order, so every total agrees bit for bit
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.uniform(0.01, 0.1, 7))
        for n in (8, 300):
            values = rng.standard_normal((len(times), 3, 4, n))
            batch = PathL1()
            for t, rows in zip(times, values):
                batch.add(t, rows)
            assert batch.total.shape == (3, 4)
            for e in range(3):
                for m in range(4):
                    alone = PathL1()
                    for t, rows in zip(times, values):
                        alone.add(t, rows[e, m])
                    assert batch.total[e, m] == alone.total


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        grid = GridSpec(points_per_axis=16)
        u = random_field(grid, seed=21)
        p = tmp_path / "field.csv"
        rows = ["node,x,value"] + [f"{j},{x!r},{float(v)!r}"
                                   for j, (x, v) in enumerate(zip(grid.nodes(), u.values))]
        p.write_text("\n".join(rows) + "\n")
        back = field_from_csv(p)
        assert back.grid == grid
        assert np.array_equal(back.values, u.values)

    def test_values_immutable(self):
        grid = GridSpec(points_per_axis=8)
        u = constant_field(grid, 1.0)
        with pytest.raises(ValueError):
            u.values[0] = 2.0
