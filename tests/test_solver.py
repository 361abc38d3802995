"""Tests for the IMEX integrator: CFL bounds, flux schemes, noise paths,
conservation and dissipation properties."""

import numpy as np
import pytest

from fraclab.fields import GridSpec, SpectralField, constant_field, laplacian_multiplier
from fraclab.models import (
    ConfigurationError,
    FluxSpec,
    ModelSpec,
    NoiseSpec,
    burgers_clamped,
    diagonal_decay_noise,
    linear_advection,
    linear_diffusion,
)
from fraclab.solver import (
    DivergenceError,
    SolverConfig,
    Trajectory,
    WienerPath,
    solve,
    stable_dt,
    trajectory_to_csv,
)


def make_model(flux=None, diffusion=None, noise=None):
    return ModelSpec(
        flux=flux if flux is not None else burgers_clamped(4.0),
        diffusion=diffusion if diffusion is not None else linear_diffusion(0.5, 0.5),
        noise=noise if noise is not None else diagonal_decay_noise(4),
    )


def unit_additive_noise():
    # single mode, h_1(x, u) = 1
    return NoiseSpec(
        truncation=1,
        coefficient_fns=(lambda x, u: np.ones_like(np.asarray(x, dtype=float)),),
        decay_exponent=1.0, growth_const=1.0, affine_in_state=True,
    )


class TestStableDt:
    def test_no_constraints_returns_t_end(self):
        model = make_model(flux=linear_advection(0.0), diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=1e-3, t_end=2.5)
        assert stable_dt(model, GridSpec(points_per_axis=64), config) == 2.5

    def test_advection_bound(self):
        model = make_model(flux=linear_advection(1.0), diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=1e-4, t_end=1.0, cfl_safety=0.5)
        got = stable_dt(model, GridSpec(points_per_axis=128), config)
        assert abs(got - 0.5 / 128) < 1e-15

    def test_burgers_bound(self):
        model = make_model(flux=burgers_clamped(4.0), diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=1e-4, t_end=1.0, cfl_safety=0.5)
        got = stable_dt(model, GridSpec(points_per_axis=64), config)
        assert abs(got - 0.5 * (1.0 / 64) / 4.0) < 1e-15

    def test_fractional_bound_binds(self):
        model = make_model(flux=linear_advection(0.0), diffusion=linear_diffusion(2.0, 0.5))
        config = SolverConfig(dt=1e-5, t_end=1.0, cfl_safety=1.0)
        grid = GridSpec(points_per_axis=64)
        dx = 1.0 / 64
        expected = dx ** 1.0 / ((4 * np.pi ** 2) ** 0.5 * 2.0)
        assert abs(stable_dt(model, grid, config) - expected) < 1e-15


class TestFluxDivergence:
    @pytest.mark.parametrize("scheme", ["rusanov", "spectral"])
    def test_constant_state(self, scheme):
        grid = GridSpec(points_per_axis=64)
        model = make_model(diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=1e-3, t_end=0.02, flux_scheme=scheme)
        traj = solve(constant_field(grid, 2.0), model, config)
        assert np.max(np.abs(traj.values_matrix() - 2.0)) < 1e-12

    @pytest.mark.parametrize("scheme", ["rusanov", "spectral"])
    def test_zero_mean(self, scheme):
        # a conservative flux difference moves no mass
        grid = GridSpec(points_per_axis=64)
        rng = np.random.default_rng(3)
        u = SpectralField(grid, 0.5 * rng.standard_normal(64))
        model = make_model(diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=1e-3, t_end=0.02, flux_scheme=scheme)
        masses = np.mean(solve(u, model, config).values_matrix(), axis=1)
        assert np.max(np.abs(masses - np.mean(u.values))) < 1e-12

    def test_riemann_shock_speed(self):
        # Burgers data 1 -> 0 at x = 0.5: shock travels at (1+0)/2, so the
        # interface sits at 0.6 when t = 0.2
        grid = GridSpec(points_per_axis=256)
        x = grid.nodes()
        u0 = SpectralField(grid, np.where((x >= 0.0) & (x < 0.5), 1.0, 0.0))
        model = make_model(diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=0.2 / 512, t_end=0.2)
        traj = solve(u0, model, config)
        v = traj.terminal.values
        crossing = None
        for j in range(len(x) - 1):
            if 0.3 < x[j] < 0.9 and v[j] >= 0.5 > v[j + 1]:
                crossing = x[j] + grid.cell_width * (v[j] - 0.5) / (v[j] - v[j + 1])
        assert crossing is not None
        assert abs(crossing - 0.6) <= 2.0 * grid.cell_width

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=1e-3, t_end=1.0, flux_scheme="weno")


class TestWienerPath:
    def test_repeatable_and_rewindable(self):
        path = WienerPath(master_seed=11, stream_index=3, truncation=5)
        first = [path.increments(i, 1e-3) for i in range(4)]
        again = [path.increments(i, 1e-3) for i in range(4)]  # rewinds at 0
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        # random access to a later step equals the sequential draw
        path2 = WienerPath(master_seed=11, stream_index=3, truncation=5)
        assert np.array_equal(path2.increments(3, 1e-3), first[3])

    def test_streams_independent(self):
        a = WienerPath(1, 0, 4).increments(0, 1e-2)
        b = WienerPath(1, 1, 4).increments(0, 1e-2)
        assert not np.array_equal(a, b)

    def test_variance_scale(self):
        path = WienerPath(5, 0, 1)
        dt = 0.25
        draws = np.array([path.increments(i, dt)[0] for i in range(4000)])
        assert abs(np.mean(draws)) < 3 * np.sqrt(dt / 4000) * 1.5
        assert abs(np.var(draws) - dt) < 0.05 * dt

    def test_digest_stable(self):
        d1 = WienerPath(7, 2, 3).digest(10, 1e-3)
        d2 = WienerPath(7, 2, 3).digest(10, 1e-3)
        d3 = WienerPath(7, 3, 3).digest(10, 1e-3)
        assert d1 == d2
        assert d1 != d3


class TestStep:
    def test_constant_state_is_steady(self):
        grid = GridSpec(points_per_axis=64)
        model = make_model()
        config = SolverConfig(dt=1e-4, t_end=1e-3)
        state = solve(constant_field(grid, 1.0), model, config).terminal
        assert np.max(np.abs(state.values - 1.0)) < 1e-13

    def test_exact_heat_multiplier(self):
        grid = GridSpec(points_per_axis=32)
        model = make_model(flux=linear_advection(0.0), diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=1e-3, t_end=1e-3, eta=0.05)
        rng = np.random.default_rng(8)
        u0 = SpectralField(grid, rng.standard_normal(32))
        u1 = solve(u0, model, config).terminal
        expected = u0.spectrum / (1.0 + config.dt * 0.05 * laplacian_multiplier(grid))
        assert np.allclose(u1.spectrum, expected, atol=1e-14)

    def test_pure_noise_step(self):
        # single additive unit mode: u1 = u0 + sqrt(eps) * dbeta_1
        grid = GridSpec(points_per_axis=16)
        model = make_model(flux=linear_advection(0.0),
                           diffusion=linear_diffusion(0.0, 0.5),
                           noise=unit_additive_noise())
        config = SolverConfig(dt=1e-3, t_end=1e-3, eps=0.04)
        path = WienerPath(master_seed=21, stream_index=0, truncation=1)
        u1 = solve(constant_field(grid, 0.0), model, config, path=path).terminal
        dbeta = np.random.default_rng((21, 0)).standard_normal(1)[0] * np.sqrt(1e-3)
        assert np.allclose(u1.values, 0.2 * dbeta, atol=1e-15)

    def test_noise_requires_path(self):
        grid = GridSpec(points_per_axis=16)
        model = make_model()
        config = SolverConfig(dt=1e-4, t_end=1e-3, eps=1e-2)
        with pytest.raises(ConfigurationError):
            solve(constant_field(grid, 1.0), model, config)


class TestSolve:
    def test_mass_conservation_deterministic(self):
        grid = GridSpec(points_per_axis=64)
        x = grid.nodes()
        u0 = SpectralField(grid, 0.5 + 0.3 * np.sin(2 * np.pi * x))
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.2)
        traj = solve(u0, model, config)
        masses = [np.mean(s.values) for s in traj.snapshots]
        assert np.max(np.abs(np.array(masses) - masses[0])) < 1e-12

    def test_same_seed_identical(self):
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.05, eps=1e-2)
        t1 = solve(u0, model, config, path=WienerPath(9, 0, 4))
        t2 = solve(u0, model, config, path=WienerPath(9, 0, 4))
        assert np.array_equal(t1.values_matrix(), t2.values_matrix())
        t3 = solve(u0, model, config, path=WienerPath(9, 1, 4))
        assert not np.array_equal(t1.values_matrix(), t3.values_matrix())

    def test_snapshot_layout(self):
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        config = SolverConfig(dt=5e-4, t_end=0.25)
        traj = solve(u0, make_model(), config)
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 0.25) < 1e-12
        assert 2 <= len(traj.times) <= 65
        assert np.all(np.diff(traj.times) > 0)

    def test_mass_martingale(self):
        # noise only moves the mass as a martingale: sample mean of the
        # terminal mass drift stays inside 3 standard errors
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        model = make_model()
        config = SolverConfig(dt=1e-3, t_end=0.05, eps=1e-2)
        drifts = []
        for m in range(200):
            traj = solve(u0, model, config, path=WienerPath(17, m, 4))
            drifts.append(np.mean(traj.terminal.values) - 1.0)
        drifts = np.array(drifts)
        stderr = np.std(drifts, ddof=1) / np.sqrt(len(drifts))
        assert abs(np.mean(drifts)) <= 3 * stderr + 1e-12

    def test_cfl_enforced(self):
        grid = GridSpec(points_per_axis=64)
        config = SolverConfig(dt=0.01, t_end=1.0)
        with pytest.raises(ConfigurationError):
            solve(constant_field(grid, 1.0), make_model(), config)

    def test_divergence_reported_with_step(self):
        # flux spec understates its Lipschitz bound, so the CFL gate lets an
        # unstable run through; the blow-up must be caught and located
        lying = FluxSpec(eval=lambda u: 1e6 * np.asarray(u, dtype=float),
                         deriv=lambda u: np.full_like(np.asarray(u, dtype=float), 1e6),
                         lipschitz_bound=1e-9)
        model = make_model(flux=lying, diffusion=linear_diffusion(0.0, 0.5))
        grid = GridSpec(points_per_axis=32)
        x = grid.nodes()
        u0 = SpectralField(grid, np.sin(2 * np.pi * x))
        config = SolverConfig(dt=0.01, t_end=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                solve(u0, model, config)
        assert err.value.step_index >= 0

    @pytest.mark.parametrize("name", ["dt", "t_end", "eta", "gamma", "eps",
                                      "lambda_eps", "cfl_safety"])
    def test_non_finite_config_rejected(self, name):
        for bad in (np.nan, np.inf, -np.inf):
            fields = {"dt": 1e-3, "t_end": 1.0, name: bad}
            with pytest.raises(ConfigurationError, match=name):
                SolverConfig(**fields)

    def test_dt_must_divide_t_end(self):
        grid = GridSpec(points_per_axis=32)
        config = SolverConfig(dt=3e-4, t_end=0.1)
        with pytest.raises(ConfigurationError):
            solve(constant_field(grid, 1.0), make_model(), config)


class TestSchemeProperties:
    def test_monotone_comparison(self):
        # Rusanov with pure flux preserves nodewise ordering under CFL
        grid = GridSpec(points_per_axis=64)
        x = grid.nodes()
        u0 = SpectralField(grid, 0.2 * np.sin(2 * np.pi * x))
        v0 = SpectralField(grid, 0.2 * np.sin(2 * np.pi * x) + 0.3 + 0.2 * np.cos(2 * np.pi * x))
        model = make_model(flux=burgers_clamped(2.0), diffusion=linear_diffusion(0.0, 0.5))
        config = SolverConfig(dt=0.1 / 40, t_end=0.1)
        tu = solve(u0, model, config)
        tv = solve(v0, model, config)
        for su, sv in zip(tu.snapshots, tv.snapshots):
            assert np.all(su.values <= sv.values + 1e-12)

    def test_l2_dissipation(self):
        grid = GridSpec(points_per_axis=64)
        x = grid.nodes()
        u0 = SpectralField(grid, 0.4 * np.sin(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x))
        model = make_model(flux=burgers_clamped(2.0), diffusion=linear_diffusion(0.5, 0.5))
        config = SolverConfig(dt=0.1 / 50, t_end=0.1)
        traj = solve(u0, model, config)
        l2 = [np.sqrt(np.mean(s.values ** 2)) for s in traj.snapshots]
        assert np.all(np.diff(l2) <= 1e-10)

    def test_energy_ledger_with_viscosity(self):
        # discrete energy balance: ||u(T)||^2 + 2 eta dt sum ||grad u||^2 <= ||u0||^2
        grid = GridSpec(points_per_axis=64)
        x = grid.nodes()
        u0 = SpectralField(grid, 0.4 * np.sin(2 * np.pi * x))
        model = make_model(flux=burgers_clamped(2.0), diffusion=linear_diffusion(0.0, 0.5))
        # 50 steps with a snapshot after every one
        config = SolverConfig(dt=0.002, t_end=0.1, eta=0.05, snapshot_count=51)
        traj = solve(u0, model, config)
        assert len(traj.times) == 51
        lap = laplacian_multiplier(grid)
        initial = np.mean(u0.values ** 2)
        ledger = 0.0
        for state in traj.snapshots[1:]:
            grad_sq = float(np.sum(lap * np.abs(state.spectrum) ** 2))
            ledger += 2.0 * config.eta * config.dt * grad_sq
        final = np.mean(traj.terminal.values ** 2)
        assert final + ledger <= initial + 1e-8


class TestTrajectoryArtifacts:
    def test_validation(self):
        grid = GridSpec(points_per_axis=8)
        snap = constant_field(grid, 1.0)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.1, 0.2]), snapshots=(snap, snap))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), snapshots=(snap, snap))

    def test_csv_export(self, tmp_path):
        grid = GridSpec(points_per_axis=16)
        traj = solve(constant_field(grid, 1.0), make_model(),
                     SolverConfig(dt=1e-3, t_end=0.01))
        out = tmp_path / "traj.csv"
        trajectory_to_csv(traj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,node,value"
        assert len(lines) == 1 + 16 * len(traj.times)
