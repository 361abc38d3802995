"""Tests for controls and the controlled/linearized equation solvers."""

import numpy as np
import pytest

from fraclab.fields import GridSpec, SpectralField, constant_field
from fraclab.models import (
    ConfigurationError,
    ModelSpec,
    additive_noise,
    burgers_clamped,
    diagonal_decay_noise,
    linear_advection,
    linear_diffusion,
)
from fraclab.skeleton import (
    Control,
    control_from_csv,
    control_to_csv,
    random_control,
    solve_controlled_spde,
    solve_mdp_skeleton,
    solve_skeleton,
)
from fraclab.solver import SolverConfig, WienerBatch, _interval_index, solve


def make_model(noise=None):
    return ModelSpec(
        flux=burgers_clamped(4.0),
        diffusion=linear_diffusion(0.5, 0.5),
        noise=noise if noise is not None else diagonal_decay_noise(4),
    )


def zero_control(truncation, t_end, intervals=4):
    return Control(times=np.linspace(0.0, t_end, intervals + 1),
                   coeffs=np.zeros((intervals, truncation)))


class TestControl:
    def test_energy(self):
        # two intervals of width 0.5, rows (1,0) and (0,2):
        # energy = 0.5*(0.5*1 + 0.5*4) = 1.25
        c = Control(times=np.array([0.0, 0.5, 1.0]),
                    coeffs=np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert abs(c.energy - 1.25) < 1e-15
        assert c.within_level_set(2.5)
        assert not c.within_level_set(2.4)

    def test_step_attribution(self):
        times = np.array([0.0, 0.25, 1.0])
        t = np.array([0.0, 0.24, 0.25, 1.0, 1.5])
        # t past the end is clamped to the last interval
        assert list(_interval_index(times, t)) == [0, 0, 1, 1, 1]
        # a step takes the interval holding its midpoint: with one additive
        # channel h = cos(2 pi x) and nothing else, step i adds dt l(mid_i)
        # at node 0
        model = ModelSpec(flux=linear_advection(0.0),
                          diffusion=linear_diffusion(0.0, 0.5),
                          noise=additive_noise(1))
        config = SolverConfig(dt=0.01, t_end=1.0, snapshot_count=101)
        control = Control(times=times, coeffs=np.array([[1.0], [2.0]]))
        traj = solve(constant_field(GridSpec(8), 0.0), model, config,
                     control=control)
        steps = np.diff(traj.values_matrix()[:, 0]) / config.dt
        assert np.allclose(steps[:25], 1.0) and np.allclose(steps[25:], 2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Control(times=np.array([0.1, 0.5]), coeffs=np.array([[1.0]]))
        with pytest.raises(ConfigurationError):
            Control(times=np.array([0.0, 0.5, 0.5]), coeffs=np.array([[1.0], [1.0]]))
        with pytest.raises(ConfigurationError):
            Control(times=np.array([0.0, 1.0]), coeffs=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_breakpoints_or_coefficients_rejected(self, bad):
        # NaN breakpoints, and an infinite last one, pass the ordering
        # check; they would give a NaN or infinite energy, and solve would
        # report a breakpoint mismatch
        times = [0.0, 0.05, np.inf] if bad == np.inf else [0.0, np.nan, 0.1]
        with pytest.raises(ConfigurationError, match="breakpoints must be finite"):
            Control(times=times, coeffs=np.zeros((2, 3)))
        with pytest.raises(ConfigurationError, match="coefficients must be finite"):
            Control(times=[0.0, 0.05, 0.1], coeffs=[[0.0, bad], [1.0, 2.0]])

    def test_scaling_and_superposition(self):
        c = random_control(3, 4, 1.0)
        d = Control(times=c.times, coeffs=2.0 * c.coeffs)
        assert abs(d.energy - 4.0 * c.energy) < 1e-12 * max(1.0, c.energy)
        s = Control(times=c.times, coeffs=c.coeffs + -1.0 * c.coeffs)
        assert s.energy == 0.0

    def test_csv_round_trip(self, tmp_path):
        c = random_control(11, 3, 0.5, intervals=5)
        p = tmp_path / "control.csv"
        control_to_csv(c, p)
        back = control_from_csv(p)
        assert np.array_equal(back.times, c.times)
        assert np.array_equal(back.coeffs, c.coeffs)


class TestSolveSkeleton:
    def test_zero_control_matches_deterministic_solve(self):
        grid = GridSpec(points_per_axis=64)
        x = grid.nodes()
        u0 = SpectralField(grid, 1.0 + 0.2 * np.sin(2 * np.pi * x))
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.1)
        plain = solve(u0, model, config)
        controlled = solve_skeleton(u0, model, zero_control(4, 0.1), config)
        assert np.array_equal(plain.values_matrix(), controlled.values_matrix())

    def test_initial_slope_matches_forcing(self):
        # from u0 = 1 the first step moves by dt * sum_k l_k h_k(x, 1)
        grid = GridSpec(points_per_axis=64)
        model = make_model(noise=additive_noise(4, q=1.0))
        config = SolverConfig(dt=1e-4, t_end=1e-3)
        ell = np.array([0.3, -0.2, 0.1, 0.05])
        control = Control(times=np.array([0.0, 1e-3]), coeffs=ell[None, :])
        traj = solve_skeleton(constant_field(grid, 1.0), model, control, config)
        one_step = traj.values[1]
        x = grid.nodes()
        forcing = sum(ell[k - 1] * k ** -1.0 * np.cos(2 * np.pi * k * x)
                      for k in range(1, 5))
        slope = (one_step - 1.0) / config.dt
        assert np.max(np.abs(slope - forcing)) < 1e-10

    def test_causality(self):
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.2)
        times = np.linspace(0.0, 0.2, 5)
        rng = np.random.default_rng(4)
        shared = rng.standard_normal((4, 4))
        a = shared.copy()
        b = shared.copy()
        b[2:] += rng.standard_normal((2, 4))  # differ only after t = 0.1
        ta = solve_skeleton(u0, model, Control(times, a), config)
        tb = solve_skeleton(u0, model, Control(times, b), config)
        for t, sa, sb in zip(ta.times, ta.values, tb.values):
            if t <= 0.1 + 1e-12:
                assert np.array_equal(sa, sb)
        assert not np.array_equal(ta.terminal.values, tb.terminal.values)

    def test_noise_scale_rejected(self):
        grid = GridSpec(points_per_axis=32)
        config = SolverConfig(dt=5e-4, t_end=0.1, eps=1e-2)
        with pytest.raises(ConfigurationError):
            solve_skeleton(constant_field(grid, 1.0), make_model(),
                           zero_control(4, 0.1), config)

    def test_short_horizon_rejected(self):
        grid = GridSpec(points_per_axis=32)
        config = SolverConfig(dt=5e-4, t_end=0.2)
        with pytest.raises(ConfigurationError):
            solve_skeleton(constant_field(grid, 1.0), make_model(),
                           zero_control(4, 0.1), config)

    def test_gronwall_style_bound(self):
        # measured growth constant stays finite across a random control suite
        grid = GridSpec(points_per_axis=32)
        x = grid.nodes()
        u0 = SpectralField(grid, 1.0 + 0.3 * np.sin(2 * np.pi * x))
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.1)
        u0_sq = np.mean(u0.values ** 2)
        for seed in range(5):
            control = random_control(seed, 4, 0.1, intervals=4)
            traj = solve_skeleton(u0, model, control, config)
            sup_sq = max(np.mean(row ** 2) for row in traj.values)
            widths = np.diff(control.times)
            l1_norm = float(widths @ np.sqrt(np.sum(control.coeffs ** 2, axis=1)))
            ratio = sup_sq / (u0_sq * np.exp(l1_norm))
            assert np.isfinite(ratio) and ratio < 1e3


class TestSolveMdpSkeleton:
    def test_zero_control_is_zero(self):
        grid = GridSpec(points_per_axis=32)
        config = SolverConfig(dt=5e-4, t_end=0.1)
        traj = solve_mdp_skeleton(zero_control(4, 0.1), make_model(), config, grid)
        assert np.max(np.abs(traj.values_matrix())) == 0.0

    def test_superposition(self):
        grid = GridSpec(points_per_axis=64)
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.2)
        a = random_control(1, 4, 0.2, intervals=4)
        b = random_control(2, 4, 0.2, intervals=4)
        za = solve_mdp_skeleton(a, model, config, grid)
        zb = solve_mdp_skeleton(b, model, config, grid)
        zab = solve_mdp_skeleton(Control(times=a.times, coeffs=a.coeffs + b.coeffs),
                                 model, config, grid)
        lhs = zab.terminal.values
        rhs = za.terminal.values + zb.terminal.values
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    def test_linearity_under_scaling(self):
        grid = GridSpec(points_per_axis=64)
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.2)
        c = random_control(7, 4, 0.2)
        z1 = solve_mdp_skeleton(c, model, config, grid)
        z3 = solve_mdp_skeleton(Control(times=c.times, coeffs=3.0 * c.coeffs),
                                model, config, grid)
        scale = max(1.0, np.max(np.abs(z3.terminal.values)))
        assert np.max(np.abs(z3.terminal.values - 3.0 * z1.terminal.values)) < 1e-10 * scale


class TestSolveControlledSpde:
    def test_reduces_to_skeleton_at_zero_eps(self):
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.1)
        control = random_control(5, 4, 0.1)
        a = solve_controlled_spde(u0, model, control, config)
        b = solve_skeleton(u0, model, control, config)
        assert np.array_equal(a.values_matrix(), b.values_matrix())

    def test_reduces_to_plain_solve_at_zero_control(self):
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.1, eps=1e-2)
        control = zero_control(4, 0.1)
        a = solve_controlled_spde(u0, model, control, config, path=WienerBatch(13, 0, 4))
        b = solve(u0, model, config, path=WienerBatch(13, 0, 4))
        assert np.array_equal(a.values_matrix(), b.values_matrix())

    def test_small_noise_tracks_skeleton(self):
        # E || controlled - skeleton || shrinks with eps
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        model = make_model()
        control = random_control(9, 4, 0.1)
        skeleton = solve_skeleton(u0, model, control,
                                  SolverConfig(dt=5e-4, t_end=0.1))
        gaps = []
        for eps in (1e-2, 1e-4):
            config = SolverConfig(dt=5e-4, t_end=0.1, eps=eps)
            dev = []
            for m in range(20):
                traj = solve_controlled_spde(u0, model, control, config,
                                             path=WienerBatch(31, m, 4))
                dev.append(np.mean(np.abs(traj.terminal.values
                                          - skeleton.terminal.values)))
            gaps.append(np.mean(dev))
        assert gaps[1] < gaps[0]
