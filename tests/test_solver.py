"""Tests for the IMEX integrator: CFL bounds, flux schemes, noise paths,
batches, conservation and dissipation properties."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from fraclab.fields import GridSpec, SpectralField, constant_field, laplacian_multiplier
from fraclab.models import (
    ConfigurationError,
    FluxSpec,
    ModelSpec,
    NoiseSpec,
    additive_noise,
    burgers_clamped,
    diagonal_decay_noise,
    linear_advection,
    linear_diffusion,
    paired_harmonic_noise,
)
from fraclab.skeleton import random_control
from fraclab.solver import (
    DivergenceError,
    SolverConfig,
    Trajectory,
    WienerBatch,
    WienerPath,
    _StepContext,
    control_gradient,
    plan_steps,
    solve,
    stable_dt,
    trajectory_to_csv,
)

from oracles import (
    per_step_control_gradient,
    per_step_controlled_path,
    three_transform_step,
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
        tables=lambda x: (np.ones((1, len(x))), np.zeros((1, len(x)))),
        growth_const=1.0,
    )


# the implicit terms of the step: none, viscous, biharmonic
IMPLICIT = {"none": {}, "eta": {"eta": 1e-3}, "gamma": {"gamma": 1e-6}}


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


class TestWienerBatch:
    def test_rows_are_the_streams_alone(self):
        batch = WienerBatch(11, (3, 0, 3), 5)
        # 70 steps cross the boundaries of the blocks each stream draws
        drawn = np.array(list(batch.steps(70, 1e-3)))
        for row, stream in enumerate((3, 0, 3)):
            path = WienerPath(11, stream, 5)
            expected = [path.increments(i, 1e-3) for i in range(70)]
            assert np.array_equal(drawn[:, row], expected)

    def test_digest_hashes_the_consumed_rows(self):
        batch = WienerBatch(7, (5, 2), 3, digest_rows=(1,))
        for _ in batch.steps(10, 1e-3):
            pass
        assert batch.digest(1) == WienerPath(7, 2, 3).digest(10, 1e-3)
        assert batch.digest(1) != WienerPath(7, 5, 3).digest(10, 1e-3)


def batch_snapshots(run, config):
    """Recorded states of a batch run, shape (..., M, snapshots, N)."""
    _, record = plan_steps(config)
    snaps = []

    def observe(step, values, dbeta):
        if step in record:
            snaps.append(values.copy())

    run(observe)
    return np.stack(snaps, axis=-2)


class TestBatch:
    """Row m of a batch is bit for bit the path of row m solved alone."""

    STREAMS = (3, 7, 0, 11, 4)

    def rows(self, grid, count=len(STREAMS)):
        x = grid.nodes()
        return np.array([1.0 + 0.1 * m * np.sin(2 * np.pi * (x + 0.1 * m))
                         for m in range(count)])

    # every transform branch of the step: the implicit term is off (the
    # fractional and spectral flux branch of the iterative rate), viscous or
    # biharmonic; the viscous cases have no id suffix, and one case
    # stacks two legs that share their rows' increments.  The one-row cases
    # hold the path alone, a scalar stream, to the (1, N) batch of stream 0
    @pytest.mark.parametrize("scheme, implicit, legs, streams", [
        pytest.param(scheme, implicit, legs, streams, id=scheme + suffix)
        # the outermost iterable is the only one that sees the class's names
        for implicit, legs, streams, suffix in (
            ("eta", False, STREAMS, ""), ("none", False, STREAMS, "-none"),
            ("gamma", False, STREAMS, "-gamma"), ("gamma", True, STREAMS, "-gamma-legs"),
            ("eta", False, (0,), "-one-row"))
        for scheme in ("rusanov", "spectral")])
    # a state-dependent family: both nodal tables of the pairing are nonzero
    @pytest.mark.parametrize("noise", [pytest.param(diagonal_decay_noise(4), id="table")])
    @pytest.mark.parametrize("control", [False, True])
    def test_rows_equal_single_paths(self, scheme, implicit, legs, streams, noise,
                                     control):
        grid = GridSpec(points_per_axis=32)
        model = make_model(noise=noise)
        config = SolverConfig(dt=1e-3, t_end=0.05, eps=1e-2, flux_scheme=scheme,
                              snapshot_count=6, **IMPLICIT[implicit])
        u0 = self.rows(grid, len(streams))
        if legs:
            u0 = np.stack((u0, u0[::-1]))
        path = WienerBatch(9, streams, 4)
        controls = [random_control(i, 4, 0.05, intervals=3) for i in range(2)]
        which = np.arange(len(streams)) % len(controls)
        if control:
            batch = batch_snapshots(lambda observe: solve(
                u0, model, config, path, control=controls, rows=which,
                observe=observe), config)
        else:
            batch = batch_snapshots(
                lambda observe: solve(u0, model, config, path, observe=observe),
                config)
        for index in np.ndindex(u0.shape[:-1]):
            m = index[-1]
            alone = SpectralField(grid, u0[index])
            stream = WienerBatch(9, streams[m], 4)
            if control:
                traj = solve(alone, model, config, stream, control=controls[which[m]])
            else:
                traj = solve(alone, model, config, stream)
            assert np.array_equal(batch[index], traj.values_matrix())

    @pytest.mark.parametrize("control", [False, True])
    @pytest.mark.parametrize("scheme", ["rusanov", "spectral"])
    def test_eps_slices_equal_single_paths(self, scheme, control):
        # slice e of an eps axis is the run of replace(config, eps=eps[e]):
        # each (eps, row) path is bit for bit that row alone on its own stream
        grid = GridSpec(points_per_axis=32)
        model = make_model()
        config = SolverConfig(dt=1e-3, t_end=0.05, eta=1e-3, flux_scheme=scheme,
                              snapshot_count=6)
        eps = np.array([1e-1, 1e-2, 1e-4])
        u0 = self.rows(grid)
        controls = [random_control(i, 4, 0.05, intervals=3) for i in range(2)]
        which = np.arange(len(self.STREAMS)) % len(controls)
        kwargs = {"control": controls, "rows": which} if control else {}
        batch = batch_snapshots(lambda observe: solve(
            np.broadcast_to(u0, (len(eps),) + u0.shape), model, config,
            WienerBatch(9, self.STREAMS, 4), observe=observe, eps=eps, **kwargs),
            config)
        for e, m in np.ndindex(batch.shape[:2]):
            alone = solve(SpectralField(grid, u0[m]), model,
                          replace(config, eps=float(eps[e])),
                          WienerBatch(9, self.STREAMS[m], 4),
                          control=controls[which[m]] if control else None)
            assert np.array_equal(batch[e, m], alone.values)

    def test_eps_axis_rejects_negative_or_nan(self):
        grid = GridSpec(points_per_axis=32)
        u0 = np.stack([self.rows(grid)] * 2)
        for bad in ([1e-2, -1e-3], [np.nan, 1e-2]):
            with pytest.raises(ConfigurationError, match="eps"):
                solve(u0, make_model(), SolverConfig(dt=1e-3, t_end=0.01),
                      WienerBatch(9, self.STREAMS, 4), eps=np.array(bad),
                      observe=lambda step, values, dbeta: None)

    @pytest.mark.parametrize("size", [3, 6])
    def test_eps_axis_matches_the_first_axis(self, size):
        # one intensity per slice along u0's first axis, or one for all
        grid = GridSpec(points_per_axis=32)
        with pytest.raises(ConfigurationError, match=f"^eps: {size} noise intensities"):
            solve(self.rows(grid), make_model(), SolverConfig(dt=1e-3, t_end=0.01),
                  WienerBatch(9, self.STREAMS, 4), eps=np.linspace(1e-2, 1e-4, size),
                  observe=lambda step, values, dbeta: None)

    @pytest.mark.parametrize("size", [8, 2])
    def test_one_path_takes_one_eps(self, size):
        # an axis as long as the path's nodes would scale node j's noise by
        # sqrt(eps[j]); any other length would not broadcast
        grid = GridSpec(points_per_axis=8)
        u0 = SpectralField(grid, np.ones(8))
        config = SolverConfig(dt=1e-3, t_end=0.01)
        for start in (u0, u0.values):
            with pytest.raises(ConfigurationError, match="^eps: one path"):
                solve(start, make_model(), config, WienerBatch(1, 0, 4),
                      eps=np.linspace(1e-2, 1e-3, size),
                      observe=lambda step, values, dbeta: None)

    def test_non_finite_rows_are_an_input_error(self):
        # one NaN entry of a batch is a config error naming u0, raised
        # before observe sees step 0, not a divergence at step 0
        grid = GridSpec(points_per_axis=32)
        seen = []
        for bad in (np.nan, np.inf):
            u0 = self.rows(grid)
            u0[1, 3] = bad
            with pytest.raises(ConfigurationError, match="u0"):
                solve(u0, make_model(), SolverConfig(dt=1e-3, t_end=0.01, eps=1e-2),
                      WienerBatch(9, self.STREAMS, 4),
                      observe=lambda step, values, dbeta: seen.append(step))
        assert seen == []

    def test_divergence_names_the_slices_that_lost_finiteness(self):
        # multiplicative noise at eps = 1e300 overflows within a few steps;
        # the eps = 1e-2 slice stays finite
        grid = GridSpec(points_per_axis=32)
        u0 = np.stack([self.rows(grid)] * 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                solve(u0, make_model(), SolverConfig(dt=1e-3, t_end=0.05),
                      WienerBatch(9, self.STREAMS, 4), eps=np.array([1e300, 1e-2]),
                      observe=lambda step, values, dbeta: None)
        assert err.value.slices
        assert all(len(index) == 2 and index[0] == 0 for index in err.value.slices)

    def test_controls_on_different_breakpoints_rejected(self):
        grid = GridSpec(points_per_axis=32)
        config = SolverConfig(dt=1e-3, t_end=0.05, eps=1e-2)
        controls = [random_control(i, 4, 0.05, intervals=n)
                    for i, n in enumerate((4, 6))]
        with pytest.raises(ConfigurationError, match="share breakpoints"):
            solve(self.rows(grid), make_model(), config,
                  WienerBatch(9, self.STREAMS, 4), control=controls,
                  rows=np.arange(len(self.STREAMS)) % 2,
                  observe=lambda step, values, dbeta: None)

    def test_leading_axes_share_their_row_increments(self):
        grid = GridSpec(points_per_axis=32)
        model = make_model()
        config = SolverConfig(dt=1e-3, t_end=0.02, eps=1e-2, snapshot_count=3)
        u0 = self.rows(grid)
        legs = np.stack((u0, u0[::-1]))
        batch = batch_snapshots(lambda observe: solve(
            legs, model, config, WienerBatch(2, self.STREAMS, 4),
            observe=observe), config)
        for leg in range(2):
            for m, stream in enumerate(self.STREAMS):
                traj = solve(SpectralField(grid, legs[leg, m]), model, config,
                             WienerBatch(2, stream, 4))
                assert np.array_equal(batch[leg, m], traj.values_matrix())

    def test_diverging_row_reports_its_first_bad_step(self):
        lying = FluxSpec(eval=lambda u: 1e6 * np.asarray(u, dtype=float),
                         deriv=lambda u: np.full_like(np.asarray(u, dtype=float), 1e6),
                         deriv2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                         lipschitz_bound=1e-9)
        model = make_model(flux=lying, diffusion=linear_diffusion(0.0, 0.5))
        grid = GridSpec(points_per_axis=32)
        x = grid.nodes()
        config = SolverConfig(dt=0.01, t_end=2.0)
        bad = np.sin(2 * np.pi * x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as alone:
                solve(SpectralField(grid, bad), model, config)
            with pytest.raises(DivergenceError) as batched:
                solve(np.stack((np.zeros(32), bad, np.zeros(32))), model,
                      config, observe=lambda step, values, dbeta: None)
        assert batched.value.step_index == alone.value.step_index
        assert batched.value.time == alone.value.time
        assert batched.value.slices == [(1,)]
        assert alone.value.slices == [()]


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
        path = WienerBatch(master_seed=21, streams=0, truncation=1)
        u1 = solve(constant_field(grid, 0.0), model, config, path=path).terminal
        dbeta = np.random.default_rng((21, 0)).standard_normal(1)[0] * np.sqrt(1e-3)
        assert np.allclose(u1.values, 0.2 * dbeta, atol=1e-15)

    def test_noise_requires_path(self):
        grid = GridSpec(points_per_axis=16)
        model = make_model()
        config = SolverConfig(dt=1e-4, t_end=1e-3, eps=1e-2)
        with pytest.raises(ConfigurationError):
            solve(constant_field(grid, 1.0), model, config)


# every transform branch of the step: flux scheme, fractional term on or
# off, implicit term
BRANCHES = [(scheme, fractional, implicit)
            for scheme in ("rusanov", "spectral")
            for fractional in (False, True)
            for implicit in IMPLICIT]


def branch_model(fractional):
    return make_model(diffusion=linear_diffusion(0.5 if fractional else 0.0, 0.3))


class TestFusedStep:
    """One real-FFT solve per step, against a complex FFT pair per term."""

    @pytest.mark.parametrize("scheme, fractional, implicit", BRANCHES)
    def test_matches_three_transform_step(self, scheme, fractional, implicit):
        grid = GridSpec(points_per_axis=64)
        model = branch_model(fractional)
        config = SolverConfig(dt=1e-4, t_end=1.0, eps=1e-2, flux_scheme=scheme,
                              **IMPLICIT[implicit])
        ctx = _StepContext(grid, model, config)
        rng = np.random.default_rng(17)
        values = 1.0 + 0.3 * rng.standard_normal((2, 5, 64))
        dbeta = np.sqrt(config.dt) * rng.standard_normal((5, 4))
        coeffs = rng.standard_normal((5, 4))
        fused = ctx.advance(values, dbeta, ctx.pair.split(coeffs))
        reference = three_transform_step(values, model, config, ctx.pair, dbeta, coeffs)
        assert np.max(np.abs(fused - reference)) <= 1e-12

    @staticmethod
    def count_transforms(monkeypatch):
        """Counts of the real FFTs called from now on; a complex FFT fails."""
        calls = {"rfft": 0, "irfft": 0}

        def counted(name):
            transform = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)
            return wrapper

        def refuse(*args, **kwargs):
            raise AssertionError("the step called a complex FFT")

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.fft, "ifft", refuse)
        return calls

    @pytest.mark.parametrize("scheme, fractional, implicit", BRANCHES)
    def test_one_inverse_transform_per_step(self, monkeypatch, scheme, fractional,
                                            implicit):
        calls = self.count_transforms(monkeypatch)
        config = SolverConfig(dt=1e-3, t_end=0.02, eps=1e-2, flux_scheme=scheme,
                              **IMPLICIT[implicit])
        u0 = 1.0 + 0.1 * np.random.default_rng(4).standard_normal((5, 32))
        solve(u0, branch_model(fractional), config, WienerBatch(9, range(5), 4),
              observe=lambda step, values, dbeta: None)
        # Rusanov with no fractional and no implicit term has no spectral term
        steps = 0 if scheme == "rusanov" and not fractional and implicit == "none" \
            else 20
        # the explicit update and every spectral term's nodal function share
        # one rfft
        assert calls["irfft"] == steps
        assert calls["rfft"] == steps

    @pytest.mark.parametrize("scheme, fractional, implicit", BRANCHES)
    def test_one_transform_pair_per_transposed_step(self, monkeypatch, scheme,
                                                    fractional, implicit):
        # 50 steps, over two blocks of the sweep
        config = SolverConfig(dt=1e-3, t_end=0.05, flux_scheme=scheme,
                              snapshot_count=51, **IMPLICIT[implicit])
        model = branch_model(fractional)
        control = random_control(3, 4, 0.05, intervals=3)
        grid = GridSpec(points_per_axis=32)
        states = solve(SpectralField(grid, TestBatch().rows(grid)[1]), model, config,
                       control=control).values
        calls = self.count_transforms(monkeypatch)
        control_gradient(states, model, config, control,
                         np.random.default_rng(5).standard_normal(32))
        steps = 0 if scheme == "rusanov" and not fractional and implicit == "none" \
            else 50
        # the cotangent's rfft feeds the implicit solve and every spectral
        # term at once, and one irfft returns them all
        assert calls["rfft"] == steps
        assert calls["irfft"] == steps


class TestPerStepReference:
    """solve pairs a control interval's coefficients once and control_gradient
    sweeps in blocks of 32 steps; both agree bit for bit with a reference
    that does all of it one step at a time.  The paths run 75 steps, over
    three blocks, under 1, 3 (breakpoints at steps 25 and 50, off every
    block edge) and 75 (per-step) control intervals."""

    T = 0.075
    NOISES = [pytest.param(noise, id=noise.name) for noise in (
        diagonal_decay_noise(4), additive_noise(4, offset=0.3), paired_harmonic_noise(2))]

    def case(self, scheme, fractional, implicit, noise):
        model = make_model(diffusion=branch_model(fractional).diffusion, noise=noise)
        config = SolverConfig(dt=1e-3, t_end=self.T, flux_scheme=scheme,
                              snapshot_count=76, **IMPLICIT[implicit])
        return model, config, TestBatch().rows(GridSpec(points_per_axis=32))

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("scheme, fractional, implicit", BRANCHES)
    def test_controlled_paths(self, scheme, fractional, implicit, noise):
        model, config, u0 = self.case(scheme, fractional, implicit, noise)
        which = np.array([0, 2, 1, 2, 0])
        for m in (1, 3, 75):
            controls = [random_control(i, 4, self.T, intervals=m) for i in range(3)]
            alone = solve(SpectralField(GridSpec(32), u0[1]), model, config,
                          control=controls[0])
            reference = per_step_controlled_path(u0[1], model, config, controls)
            assert alone.values.tobytes() == reference.tobytes()
            batch = []
            solve(u0, model, config, control=controls, rows=which,
                  observe=lambda step, values, dbeta: batch.append(values))
            reference = per_step_controlled_path(u0, model, config, controls, which)
            assert np.array(batch).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("scheme, fractional, implicit", BRANCHES)
    def test_control_gradient(self, scheme, fractional, implicit, noise):
        model, config, u0 = self.case(scheme, fractional, implicit, noise)
        cotangent = np.random.default_rng(5).standard_normal(32)
        for m in (1, 3, 75):
            control = random_control(7, 4, self.T, intervals=m)
            states = solve(SpectralField(GridSpec(32), u0[2]), model, config,
                           control=control).values
            grad = control_gradient(states, model, config, control, cotangent)
            reference = per_step_control_gradient(states, model, config, control,
                                                  cotangent)
            assert grad.shape == (m, 4)
            assert grad.tobytes() == reference.tobytes()


class TestSolve:
    def test_mass_conservation_deterministic(self):
        grid = GridSpec(points_per_axis=64)
        x = grid.nodes()
        u0 = SpectralField(grid, 0.5 + 0.3 * np.sin(2 * np.pi * x))
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.2)
        traj = solve(u0, model, config)
        masses = [np.mean(row) for row in traj.values]
        assert np.max(np.abs(np.array(masses) - masses[0])) < 1e-12

    def test_same_seed_identical(self):
        grid = GridSpec(points_per_axis=32)
        u0 = constant_field(grid, 1.0)
        model = make_model()
        config = SolverConfig(dt=5e-4, t_end=0.05, eps=1e-2)
        t1 = solve(u0, model, config, path=WienerBatch(9, 0, 4))
        t2 = solve(u0, model, config, path=WienerBatch(9, 0, 4))
        assert np.array_equal(t1.values_matrix(), t2.values_matrix())
        t3 = solve(u0, model, config, path=WienerBatch(9, 1, 4))
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
            traj = solve(u0, model, config, path=WienerBatch(17, m, 4))
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
                         deriv2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
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
                                      "cfl_safety"])
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
        for su, sv in zip(tu.values, tv.values):
            assert np.all(su <= sv + 1e-12)

    def test_l2_dissipation(self):
        grid = GridSpec(points_per_axis=64)
        x = grid.nodes()
        u0 = SpectralField(grid, 0.4 * np.sin(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x))
        model = make_model(flux=burgers_clamped(2.0), diffusion=linear_diffusion(0.5, 0.5))
        config = SolverConfig(dt=0.1 / 50, t_end=0.1)
        traj = solve(u0, model, config)
        l2 = [np.sqrt(np.mean(row ** 2)) for row in traj.values]
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
        for row in traj.values[1:]:
            spectrum = np.fft.fft(row) / grid.size
            grad_sq = float(np.sum(lap * np.abs(spectrum) ** 2))
            ledger += 2.0 * config.eta * config.dt * grad_sq
        final = np.mean(traj.terminal.values ** 2)
        assert final + ledger <= initial + 1e-8


class TestTrajectoryArtifacts:
    def test_validation(self):
        snaps = np.ones((2, 8))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.1, 0.2]), values=snaps)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), values=snaps)

    def test_values_are_one_read_only_array(self):
        # the iterative rate caches a recorded path, so no caller may write it
        grid = GridSpec(points_per_axis=16)
        traj = solve(constant_field(grid, 1.0), make_model(),
                     SolverConfig(dt=1e-3, t_end=0.01))
        assert traj.values.shape == (len(traj.times), 16)
        assert not traj.values.flags.writeable
        assert traj.values_matrix() is traj.values
        assert np.array_equal(traj.terminal.values, traj.values[-1])

    def test_csv_export(self, tmp_path):
        grid = GridSpec(points_per_axis=16)
        traj = solve(constant_field(grid, 1.0), make_model(),
                     SolverConfig(dt=1e-3, t_end=0.01))
        out = tmp_path / "traj.csv"
        trajectory_to_csv(traj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,node,value"
        assert len(lines) == 1 + 16 * len(traj.times)

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        rows = np.array([
            [-1.5, 5e-324, 1e-300, 3.0, -0.0, 0.0, -2.2250738585072014e-308, 1e300],
            [0.1, -0.2, 1.0 / 3.0, -7.0, 2.5e-310, -1e-300, 12345678.0, -3.25],
        ])
        traj = Trajectory(times=np.array([0.0, 1e-300, 0.5]),
                          values=np.array([rows[0], rows[1], -rows[0]]))
        out = tmp_path / "traj.csv"
        trajectory_to_csv(traj, out)

        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "node", "value"])
            for t, snap in zip(traj.times, traj.values):
                for j, v in enumerate(snap):
                    writer.writerow([repr(float(t)), j, repr(float(v))])
        assert out.read_bytes() == reference.read_bytes()
