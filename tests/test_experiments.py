"""Tests for the Monte Carlo experiment drivers."""

import json

import numpy as np
import pytest

from fraclab.fields import GridSpec, PathL1, SpectralField, constant_field
from fraclab.models import ConfigurationError
from fraclab.skeleton import random_control
from fraclab.solver import DivergenceError, SolverConfig, WienerBatch, WienerPath
from fraclab.experiments import (
    CellResult,
    ExperimentReport,
    clt_experiment,
    condition2_coupling_experiment,
    contraction_experiment,
    mass_martingale_experiment,
    mdp_concentration_experiment,
    regularization_experiment,
    report_to_csv,
    report_to_json,
)

GRID = GridSpec(32)
X = GRID.nodes()
CONFIG = SolverConfig(dt=1e-3, t_end=0.1, snapshot_count=11)

BURGERS = {"flux": {"kind": "burgers", "clamp": 4.0},
           "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
           "noise": {"kind": "diagonal-decay", "truncation": 8, "q": 1.0}}
LINEAR = {"flux": {"kind": "advection", "speed": 0.3},
          "diffusion": {"kind": "linear", "slope": 0.4, "theta": 0.5},
          "noise": {"kind": "additive", "truncation": 6, "offset": 0.0}}


def field(values):
    return SpectralField(GRID, values)


def smooth_pair():
    return (field(1.0 + 0.2 * np.sin(2.0 * np.pi * X)),
            field(1.0 + 0.1 * np.cos(2.0 * np.pi * X)))


def cells_of_kind(report, kind):
    return [c for c in report.cells if dict(c.params).get("kind") == kind]


class TestContraction:
    def test_identical_pair_is_exactly_zero(self):
        u0 = field(1.0 + 0.2 * np.sin(2.0 * np.pi * X))
        rep = contraction_experiment(BURGERS, [(u0, u0)], 1e-2, 100,
                                     config=CONFIG, seed=3)
        assert rep.passed
        assert rep.cells[0].statistic == 0.0

    def test_deterministic_monotone_scheme_contracts_exactly(self):
        # eps = 0, no fractional term, Rusanov, no viscosity: the update is
        # monotone under the CFL bound, so the L1 distance never grows and
        # the worst recorded distance is the initial one
        det = {"flux": {"kind": "burgers", "clamp": 4.0},
               "diffusion": {"kind": "linear", "slope": 0.0, "theta": 0.5},
               "noise": {"kind": "diagonal-decay", "truncation": 4}}
        pairs = [(field(1.0 + 0.3 * np.sin(2.0 * np.pi * X)),
                  field(1.0 - 0.2 * np.sin(2.0 * np.pi * X)))]
        rep = contraction_experiment(det, pairs, 0.0, 100, config=CONFIG)
        cell = rep.cells[0]
        init = dict(cell.extra)["init_l1"]
        assert cell.samples == 1
        assert cell.statistic <= init + 1e-14
        assert rep.passed

    def test_random_smooth_pair_verdict(self):
        rep = contraction_experiment(BURGERS, [smooth_pair()], 1e-2, 100,
                                     config=CONFIG, seed=3)
        assert rep.passed
        assert rep.cells[0].samples == 100
        assert len(rep.digests) == 1

    def test_validation(self):
        pair = smooth_pair()
        with pytest.raises(ConfigurationError):
            contraction_experiment(BURGERS, [pair], 1e-2, 50, config=CONFIG)
        other = constant_field(GridSpec(16), 1.0)
        with pytest.raises(ConfigurationError):
            contraction_experiment(BURGERS, [(pair[0], other)], 1e-2, 100,
                                   config=CONFIG)


class TestClt:
    def test_linear_model_gap_is_eps_independent(self):
        # linear flux and diffusion with state-independent noise: the
        # rescaled fluctuation solves the same linear equation at every eps,
        # so the oracle gap is pure discretization error
        rep = clt_experiment(LINEAR, [1e-2, 1e-4], 1e-3, 100, grid=GRID,
                             config=CONFIG, modes=(1,), seed=8)
        stats = [c.statistic for c in cells_of_kind(rep, "path-gap")]
        assert abs(stats[0] - stats[1]) <= 1e-6 * stats[0]

    def test_rusanov_oracle_follows_the_scheme(self):
        # Rusanov's linearization about 1 damps mode k by its numerical
        # viscosity |a| N (1 - cos(2 pi k / N)) on top of the continuum rate;
        # with it the oracle leg of a linear model differs from the scheme
        # only by the time step
        rep = clt_experiment(LINEAR, [1e-2, 1e-4], 1e-3, 100, grid=GRID,
                             config=CONFIG, modes=(1, 2), seed=8)
        for cell in cells_of_kind(rep, "mode-variance"):
            k = dict(cell.params)["mode"]
            re_mu = (0.4 * 2 * np.pi * k + 1e-3 * 4 * np.pi ** 2 * k * k
                     + 0.3 * 32 * (1 - np.cos(2 * np.pi * k / 32)))
            expected = -np.expm1(-2 * re_mu * 0.1) / (2 * re_mu) / (4 * k * k)
            assert dict(cell.extra)["oracle"] == pytest.approx(expected, rel=1e-12)
        gaps = [c.statistic for c in cells_of_kind(rep, "path-gap")]
        assert max(gaps) < 5e-5

    def test_burgers_gap_strictly_decreases(self):
        rep = clt_experiment(BURGERS, [1e-2, 1e-3, 1e-4], 1e-3, 100,
                             grid=GRID, config=CONFIG, modes=(1,), seed=5)
        stats = [c.statistic for c in cells_of_kind(rep, "path-gap")]
        assert stats[0] > stats[1] > stats[2]
        assert rep.passed

    def test_terminal_mode_variance_matches_oracle(self):
        rep = clt_experiment(BURGERS, [1e-2, 1e-3, 1e-4], 1e-3, 100,
                             grid=GRID, config=CONFIG, modes=(1,), seed=5)
        var_cells = cells_of_kind(rep, "mode-variance")
        assert len(var_cells) == 1
        cell = var_cells[0]
        assert dict(cell.params)["eps"] == 1e-4
        oracle = dict(cell.extra)["oracle"]
        assert abs(cell.statistic - oracle) <= 3.0 * cell.stderr

    def test_grid_draws_each_stream_once(self, monkeypatch):
        # the eps grid is one batch axis: M stream rows for every cell, not
        # one set of M per cell
        rows = []
        steps = WienerBatch.steps

        def counted(self, n_steps, dt):
            rows.append(self.streams.size)
            return steps(self, n_steps, dt)

        monkeypatch.setattr(WienerBatch, "steps", counted)
        clt_experiment(BURGERS, [1e-2, 1e-3, 1e-4], 1e-3, 100, grid=GRID,
                       config=CONFIG, modes=(1,), seed=5)
        assert rows == [100]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_names_the_eps_of_its_slice(self, workers):
        # multiplicative noise at eps = 1e300 overflows in a few steps, and
        # aborts the grid, whose first cell it is
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError,
                               match=r"sample \d+ at eps = 1e\+300 lost finiteness"):
                clt_experiment(BURGERS, [1e300, 1e-2], 1e-3, 100, grid=GRID,
                               config=CONFIG, modes=(1,), seed=5, workers=workers)

    def test_coupling_digests_logged(self):
        rep = clt_experiment(BURGERS, [1e-2, 1e-3], 1e-3, 100, grid=GRID,
                             config=CONFIG, modes=(1,), seed=5)
        assert len(rep.digests) == 2
        for entry in rep.digests:
            label, digest = entry.split(":")
            assert label.startswith("eps")
            assert len(digest) == 32

    def test_validation(self):
        bumpy = field(1.0 + 0.1 * np.sin(2.0 * np.pi * X))
        with pytest.raises(ConfigurationError):
            clt_experiment(BURGERS, [1e-2, 1e-3], 1e-3, 100, u0=bumpy,
                           config=CONFIG)
        with pytest.raises(ConfigurationError):
            clt_experiment(BURGERS, [1e-3, 1e-2], 1e-3, 100, grid=GRID,
                           config=CONFIG)
        with pytest.raises(ConfigurationError):
            clt_experiment(BURGERS, [1e-2, 1e-3], 1e-3, 50, grid=GRID,
                           config=CONFIG)


class TestMassMartingale:
    MULT = {"flux": {"kind": "burgers"},
            "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
            "noise": {"kind": "diagonal-decay", "truncation": 6}}

    def test_deterministic_run_conserves_mass(self):
        rep = mass_martingale_experiment(self.MULT, 0.0, 500, grid=GRID,
                                         config=CONFIG)
        assert rep.cells[0].statistic <= 1e-12
        assert rep.cells[0].samples == 1
        assert rep.passed

    def test_additive_noise_matches_closed_form_variance(self):
        # state-independent channels make the mass drift a Gaussian with
        # variance eps * T * sum_n (mean h_n)^2
        add = {"flux": {"kind": "burgers"},
               "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
               "noise": {"kind": "additive", "truncation": 6, "offset": 0.5}}
        rep = mass_martingale_experiment(add, 1e-2, 500, grid=GRID,
                                         config=CONFIG, seed=7)
        var_cells = cells_of_kind(rep, "mass-variance")
        assert len(var_cells) == 1
        cell = var_cells[0]
        closed = dict(cell.extra)["closed_form"]
        weights = np.array([float(k) ** -1.0 * 0.5
                            for k in range(1, 7)])
        expected = 1e-2 * CONFIG.t_end * float(np.sum(weights ** 2))
        assert closed == pytest.approx(expected, rel=1e-12)
        assert abs(cell.statistic - closed) <= 3.0 * cell.stderr
        assert rep.passed

    def test_multiplicative_mean_drift(self):
        rep = mass_martingale_experiment(self.MULT, 1e-2, 500, grid=GRID,
                                         config=CONFIG, seed=17)
        assert [dict(c.params)["kind"] for c in rep.cells] == ["mean-drift"]
        assert rep.cells[0].statistic <= 3.0 * rep.cells[0].stderr
        assert rep.passed

    def test_sample_floor(self):
        with pytest.raises(ConfigurationError):
            mass_martingale_experiment(self.MULT, 1e-2, 200, grid=GRID,
                                       config=CONFIG)


class TestRegularization:
    def test_constant_steady_state_gives_zero_increments(self):
        u0 = constant_field(GRID, 1.0)
        rep = regularization_experiment(BURGERS, None, [1e-2, 1e-3, 1e-4],
                                        which="eta", u0=u0, config=CONFIG)
        assert [c.statistic for c in rep.cells] == [0.0, 0.0]
        assert rep.passed

    def test_linear_increments_match_mode_oracle(self):
        # no flux, one driven harmonic: u(t,x) = 1 + 0.3 e^{-mu(eta) t}
        # sin(2 pi x) with mu(eta) = 0.4 * 2 pi + eta * 4 pi^2, so ladder
        # increments follow from the continuum decay rates directly
        model = {"flux": {"kind": "advection", "speed": 0.0},
                 "diffusion": {"kind": "linear", "slope": 0.4, "theta": 0.5},
                 "noise": {"kind": "additive", "truncation": 4}}
        u0 = field(1.0 + 0.3 * np.sin(2.0 * np.pi * X))
        config = SolverConfig(dt=1e-3, t_end=0.1, snapshot_count=101)
        ladder = (4e-3, 2e-3, 1e-3, 5e-4)
        rep = regularization_experiment(model, None, ladder, which="eta",
                                        u0=u0, config=config)
        times = np.arange(101) * config.dt
        base = 0.4 * 2.0 * np.pi
        four_pi_sq = 4.0 * np.pi ** 2
        for cell, (ea, eb) in zip(rep.cells, zip(ladder, ladder[1:])):
            mua = base + ea * four_pi_sq
            mub = base + eb * four_pi_sq
            profiles = np.array([0.3 * abs(np.exp(-mua * t) - np.exp(-mub * t))
                                 * np.abs(np.sin(2.0 * np.pi * X)) for t in times])
            path = PathL1()
            for t, profile in zip(times, profiles):
                path.add(t, profile)
            expected = path.total
            assert cell.statistic == pytest.approx(expected, rel=1e-3)
        # first-order perturbation: increments scale with the rung gaps
        stats = [c.statistic for c in rep.cells]
        assert stats[0] / stats[1] == pytest.approx(2.0, rel=2e-2)
        assert stats[1] / stats[2] == pytest.approx(2.0, rel=2e-2)
        assert rep.passed

    def test_gamma_ladder_on_controlled_skeleton(self):
        u0 = field(1.0 + 0.3 * np.sin(2.0 * np.pi * X))
        control = random_control(11, 8, CONFIG.t_end, intervals=4,
                                 amplitude=0.8)
        config = SolverConfig(dt=1e-3, t_end=0.1, eta=1e-3, snapshot_count=11)
        rep = regularization_experiment(BURGERS, control,
                                        [1e-3, 1e-4, 1e-5, 1e-6],
                                        which="gamma", u0=u0, config=config)
        stats = [c.statistic for c in rep.cells]
        assert stats[0] > stats[1] > stats[2] > 0.0
        assert rep.passed

    def test_validation(self):
        u0 = constant_field(GRID, 1.0)
        with pytest.raises(ConfigurationError):
            regularization_experiment(BURGERS, None, [1e-2, 1e-3],
                                      which="eta", u0=u0, config=CONFIG)
        with pytest.raises(ConfigurationError):
            regularization_experiment(BURGERS, None, [1e-3, 1e-2, 1e-4],
                                      which="eta", u0=u0, config=CONFIG)
        with pytest.raises(ConfigurationError):
            regularization_experiment(BURGERS, None, [1e-2, 1e-3, 1e-4],
                                      which="nu", u0=u0, config=CONFIG)


class TestCondition2Coupling:
    def controls(self):
        return [random_control(20 + i, 8, CONFIG.t_end, intervals=4,
                               amplitude=0.5) for i in range(2)]

    def test_fractions_nonincreasing_and_exact_at_zero(self):
        rep = condition2_coupling_experiment(
            BURGERS, self.controls(), [1e-2, 1e-4, 0.0], 40, grid=GRID,
            config=CONFIG, seed=9, delta=0.002)
        fractions = [c.statistic for c in rep.cells]
        assert fractions[0] > 0.0
        assert fractions[0] >= fractions[1] >= fractions[2]
        # eps = 0 reduces the driven leg to the skeleton itself
        assert fractions[2] == 0.0
        assert dict(rep.cells[2].extra)["mean_gap"] == 0.0
        assert rep.passed

    def test_default_delta_scales_with_initial_norm(self):
        rep = condition2_coupling_experiment(
            BURGERS, self.controls(), [1e-2], 40, grid=GRID, config=CONFIG,
            seed=9)
        assert dict(rep.cells[0].extra)["delta"] == pytest.approx(0.05)

    def test_level_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            condition2_coupling_experiment(
                BURGERS, self.controls(), [1e-2], 40, grid=GRID,
                config=CONFIG, level_bound=1e-6)


class TestMdpConcentration:
    LIN = {"flux": {"kind": "advection", "speed": 0.0},
           "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
           "noise": {"kind": "diagonal-decay", "truncation": 6}}

    def test_exponent_validation(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ConfigurationError):
                mdp_concentration_experiment(self.LIN, bad, [1e-2], 10,
                                             grid=GRID, config=CONFIG)

    def test_linear_mode_variance_scales_with_amplification(self):
        rep = mdp_concentration_experiment(
            self.LIN, 0.25, [1e-1, 1e-2], 200, grid=GRID, config=CONFIG,
            seed=21, linear_check=True, modes=(1,))
        var_cells = cells_of_kind(rep, "mode-variance")
        assert len(var_cells) == 2
        for cell in var_cells:
            oracle = dict(cell.extra)["oracle"]
            assert abs(cell.statistic - oracle) <= 3.0 * cell.stderr
        # the scaled oracle shrinks by eps^{2a} = 10^{-1/2} per decade
        oracles = [dict(c.extra)["oracle"] for c in var_cells]
        assert oracles[0] / oracles[1] == pytest.approx(np.sqrt(10.0), rel=1e-9)
        assert rep.passed

    def test_eps_one_is_exponent_free(self):
        # at eps = 1 the amplification is 1 whatever the exponent, so the
        # rescaled deviation coincides with the plain fluctuation
        ra = mdp_concentration_experiment(self.LIN, 0.1, [1.0], 50,
                                          grid=GRID, config=CONFIG, seed=31)
        rb = mdp_concentration_experiment(self.LIN, 0.4, [1.0], 50,
                                          grid=GRID, config=CONFIG, seed=31)
        assert ra.cells == rb.cells

    def test_burgers_quantiles_bounded_raw_shrinking(self):
        rep = mdp_concentration_experiment(BURGERS, 0.25, [1e-2, 1e-3], 40,
                                           grid=GRID, config=CONFIG, seed=13)
        raw = [c.statistic for c in cells_of_kind(rep, "raw-gap")]
        assert raw[0] > raw[1]
        assert rep.passed

    def test_nonconstant_state_runs_without_the_linear_check(self):
        # the reference is the noise-free solve from u0, so nothing
        # linearizes unless linear_check asks for the mode oracle
        bumpy = field(1.0 + 0.1 * np.sin(2.0 * np.pi * X))
        rep = mdp_concentration_experiment(BURGERS, 0.25, [1e-2, 1e-3], 40,
                                           u0=bumpy, config=CONFIG, seed=13)
        assert len(cells_of_kind(rep, "raw-gap")) == 2
        assert rep.passed
        with pytest.raises(ConfigurationError, match="initial.kind"):
            mdp_concentration_experiment(BURGERS, 0.25, [1e-2, 1e-3], 40,
                                         u0=bumpy, config=CONFIG,
                                         linear_check=True)


@pytest.mark.parametrize("name", ["clt", "mdp"])
def test_mode_checks_reject_a_mode_the_noise_does_not_drive(name):
    # two harmonic pairs drive the frequencies |k| <= 2, so mode 5 has no
    # fluctuation to compare
    paired = {"flux": {"kind": "advection", "speed": 1.0},
              "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
              "noise": {"kind": "paired-harmonic", "pairs": 2}}
    u0 = constant_field(GRID, 0.0)
    with pytest.raises(ConfigurationError,
                       match="^modes: the noise does not drive mode 5$"):
        if name == "clt":
            clt_experiment(paired, [1e-2, 1e-3], 1e-3, 100, u0=u0,
                           config=CONFIG, modes=(1, 5))
        else:
            mdp_concentration_experiment(paired, 0.25, [1e-2, 1e-3], 20, u0=u0,
                                         config=CONFIG, linear_check=True,
                                         modes=(1, 5))


@pytest.mark.parametrize("name", ["clt", "mdp"])
def test_mode_oracle_linearizes_about_the_constant_state(name):
    # about u0 = 2 Rusanov's numerical viscosity is |F'(2)| N (1 - cos(2 pi k/N))
    # with F'(2) = 2, and h_k(., 2) = k^-1 (sin(2 pi k x) + 2) drives mode k
    # with squared weight k^-2/4
    eta, a = 1e-3, 0.25
    u0 = constant_field(GRID, 2.0)
    if name == "clt":
        rep = clt_experiment(BURGERS, [1e-2, 1e-3], eta, 100, u0=u0,
                             config=CONFIG, modes=(1, 2), seed=0)
    else:
        config = SolverConfig(dt=1e-3, t_end=0.1, snapshot_count=11, eta=eta)
        rep = mdp_concentration_experiment(BURGERS, a, [1e-2, 1e-3], 20, u0=u0,
                                           config=config, linear_check=True,
                                           modes=(1, 2), seed=0)
    var_cells = cells_of_kind(rep, "mode-variance")
    assert {dict(c.params)["mode"] for c in var_cells} == {1, 2}
    for cell in var_cells:
        k, eps = dict(cell.params)["mode"], dict(cell.params)["eps"]
        rho = (0.5 * 2 * np.pi * k + eta * 4 * np.pi ** 2 * k * k
               + 2.0 * 32 * (1 - np.cos(2 * np.pi * k / 32)))
        expected = -np.expm1(-2 * rho * 0.1) / (2 * rho) / (4 * k * k)
        if name == "mdp":
            expected *= eps ** (2 * a)
        assert dict(cell.extra)["oracle"] == pytest.approx(expected, rel=1e-12)


class TestReproducibility:
    def test_reports_bitwise_identical_across_worker_counts(self):
        pair = smooth_pair()
        rep1 = contraction_experiment(BURGERS, [pair], 1e-2, 100,
                                      config=CONFIG, seed=3, workers=1)
        rep4 = contraction_experiment(BURGERS, [pair], 1e-2, 100,
                                      config=CONFIG, seed=3, workers=4)
        assert report_to_json(rep1) == report_to_json(rep4)

    # M is not a multiple of 3, so the chunks of three workers differ in size
    RUNS = {
        "contraction": lambda workers: contraction_experiment(
            BURGERS, [smooth_pair(), smooth_pair()[::-1]], 1e-2, 101,
            config=CONFIG, seed=3, workers=workers),
        "clt": lambda workers: clt_experiment(
            BURGERS, (1e-2, 1e-3), 1e-3, 101, grid=GRID, config=CONFIG,
            seed=5, workers=workers),
        "mass-martingale": lambda workers: mass_martingale_experiment(
            LINEAR, 1e-2, 500, grid=GRID, config=CONFIG, seed=7,
            workers=workers),
        "condition2": lambda workers: condition2_coupling_experiment(
            BURGERS, [random_control(i, 8, 0.1, intervals=4, amplitude=0.5)
                      for i in range(2)],
            (1e-2, 0.0), 31, grid=GRID, config=CONFIG, seed=9,
            workers=workers),
        "mdp": lambda workers: mdp_concentration_experiment(
            BURGERS, 0.25, (1e-2, 1e-3), 31, grid=GRID, config=CONFIG,
            linear_check=True, seed=13, workers=workers),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_reports_identical_for_one_two_and_three_workers(self, name):
        reports = [report_to_json(self.RUNS[name](workers))
                   for workers in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]

    def test_clt_digests_are_the_consumed_increments(self):
        rep = clt_experiment(BURGERS, (1e-2, 1e-3), 1e-3, 100, grid=GRID,
                             config=CONFIG, seed=5, workers=2)
        digest = WienerPath(5, 0, 8).digest(100, CONFIG.dt)
        assert rep.digests == (f"eps0.01:{digest}", f"eps0.001:{digest}")

    def test_rerun_reproduces_bitwise(self):
        rep1 = mdp_concentration_experiment(BURGERS, 0.25, [1e-2], 40,
                                            grid=GRID, config=CONFIG, seed=13)
        rep2 = mdp_concentration_experiment(BURGERS, 0.25, [1e-2], 40,
                                            grid=GRID, config=CONFIG, seed=13)
        assert report_to_json(rep1) == report_to_json(rep2)


class TestReportSerialization:
    def make_report(self):
        return contraction_experiment(BURGERS, [smooth_pair()], 1e-2, 100,
                                      config=CONFIG, seed=3)

    def test_json_schema(self):
        rep = self.make_report()
        obj = json.loads(report_to_json(rep))
        assert set(obj) == {"name", "seed", "grid", "cells", "digests",
                            "passed"}
        assert obj["name"] == "contraction"
        cell = obj["cells"][0]
        assert set(cell) == {"params", "statistic", "stderr", "verdict",
                             "samples", "extra"}
        assert isinstance(cell["verdict"], bool)
        assert obj["grid"]["eps"] == [1e-2]

    def test_csv_round_trip_values(self, tmp_path):
        rep = self.make_report()
        path = tmp_path / "cells.csv"
        report_to_csv(rep, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "cell,params,statistic,stderr,verdict,samples"
        fields = rows[1].split(",")
        assert float(fields[2]) == rep.cells[0].statistic
        assert int(fields[5]) == rep.cells[0].samples

    def test_passed_reflects_all_verdicts(self):
        good = CellResult(params=(("k", 1),), statistic=0.0, stderr=0.0,
                          verdict=True, samples=1)
        bad = CellResult(params=(("k", 2),), statistic=1.0, stderr=0.0,
                         verdict=False, samples=1)
        rep = ExperimentReport(name="x", grid=(("eps", (1.0,)),),
                               cells=(good, bad), seed=0)
        assert not rep.passed
        rep = ExperimentReport(name="x", grid=(("eps", (1.0,)),),
                               cells=(good,), seed=0)
        assert rep.passed
