"""End-to-end acceptance checks.

One test per advertised guarantee, each printing a single PASS line with the
measured figure and elapsed time (run with -s or -rA to see them).  Every
tolerance and runtime budget sits directly in the assertions.
"""

import time

import numpy as np
import pytest

from fraclab.experiments import (
    clt_experiment,
    condition2_coupling_experiment,
    contraction_experiment,
    regularization_experiment,
    report_to_json,
)
from fraclab.fields import (
    GridSpec,
    SpectralField,
    apply_fractional_laplacian,
    constant_field,
    field_from_spectrum,
    fractional_multiplier,
    laplacian_multiplier,
)
from fraclab.models import (
    ModelSpec,
    build_model,
    burgers_clamped,
    linear_advection,
    linear_diffusion,
    linearize_model,
    paired_harmonic_noise,
)
from fraclab.oracle import duhamel_mdp_skeleton, linearized_mode_arrays
from fraclab.rate import RateOptions, ldp_rate_iterative, mdp_rate_exact
from fraclab.skeleton import random_control, solve_mdp_skeleton
from fraclab.solver import SolverConfig, solve

from oracles import least_norm_mode_energy

WORKERS = 4

BURGERS = {"flux": {"kind": "burgers", "clamp": 4.0},
           "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
           "noise": {"kind": "diagonal-decay", "truncation": 8}}


def announce(name, detail, elapsed, budget):
    assert elapsed < budget, f"{name} took {elapsed:.1f} s, budget {budget} s"
    print(f"PASS {name}: {detail} ({elapsed:.1f} s < {budget:.0f} s)")


def smooth_pair(grid, seed):
    rng = np.random.default_rng(seed)
    x = grid.nodes()
    fields = []
    for _ in range(2):
        v = np.ones_like(x)
        for m in range(1, 4):
            a, b = rng.standard_normal(2) * (0.15 / m)
            v = v + a * np.sin(2 * np.pi * m * x) + b * np.cos(2 * np.pi * m * x)
        fields.append(SpectralField(grid, v))
    return tuple(fields)


def pair_target(grid, assignments):
    spec = np.zeros(grid.size, dtype=complex)
    for k, tau in assignments.items():
        spec[k] = tau
        spec[-k] = np.conj(tau)
    return field_from_spectrum(grid, spec)


def test_01_fractional_laplacian_spectral_exactness():
    start = time.time()
    grid = GridSpec(128)
    x = grid.nodes()
    worst = 0.0
    for theta in (0.25, 0.5, 0.75, 1.0):
        for k in (1, 3, 17, 40):
            for wave in (np.sin, np.cos):
                u = SpectralField(grid, wave(2.0 * np.pi * k * x))
                out = apply_fractional_laplacian(u, theta)
                scale = (4.0 * np.pi ** 2 * k ** 2) ** theta
                err = float(np.max(np.abs(out.values - scale * u.values))) / scale
                worst = max(worst, err)
                assert err <= 1e-12
    assert np.array_equal(fractional_multiplier(grid, 1.0),
                          laplacian_multiplier(grid))
    announce("spectral-exactness",
             f"worst eigenmode error {worst:.2e}, order-one multiplier bitwise",
             time.time() - start, 1.0)


def test_02_constant_state_preserved_over_ten_thousand_steps():
    start = time.time()
    model = build_model(BURGERS)
    config = SolverConfig(dt=1e-4, t_end=1.0, eta=1e-3, gamma=1e-6)
    traj = solve(constant_field(GridSpec(64), 1.0), model, config)
    drift = float(np.max(np.abs(traj.values_matrix() - 1.0)))
    assert drift <= 1e-12
    announce("constant-steady-state",
             f"max drift {drift:.2e} over 10000 steps", time.time() - start, 5.0)


def test_03_linear_skeleton_matches_duhamel_and_halves_with_dt():
    start = time.time()
    grid = GridSpec(128)
    model = build_model(dict(BURGERS,
                             noise={"kind": "diagonal-decay", "truncation": 16}))
    control = random_control(42, 16, 0.5, intervals=8, amplitude=1.0)
    exact = duhamel_mdp_skeleton(control, model, 0.5, grid, 0.0)

    def l2(v):
        return float(np.sqrt(np.mean(v ** 2)))

    errors = []
    for dt in (1e-4, 5e-5):
        config = SolverConfig(dt=dt, t_end=0.5, snapshot_count=2,
                              flux_scheme="spectral")
        traj = solve_mdp_skeleton(control, model, config, grid)
        errors.append(l2(traj.terminal.values - exact.values) / l2(exact.values))
    assert errors[0] <= 1e-3
    ratio = errors[0] / errors[1]
    assert 1.6 <= ratio <= 2.4
    announce("linear-oracle-equivalence",
             f"rel error {errors[0]:.2e}, halving ratio {ratio:.3f}",
             time.time() - start, 30.0)


def test_04_coupled_pairs_stay_l1_contractive():
    start = time.time()
    grid = GridSpec(64)
    pairs = [smooth_pair(grid, (9, i)) for i in range(20)]
    config = SolverConfig(dt=5e-4, t_end=0.25, snapshot_count=11)
    report = contraction_experiment(BURGERS, pairs, 1e-2, 500, config=config,
                                    seed=1, workers=WORKERS)
    assert report.passed
    assert all(cell.samples == 25 for cell in report.cells)
    margin = min(dict(c.extra)["init_l1"] * 1.01 + 3 * c.stderr - c.statistic
                 for c in report.cells)
    announce("l1-contraction",
             f"20 pairs, 500 coupled samples, min margin {margin:.2e}",
             time.time() - start, 300.0)


def test_05_fluctuation_gap_decreases_and_terminal_variance_matches():
    start = time.time()
    config = SolverConfig(dt=1e-3, t_end=0.1, snapshot_count=11)
    report = clt_experiment(BURGERS, (1e-2, 1e-3, 1e-4), 1e-3, 200,
                            grid=GridSpec(32), config=config, modes=(1, 2),
                            seed=5, workers=WORKERS)
    assert report.passed
    gaps = [c.statistic for c in report.cells
            if dict(c.params)["kind"] == "path-gap"]
    assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == 3
    variance_cells = [c for c in report.cells
                      if dict(c.params)["kind"] == "mode-variance"]
    assert len(variance_cells) == 2
    for cell in variance_cells:
        oracle = dict(cell.extra)["oracle"]
        assert abs(cell.statistic - oracle) <= 3.0 * cell.stderr
    announce("clt-fluctuations",
             f"path gaps {[f'{g:.2e}' for g in gaps]} strictly decreasing, "
             f"terminal variances within three stderr",
             time.time() - start, 600.0)


def test_06_deviation_cost_brute_force_iterative_and_scaling():
    start = time.time()
    grid = GridSpec(32)
    slow = ModelSpec(linear_advection(0.0), linear_diffusion(0.2, 0.25),
                     paired_harmonic_noise(pairs=4))
    mu, weights = linearized_mode_arrays(slow, grid)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 5))
        tau = complex(rng.normal(), rng.normal())
        value = mdp_rate_exact(pair_target(grid, {k: tau}), slow, 0.5).value
        brute, _ = least_norm_mode_energy(mu[k], weights[k], 0.5, 200, tau)
        worst = max(worst, abs(value - brute) / brute)
        assert value == pytest.approx(brute, rel=1e-6)

    # sin/cos pairs drive each frequency isotropically, the regime where the
    # quadratic mode cost is exact; the clamped quadratic flux only enters
    # through its unit-state slope
    base = ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                     paired_harmonic_noise(pairs=2))
    linear = linearize_model(base, 1.0)
    deviation = pair_target(grid, {1: 0.08 - 0.05j})
    exact = mdp_rate_exact(deviation, linear, 0.25)
    opts = RateOptions(intervals=10, dt=1e-3, rounds=3, maxiter=100,
                       flux_scheme="spectral")
    iterative = ldp_rate_iterative(deviation, constant_field(grid, 1.0), linear,
                                   0.25, opts)
    assert iterative.converged
    iter_gap = abs(iterative.value - exact.value) / exact.value
    assert iter_gap <= 1e-2

    target = pair_target(grid, {1: 0.3 + 0.1j, 2: -0.2 + 0.25j, 4: 0.05 - 0.15j})
    one = mdp_rate_exact(target, slow, 0.5).value
    tripled = mdp_rate_exact(
        field_from_spectrum(grid, 3.0 * target.spectrum), slow, 0.5).value
    scaling_err = abs(tripled - 9.0 * one) / max(1.0, tripled)
    assert scaling_err <= 1e-10
    announce("deviation-cost",
             f"brute-force gap {worst:.2e}, iterative gap {iter_gap:.2e}, "
             f"quadratic scaling error {scaling_err:.2e}",
             time.time() - start, 120.0)


def test_07_viscosity_ladders_have_decreasing_increments():
    start = time.time()
    grid = GridSpec(64)
    u0 = SpectralField(grid, 1.0 + 0.3 * np.sin(2.0 * np.pi * grid.nodes()))
    eta_cfg = SolverConfig(dt=5e-4, t_end=0.25, snapshot_count=51)
    eta_rep = regularization_experiment(BURGERS, None, (1e-2, 1e-3, 1e-4, 1e-5),
                                        which="eta", u0=u0, config=eta_cfg)
    gamma_cfg = SolverConfig(dt=5e-4, t_end=0.25, snapshot_count=51, eta=1e-3)
    gamma_rep = regularization_experiment(BURGERS, None,
                                          (1e-3, 1e-4, 1e-5, 1e-6),
                                          which="gamma", u0=u0, config=gamma_cfg)
    for rep in (eta_rep, gamma_rep):
        assert rep.passed
        increments = [c.statistic for c in rep.cells]
        assert increments == sorted(increments, reverse=True)
        assert len(set(increments)) == len(increments)
    announce("regularization-ladders",
             f"eta increments {[f'{c.statistic:.2e}' for c in eta_rep.cells]}, "
             f"gamma increments {[f'{c.statistic:.2e}' for c in gamma_rep.cells]}",
             time.time() - start, 300.0)


def test_08_coupled_exceedance_fraction_vanishes():
    start = time.time()
    grid = GridSpec(64)
    controls = [random_control(100 + i, 8, 0.25, intervals=8, amplitude=0.5)
                for i in range(4)]
    config = SolverConfig(dt=5e-4, t_end=0.25, snapshot_count=11)
    report = condition2_coupling_experiment(
        BURGERS, controls, (1e-2, 1e-4, 1e-6), 200,
        u0=constant_field(grid, 1.0), delta=0.01, config=config,
        seed=2, workers=WORKERS)
    assert report.passed
    fractions = [c.statistic for c in report.cells]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] <= 0.05
    announce("coupling-exceedance",
             f"fractions {fractions} nonincreasing, final <= 5%",
             time.time() - start, 600.0)


def test_09_reruns_bitwise_identical_across_worker_counts():
    start = time.time()
    grid = GridSpec(32)
    pairs = [smooth_pair(grid, (21, i)) for i in range(2)]
    config = SolverConfig(dt=1e-3, t_end=0.05, snapshot_count=6)

    def run(workers):
        return contraction_experiment(BURGERS, pairs, 1e-2, 100, config=config,
                                      seed=11, workers=workers)

    serial = run(1)
    pooled = run(4)
    again = run(4)
    assert report_to_json(serial) == report_to_json(pooled) == report_to_json(again)
    stats = [tuple((c.statistic, c.stderr) for c in rep.cells)
             for rep in (serial, pooled, again)]
    assert stats[0] == stats[1] == stats[2]
    announce("reproducibility",
             "contraction statistics bit-identical for worker counts 1 and 4",
             time.time() - start, 600.0)
