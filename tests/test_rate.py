"""Deviation-cost checks: Gramian quadratic form against an independent
least-norm solve, closed-form steering controls, and the penalty-method
upper bound."""

import numpy as np
import pytest

from fraclab.fields import GridSpec, constant_field, field_from_spectrum
from fraclab.models import (
    ModelSpec,
    additive_noise,
    burgers_clamped,
    linear_advection,
    linear_diffusion,
    linearize_model,
    paired_harmonic_noise,
)
from fraclab.oracle import (
    duhamel_mdp_skeleton,
    linearized_mode_arrays,
    star_variance_profile,
)
from fraclab.rate import (
    RateOptions,
    ldp_rate_iterative,
    mdp_rate_exact,
    report_to_json,
    verify_rate_bound,
)
from fraclab.skeleton import Control
from fraclab.solver import SolverConfig, solve

from oracles import least_norm_mode_energy

GRID = GridSpec(32)

# no advection and weak quarter-power diffusion keep every driven mode slow,
# so a 200-interval discrete control resolves the optimal profile
SLOW = ModelSpec(linear_advection(0.0), linear_diffusion(0.2, 0.25),
                 paired_harmonic_noise(pairs=4))

# zero slopes make the discrete dynamics match the continuous ones exactly
FLAT = ModelSpec(linear_advection(0.0), linear_diffusion(0.0, 0.5),
                 paired_harmonic_noise(pairs=4))


def pair_target(grid, assignments):
    spec = np.zeros(grid.size, dtype=complex)
    for k, tau in assignments.items():
        spec[k] = tau
        spec[-k] = np.conj(tau)
    return field_from_spectrum(grid, spec)


def test_zero_target_costs_nothing():
    report = mdp_rate_exact(constant_field(GRID, 0.0), SLOW, 0.5)
    assert report.value == 0.0
    assert not report.infinite
    assert report.residual <= 1e-12


def test_nonzero_target_costs_something():
    report = mdp_rate_exact(pair_target(GRID, {1: 0.1 + 0.0j}), SLOW, 0.5)
    assert report.value > 0.0


def test_unreachable_mode_flagged():
    model = ModelSpec(linear_advection(0.0), linear_diffusion(0.2, 0.25),
                      additive_noise(truncation=2))
    report = mdp_rate_exact(pair_target(GRID, {3: 0.5 + 0.0j}), model, 0.5)
    assert report.infinite
    assert report.value is None
    assert report.optimal_control is None
    assert 3 in {abs(k) for k in report.unreachable_modes}


def test_gramian_matches_hand_formula():
    gram = star_variance_profile(SLOW, GRID, 0.5)
    mu = 0.2 * (4.0 * np.pi ** 2 * 4.0) ** 0.25
    hand = 2.0 * (0.5 / 2.0) ** 2 * (1.0 - np.exp(-2.0 * mu * 0.5)) / (2.0 * mu)
    assert abs(gram[2] - hand) <= 1e-15


def test_frozen_slow_model_value():
    report = mdp_rate_exact(pair_target(GRID, {2: 0.3 + 0.2j}), SLOW, 0.5)
    assert report.value == pytest.approx(2.9037463533284775, rel=1e-12)


def test_matches_least_norm_brute_force():
    T = 0.5
    mu, weights = linearized_mode_arrays(SLOW, GRID)
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        tau = complex(rng.normal(), rng.normal())
        report = mdp_rate_exact(pair_target(GRID, {k: tau}), SLOW, T)
        brute, _ = least_norm_mode_energy(mu[k], weights[k], T, 200, tau)
        assert report.value == pytest.approx(brute, rel=1e-6)


def test_flat_model_value_and_control_are_exact():
    # with zero drift rates the adjoint profile is constant in time, so the
    # discretized control carries no sampling error at all
    T = 0.5
    target = pair_target(GRID, {1: 0.4 - 0.1j, 3: -0.2 + 0.3j})
    report = mdp_rate_exact(target, FLAT, T)
    mu, weights = linearized_mode_arrays(FLAT, GRID)
    expected = sum(least_norm_mode_energy(mu[k], weights[k], T, 200, tau)[0]
                   for k, tau in [(1, 0.4 - 0.1j), (3, -0.2 + 0.3j)])
    assert report.value == pytest.approx(expected, rel=1e-9)
    assert report.optimal_control.energy == pytest.approx(report.value, rel=1e-12)
    assert report.residual <= 1e-12


def test_quadratic_scaling():
    target = pair_target(GRID, {1: 0.3 + 0.1j, 2: -0.2 + 0.25j, 4: 0.05 - 0.15j})
    base = mdp_rate_exact(target, SLOW, 0.5).value
    scaled = mdp_rate_exact(
        field_from_spectrum(GRID, 3.0 * target.spectrum), SLOW, 0.5).value
    assert abs(scaled - 9.0 * base) <= 1e-10 * max(1.0, scaled)


def test_value_nonincreasing_in_horizon():
    target = pair_target(GRID, {1: 0.3 + 0.1j, 3: 0.2 - 0.2j})
    values = [mdp_rate_exact(target, SLOW, T).value for T in (0.25, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_disjoint_mode_costs_add():
    one = pair_target(GRID, {1: 0.3 + 0.1j})
    two = pair_target(GRID, {3: -0.15 + 0.25j})
    both = pair_target(GRID, {1: 0.3 + 0.1j, 3: -0.15 + 0.25j})
    v1 = mdp_rate_exact(one, SLOW, 0.5).value
    v2 = mdp_rate_exact(two, SLOW, 0.5).value
    v12 = mdp_rate_exact(both, SLOW, 0.5).value
    assert v12 == pytest.approx(v1 + v2, rel=1e-12)


def test_optimal_control_steers_to_target():
    T = 0.5
    target = pair_target(GRID, {2: 0.3 + 0.2j})
    report = mdp_rate_exact(target, SLOW, T, control_intervals=128)
    achieved = duhamel_mdp_skeleton(report.optimal_control, SLOW, T, GRID)
    gap = np.sqrt(np.mean((achieved.values - target.values) ** 2))
    assert gap <= 1e-4
    assert gap == pytest.approx(report.residual, rel=1e-9)


def test_verify_rate_bound_accepts_and_rejects():
    T = 0.5
    target = pair_target(GRID, {1: 0.4 - 0.1j, 3: -0.2 + 0.3j})
    report = mdp_rate_exact(target, FLAT, T)
    energy = verify_rate_bound(report.optimal_control, target, FLAT, T)
    assert energy == pytest.approx(report.value, rel=1e-10)

    doubled = report.optimal_control.scaled(2.0)
    assert doubled.energy == pytest.approx(4.0 * report.value, rel=1e-10)
    with pytest.raises(ValueError, match="residual"):
        verify_rate_bound(doubled, target, FLAT, T)

    zero = Control(times=np.array([0.0, T]),
                   coeffs=np.zeros((1, FLAT.noise.truncation)))
    with pytest.raises(ValueError, match="residual"):
        verify_rate_bound(zero, target, FLAT, T)


def test_iterative_trivial_target_is_free():
    model = ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                      paired_harmonic_noise(pairs=2))
    grid = GridSpec(32)
    u0 = field_from_spectrum(
        grid, np.fft.fft(1.0 + 0.05 * np.sin(2.0 * np.pi * grid.nodes())) / grid.size)
    config = SolverConfig(dt=1e-3, t_end=0.25, flux_scheme="spectral")
    uncontrolled = solve(u0, model, config).terminal
    opts = RateOptions(intervals=10, dt=1e-3, flux_scheme="spectral")
    report = ldp_rate_iterative(uncontrolled, u0, model, 0.25, opts)
    assert report.value <= 1e-6
    assert report.converged


def test_iterative_never_undercuts_exact_on_flat_model():
    T = 0.25
    flat = ModelSpec(linear_advection(0.0), linear_diffusion(0.0, 0.5),
                     paired_harmonic_noise(pairs=2))
    target = pair_target(GRID, {2: 0.1 + 0.06j})
    exact = mdp_rate_exact(target, flat, T)
    opts = RateOptions(intervals=10, dt=1e-3, rounds=3, maxiter=100,
                       flux_scheme="spectral")
    report = ldp_rate_iterative(target, constant_field(GRID, 0.0), flat, T, opts)
    assert report.upper_bound
    assert report.value >= exact.value * (1.0 - 1e-6)
    assert report.value == pytest.approx(exact.value, rel=1e-3)


def test_iterative_matches_exact_on_linearized_model():
    T = 0.25
    base = ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                     paired_harmonic_noise(pairs=2))
    model = linearize_model(base, 1.0)
    deviation = pair_target(GRID, {1: 0.08 - 0.05j})
    exact = mdp_rate_exact(deviation, model, T)
    target = field_from_spectrum(
        GRID, deviation.spectrum + np.fft.fft(np.ones(GRID.size)) / GRID.size)
    opts = RateOptions(intervals=10, dt=1e-3, rounds=3, maxiter=100,
                       flux_scheme="spectral")
    report = ldp_rate_iterative(target, constant_field(GRID, 1.0), model, T, opts)
    assert report.converged
    assert report.residual <= 1e-6
    assert report.value == pytest.approx(exact.value, rel=1e-2)


def test_report_json_fields():
    report = mdp_rate_exact(pair_target(GRID, {1: 0.1 + 0.0j}), SLOW, 0.5)
    payload = report_to_json(report, control_path="control.csv")
    import json

    decoded = json.loads(payload)
    assert decoded["infinite"] is False
    assert decoded["value"] == pytest.approx(report.value)
    assert decoded["control_csv"] == "control.csv"
    assert {"residual", "iterations", "upper_bound", "converged"} <= decoded.keys()
