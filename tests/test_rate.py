"""Deviation-cost checks: Gramian quadratic form against an independent
least-norm solve, closed-form steering controls, and the Gauss-Newton
upper bound."""

from dataclasses import replace

import numpy as np
import pytest

import fraclab.rate as rate_module
from fraclab.fields import GridSpec, SpectralField, constant_field, field_from_spectrum
from fraclab.models import (
    ModelSpec,
    additive_noise,
    burgers_clamped,
    cubic_smoothed,
    diagonal_decay_noise,
    linear_advection,
    linear_diffusion,
    linearize_model,
    paired_harmonic_noise,
)
from fraclab.oracle import (
    duhamel_mdp_skeleton,
    linearized_mode_arrays,
    ou_variance,
)
from fraclab.rate import (
    RateOptions,
    ldp_rate_iterative,
    mdp_rate_exact,
    report_to_json,
    verify_rate_bound,
)
from fraclab.skeleton import Control, solve_controlled_spde, solve_skeleton
from fraclab.solver import DivergenceError, SolverConfig, control_gradient, solve

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
    mu, weights = linearized_mode_arrays(SLOW, GRID)
    gram = ou_variance(np.sum(np.abs(weights) ** 2, axis=1), mu.real, 0.5)
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
    # with zero drift rates the least-energy control is constant in time, so
    # the piecewise-constant control costs the value exactly
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

    optimal = report.optimal_control
    doubled = Control(times=optimal.times, coeffs=2.0 * optimal.coeffs)
    assert doubled.energy == pytest.approx(4.0 * report.value, rel=1e-10)
    with pytest.raises(ValueError, match="residual"):
        verify_rate_bound(doubled, target, FLAT, T)

    zero = Control(times=np.array([0.0, T]),
                   coeffs=np.zeros((1, FLAT.noise.truncation)))
    with pytest.raises(ValueError, match="residual"):
        verify_rate_bound(zero, target, FLAT, T)


def test_verify_rate_bound_solves_the_skeleton_once(monkeypatch):
    # the exact value needs only the Gramian, not the exact rate's control
    T = 0.5
    target = pair_target(GRID, {1: 0.4 - 0.1j, 3: -0.2 + 0.3j})
    control = mdp_rate_exact(target, FLAT, T).optimal_control
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return duhamel_mdp_skeleton(*args, **kwargs)

    monkeypatch.setattr(rate_module, "duhamel_mdp_skeleton", counted)
    verify_rate_bound(control, target, FLAT, T)
    assert len(calls) == 1


def brute_force_energy(model, target, T, m, driven):
    """Least-norm energy of a control on m intervals that steers the modes
    0..driven, which the noise drives, to the target's values."""
    mu, weights = linearized_mode_arrays(model, GRID)
    k = np.arange(driven + 1)
    return least_norm_mode_energy(mu[k], weights[k], T, m, target.spectrum[k],
                                  constrain_imag=(k > 0) & (2 * k < GRID.size))[0]


NYQUIST = ModelSpec(linear_advection(0.5), linear_diffusion(0.5, 0.5),
                    additive_noise(16, offset=0.3))
NYQUIST_TARGET = field_from_spectrum(GRID, 0.1 * np.eye(GRID.size)[GRID.size // 2])

# families that drive a frequency along one direction of the complex plane,
# or couple the frequencies through their mean, with the highest mode driven
ANISOTROPIC = {
    "diagonal-decay": (ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                                 diagonal_decay_noise(6)),
                       pair_target(GRID, {1: 0.05 + 0.02j}), 6),
    "additive-offset": (ModelSpec(linear_advection(0.5), linear_diffusion(0.5, 0.5),
                                  additive_noise(8, offset=0.3)),
                        pair_target(GRID, {3: 0.1 + 0.1j}), 8),
    "nyquist": (NYQUIST, NYQUIST_TARGET, 16),
}


@pytest.mark.parametrize("model, target, driven", ANISOTROPIC.values(),
                         ids=ANISOTROPIC)
def test_anisotropic_value_is_the_least_norm_energy(model, target, driven):
    T = 0.25
    report = mdp_rate_exact(target, model, T)
    coarse, fine = (brute_force_energy(model, target, T, m, driven) for m in (200, 400))
    # controls on m intervals cost O(1/m^2) more than the minimum
    assert report.value < fine < coarse
    assert fine - report.value <= 0.3 * (coarse - report.value)
    assert report.residual <= 1e-12
    assert verify_rate_bound(report.optimal_control, target, model, T) >= report.value


def test_a_target_cosine_noise_cannot_reach_is_infinite():
    model = ModelSpec(linear_advection(0.0), linear_diffusion(0.5, 0.5),
                      additive_noise(8))
    report = mdp_rate_exact(pair_target(GRID, {3: 0.1 + 0.1j}), model, 0.25)
    assert report.infinite and report.value is None
    assert report.unreachable_modes == (3,)
    reachable = mdp_rate_exact(pair_target(GRID, {3: 0.1}), model, 0.25)
    assert not reachable.infinite
    assert reachable.residual <= 1e-12


def test_the_control_energy_approaches_the_value_at_nyquist():
    reports = [mdp_rate_exact(NYQUIST_TARGET, NYQUIST, 0.25, control_intervals=m)
               for m in (64, 1024)]
    value = reports[0].value
    coarse, fine = (r.optimal_control.energy for r in reports)
    # the gap falls as 1/m^2: by 256 from 64 to 1024 intervals
    assert value < fine < coarse
    assert fine - value <= (coarse - value) / 100.0
    assert max(r.residual for r in reports) <= 1e-12


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
    assert report.upper_bound is True


def test_iterative_never_undercuts_exact_on_flat_model():
    T = 0.25
    flat = ModelSpec(linear_advection(0.0), linear_diffusion(0.0, 0.5),
                     paired_harmonic_noise(pairs=2))
    target = pair_target(GRID, {2: 0.1 + 0.06j})
    exact = mdp_rate_exact(target, flat, T)
    opts = RateOptions(intervals=10, dt=1e-3, rounds=3, maxiter=100,
                       flux_scheme="spectral")
    report = ldp_rate_iterative(target, constant_field(GRID, 0.0), flat, T, opts)
    assert report.upper_bound is True
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


# a nonlinear case at a reduced size: clamped Burgers about a nonconstant
# state, steered to u^0(T) + s * delta
NONLINEAR = ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                      diagonal_decay_noise(4))
SMALL = GridSpec(16)
SMALL_X = SMALL.nodes()
WAVY = SpectralField(SMALL, 1.0 + 0.3 * np.sin(2.0 * np.pi * SMALL_X)
                     + 0.2 * np.cos(4.0 * np.pi * SMALL_X))
DELTA = (np.cos(2.0 * np.pi * SMALL_X) + 0.5 * np.sin(4.0 * np.pi * SMALL_X)
         + 0.3 * np.cos(6.0 * np.pi * SMALL_X))
WAVY_OPTS = RateOptions(intervals=4, dt=1e-3, flux_scheme="spectral",
                        rounds=3, maxiter=100)
WAVY_T = 0.1


def wavy_end(model=NONLINEAR):
    return solve(WAVY, model, SolverConfig(dt=1e-3, t_end=WAVY_T,
                                           flux_scheme="spectral")).values[-1]


def deviation_norm(target, end):
    return float(np.sqrt(np.mean((target.values - end) ** 2)))


@pytest.mark.parametrize("s", [0.1, 0.03, 0.01])
def test_the_wavy_deviations_are_reached_with_both_flags(s):
    # the penalty rounds and the rescale that Gauss-Newton replaced missed
    # about a third of these deviations
    end = wavy_end()
    target = SpectralField(SMALL, end + s * DELTA)
    report = ldp_rate_iterative(target, WAVY, NONLINEAR, WAVY_T, WAVY_OPTS)
    assert report.residual <= 1e-6 * deviation_norm(target, end)
    assert report.residual < 1e-2
    assert report.upper_bound is True
    assert report.converged is True
    assert report.value == report.optimal_control.energy


def test_reaching_the_cap_clears_converged():
    target = SpectralField(SMALL, wavy_end() + 0.1 * DELTA)
    assert ldp_rate_iterative(target, WAVY, NONLINEAR, WAVY_T, WAVY_OPTS).converged
    capped = replace(WAVY_OPTS, maxiter=2)
    report = ldp_rate_iterative(target, WAVY, NONLINEAR, WAVY_T, capped)
    assert report.iterations == 2
    assert report.converged is False


# paired_harmonic_noise(2) drives only frequencies 1 and 2, and moves no mass
PAIRED = ModelSpec(linear_advection(1.0), linear_diffusion(0.5, 0.5),
                   paired_harmonic_noise(pairs=2))
PAIRED_WAVY = ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                        paired_harmonic_noise(pairs=2))


def undriven_mode_case():
    # the linear skeleton cannot move frequency 3
    target = pair_target(GRID, {1: 0.08 - 0.05j, 3: 0.05 + 0.02j})
    return target, constant_field(GRID, 0.0), PAIRED, 0.25, RateOptions(
        intervals=10, dt=1e-3, maxiter=100, flux_scheme="spectral")


def conserved_mass_case():
    # Burgers and a zero-mean noise conserve the mass, which this target moves
    target = SpectralField(SMALL, wavy_end(PAIRED_WAVY) + 0.1 * DELTA + 0.05)
    return target, WAVY, PAIRED_WAVY, WAVY_T, WAVY_OPTS


@pytest.mark.parametrize("case", [undriven_mode_case, conserved_mass_case],
                         ids=lambda case: case.__name__)
def test_upper_bound_is_never_set_on_an_infeasible_control(case):
    target, u0, model, T, opts = case()
    end = solve(u0, model, SolverConfig(dt=opts.dt, t_end=T,
                                        flux_scheme=opts.flux_scheme)).values[-1]
    report = ldp_rate_iterative(target, u0, model, T, opts)
    assert report.residual > 1e-2 * deviation_norm(target, end)
    assert report.upper_bound is False
    assert report.converged is False


SINE = field_from_spectrum(
    GRID, np.fft.fft(0.1 + 0.8 * np.sin(2.0 * np.pi * GRID.nodes())) / GRID.size)


def terminal_and_states(u0, model, control, config):
    states = []
    solve(u0.values, model, config, control=control,
          observe=lambda step, values, dbeta: states.append(values))
    return states[-1], np.array(states)


@pytest.mark.parametrize("flux, noise, scheme, eta, gamma, slope", [
    (burgers_clamped(4.0), diagonal_decay_noise(3), "rusanov", 0.0, 0.0, 0.5),
    (cubic_smoothed(4.0), diagonal_decay_noise(3), "rusanov", 1e-3, 0.0, 0.5),
    (burgers_clamped(4.0), paired_harmonic_noise(2), "spectral", 0.0, 1e-6, 0.5),
    (burgers_clamped(4.0), diagonal_decay_noise(3), "spectral", 1e-3, 1e-6, 0.5),
    # no spectral term and no implicit solve: a step takes no transform
    (burgers_clamped(4.0), diagonal_decay_noise(3), "rusanov", 0.0, 0.0, 0.0),
])
def test_adjoint_gradient_matches_central_differences(flux, noise, scheme, eta,
                                                      gamma, slope):
    # the sine keeps |u| well inside both clamps; Burgers' |F'| has a kink
    # where u = 0, which no node hits after step 0, and the Jacobian of
    # step 0 never enters the control gradient
    model = ModelSpec(flux, linear_diffusion(slope, 0.5), noise)
    config = SolverConfig(dt=1e-3, t_end=0.03, eta=eta, gamma=gamma,
                          flux_scheme=scheme)
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, config.t_end, 4)
    coeffs = 0.5 * rng.standard_normal((3, noise.truncation))
    cotangent = rng.standard_normal(GRID.size)
    control = Control(times=times, coeffs=coeffs)
    _, states = terminal_and_states(SINE, model, control, config)
    grad = control_gradient(states, model, config, control, cotangent)

    delta = 1e-6
    differences = np.zeros_like(coeffs)
    for idx in np.ndindex(coeffs.shape):
        ends = []
        for sign in (1.0, -1.0):
            moved = coeffs.copy()
            moved[idx] += sign * delta
            terminal, _ = terminal_and_states(
                SINE, model, Control(times=times, coeffs=moved), config)
            ends.append(cotangent @ terminal)
        differences[idx] = (ends[0] - ends[1]) / (2.0 * delta)
    assert np.max(np.abs(grad - differences)) <= 1e-6 * np.max(np.abs(differences))


def test_the_sweep_gives_the_terminal_sensitivity_exactly(monkeypatch):
    # a nonlinear model: Rusanov fluxes of clamped Burgers about a sine
    model = ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                      paired_harmonic_noise(pairs=2))
    T = 0.05
    config = SolverConfig(dt=1e-3, t_end=T, eta=1e-3)
    target = field_from_spectrum(
        GRID, solve(SINE, model, config).terminal.spectrum
        + pair_target(GRID, {1: 0.01 - 0.02j}).spectrum)
    opts = RateOptions(intervals=2, dt=1e-3, maxiter=3)
    solved, swept = [], []

    def recorded(u0, model, control, config, **kwargs):
        solved.append(control.coeffs.tobytes())
        return solve_controlled_spde(u0, model, control, config, **kwargs)

    def sweep(states, model, config, control, cotangents):
        swept.append((control, cotangents,
                      control_gradient(states, model, config, control, cotangents)))
        return swept[-1][-1]

    monkeypatch.setattr(rate_module, "solve_controlled_spde", recorded)
    monkeypatch.setattr(rate_module, "control_gradient", sweep)
    report = ldp_rate_iterative(target, SINE, model, T, opts, eta=1e-3)
    assert report.value == report.optimal_control.energy
    # one sweep of the N unit cotangents per step, each at a point solved
    assert len(swept) == report.iterations
    delta = 1e-6
    for control, cotangents, grad in swept:
        assert np.array_equal(cotangents, np.eye(GRID.size))
        assert control.coeffs.tobytes() in solved
        # S[i, (j, k)]: the sensitivity of node i of u_N to coefficient (j, k)
        sensitivity = grad.transpose(1, 0, 2)
        differences = np.zeros_like(sensitivity)
        for idx in np.ndindex(control.coeffs.shape):
            ends = []
            for sign in (1.0, -1.0):
                moved = control.coeffs.copy()
                moved[idx] += sign * delta
                ends.append(solve_skeleton(SINE, model, Control(
                    times=control.times, coeffs=moved), config).terminal.values)
            differences[:, idx[0], idx[1]] = (ends[0] - ends[1]) / (2.0 * delta)
        assert (np.max(np.abs(sensitivity - differences))
                <= 1e-6 * np.max(np.abs(differences)))


def test_a_non_finite_gradient_raises_divergence():
    model = ModelSpec(burgers_clamped(4.0), linear_diffusion(0.5, 0.5),
                      diagonal_decay_noise(3))
    config = SolverConfig(dt=1e-3, t_end=0.01)
    control = Control(times=np.array([0.0, 0.01]), coeffs=np.ones((1, 3)))
    _, states = terminal_and_states(SINE, model, control, config)
    cotangent = np.ones(GRID.size)
    cotangent[5] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            control_gradient(states, model, config, control, cotangent)
    assert err.value.step_index == 9
    assert str(err.value).startswith("the adjoint cotangent lost finiteness at step 9")
    # a blow-up inside the middle one of three 32-step blocks of a 75-step
    # sweep: the steps after it stay finite, and it is the one named
    config = SolverConfig(dt=1e-3, t_end=0.075)
    control = Control(times=np.array([0.0, 0.03, 0.075]), coeffs=np.ones((2, 3)))
    _, states = terminal_and_states(SINE, model, control, config)
    states[40, 5] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError) as err:
            control_gradient(states, model, config, control, np.ones(GRID.size))
    assert err.value.step_index == 40
    assert err.value.time == pytest.approx(0.041)


def test_undriven_modes_of_the_iterative_control_are_rounding():
    # the rate-iterative benchmark case: the target drives only the first
    # frequency, so the coefficients of the second pair stay at rounding
    model = ModelSpec(linear_advection(1.0), linear_diffusion(0.5, 0.5),
                      paired_harmonic_noise(pairs=2))
    opts = RateOptions(intervals=10, dt=1e-3, flux_scheme="spectral",
                       rounds=3, maxiter=100)
    report = ldp_rate_iterative(pair_target(GRID, {1: 0.08 - 0.05j}),
                                constant_field(GRID, 0.0), model, 0.25, opts)
    assert report.converged
    assert np.max(np.abs(report.optimal_control.coeffs[:, 2:])) <= 1e-14


def test_the_iterative_rate_solves_each_control_once(monkeypatch):
    solved = []

    def recorded(u0, model, control, config, **kwargs):
        solved.append(control.coeffs.tobytes())
        return solve_controlled_spde(u0, model, control, config, **kwargs)

    monkeypatch.setattr(rate_module, "solve_controlled_spde", recorded)
    # the rate-iterative benchmark case: one Gauss-Newton step from the zero
    # control lands the target
    opts = RateOptions(intervals=10, dt=1e-3, flux_scheme="spectral",
                       rounds=3, maxiter=100)
    report = ldp_rate_iterative(pair_target(GRID, {1: 0.08 - 0.05j}),
                                constant_field(GRID, 0.0), PAIRED, 0.25, opts)
    assert report.converged and report.iterations == 1
    assert report.residual <= 1e-15
    assert len(set(solved)) == len(solved) == 2
    assert not np.any(np.frombuffer(solved[0]))
    assert report.optimal_control.coeffs.tobytes() == solved[-1]


def test_the_iterative_rate_sweeps_each_point_once(monkeypatch):
    solved, swept = [], []

    def recorded(u0, model, control, config, **kwargs):
        solved.append(control.coeffs.tobytes())
        return solve_controlled_spde(u0, model, control, config, **kwargs)

    def sweep(states, model, config, control, cotangent):
        swept.append(control.coeffs.tobytes())
        return control_gradient(states, model, config, control, cotangent)

    monkeypatch.setattr(rate_module, "solve_controlled_spde", recorded)
    monkeypatch.setattr(rate_module, "control_gradient", sweep)
    # the rate-iterative benchmark case: the one sweep is at the zero control,
    # a point already solved; the landed control needs no sweep
    opts = RateOptions(intervals=10, dt=1e-3, flux_scheme="spectral",
                       rounds=3, maxiter=100)
    ldp_rate_iterative(pair_target(GRID, {1: 0.08 - 0.05j}),
                       constant_field(GRID, 0.0), PAIRED, 0.25, opts)
    assert len(set(swept)) == len(swept) == 1
    assert set(swept) <= set(solved)
    assert swept == solved[:1]
    assert len(solved) == 2


def test_report_json_fields():
    report = mdp_rate_exact(pair_target(GRID, {1: 0.1 + 0.0j}), SLOW, 0.5)
    payload = report_to_json(report, control_path="control.csv")
    import json

    decoded = json.loads(payload)
    assert decoded["infinite"] is False
    assert decoded["value"] == pytest.approx(report.value)
    assert decoded["control_csv"] == "control.csv"
    assert {"residual", "iterations", "upper_bound", "converged"} <= decoded.keys()
