"""Monte Carlo drivers that turn the small-noise limit statements into
desk-scale checks: coupled-path contraction, fluctuation convergence against
the exact linear modes, mass conservation in mean, vanishing-viscosity
ladders, controlled-path coupling, and moderate-deviation concentration.

Every experiment is a pure function of its arguments and a master seed.
Sample j owns Wiener stream j; experiments that compare cells across an eps
grid reuse the same streams in every cell, so cross-cell differences are
paired and the shared discretization floor cancels.  Tasks are built in a
deterministic order before dispatch and pool.map preserves that order, so
reruns reproduce every statistic bit for bit regardless of worker count.
Paired comparisons drive both legs of each sample with the same increments
and log the increment digest of the first sample per cell as evidence.

Path norms are the rectangle-rule time integral of the spatial L1 norm over
the recorded snapshot times; tolerances elsewhere refer to that convention.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .fields import GridSpec, SpectralField, constant_field, path_l1_integral
from .models import (ConfigurationError, ModelSpec, build_model, noise_tables)
from .oracle import ModeParams, linearized_mode_arrays, star_moments
from .skeleton import solve_controlled_spde, solve_skeleton
from .solver import SolverConfig, WienerPath, solve

__all__ = [
    "CellResult",
    "ExperimentReport",
    "report_to_json",
    "report_to_csv",
    "contraction_experiment",
    "clt_experiment",
    "mass_martingale_experiment",
    "regularization_experiment",
    "condition2_coupling_experiment",
    "mdp_concentration_experiment",
]


# ---------------------------------------------------------------------------
# report plumbing


def _native(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _pairs(items) -> tuple:
    return tuple((str(k), _native(v)) for k, v in items)


@dataclass(frozen=True)
class CellResult:
    """One cell of an experiment: a statistic, its Monte Carlo standard
    error, and the verdict against the declared tolerance."""

    params: tuple
    statistic: float
    stderr: float
    verdict: bool
    samples: int
    extra: tuple = ()


def _cell(params, statistic, stderr, verdict, samples, extra=()) -> CellResult:
    return CellResult(params=_pairs(params), statistic=float(statistic),
                      stderr=float(stderr), verdict=bool(verdict),
                      samples=int(samples), extra=_pairs(extra))


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    grid: tuple
    cells: tuple
    seed: int
    digests: tuple = ()

    @property
    def passed(self) -> bool:
        return all(cell.verdict for cell in self.cells)


def report_to_json(report: ExperimentReport) -> str:
    obj = {
        "name": report.name,
        "seed": report.seed,
        "grid": {key: list(vals) for key, vals in report.grid},
        "cells": [
            {
                "params": dict(cell.params),
                "statistic": cell.statistic,
                "stderr": cell.stderr,
                "verdict": cell.verdict,
                "samples": cell.samples,
                "extra": dict(cell.extra),
            }
            for cell in report.cells
        ],
        "digests": list(report.digests),
        "passed": report.passed,
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def report_to_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "params", "statistic", "stderr", "verdict",
                         "samples"])
        for i, cell in enumerate(report.cells):
            text = " ".join(f"{k}={v}" for k, v in cell.params)
            writer.writerow([i, text, repr(cell.statistic), repr(cell.stderr),
                             int(cell.verdict), cell.samples])


# ---------------------------------------------------------------------------
# shared machinery


def _default_config() -> SolverConfig:
    return SolverConfig(dt=2e-4, t_end=0.5)


def _model_payload(model, workers: int):
    """Built spec for in-process math plus the form embedded in tasks.

    A plain recipe dict crosses process boundaries; a ModelSpec holds
    callables and stays in-process, so it only supports serial runs.
    """
    if isinstance(model, ModelSpec):
        if workers > 1:
            raise ConfigurationError(
                "parallel experiments need a plain model recipe (dict); "
                "built model specs hold callables and stay in one process")
        return model, model
    built = build_model(model)
    return built, dict(model)


def _task_model(task) -> ModelSpec:
    model = task["model"]
    return build_model(model) if isinstance(model, dict) else model


def _map_samples(worker, tasks, workers: int):
    if workers <= 1:
        return [worker(task) for task in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _mean_stderr(samples):
    xs = np.asarray(samples, dtype=float)
    mean = float(np.mean(xs))
    if len(xs) < 2:
        return mean, 0.0
    return mean, float(np.std(xs, ddof=1) / np.sqrt(len(xs)))


def _check_grid(values, label, minimum=0.0, strict_positive=True):
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ConfigurationError(f"{label} must not be empty")
    for v in vals:
        if strict_positive and v <= minimum:
            raise ConfigurationError(f"{label} entries must exceed {minimum:g}")
        if not strict_positive and v < minimum:
            raise ConfigurationError(f"{label} entries must be >= {minimum:g}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigurationError(f"{label} must be strictly decreasing")
    return vals


def _constant_initial(u0, grid):
    """Resolve a constant initial state; reject anything else."""
    if u0 is None:
        grid = grid if grid is not None else GridSpec(128)
        return constant_field(grid, 1.0), 1.0
    values = u0.values
    base = float(np.mean(values))
    if float(np.max(np.abs(values - base))) > 1e-13 * max(1.0, abs(base)):
        raise ConfigurationError(
            "fluctuation statistics need a constant initial state")
    return u0, base


def _coupled_paths(task):
    """Two streams of identical increments for the two legs of one sample."""
    k = task["truncation"]
    return (WienerPath(task["seed"], task["stream"], k),
            WienerPath(task["seed"], task["stream"], k))


def _leg_digest(path_a, path_b, config) -> str:
    n_steps = int(round(config.t_end / config.dt))
    da = path_a.digest(n_steps, config.dt)
    db = path_b.digest(n_steps, config.dt)
    if da != db:
        raise RuntimeError("coupled legs consumed different noise")
    return da


def _scheme_modes(spec, grid, eta, flux_scheme):
    """Drift rates and noise weights of the scheme's linearization about 1.

    The spectral flux keeps the continuum advection rate 2 pi i a k, with
    a = F'(1).  Rusanov's upwinded difference has the symbol
    i a N sin(2 pi k/N) + |a| N (1 - cos(2 pi k/N)) instead; its real part is
    the scheme's numerical viscosity, which damps the mode variances.
    """
    mu, weights = linearized_mode_arrays(spec, grid, eta)
    if flux_scheme == "rusanov":
        a = float(spec.flux.deriv(1.0))
        n = grid.points_per_axis
        phase = 2.0 * np.pi * grid.wavenumbers() / n
        mu = mu.real + n * (abs(a) * (1.0 - np.cos(phase)) + 1j * a * np.sin(phase))
    return mu, weights


def _quantile_band(samples, q):
    """Sample quantile plus a one-sigma band from order-statistic spacing."""
    xs = np.sort(np.asarray(samples, dtype=float))
    m = len(xs)
    value = float(np.quantile(xs, q))
    if m < 2:
        return value, 0.0
    half = np.sqrt(m * q * (1.0 - q))
    lo = int(np.clip(np.floor(m * q - half), 0, m - 1))
    hi = int(np.clip(np.ceil(m * q + half), 0, m - 1))
    return value, float(0.5 * (xs[hi] - xs[lo]))


# ---------------------------------------------------------------------------
# coupled-path contraction


def _contraction_worker(task):
    model = _task_model(task)
    grid, config = task["grid"], task["config"]
    u0 = SpectralField(grid, task["u0"])
    v0 = SpectralField(grid, task["v0"])
    digest = None
    if config.eps > 0.0:
        path_a, path_b = _coupled_paths(task)
        traj_a = solve(u0, model, config, path_a)
        traj_b = solve(v0, model, config, path_b)
        if task["digest"]:
            digest = _leg_digest(path_a, path_b, config)
    else:
        traj_a = solve(u0, model, config)
        traj_b = solve(v0, model, config)
    diff = np.array([float(np.mean(np.abs(a.values - b.values)))
                     for a, b in zip(traj_a.snapshots, traj_b.snapshots)])
    return {"times": traj_a.times, "diff": diff, "digest": digest}


def contraction_experiment(model, pairs, eps, M, *, config=None, seed=0,
                           workers=1, tol=1e-2) -> ExperimentReport:
    """Estimate the mean L1 distance of two solutions driven by the same
    noise and check it never exceeds the initial distance beyond the scheme
    allowance plus three standard errors.

    Samples are spread round-robin over the pairs; with eps = 0 both legs
    are deterministic, so a single evaluation per pair is recorded.
    """
    spec, payload = _model_payload(model, workers)
    if M < 100:
        raise ConfigurationError("contraction estimates need at least 100 samples")
    if not pairs:
        raise ConfigurationError("need at least one initial pair")
    grid = pairs[0][0].grid
    for u0, v0 in pairs:
        if u0.grid != grid or v0.grid != grid:
            raise ConfigurationError("all initial pairs must share one grid")
    config = config if config is not None else _default_config()
    run_config = replace(config, eps=float(eps))

    n_pairs = len(pairs)
    tasks = []
    if run_config.eps > 0.0:
        for i in range(M):
            p = i % n_pairs
            tasks.append({"model": payload, "grid": grid, "config": run_config,
                          "u0": pairs[p][0].values, "v0": pairs[p][1].values,
                          "seed": seed, "stream": i,
                          "truncation": spec.noise.truncation,
                          "digest": i < n_pairs, "pair": p})
    else:
        for p in range(n_pairs):
            tasks.append({"model": payload, "grid": grid, "config": run_config,
                          "u0": pairs[p][0].values, "v0": pairs[p][1].values,
                          "seed": seed, "stream": p,
                          "truncation": spec.noise.truncation,
                          "digest": False, "pair": p})
    results = _map_samples(_contraction_worker, tasks, workers)

    cells = []
    digests = []
    for p in range(n_pairs):
        rows = [r for t, r in zip(tasks, results) if t["pair"] == p]
        times = rows[0]["times"]
        stack = np.stack([r["diff"] for r in rows])
        mean = stack.mean(axis=0)
        if len(rows) > 1:
            stderr = stack.std(axis=0, ddof=1) / np.sqrt(len(rows))
        else:
            stderr = np.zeros_like(mean)
        init = float(np.mean(np.abs(pairs[p][0].values - pairs[p][1].values)))
        band = init * (1.0 + tol) + 3.0 * stderr
        verdict = bool(np.all(mean <= band))
        worst = int(np.argmax(mean - band))
        cells.append(_cell(
            params=(("pair", p), ("eps", run_config.eps)),
            statistic=mean[worst], stderr=stderr[worst], verdict=verdict,
            samples=len(rows),
            extra=(("init_l1", init), ("worst_time", float(times[worst])))))
        for r in rows:
            if r["digest"] is not None:
                digests.append(f"pair{p}:{r['digest']}")
                break
    return ExperimentReport(
        name="contraction",
        grid=(("eps", (float(eps),)), ("pairs", (n_pairs,)), ("M", (M,))),
        cells=tuple(cells), seed=seed, digests=tuple(digests))


# ---------------------------------------------------------------------------
# fluctuation convergence against the exact linear modes


def _clt_worker(task):
    model = _task_model(task)
    grid, config = task["grid"], task["config"]
    u0 = SpectralField(grid, task["u0"])
    path_a, path_b = _coupled_paths(task)
    traj = solve(u0, model, config, path_a)
    root = float(np.sqrt(config.eps))
    base = task["base"]
    w_fields = [(s.values - base) / root for s in traj.snapshots]

    # oracle leg: exact per-mode decay with the same increments, left-point
    # noise matching the solver's convention
    mu, weights = task["mu"], task["weights"]
    n_steps = int(round(config.t_end / config.dt))
    record = set(int(s) for s in np.rint(traj.times / config.dt))
    decay = np.exp(-mu * config.dt)
    w_hat = np.zeros(grid.size, dtype=complex)
    oracle_fields = [np.zeros(grid.size)]
    for i in range(n_steps):
        dbeta = path_b.increments(i, config.dt)
        w_hat = decay * w_hat + weights @ dbeta
        if (i + 1) in record:
            oracle_fields.append(np.fft.ifft(w_hat * grid.size).real)

    gaps = [np.abs(w - o) for w, o in zip(w_fields, oracle_fields)]
    e1 = path_l1_integral(traj.times, gaps)
    terminal_hat = np.fft.fft(w_fields[-1]) / grid.size
    coeffs = {int(k): complex(terminal_hat[idx])
              for k, idx in task["mode_index"].items()}
    digest = _leg_digest(path_a, path_b, config) if task["digest"] else None
    return {"e1": e1, "coeffs": coeffs, "digest": digest}


def clt_experiment(model, eps_grid, eta, M, *, grid=None, u0=None, config=None,
                   modes=(1, 2), seed=0, workers=1) -> ExperimentReport:
    """Couple the rescaled fluctuation (u - 1)/sqrt(eps) to the exact linear
    mode dynamics driven by the same increments.

    Per eps cell: mean path gap in the L1 time integral, required to
    decrease as eps does.  At the smallest eps the terminal variance of each
    checked mode must match the zero-start linear variance within three
    standard errors.
    """
    spec, payload = _model_payload(model, workers)
    if M < 100:
        raise ConfigurationError("fluctuation estimates need at least 100 samples")
    eps_values = _check_grid(eps_grid, "eps grid")
    u0, base = _constant_initial(u0, grid)
    grid = u0.grid
    config = config if config is not None else _default_config()

    mu, weights = _scheme_modes(spec, grid, float(eta), config.flux_scheme)
    wavenumbers = grid.wavenumbers().astype(int)
    mode_index = {}
    for k in modes:
        hits = np.nonzero(wavenumbers == int(k))[0]
        if len(hits) == 0:
            raise ConfigurationError(f"mode {k} is not resolvable on the grid")
        mode_index[int(k)] = int(hits[0])

    # sample j draws stream j in every cell: cross-cell comparisons are
    # paired, so the shared discretization floor cancels from differences
    tasks = []
    for c, eps in enumerate(eps_values):
        run_config = replace(config, eps=eps, eta=float(eta), lambda_eps=1.0)
        for j in range(M):
            tasks.append({"model": payload, "grid": grid, "config": run_config,
                          "u0": u0.values, "base": base, "mu": mu,
                          "weights": weights, "mode_index": mode_index,
                          "seed": seed, "stream": j,
                          "truncation": spec.noise.truncation,
                          "digest": j == 0, "cell": c})
    results = _map_samples(_clt_worker, tasks, workers)

    cells = []
    digests = []
    prev = None
    for c, eps in enumerate(eps_values):
        rows = [r for t, r in zip(tasks, results) if t["cell"] == c]
        stat, err = _mean_stderr([r["e1"] for r in rows])
        verdict = True if prev is None else stat < prev
        cells.append(_cell(params=(("kind", "path-gap"), ("eps", eps)),
                           statistic=stat, stderr=err, verdict=verdict,
                           samples=len(rows)))
        digests.append(f"eps{eps:g}:{rows[0]['digest']}")
        prev = stat
        if c == len(eps_values) - 1:
            for k, idx in mode_index.items():
                coeffs = np.array([r["coeffs"][k] for r in rows])
                centered = np.abs(coeffs - coeffs.mean()) ** 2
                measured, err_var = _mean_stderr(centered)
                oracle = star_moments(ModeParams(k, complex(mu[idx]), weights[idx]),
                                      config.t_end)[1]
                verdict = abs(measured - oracle) <= 3.0 * err_var
                cells.append(_cell(
                    params=(("kind", "mode-variance"), ("eps", eps),
                            ("mode", k)),
                    statistic=measured, stderr=err_var, verdict=verdict,
                    samples=len(rows), extra=(("oracle", oracle),)))
    return ExperimentReport(
        name="clt",
        grid=(("eps", eps_values), ("eta", (float(eta),)), ("M", (M,))),
        cells=tuple(cells), seed=seed, digests=tuple(digests))


# ---------------------------------------------------------------------------
# mass conservation in mean


def _mass_worker(task):
    model = _task_model(task)
    grid, config = task["grid"], task["config"]
    u0 = SpectralField(grid, task["u0"])
    digest = None
    if config.eps > 0.0:
        path = WienerPath(task["seed"], task["stream"], task["truncation"])
        traj = solve(u0, model, config, path)
        if task["digest"]:
            digest = path.digest(int(round(config.t_end / config.dt)),
                                 config.dt)
    else:
        traj = solve(u0, model, config)
    drift = float(np.mean(traj.terminal.values) - np.mean(u0.values))
    return {"drift": drift, "digest": digest}


def mass_martingale_experiment(model, eps, M, *, u0=None, grid=None,
                               config=None, seed=0,
                               workers=1) -> ExperimentReport:
    """Check the spatial mean is a martingale: the sample mean of the mass
    drift over [0, T] sits within three standard errors of zero.

    State-independent noise adds a closed-form cell: the mass drift is
    Gaussian with variance eps * T * sum_n (mean h_n)^2, compared against
    the sample variance.  With eps = 0 the scheme must conserve mass to
    1e-12 in one deterministic run.
    """
    spec, payload = _model_payload(model, workers)
    if M < 500:
        raise ConfigurationError("mass statistics need at least 500 samples")
    if u0 is None:
        grid = grid if grid is not None else GridSpec(128)
        u0 = constant_field(grid, 1.0)
    grid = u0.grid
    config = config if config is not None else _default_config()
    run_config = replace(config, eps=float(eps))

    if run_config.eps == 0.0:
        tasks = [{"model": payload, "grid": grid, "config": run_config,
                  "u0": u0.values, "seed": seed, "stream": 0,
                  "truncation": spec.noise.truncation, "digest": False}]
    else:
        tasks = [{"model": payload, "grid": grid, "config": run_config,
                  "u0": u0.values, "seed": seed, "stream": j,
                  "truncation": spec.noise.truncation, "digest": j == 0}
                 for j in range(M)]
    results = _map_samples(_mass_worker, tasks, workers)
    drifts = np.array([r["drift"] for r in results])

    cells = []
    if run_config.eps == 0.0:
        cells.append(_cell(params=(("kind", "mean-drift"), ("eps", 0.0)),
                           statistic=abs(drifts[0]), stderr=0.0,
                           verdict=abs(drifts[0]) <= 1e-12, samples=1))
    else:
        mean, err = _mean_stderr(drifts)
        cells.append(_cell(params=(("kind", "mean-drift"),
                                   ("eps", run_config.eps)),
                           statistic=abs(mean), stderr=err,
                           verdict=abs(mean) <= 3.0 * err, samples=len(drifts)))
        if spec.noise.affine_in_state:
            a_table, b_table = noise_tables(spec.noise, grid)
            if float(np.max(np.abs(b_table))) == 0.0:
                closed = run_config.eps * config.t_end * float(
                    np.sum(np.mean(a_table, axis=1) ** 2))
                centered = (drifts - drifts.mean()) ** 2
                sample_var = float(np.var(drifts, ddof=1))
                err_var = float(np.std(centered, ddof=1) / np.sqrt(len(drifts)))
                cells.append(_cell(
                    params=(("kind", "mass-variance"),
                            ("eps", run_config.eps)),
                    statistic=sample_var, stderr=err_var,
                    verdict=abs(sample_var - closed) <= 3.0 * err_var,
                    samples=len(drifts), extra=(("closed_form", closed),)))
    digests = tuple(f"sample0:{r['digest']}" for r in results
                    if r["digest"] is not None)
    return ExperimentReport(
        name="mass-martingale",
        grid=(("eps", (float(eps),)), ("M", (M,))),
        cells=tuple(cells), seed=seed, digests=digests)


# ---------------------------------------------------------------------------
# vanishing-viscosity ladders


def regularization_experiment(model, control, ladder, *, which="eta", u0=None,
                              config=None) -> ExperimentReport:
    """March the viscosity (eta) or hyperviscosity (gamma) down a ladder and
    measure consecutive path distances; increments must decrease down the
    ladder (a ladder of exactly zero increments also passes).

    Deterministic: runs the controlled skeleton, no sampling.
    """
    spec, _ = _model_payload(model, 1)
    rungs = tuple(float(r) for r in ladder)
    if len(rungs) < 3:
        raise ConfigurationError("the ladder needs at least three rungs")
    if any(b >= a for a, b in zip(rungs, rungs[1:])):
        raise ConfigurationError("the ladder must be strictly decreasing")
    if rungs[-1] < 0.0:
        raise ConfigurationError("ladder rungs must be nonnegative")
    if which not in ("eta", "gamma"):
        raise ConfigurationError("which must be 'eta' or 'gamma'")
    if u0 is None:
        u0 = constant_field(GridSpec(128), 1.0)
    config = config if config is not None else _default_config()

    trajectories = []
    for rung in rungs:
        run_config = replace(config, **{which: rung})
        if control is None:
            trajectories.append(solve(u0, spec, run_config))
        else:
            trajectories.append(solve_skeleton(u0, spec, control, run_config))

    cells = []
    prev = None
    for i in range(len(rungs) - 1):
        a, b = trajectories[i], trajectories[i + 1]
        gaps = [np.abs(p.values - q.values)
                for p, q in zip(a.snapshots, b.snapshots)]
        increment = path_l1_integral(a.times, gaps)
        if prev is None:
            verdict = True
        else:
            verdict = increment < prev or (increment == 0.0 and prev == 0.0)
        cells.append(_cell(
            params=(("which", which), ("from", rungs[i]), ("to", rungs[i + 1])),
            statistic=increment, stderr=0.0, verdict=verdict, samples=1))
        prev = increment
    return ExperimentReport(
        name=f"regularization-{which}",
        grid=((which, rungs),),
        cells=tuple(cells), seed=0)


# ---------------------------------------------------------------------------
# controlled-path coupling


def _condition2_worker(task):
    model = _task_model(task)
    grid, config = task["grid"], task["config"]
    u0 = SpectralField(grid, task["u0"])
    control = task["control"]
    digest = None
    if config.eps > 0.0:
        path = WienerPath(task["seed"], task["stream"], task["truncation"])
        traj = solve_controlled_spde(u0, model, control, config, path)
        if task["digest"]:
            digest = path.digest(int(round(config.t_end / config.dt)),
                                 config.dt)
    else:
        traj = solve_controlled_spde(u0, model, control, config)
    skeleton_matrix = task["skeleton"]
    gaps = [np.abs(s.values - skeleton_matrix[i])
            for i, s in enumerate(traj.snapshots)]
    e1 = path_l1_integral(traj.times, gaps)
    return {"e1": e1, "digest": digest}


def condition2_coupling_experiment(model, control_family, eps_grid, M, *,
                                   u0=None, grid=None, delta=None,
                                   level_bound=None, config=None, seed=0,
                                   workers=1) -> ExperimentReport:
    """Fraction of controlled small-noise paths that stray from their
    deterministic skeleton by more than delta in the L1 path norm.

    The fraction must be nonincreasing down the eps grid and at most 5% at
    the smallest eps.  Controls must sit inside the declared energy level
    set; samples go round-robin over the family.
    """
    spec, payload = _model_payload(model, workers)
    if M < 1:
        raise ConfigurationError("need at least one sample")
    eps_values = _check_grid(eps_grid, "eps grid", strict_positive=False)
    controls = list(control_family)
    if not controls:
        raise ConfigurationError("need at least one control")
    # the level set bounds the squared-coefficient time integral, twice the
    # energy functional
    if level_bound is None:
        level_bound = max(2.0 * c.energy for c in controls)
    for c in controls:
        if not c.within_level_set(float(level_bound)):
            raise ConfigurationError(
                f"control integral {2.0 * c.energy:g} exceeds the level "
                f"bound {float(level_bound):g}")
    if u0 is None:
        grid = grid if grid is not None else GridSpec(128)
        u0 = constant_field(grid, 1.0)
    grid = u0.grid
    config = config if config is not None else _default_config()
    if delta is None:
        delta = 0.05 * max(1.0, float(np.mean(np.abs(u0.values))))
    delta = float(delta)

    skeletons = []
    for control in controls:
        traj = solve_skeleton(u0, spec, control, replace(config, eps=0.0))
        skeletons.append(np.stack([s.values for s in traj.snapshots]))

    # common streams across cells: the exceedance comparison is paired in eps
    tasks = []
    for c, eps in enumerate(eps_values):
        run_config = replace(config, eps=eps)
        count = M if eps > 0.0 else len(controls)
        for j in range(count):
            ci = j % len(controls)
            tasks.append({"model": payload, "grid": grid, "config": run_config,
                          "u0": u0.values, "control": controls[ci],
                          "skeleton": skeletons[ci], "seed": seed,
                          "stream": j,
                          "truncation": spec.noise.truncation,
                          "digest": j == 0, "cell": c})
    results = _map_samples(_condition2_worker, tasks, workers)

    cells = []
    digests = []
    prev = None
    for c, eps in enumerate(eps_values):
        rows = [r for t, r in zip(tasks, results) if t["cell"] == c]
        hits = np.array([float(r["e1"] > delta) for r in rows])
        fraction = float(np.mean(hits))
        if len(rows) > 1:
            err = float(np.std(hits, ddof=1) / np.sqrt(len(rows)))
        else:
            err = 0.0
        verdict = (prev is None or fraction <= prev)
        if c == len(eps_values) - 1:
            verdict = verdict and fraction <= 0.05
        mean_gap, _ = _mean_stderr([r["e1"] for r in rows])
        cells.append(_cell(
            params=(("kind", "exceedance"), ("eps", eps)),
            statistic=fraction, stderr=err, verdict=verdict,
            samples=len(rows),
            extra=(("delta", delta), ("mean_gap", mean_gap))))
        for r in rows:
            if r["digest"] is not None:
                digests.append(f"eps{eps:g}:{r['digest']}")
                break
        prev = fraction
    return ExperimentReport(
        name="condition2-coupling",
        grid=(("eps", eps_values), ("controls", (len(controls),)),
              ("M", (M,))),
        cells=tuple(cells), seed=seed, digests=tuple(digests))


# ---------------------------------------------------------------------------
# moderate-deviation concentration


def _mdp_worker(task):
    model = _task_model(task)
    grid, config = task["grid"], task["config"]
    u0 = SpectralField(grid, task["u0"])
    path = WienerPath(task["seed"], task["stream"], task["truncation"])
    traj = solve(u0, model, config, path)
    scale = task["scale"]
    limit_matrix = task["limit"]
    z_fields = [(s.values - limit_matrix[i]) / scale
                for i, s in enumerate(traj.snapshots)]
    e1 = path_l1_integral(traj.times, [np.abs(z) for z in z_fields])
    coeffs = {}
    if task["mode_index"]:
        terminal_hat = np.fft.fft(z_fields[-1]) / grid.size
        coeffs = {int(k): complex(terminal_hat[idx])
                  for k, idx in task["mode_index"].items()}
    digest = None
    if task["digest"]:
        digest = path.digest(int(round(config.t_end / config.dt)), config.dt)
    return {"e1": e1, "coeffs": coeffs, "digest": digest}


def mdp_concentration_experiment(model, a_exponent, eps_grid, M, *, u0=None,
                                 grid=None, config=None, linear_check=False,
                                 modes=(1,), seed=0,
                                 workers=1) -> ExperimentReport:
    """Quantiles of the rescaled deviation z = (u - limit)/(sqrt(eps) *
    eps^-a) stay bounded down the eps grid while the raw deviation shrinks.

    The amplification eps^-a needs a in (0, 1/2) so it grows while
    sqrt(eps) * eps^-a still vanishes.  With linear_check the terminal mode
    variance of z is compared against the linear oracle scaled by eps^{2a}.
    """
    a = float(a_exponent)
    if not 0.0 < a < 0.5:
        raise ConfigurationError(
            "the amplification exponent must lie strictly between 0 and 1/2")
    spec, payload = _model_payload(model, workers)
    if M < 1:
        raise ConfigurationError("need at least one sample")
    eps_values = _check_grid(eps_grid, "eps grid")
    u0, _ = _constant_initial(u0, grid)
    grid = u0.grid
    config = config if config is not None else _default_config()

    limit_traj = solve(u0, spec, replace(config, eps=0.0))
    limit_matrix = np.stack([s.values for s in limit_traj.snapshots])

    mode_index = {}
    if linear_check:
        mu, weights = _scheme_modes(spec, grid, config.eta, config.flux_scheme)
        wavenumbers = grid.wavenumbers().astype(int)
        for k in modes:
            hits = np.nonzero(wavenumbers == int(k))[0]
            if len(hits) == 0:
                raise ConfigurationError(
                    f"mode {k} is not resolvable on the grid")
            mode_index[int(k)] = int(hits[0])

    # common streams across cells: quantile and raw-gap comparisons pair up
    tasks = []
    for c, eps in enumerate(eps_values):
        lam = eps ** (-a)
        run_config = replace(config, eps=eps, lambda_eps=1.0)
        for j in range(M):
            tasks.append({"model": payload, "grid": grid, "config": run_config,
                          "u0": u0.values, "limit": limit_matrix,
                          "scale": float(np.sqrt(eps) * lam),
                          "mode_index": mode_index, "seed": seed,
                          "stream": j,
                          "truncation": spec.noise.truncation,
                          "digest": j == 0, "cell": c})
    results = _map_samples(_mdp_worker, tasks, workers)

    cells = []
    digests = []
    first_q90 = first_band = None
    prev_raw = None
    for c, eps in enumerate(eps_values):
        lam = eps ** (-a)
        rows = [r for t, r in zip(tasks, results) if t["cell"] == c]
        z_samples = np.array([r["e1"] for r in rows])
        q50, band50 = _quantile_band(z_samples, 0.5)
        q90, band90 = _quantile_band(z_samples, 0.9)
        if first_q90 is None:
            first_q90, first_band = q90, band90
            spread_ok = True
        else:
            spread_ok = q90 <= first_q90 * 1.05 + 3.0 * (band90 + first_band)
        cells.append(_cell(
            params=(("kind", "spread"), ("eps", eps)),
            statistic=q90, stderr=band90, verdict=spread_ok,
            samples=len(rows),
            extra=(("q50", q50), ("q50_band", band50))))
        raw_scale = float(np.sqrt(eps) * lam)
        raw_mean, raw_err = _mean_stderr(z_samples * raw_scale)
        raw_ok = prev_raw is None or raw_mean < prev_raw
        cells.append(_cell(
            params=(("kind", "raw-gap"), ("eps", eps)),
            statistic=raw_mean, stderr=raw_err, verdict=raw_ok,
            samples=len(rows)))
        prev_raw = raw_mean
        if linear_check:
            for k, idx in mode_index.items():
                coeffs = np.array([r["coeffs"][k] for r in rows])
                centered = np.abs(coeffs - coeffs.mean()) ** 2
                measured, err_var = _mean_stderr(centered)
                oracle = star_moments(ModeParams(k, complex(mu[idx]), weights[idx]),
                                      config.t_end)[1]
                scaled = oracle / (lam * lam)
                cells.append(_cell(
                    params=(("kind", "mode-variance"), ("eps", eps),
                            ("mode", k)),
                    statistic=measured, stderr=err_var,
                    verdict=abs(measured - scaled) <= 3.0 * err_var,
                    samples=len(rows), extra=(("oracle", scaled),)))
        digests.append(f"eps{eps:g}:{rows[0]['digest']}")
    return ExperimentReport(
        name="mdp-concentration",
        grid=(("eps", eps_values), ("a", (a,)), ("M", (M,))),
        cells=tuple(cells), seed=seed, digests=tuple(digests))
