"""Monte Carlo drivers that turn the small-noise limit statements into
desk-scale checks: coupled-path contraction, fluctuation convergence against
the exact linear modes, mass conservation in mean, vanishing-viscosity
ladders, controlled-path coupling, and moderate-deviation concentration.

Every experiment is a pure function of its arguments and a master seed.
Sample j owns Wiener stream j; an eps grid is one batch axis whose cells
share each row's stream, drawn once, so cross-cell differences are paired
and the shared discretization floor cancels.  A run is one batch of rows,
one sample per row, integrated once and reduced while it runs; workers only
split the rows into contiguous chunks.  Every (eps, row) path is bit for bit
the path of its own stream at that eps, and pool.map keeps the chunk order,
so reruns reproduce every statistic bit for bit regardless of worker count.
Paired comparisons drive both legs of each sample with the same increments
and log the digest of the increments the first sample per cell consumed.

Path norms are fields.PathL1, the rectangle-rule time integral of the
spatial L1 norm over the recorded snapshot times; tolerances elsewhere refer
to that convention.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .fields import GridSpec, PathL1, constant_field, dft, idft
from .models import ConfigurationError, build_model, noise_tables
from .oracle import linearize_run
from .skeleton import solve_skeleton
from .solver import (DivergenceError, SolverConfig, WienerBatch, _StepContext,
                     plan_steps, solve)

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
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


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


def _prepare(model, config, u0=None, grid=None, samples=None, least=1):
    """The built spec for in-process math, the recipe embedded in tasks
    (which crosses process boundaries where the callables of a spec cannot),
    u0 or the state 1 on grid (128 nodes by default), and config or the
    default; given samples, first checks there are at least least."""
    spec, payload = build_model(model), dict(model)
    if samples is not None and samples < least:
        raise ConfigurationError(f"samples: must be at least {least}, got {samples}")
    if u0 is None:
        u0 = constant_field(grid or GridSpec(128), 1.0)
    return spec, payload, u0, config or SolverConfig(dt=2e-4, t_end=0.5)


def _map_samples(worker, tasks, workers: int):
    if workers <= 1:
        return [worker(task) for task in tasks]
    # imported here, so a process that starts no pool never loads
    # multiprocessing (about 0.4 MB resident)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def _run_rows(worker, common, count, workers: int):
    """Integrate count rows in contiguous chunks, one per worker.

    A task is common plus its rows [start, stop).  Returns the workers'
    columns joined in row order, "digests" mapping hashed samples to
    digests."""
    parts = max(1, min(workers, count))
    bounds = [count * i // parts for i in range(parts + 1)]
    tasks = [{**common, "start": lo, "stop": hi} for lo, hi in zip(bounds, bounds[1:])]
    results = _map_samples(worker, tasks, workers)
    out = {key: np.concatenate([r[key] for r in results])
           for key in results[0] if key != "digests"}
    out["digests"] = {j: d for r in results for j, d in r["digests"].items()}
    return out


def _solve_chunk(task, u0, observe, digest_samples=(0,)):
    """Integrate the rows of one task as one batch: row j is sample start + j
    on Wiener stream start + j, u0 holds the rows on its second-to-last axis
    or is one state for all.  task["eps"], when present, is the batch's first
    axis, one noise intensity per slice.  Returns the digests of the task's
    samples in digest_samples, by sample."""
    spec = build_model(task["model"])
    config, start, stop = task["config"], task["start"], task["stop"]
    eps = task.get("eps", config.eps)
    if np.ndim(u0) == 1:
        u0 = np.broadcast_to(u0, np.shape(eps) + (stop - start, len(u0)))
    rows = [j - start for j in digest_samples if start <= j < stop]
    path = WienerBatch(task["seed"], range(start, stop), spec.noise.truncation, rows)
    controls = task.get("controls")
    which = None if controls is None else np.arange(start, stop) % len(controls)
    try:
        solve(u0, spec, config, path, control=controls, rows=which, observe=observe,
              eps=eps)
    except DivergenceError as err:
        index = err.slices[0]
        at = eps[index[0]] if np.ndim(eps) else eps
        raise DivergenceError(err.step_index, err.time, f"sample {start + index[-1]} "
                              f"at eps = {at:g}", err.slices) from err
    return {start + r: path.digest(r) for r in rows} if np.max(eps) > 0.0 else {}


def _deviation_chunk(task):
    """Per row and eps slice e, "e1" (rows, E), the L1 path integral of
    z - oracle with z = (u - reference) / scale[e], reference j mod
    len(references) for row j, and "coeffs" (rows, E, modes), the terminal
    Fourier coefficients of z at task["mode_columns"].  Given a linear
    mode step, per-mode multipliers "decay" and noise "weights", the oracle
    takes that step on the increments the row consumed; else it is zero."""
    config, references, scale = task["config"], task["references"], task["scale"]
    which = np.arange(task["start"], task["stop"]) % len(references)
    n_steps, record = plan_steps(config)
    decay, weights = task.get("decay"), task.get("weights")
    oracle = np.zeros((len(which), references.shape[-1]), dtype=complex)
    gap = PathL1()
    out = {}

    def observe(step, values, dbeta):
        nonlocal oracle
        if weights is not None and dbeta is not None:
            oracle = decay * oracle + np.matmul(weights, dbeta[:, :, None])[:, :, 0]
        if step in record:
            z = (values - references[which, record[step]]) / scale
            gap.add(step * config.dt, z if weights is None else z - idft(oracle))
            if step == n_steps:
                out["coeffs"] = dft(z)[..., task["mode_columns"]]

    digests = _solve_chunk(task, task["u0"], observe)
    return {"e1": gap.total.T, "coeffs": out["coeffs"].transpose(1, 0, 2),
            "digests": digests}


def _column(run, key, e):
    """Cell e of a joined deviation run, contiguous as its own batch gave it."""
    return np.ascontiguousarray(run[key][:, e])


def _mode_variance_cells(coeffs, mode_index, variance, eps, lam=1.0):
    """Terminal variance of each checked mode (one column of coeffs per
    mode) against its zero-start linear variance scaled by lam^-2."""
    cells = []
    for column, (k, idx) in enumerate(mode_index.items()):
        mode = coeffs[:, column]
        measured, err_var = _mean_stderr(np.abs(mode - mode.mean()) ** 2)
        oracle = float(variance[idx]) / (lam * lam)
        cells.append(_cell(
            params=(("kind", "mode-variance"), ("eps", eps), ("mode", k)),
            statistic=measured, stderr=err_var,
            verdict=abs(measured - oracle) <= 3.0 * err_var,
            samples=len(coeffs), extra=(("oracle", oracle),)))
    return cells


def _mean_stderr(samples):
    """Mean and standard error over the first axis (0 for one sample)."""
    xs = np.asarray(samples, dtype=float)
    mean = np.mean(xs, axis=0)
    if len(xs) < 2:
        return mean, np.zeros_like(mean)
    return mean, np.std(xs, axis=0, ddof=1) / np.sqrt(len(xs))


def _decreasing(stats, ties=False, floors=None):
    """Per cell down a grid: the first passes, and so does every later one
    whose statistic is below its predecessor's (or equal, with ties) or at
    or below its floor, one per cell or one for all (none by default)."""
    floors = np.broadcast_to(-np.inf if floors is None else floors, len(stats))
    return [True] + [bool(b <= floor or (b <= a if ties else b < a))
                     for a, b, floor in zip(stats, stats[1:], floors[1:])]


def _eps_digests(eps_values, digests):
    """eps<eps>:<digest of sample 0> for every noisy cell of a grid that
    shares sample 0's stream."""
    return tuple(f"eps{eps:g}:{digests[0]}" for eps in eps_values if eps > 0.0)


def _check_grid(values, label, least=1, positive=True):
    """values as floats: at least least of them, strictly decreasing, and
    positive (or nonnegative).  Messages lead with label, the parameter."""
    vals = tuple(float(v) for v in values)
    if len(vals) < least:
        raise ConfigurationError(f"{label}: needs at least {least} entries, got {len(vals)}")
    if min(vals) < 0.0 or (positive and min(vals) == 0.0):
        sign = "positive" if positive else "nonnegative"
        raise ConfigurationError(f"{label}: entries must be {sign}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigurationError(f"{label}: must be strictly decreasing")
    return vals


def _mode_indices(grid, modes, weights):
    """Row of each checked mode in the fft layout; a mode off the grid, or
    one whose noise weights are zero, is a config error."""
    wavenumbers = list(grid.wavenumbers().astype(int))
    for k in modes:
        if int(k) not in wavenumbers:
            raise ConfigurationError(f"modes: mode {k} is not resolvable on the grid")
        if not np.any(weights[wavenumbers.index(int(k))]):
            raise ConfigurationError(f"modes: the noise does not drive mode {k}")
    return {int(k): wavenumbers.index(int(k)) for k in modes}


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


def _contraction_chunk(task):
    # both legs of a sample share its row and so its increments
    pairs = task["pairs"]
    which = np.arange(task["start"], task["stop"]) % len(pairs)
    u0 = np.stack((pairs[which, 0], pairs[which, 1]))
    _, record = plan_steps(task["config"])
    diffs = []

    def observe(step, values, dbeta):
        if step in record:
            diffs.append(np.mean(np.abs(values[0] - values[1]), axis=-1))

    digests = _solve_chunk(task, u0, observe, digest_samples=range(len(pairs)))
    return {"diff": np.stack(diffs, axis=-1), "digests": digests}


def contraction_experiment(model, pairs, eps, M, *, config=None, seed=0,
                           workers=1, tol=1e-2) -> ExperimentReport:
    """Estimate the mean L1 distance of two solutions driven by the same
    noise and check it never exceeds the initial distance beyond the scheme
    allowance plus three standard errors.

    Samples are spread round-robin over the pairs, at least one each; with
    eps = 0 both legs are deterministic, so a single evaluation per pair is
    recorded.
    """
    _, payload, _, config = _prepare(model, config, samples=M, least=100)
    if not pairs:
        raise ConfigurationError("need at least one initial pair")
    grid = pairs[0][0].grid
    for u0, v0 in pairs:
        if u0.grid != grid or v0.grid != grid:
            raise ConfigurationError("all initial pairs must share one grid")
    run_config = replace(config, eps=float(eps))

    n_pairs = len(pairs)
    if run_config.eps > 0.0 and M < n_pairs:
        raise ConfigurationError(
            f"samples: need at least one per pair, got {M} for {n_pairs} pairs")
    count = M if run_config.eps > 0.0 else n_pairs
    initial = np.array([[u0.values, v0.values] for u0, v0 in pairs])
    run = _run_rows(_contraction_chunk, {"model": payload, "config": run_config,
                                         "pairs": initial, "seed": seed},
                    count, workers)
    steps = list(plan_steps(run_config)[1])

    cells = []
    digests = []
    for p in range(n_pairs):
        stack = np.ascontiguousarray(run["diff"][p::n_pairs])
        mean, stderr = _mean_stderr(stack)
        init = float(np.mean(np.abs(pairs[p][0].values - pairs[p][1].values)))
        band = init * (1.0 + tol) + 3.0 * stderr
        verdict = bool(np.all(mean <= band))
        worst = int(np.argmax(mean - band))
        cells.append(_cell(
            params=(("pair", p), ("eps", run_config.eps)),
            statistic=mean[worst], stderr=stderr[worst], verdict=verdict,
            samples=len(stack),
            extra=(("init_l1", init), ("worst_time", steps[worst] * run_config.dt))))
        if p in run["digests"]:
            digests.append(f"pair{p}:{run['digests'][p]}")
    return ExperimentReport(
        name="contraction",
        grid=(("eps", (float(eps),)), ("pairs", (n_pairs,)), ("M", (M,))),
        cells=tuple(cells), seed=seed, digests=tuple(digests))


# ---------------------------------------------------------------------------
# fluctuation convergence against the exact linear modes


def clt_experiment(model, eps_grid, eta, M, *, grid=None, u0=None, config=None,
                   modes=(1, 2), seed=0, workers=1) -> ExperimentReport:
    """Couple (u - c)/sqrt(eps), c the constant initial state, to the linear
    mode dynamics about c, stepped as the scheme steps them and driven by
    the same increments.

    Per eps cell: mean path gap in the L1 time integral, required to
    decrease as eps does or to sit at or below the rounding of z, its
    floor n_steps * machine eps * max(1, |c|) * T / sqrt(eps).  At the
    smallest eps the terminal variance of each checked mode must match the
    zero-start linear variance within three standard errors.
    """
    spec, payload, u0, config = _prepare(model, config, u0, grid, M, least=100)
    eps_values = _check_grid(eps_grid, "eps_grid")
    grid = u0.grid
    config = replace(config, eta=float(eta))
    base, frozen, _, weights, variance = linearize_run(spec, u0, config)
    mode_index = _mode_indices(grid, modes, weights)
    # the oracle leg's step is the solver's on the frozen model at eps = 1:
    # it multiplies mode k by J_k, the fft of its image of e_0, and adds
    # G dbeta, G the dft of its steps from 0 driven by each e_j
    step = _StepContext(grid, frozen, replace(config, eps=1.0))
    truncation = frozen.noise.truncation
    decay = np.fft.fft(step.advance(np.eye(grid.size)[0]))
    drive = dft(step.advance(np.zeros((truncation, grid.size)),
                             np.eye(truncation))).T

    # the grid is one batch axis: sample j's stream drives every cell
    eps_axis = np.array(eps_values)
    n_steps, record = plan_steps(config)
    run = _run_rows(_deviation_chunk, {
        "model": payload, "u0": u0.values, "decay": decay, "weights": drive,
        "references": np.full((1, len(record), grid.size), base),
        "mode_columns": list(mode_index.values()), "seed": seed,
        "config": config, "eps": eps_axis,
        "scale": np.sqrt(eps_axis)[:, None, None]}, M, workers)

    gaps = [_mean_stderr(_column(run, "e1", c)) for c in range(len(eps_values))]
    floors = [n_steps * np.finfo(float).eps * max(1.0, abs(base)) * config.t_end
              / np.sqrt(eps) for eps in eps_values]
    verdicts = _decreasing([stat for stat, _ in gaps], floors=floors)
    cells = [_cell(params=(("kind", "path-gap"), ("eps", eps)),
                   statistic=stat, stderr=err, verdict=verdict, samples=M,
                   extra=(("floor", floor),))
             for eps, (stat, err), floor, verdict
             in zip(eps_values, gaps, floors, verdicts)]
    cells += _mode_variance_cells(_column(run, "coeffs", -1), mode_index, variance,
                                  eps_values[-1])
    return ExperimentReport(
        name="clt",
        grid=(("eps", eps_values), ("eta", (float(eta),)), ("M", (M,))),
        cells=tuple(cells), seed=seed,
        digests=_eps_digests(eps_values, run["digests"]))


# ---------------------------------------------------------------------------
# mass conservation in mean


def _mass_chunk(task):
    n_steps, _ = plan_steps(task["config"])
    out = {}

    def observe(step, values, dbeta):
        if step == n_steps:
            out["drift"] = np.mean(values, axis=-1) - np.mean(task["u0"])

    digests = _solve_chunk(task, task["u0"], observe)
    return {"drift": out["drift"], "digests": digests}


def mass_martingale_experiment(model, eps, M, *, u0=None, grid=None,
                               config=None, seed=0,
                               workers=1) -> ExperimentReport:
    """Check the spatial mean is a martingale: the sample mean of the mass
    drift over [0, T] sits within three standard errors of zero.

    State-independent noise adds a closed-form cell: the mass drift is
    Gaussian with variance eps * T * sum_n (mean h_n)^2, compared against
    the sample variance.  With eps = 0 the scheme must conserve mass to
    1e-12 in one deterministic run; every cell allows that much rounding
    (squared for the variance), so noise that moves no mass passes.
    """
    spec, payload, u0, config = _prepare(model, config, u0, grid, M, least=500)
    grid = u0.grid
    run_config = replace(config, eps=float(eps))

    count = M if run_config.eps > 0.0 else 1
    run = _run_rows(_mass_chunk, {"model": payload, "config": run_config,
                                  "u0": u0.values, "seed": seed},
                    count, workers)
    drifts = run["drift"]

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
                           verdict=abs(mean) <= 3.0 * err + 1e-12,
                           samples=len(drifts)))
        a_table, b_table = noise_tables(spec.noise, grid.nodes())
        if float(np.max(np.abs(b_table))) == 0.0:
            closed = run_config.eps * config.t_end * float(
                np.sum(np.mean(a_table, axis=1) ** 2))
            sample_var = float(np.var(drifts, ddof=1))
            _, err_var = _mean_stderr((drifts - drifts.mean()) ** 2)
            cells.append(_cell(
                params=(("kind", "mass-variance"),
                        ("eps", run_config.eps)),
                statistic=sample_var, stderr=err_var,
                verdict=abs(sample_var - closed) <= 3.0 * err_var + 1e-24,
                samples=len(drifts), extra=(("closed_form", closed),)))
    digests = tuple(f"sample0:{d}" for d in run["digests"].values())
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

    Deterministic: runs the skeleton of control, or the uncontrolled
    equation when control is None; no sampling.
    """
    spec, _, u0, config = _prepare(model, config, u0)
    rungs = _check_grid(ladder, "ladder", least=3, positive=False)
    if which not in ("eta", "gamma"):
        raise ConfigurationError("which: must be 'eta' or 'gamma'")

    trajectories = [solve(u0, spec, replace(config, **{which: rung}), control=control)
                    for rung in rungs]

    increments = []
    for a, b in zip(trajectories, trajectories[1:]):
        gap = PathL1()
        for t, row in zip(a.times, a.values - b.values):
            gap.add(t, row)
        increments.append(gap.total)
    # an increment is a norm: the floor 0 passes exactly the zero ones
    cells = [_cell(params=(("which", which), ("from", lo), ("to", hi)),
                   statistic=increment, stderr=0.0, verdict=verdict, samples=1)
             for lo, hi, increment, verdict
             in zip(rungs, rungs[1:], increments, _decreasing(increments, floors=0.0))]
    return ExperimentReport(
        name=f"regularization-{which}",
        grid=((which, rungs),),
        cells=tuple(cells), seed=0)


# ---------------------------------------------------------------------------
# controlled-path coupling


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
    spec, payload, u0, config = _prepare(model, config, u0, grid, M)
    eps_values = _check_grid(eps_grid, "eps_grid", positive=False)
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
                f"level_bound: control integral {2.0 * c.energy:g} exceeds "
                f"the level bound {float(level_bound):g}")
    if delta is None:
        delta = 0.05 * max(1.0, float(np.mean(np.abs(u0.values))))
    delta = float(delta)

    skeletons = np.stack([
        solve_skeleton(u0, spec, control, replace(config, eps=0.0)).values
        for control in controls])

    # the positive eps values are one batch axis, paired in eps; the
    # noise-free cell, one row per control, is its own batch
    common = {"model": payload, "u0": u0.values, "controls": controls,
              "references": skeletons, "mode_columns": [], "seed": seed,
              "config": config}
    positive = eps_values[:-1] if eps_values[-1] == 0.0 else eps_values
    columns, noise_digests = [], {}
    for axis, count in ((positive, M), (eps_values[len(positive):], len(controls))):
        if axis:
            run = _run_rows(_deviation_chunk, {**common, "eps": np.array(axis),
                                               "scale": np.ones((len(axis), 1, 1))},
                            count, workers)
            columns += [_column(run, "e1", e) for e in range(len(axis))]
            noise_digests.update(run["digests"])

    fractions = [_mean_stderr(gaps > delta) for gaps in columns]
    verdicts = _decreasing([fraction for fraction, _ in fractions], ties=True)
    verdicts[-1] = verdicts[-1] and fractions[-1][0] <= 0.05
    cells = [_cell(params=(("kind", "exceedance"), ("eps", eps)),
                   statistic=fraction, stderr=err, verdict=verdict,
                   samples=len(gaps),
                   extra=(("delta", delta), ("mean_gap", float(np.mean(gaps)))))
             for eps, gaps, (fraction, err), verdict
             in zip(eps_values, columns, fractions, verdicts)]
    return ExperimentReport(
        name="condition2-coupling",
        grid=(("eps", eps_values), ("controls", (len(controls),)),
              ("M", (M,))),
        cells=tuple(cells), seed=seed,
        digests=_eps_digests(eps_values, noise_digests))


# ---------------------------------------------------------------------------
# moderate-deviation concentration


def mdp_concentration_experiment(model, a_exponent, eps_grid, M, *, u0=None,
                                 grid=None, config=None, linear_check=False,
                                 modes=(1,), seed=0,
                                 workers=1) -> ExperimentReport:
    """Quantiles of the rescaled deviation z = (u - limit)/(sqrt(eps) *
    eps^-a) stay bounded down the eps grid while the raw deviation shrinks.

    The amplification eps^-a needs a in (0, 1/2) so it grows while
    sqrt(eps) * eps^-a still vanishes.  With linear_check the terminal mode
    variance of z is held to the linear oracle about the constant u0, scaled
    by eps^{2a}.
    """
    a = float(a_exponent)
    if not 0.0 < a < 0.5:
        raise ConfigurationError(
            "a: the amplification exponent must lie strictly between 0 and 1/2")
    spec, payload, u0, config = _prepare(model, config, u0, grid, M)
    eps_values = _check_grid(eps_grid, "eps_grid")
    grid = u0.grid

    mode_index = {}
    if linear_check:
        *_, weights, variance = linearize_run(spec, u0, config)
        mode_index = _mode_indices(grid, modes, weights)
    limit = solve(u0, spec, replace(config, eps=0.0)).values
    scales = [float(np.sqrt(eps) * eps ** (-a)) for eps in eps_values]

    # the grid is one batch axis: quantile and raw-gap comparisons pair up
    run = _run_rows(_deviation_chunk, {
        "model": payload, "u0": u0.values, "references": limit[None],
        "mode_columns": list(mode_index.values()), "seed": seed,
        "config": config, "eps": np.array(eps_values),
        "scale": np.array(scales)[:, None, None]}, M, workers)

    # a cell's raw deviation is z times its scale
    raw = [_mean_stderr(_column(run, "e1", c) * scale) for c, scale in enumerate(scales)]
    raw_ok = _decreasing([raw_mean for raw_mean, _ in raw])
    cells = []
    first_q90 = first_band = None
    for c, eps in enumerate(eps_values):
        z_samples = _column(run, "e1", c)
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
            samples=M, extra=(("q50", q50), ("q50_band", band50))))
        cells.append(_cell(
            params=(("kind", "raw-gap"), ("eps", eps)),
            statistic=raw[c][0], stderr=raw[c][1], verdict=raw_ok[c],
            samples=M))
        if linear_check:
            cells += _mode_variance_cells(_column(run, "coeffs", c), mode_index,
                                          variance, eps, eps ** (-a))
    return ExperimentReport(
        name="mdp-concentration",
        grid=(("eps", eps_values), ("a", (a,)), ("M", (M,))),
        cells=tuple(cells), seed=seed,
        digests=_eps_digests(eps_values, run["digests"]))
