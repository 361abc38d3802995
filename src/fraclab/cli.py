"""Command line front end.

Runs are described by a flat config of dotted keys, either as ``key = value``
lines or as a nested JSON object (flattened to the same keys).  Every run
computes a short hash of the canonical key/value listing plus the command
name; the hash is independent of key order, names the output directory, and
is recorded in every artifact, so runs with different configs never
overwrite each other.  Reruns with the same config and seed reproduce every
artifact byte for byte; the only volatile datum is the ``created`` timestamp,
isolated to a single manifest field.

Exit codes: 0 all verdicts passed, 1 a verdict failed, 2 the config is
invalid (messages carry the source line where possible), 3 the solution lost
finiteness (the message names the step), 4 an unexpected internal error (the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .experiments import (
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
from .fields import (
    GridSpec,
    SpectralField,
    constant_field,
    field_from_csv,
    field_from_spectrum,
)
from .models import ConfigurationError, build_model, validate_model
from .oracle import linearized_mode_arrays, star_variance_profile
from .rate import RateOptions, ldp_rate_iterative, mdp_rate_exact
from .rate import report_to_json as rate_report_to_json
from .skeleton import (
    Control,
    control_from_csv,
    control_to_csv,
    random_control,
    solve_skeleton,
)
from .solver import (
    DivergenceError,
    SolverConfig,
    WienerPath,
    solve,
    stable_dt,
    trajectory_to_csv,
)

__all__ = ["RunConfig", "parse_config_text", "load_run_config", "config_hash",
           "run", "main"]

COMMANDS = ("simulate", "skeleton", "oracle", "rate", "experiment")
EXPERIMENTS = ("contraction", "clt", "mass-martingale", "regularization",
               "condition2", "mdp")

_SECTIONS = ("model", "grid", "solver", "initial", "control", "experiment",
             "rate", "seed")
_SOLVER_KEYS = frozenset(SolverConfig.__dataclass_fields__)
_COUNT_PARAMS = ("truncation", "pairs")
# every key a run reads outside model.* and solver.*, whatever its command and
# kind; model.* and solver.* keys are checked where they are built
_KNOWN_KEYS = frozenset((
    "seed", "grid.n",
    "initial.kind", "initial.value", "initial.base", "initial.amplitude",
    "initial.mode", "initial.phase", "initial.path",
    "control.kind", "control.truncation", "control.intervals",
    "control.amplitude", "control.seed", "control.path",
    "experiment.pairs", "experiment.samples", "experiment.eps",
    "experiment.tol", "experiment.eps_grid", "experiment.eta",
    "experiment.modes", "experiment.which", "experiment.ladder",
    "experiment.controls", "experiment.intervals", "experiment.amplitude",
    "experiment.delta", "experiment.level_bound", "experiment.a",
    "experiment.linear_check",
    "rate.method", "rate.target.kind", "rate.target.mode", "rate.target.re",
    "rate.target.im", "rate.target.path",
    *(f"rate.{name}" for name in RateOptions.__dataclass_fields__),
))


# ---------------------------------------------------------------------------
# config parsing


def _parse_scalar(text: str):
    text = text.strip()
    if "," in text:
        return tuple(_parse_scalar(part) for part in text.split(","))
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _flatten_json(node, prefix, entries, source):
    if isinstance(node, dict):
        for name, child in node.items():
            key = f"{prefix}.{name}" if prefix else str(name)
            _flatten_json(child, key, entries, source)
        return
    if isinstance(node, list):
        value = tuple(node)
    else:
        value = node
    if prefix in entries:
        raise ConfigurationError(f"{source}: duplicate key {prefix!r}")
    entries[prefix] = (value, 0)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse a config body into {dotted key: (value, line number)}.

    Accepts ``key = value`` lines (# comments, blank lines allowed) or a
    single JSON object; JSON entries carry line number 0.
    """
    entries: dict = {}
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{source} line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{source}: top level must be an object")
        _flatten_json(payload, "", entries, source)
        return entries
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{source} line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError(f"{source} line {lineno}: empty key")
        if key in entries:
            raise ConfigurationError(
                f"{source} line {lineno}: duplicate key {key!r}")
        entries[key] = (_parse_scalar(rest), lineno)
    return entries


def _canonical_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_canonical_value(v) for v in value)
    return str(value)


def _listing(label: str, entries: dict) -> str:
    """Canonical config listing: the command, then the keys in sorted order."""
    lines = [f"command = {label}"]
    lines += [f"{key} = {_canonical_value(value)}"
              for key, value in sorted(entries.items())]
    return "\n".join(lines)


def config_hash(label: str, entries: dict) -> str:
    """Short digest of the canonical config listing; key order never matters."""
    return hashlib.sha256(_listing(label, entries).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: command, flat config, seed, output location."""

    command: str
    experiment: str | None
    entries: dict
    lines: dict = field(repr=False)
    seed: int = 0
    out: str = "runs"
    workers: int = 1
    source: str = "<config>"

    @property
    def label(self) -> str:
        if self.experiment is None:
            return self.command
        return f"{self.command}-{self.experiment}"

    @property
    def hash(self) -> str:
        return config_hash(self.label, self.entries)

    def where(self, key: str, message: str) -> str:
        lineno = self.lines.get(key, 0)
        if lineno:
            return f"{self.source} line {lineno}: {key}: {message}"
        return f"{self.source}: {key}: {message}"

    def get(self, key: str, default=None):
        return self.entries.get(key, default)

    def require(self, key: str):
        if key not in self.entries:
            raise ConfigurationError(
                f"{self.source}: missing required key {key!r}")
        return self.entries[key]

    def number(self, key: str, default=None, kind=float, minimum=None):
        """The value at key as a finite kind, or default when key is absent.

        kind=int admits integers only, kind=float integers and floats, and
        a given minimum is the least value admitted.  Any other value, nan
        and infinity among them, is a ConfigurationError naming the key.
        """
        if key not in self.entries:
            return default
        value = kind(self._checked(key, self.entries[key], kind))
        if minimum is not None and value < minimum:
            raise ConfigurationError(self.where(
                key, f"must be at least {minimum}, got {value!r}"))
        return value

    def numbers(self, key: str, default: tuple, kind=float) -> tuple:
        """number for a comma-separated list; a single value is a list of one."""
        value = self.entries.get(key, default)
        items = value if isinstance(value, tuple) else (value,)
        return tuple(kind(self._checked(key, item, kind)) for item in items)

    def _checked(self, key: str, value, kind):
        kinds = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
        try:
            finite = math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if isinstance(value, bool) or not isinstance(value, kinds) or not finite:
            describe = "integer" if kind is int else "number"
            raise ConfigurationError(self.where(
                key, f"expected a finite {describe}, got {value!r}"))
        return value


_REQUIRED_KEYS = ("model.flux.kind", "model.diffusion.kind",
                  "model.diffusion.theta", "model.noise.kind",
                  "grid.n", "solver.dt", "solver.t_end")


def load_run_config(command: str, experiment: str | None, text: str,
                    source: str = "<config>", seed=None, out=None,
                    workers=None, overrides=()) -> RunConfig:
    """Parse, apply overrides, and validate the key schema for a command."""
    entries_lines = parse_config_text(text, source)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(
                f"override {item!r} must have the form key=value")
        key, _, rest = item.partition("=")
        entries_lines[key.strip()] = (_parse_scalar(rest), 0)
    if seed is not None:
        entries_lines["seed"] = (int(seed), 0)
    entries = {key: value for key, (value, _) in entries_lines.items()}
    lines = {key: lineno for key, (_, lineno) in entries_lines.items()}

    for key in entries:
        section = key.split(".", 1)[0]
        lineno = lines.get(key, 0)
        at = f" line {lineno}" if lineno else ""
        if section not in _SECTIONS:
            raise ConfigurationError(
                f"{source}{at}: unknown config section {section!r} in key {key!r}")
        if section not in ("model", "solver") and key not in _KNOWN_KEYS:
            raise ConfigurationError(f"{source}{at}: {key}: unknown config key")
    if "seed" in entries:
        if (isinstance(entries["seed"], bool)
                or not isinstance(entries["seed"], (int, np.integer))):
            raise ConfigurationError(f"{source}: seed must be an integer")
        if entries["seed"] < 0:
            raise ConfigurationError(f"{source}: seed must be non-negative")

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigurationError(
                f"{source}: missing required key {key!r}")

    run_seed = int(entries.get("seed", 0))
    if workers is None:
        workers = os.cpu_count() or 1
    cfg = RunConfig(command=command, experiment=experiment, entries=entries,
                    lines=lines, seed=run_seed, out=out or "runs",
                    workers=int(workers), source=source)
    _build_solver_config(cfg)  # surface solver key errors before any work
    return cfg


# ---------------------------------------------------------------------------
# builders


def _build_grid(cfg: RunConfig) -> GridSpec:
    n = cfg.number("grid.n", kind=int)
    try:
        return GridSpec(n)
    except ValueError as exc:
        raise ConfigurationError(cfg.where("grid.n", str(exc))) from exc


def _build_solver_config(cfg: RunConfig) -> SolverConfig:
    kwargs = {}
    for key, value in cfg.entries.items():
        if not key.startswith("solver."):
            continue
        name = key[len("solver."):]
        if name not in _SOLVER_KEYS:
            raise ConfigurationError(cfg.where(key, "unknown solver option"))
        if name == "flux_scheme":
            if not isinstance(value, str):
                raise ConfigurationError(cfg.where(key, f"expected a name, got {value!r}"))
        else:
            value = cfg.number(key, kind=int if name == "snapshot_count" else float)
        kwargs[name] = value
    try:
        return SolverConfig(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{cfg.source}: solver: {exc}") from exc


def _build_recipe(cfg: RunConfig) -> dict:
    recipe: dict = {"flux": {}, "diffusion": {}, "noise": {}}
    for key, value in cfg.entries.items():
        if not key.startswith("model."):
            continue
        parts = key.split(".")
        if len(parts) != 3 or parts[1] not in recipe:
            raise ConfigurationError(cfg.where(key, "unrecognized model key"))
        # every family parameter but the kind is numeric; mode counts are
        # integers of at least one
        if parts[2] in _COUNT_PARAMS:
            value = cfg.number(key, kind=int, minimum=1)
        elif parts[2] != "kind":
            value = cfg._checked(key, value, float)
        recipe[parts[1]][parts[2]] = value
    return recipe


def _build_model(cfg: RunConfig):
    recipe = _build_recipe(cfg)
    try:
        return build_model(recipe)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{cfg.source}: model: {exc}") from exc


def _build_initial(cfg: RunConfig, grid: GridSpec):
    kind = cfg.get("initial.kind", "constant")
    if kind == "constant":
        return constant_field(grid, cfg.number("initial.value", 1.0))
    if kind == "harmonic":
        base = cfg.number("initial.base", 1.0)
        amplitude = cfg.number("initial.amplitude", 0.1)
        mode = cfg.number("initial.mode", 1, int, minimum=1)
        phase = cfg.number("initial.phase", 0.0)
        x = grid.nodes()
        values = base + amplitude * np.sin(2.0 * np.pi * mode * x + phase)
        return SpectralField(grid, values)
    if kind == "csv":
        path = cfg.require("initial.path")
        u0 = field_from_csv(path)
        if u0.grid != grid:
            raise ConfigurationError(cfg.where(
                "initial.path",
                f"field has {u0.grid.points_per_axis} nodes, grid.n is "
                f"{grid.points_per_axis}"))
        return u0
    raise ConfigurationError(cfg.where("initial.kind", f"unknown kind {kind!r}"))


def _build_control(cfg: RunConfig, model, config: SolverConfig):
    if not any(key.startswith("control.") for key in cfg.entries):
        return None
    kind = cfg.get("control.kind", "random")
    if kind == "zero":
        truncation = cfg.number("control.truncation", model.noise.truncation, int)
        times = np.array([0.0, config.t_end])
        return Control(times=times, coeffs=np.zeros((1, truncation)))
    if kind == "random":
        truncation = cfg.number("control.truncation", model.noise.truncation, int)
        intervals = cfg.number("control.intervals", 8, int, minimum=1)
        amplitude = cfg.number("control.amplitude", 1.0)
        seed = cfg.number("control.seed", cfg.seed, int)
        return random_control(seed, truncation, config.t_end,
                              intervals=intervals, amplitude=amplitude)
    if kind == "csv":
        return control_from_csv(cfg.require("control.path"))
    raise ConfigurationError(cfg.where("control.kind", f"unknown kind {kind!r}"))


def _build_target(cfg: RunConfig, grid: GridSpec):
    kind = cfg.get("rate.target.kind", "harmonic")
    if kind == "harmonic":
        mode = cfg.number("rate.target.mode", 1, int)
        re = cfg.number("rate.target.re", 0.1)
        im = cfg.number("rate.target.im", 0.0)
        n = grid.points_per_axis
        if not 0 < mode < n // 2:
            raise ConfigurationError(cfg.where(
                "rate.target.mode", f"mode must lie in 1..{n // 2 - 1}"))
        spectrum = np.zeros(n, dtype=complex)
        spectrum[mode] = re + 1j * im
        spectrum[-mode] = re - 1j * im
        return field_from_spectrum(grid, spectrum)
    if kind == "csv":
        return field_from_csv(cfg.require("rate.target.path"), grid)
    raise ConfigurationError(cfg.where("rate.target.kind", f"unknown kind {kind!r}"))


def _prepared(cfg: RunConfig):
    """Model, grid and solver config of a run, checked against the model's
    structural assumptions and the stable step."""
    model = _build_model(cfg)
    grid = _build_grid(cfg)
    config = _build_solver_config(cfg)
    report = validate_model(model)
    if not report.passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise ConfigurationError(
            f"{cfg.source}: model violates structural assumptions: {failed}")
    limit = stable_dt(model, grid, config)
    if config.dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(cfg.where(
            "solver.dt", f"dt {config.dt:g} exceeds the stable step {limit:g}"))
    return model, grid, config


# ---------------------------------------------------------------------------
# artifact output


def _write_run(cfg: RunConfig, artifacts: dict, passed: bool, extra: dict) -> str:
    """Write artifacts plus manifest.json under out/<label>-<hash>/.

    artifacts maps file name -> callable(path); ``created`` is the single
    volatile manifest field.
    """
    run_dir = os.path.join(cfg.out, f"{cfg.label}-{cfg.hash}")
    os.makedirs(run_dir, exist_ok=True)
    names = []
    for name in sorted(artifacts):
        artifacts[name](os.path.join(run_dir, name))
        names.append(name)
    manifest = {
        "command": cfg.command,
        "experiment": cfg.experiment,
        "config_hash": cfg.hash,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "artifacts": names,
        "passed": passed,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    manifest.update(extra)
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_dir


def _config_artifact(cfg: RunConfig):
    return _text_artifact(_listing(cfg.label, cfg.entries) + "\n")


def _text_artifact(text: str):
    def write(path):
        with open(path, "w") as fh:
            fh.write(text)
    return write


# ---------------------------------------------------------------------------
# commands


def _run_simulate(cfg: RunConfig):
    model, grid, config = _prepared(cfg)
    u0 = _build_initial(cfg, grid)
    path = WienerPath(cfg.seed, 0, model.noise.truncation) if config.eps > 0.0 else None
    traj = solve(u0, model, config, path)
    artifacts = {
        "trajectory.csv": lambda p: trajectory_to_csv(traj, p),
        "config.txt": _config_artifact(cfg),
    }
    terminal = traj.terminal.values
    lines = [f"PASS simulate: {len(traj.times)} snapshots to t={config.t_end:g}, "
             f"terminal mean {float(np.mean(terminal)):.6g}"]
    extra = {"snapshots": len(traj.times),
             "terminal_mean": float(np.mean(terminal))}
    return True, lines, artifacts, extra


def _run_skeleton(cfg: RunConfig):
    model, grid, config = _prepared(cfg)
    if config.eps != 0.0:
        raise ConfigurationError(cfg.where(
            "solver.eps", "skeleton runs are noise free; set solver.eps = 0"))
    u0 = _build_initial(cfg, grid)
    control = _build_control(cfg, model, config)
    if control is None:
        traj = solve(u0, model, config)
    else:
        traj = solve_skeleton(u0, model, control, config)
    artifacts = {
        "trajectory.csv": lambda p: trajectory_to_csv(traj, p),
        "config.txt": _config_artifact(cfg),
    }
    if control is not None:
        artifacts["control.csv"] = lambda p: control_to_csv(control, p)
    lines = [f"PASS skeleton: {len(traj.times)} snapshots to t={config.t_end:g}, "
             f"control energy {0.0 if control is None else control.energy:.6g}"]
    return True, lines, artifacts, {"snapshots": len(traj.times)}


def _run_oracle(cfg: RunConfig):
    model, grid, config = _prepared(cfg)
    mu, weights = linearized_mode_arrays(model, grid, config.eta)
    variance = star_variance_profile(model, grid, config.t_end, config.eta)
    weight_sq = np.sum(np.abs(weights) ** 2, axis=1)
    ks = grid.wavenumbers().astype(int)

    def write_modes(path):
        with open(path, "w") as fh:
            fh.write("k,drift_re,drift_im,weight_sq,star_variance\n")
            for i in range(len(ks)):
                fh.write(f"{int(ks[i])},{float(mu[i].real)!r},{float(mu[i].imag)!r},"
                         f"{float(weight_sq[i])!r},{float(variance[i])!r}\n")

    artifacts = {"modes.csv": write_modes, "config.txt": _config_artifact(cfg)}
    lines = [f"PASS oracle: {len(ks)} modes at t={config.t_end:g}, "
             f"max variance {float(np.max(variance)):.6g}"]
    return True, lines, artifacts, {"max_star_variance": float(np.max(variance))}


def _run_rate(cfg: RunConfig):
    model, grid, config = _prepared(cfg)
    target = _build_target(cfg, grid)
    method = cfg.get("rate.method", "exact")
    eta = cfg.number("rate.eta", config.eta)
    if method == "exact":
        intervals = cfg.number("rate.intervals", 64, int, minimum=1)
        report = mdp_rate_exact(target, model, config.t_end, eta=eta,
                                control_intervals=intervals)
    elif method == "iterative":
        u0 = _build_initial(cfg, grid)
        opt_kwargs = {"eta": eta}
        for name, option in RateOptions.__dataclass_fields__.items():
            key = f"rate.{name}"
            if key not in cfg.entries:
                continue
            if isinstance(option.default, str):
                opt_kwargs[name] = cfg.entries[key]
            else:
                count = name in ("intervals", "rounds", "maxiter")
                opt_kwargs[name] = cfg.number(key, kind=type(option.default),
                                              minimum=1 if count else None)
        opts = RateOptions(**opt_kwargs)
        report = ldp_rate_iterative(target, u0, model, config.t_end, opts)
    else:
        raise ConfigurationError(cfg.where(
            "rate.method", f"unknown method {method!r}"))

    control_name = "control.csv" if report.optimal_control is not None else None
    artifacts = {
        "report.json": _text_artifact(
            rate_report_to_json(report, control_name) + "\n"),
        "config.txt": _config_artifact(cfg),
    }
    if report.optimal_control is not None:
        artifacts["control.csv"] = (
            lambda p: control_to_csv(report.optimal_control, p))
    passed = report.converged
    tag = "PASS" if passed else "FAIL"
    if report.infinite:
        detail = f"value inf, unreachable modes {list(report.unreachable_modes)}"
    else:
        detail = (f"value {report.value:.6g}, residual {report.residual:.3g}, "
                  f"iterations {report.iterations}")
    lines = [f"{tag} rate[{method}]: {detail}"]
    extra = {"method": method, "value": report.value,
             "infinite": report.infinite, "converged": report.converged}
    return passed, lines, artifacts, extra


def _smooth_pair(grid: GridSpec, seed, index: int):
    """Deterministic pair of smooth fields around mean one; low modes only so
    rusanov runs stay well resolved."""
    rng = np.random.default_rng((seed, 7001 + index))
    x = grid.nodes()
    fields = []
    for _ in range(2):
        values = np.ones_like(x)
        for m in range(1, 4):
            a, b = rng.standard_normal(2) * (0.15 / m)
            values = values + a * np.sin(2 * np.pi * m * x) + b * np.cos(2 * np.pi * m * x)
        fields.append(SpectralField(grid, values))
    return tuple(fields)


def _experiment_driver(cfg: RunConfig, name: str) -> ExperimentReport:
    model, grid, config = _prepared(cfg)
    u0 = _build_initial(cfg, grid)
    recipe = _build_recipe(cfg)
    seed, workers = cfg.seed, cfg.workers

    if name == "contraction":
        n_pairs = cfg.number("experiment.pairs", 10, int, minimum=1)
        samples = cfg.number("experiment.samples", 500, int, minimum=100)
        eps = cfg.number("experiment.eps", 1e-2)
        pairs = [_smooth_pair(grid, seed, i) for i in range(n_pairs)]
        return contraction_experiment(recipe, pairs, eps, samples,
                                      config=config, seed=seed, workers=workers,
                                      tol=cfg.number("experiment.tol", 1e-2))
    if name == "clt":
        eps_grid = cfg.numbers("experiment.eps_grid", (1e-2, 1e-3, 1e-4))
        eta = cfg.number("experiment.eta", config.eta)
        samples = cfg.number("experiment.samples", 200, int, minimum=100)
        modes = cfg.numbers("experiment.modes", (1, 2), int)
        return clt_experiment(recipe, eps_grid, eta, samples, u0=u0,
                              config=config, modes=modes,
                              seed=seed, workers=workers)
    if name == "mass-martingale":
        eps = cfg.number("experiment.eps", 1e-2)
        samples = cfg.number("experiment.samples", 500, int, minimum=500)
        return mass_martingale_experiment(recipe, eps, samples, u0=u0,
                                          config=config, seed=seed,
                                          workers=workers)
    if name == "regularization":
        which = cfg.get("experiment.which", "eta")
        ladder = cfg.numbers("experiment.ladder", (1e-2, 1e-3, 1e-4, 1e-5))
        control = _build_control(cfg, model, config)
        return regularization_experiment(recipe, control, ladder, which=which,
                                         u0=u0, config=config)
    if name == "condition2":
        eps_grid = cfg.numbers("experiment.eps_grid", (1e-2, 1e-4, 1e-6))
        samples = cfg.number("experiment.samples", 200, int, minimum=1)
        count = cfg.number("experiment.controls", 4, int, minimum=1)
        intervals = cfg.number("experiment.intervals", 8, int)
        amplitude = cfg.number("experiment.amplitude", 0.5)
        family = [random_control((seed + 1) * 1000 + i, model.noise.truncation,
                                 config.t_end, intervals=intervals,
                                 amplitude=amplitude)
                  for i in range(count)]
        return condition2_coupling_experiment(
            recipe, family, eps_grid, samples, u0=u0,
            delta=cfg.number("experiment.delta"),
            level_bound=cfg.number("experiment.level_bound"),
            config=config, seed=seed, workers=workers)
    if name == "mdp":
        a = cfg.number("experiment.a", 0.25)
        eps_grid = cfg.numbers("experiment.eps_grid", (1e-2, 1e-3, 1e-4))
        samples = cfg.number("experiment.samples", 200, int, minimum=1)
        modes = cfg.numbers("experiment.modes", (1,), int)
        return mdp_concentration_experiment(
            recipe, a, eps_grid, samples, u0=u0, config=config,
            linear_check=bool(cfg.get("experiment.linear_check", False)),
            modes=modes, seed=seed, workers=workers)
    raise ConfigurationError(
        f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENTS)}")


def _run_experiment(cfg: RunConfig):
    report = _experiment_driver(cfg, cfg.experiment)
    lines = []
    for cell in report.cells:
        tag = "PASS" if cell.verdict else "FAIL"
        params = ", ".join(f"{k}={_canonical_value(v)}" for k, v in cell.params)
        lines.append(f"{tag} {report.name}[{params}]: statistic "
                     f"{cell.statistic:.6g}, stderr {cell.stderr:.3g}, "
                     f"samples {cell.samples}")
    artifacts = {
        "report.json": _text_artifact(report_to_json(report) + "\n"),
        "cells.csv": lambda p: report_to_csv(report, p),
        "config.txt": _config_artifact(cfg),
    }
    extra = {"experiment_name": report.name, "cells": len(report.cells)}
    return report.passed, lines, artifacts, extra


_RUNNERS = {
    "simulate": _run_simulate,
    "skeleton": _run_skeleton,
    "oracle": _run_oracle,
    "rate": _run_rate,
    "experiment": _run_experiment,
}


def run(cfg: RunConfig) -> tuple[bool, list, str]:
    """Execute a resolved run; returns (passed, summary lines, run dir)."""
    passed, lines, artifacts, extra = _RUNNERS[cfg.command](cfg)
    run_dir = _write_run(cfg, artifacts, passed, extra)
    return passed, lines, run_dir


# ---------------------------------------------------------------------------
# entry point


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Simulate stochastic conservation laws on the torus and "
                    "run their small-noise diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        if command == "experiment":
            p.add_argument("name", choices=EXPERIMENTS)
        p.add_argument("--config", required=True,
                       help="config file: key = value lines or a JSON object")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", default="runs", help="artifact root directory")
        p.add_argument("--workers", type=int, default=None,
                       help="process pool size (default: logical cores)")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="set a config key")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_run_config(args.command, getattr(args, "name", None), text,
                              source=args.config, seed=args.seed, out=args.out,
                              workers=args.workers, overrides=args.override)
        passed, lines, run_dir = run(cfg)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4
    for line in lines:
        print(line)
    print(f"artifacts: {run_dir}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
