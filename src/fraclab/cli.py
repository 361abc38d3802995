"""Command line front end.

Runs are described by a flat config of dotted keys, either as ``key = value``
lines or as a nested JSON object (flattened to the same keys).  Every run
computes a short hash of the canonical key/value listing plus the command
name; the hash is independent of key order, names the output directory, and
is recorded in every artifact, so runs with different configs never
overwrite each other.  Reruns with the same config and seed reproduce every
artifact byte for byte; the only volatile datum is the ``created`` timestamp,
isolated to a single manifest field.  Every key present is checked once, at
load, against one schema of kinds and admitted values (``_SCHEMA``).

Exit codes: 0 all verdicts passed, 1 a verdict failed, 2 the config is
invalid (messages carry the source line where possible), 3 the solution lost
finiteness (the message names the step), 4 an unexpected internal error (the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
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
from .models import (
    DIFFUSION_FAMILIES,
    FLUX_FAMILIES,
    NOISE_FAMILIES,
    ConfigurationError,
    build_model,
    validate_model,
)
from .oracle import linearize_run
from .rate import RateOptions, ldp_rate_iterative, mdp_rate_exact
from .rate import report_to_json as rate_report_to_json
from .skeleton import (
    Control,
    control_from_csv,
    control_to_csv,
    random_control,
)
from .solver import (
    DivergenceError,
    SolverConfig,
    WienerBatch,
    plan_steps,
    solve,
    stable_dt,
    trajectory_to_csv,
)

__all__ = ["RunConfig", "parse_config_text", "load_run_config", "config_hash",
           "run", "main"]

COMMANDS = ("simulate", "skeleton", "oracle", "rate", "experiment")
EXPERIMENTS = ("contraction", "clt", "mass-martingale", "regularization",
               "condition2", "mdp")


@dataclass(frozen=True)
class _Key:
    """What a config key admits: values of one kind (float, int, str or
    bool; a comma-separated list of them when many), optionally only the
    given names, or only values passing bound = (test, description)."""

    kind: type
    names: tuple = ()
    bound: tuple | None = None
    many: bool = False


_AT_LEAST_ZERO = (lambda v: v >= 0, "non-negative")
_NUMBER, _NAME = _Key(float), _Key(str)
_POSITIVE = _Key(float, bound=(lambda v: v > 0, "positive"))
_NONNEG = _Key(float, bound=_AT_LEAST_ZERO)
_COUNT = _Key(int, bound=(lambda v: v >= 1, "at least 1"))
_SEED = _Key(int, bound=_AT_LEAST_ZERO)
_KINDS = {"float": float, "int": int, "str": str}
_FAMILIES = {"flux": FLUX_FAMILIES, "diffusion": DIFFUSION_FAMILIES,
             "noise": NOISE_FAMILIES}


# every key a run reads, whatever its command: solver.<field> of its field's
# kind, and the rows below, which list every rate.<field> too; a
# model.<block>.<param> key not listed is a number, and its param must be
# one of the chosen family's (load_run_config)
_SCHEMA = {
    **{f"solver.{name}": _Key(_KINDS[option.type])
       for name, option in SolverConfig.__dataclass_fields__.items()},
    "seed": _SEED, "grid.n": _Key(int),
    "model.flux.kind": _Key(str, tuple(FLUX_FAMILIES)), "model.flux.clamp": _POSITIVE,
    "model.diffusion.kind": _Key(str, tuple(DIFFUSION_FAMILIES)),
    "model.diffusion.slope": _NONNEG,
    "model.diffusion.theta": _Key(float, bound=(lambda v: 0 < v < 1, "in (0, 1)")),
    "model.noise.kind": _Key(str, tuple(NOISE_FAMILIES)),
    "model.noise.truncation": _COUNT, "model.noise.pairs": _COUNT,
    "model.noise.q": _Key(float, bound=(lambda v: v > 0.5, "above 1/2")),
    "initial.kind": _Key(str, ("constant", "harmonic", "csv")),
    "initial.value": _NUMBER, "initial.base": _NUMBER, "initial.amplitude": _NUMBER,
    "initial.mode": _COUNT, "initial.phase": _NUMBER, "initial.path": _NAME,
    "control.kind": _Key(str, ("zero", "random", "csv")), "control.intervals": _COUNT,
    "control.amplitude": _NUMBER, "control.seed": _SEED, "control.path": _NAME,
    "experiment.pairs": _COUNT, "experiment.samples": _COUNT,
    "experiment.eps": _NONNEG, "experiment.tol": _NONNEG, "experiment.eta": _NONNEG,
    "experiment.eps_grid": _Key(float, bound=_AT_LEAST_ZERO, many=True),
    "experiment.modes": _Key(int, many=True),
    "experiment.which": _Key(str, ("eta", "gamma")),
    "experiment.ladder": _Key(float, bound=_AT_LEAST_ZERO, many=True),
    "experiment.controls": _COUNT, "experiment.intervals": _COUNT,
    "experiment.amplitude": _NUMBER, "experiment.delta": _POSITIVE,
    "experiment.level_bound": _NONNEG,
    "experiment.a": _Key(float, bound=(lambda v: 0 < v < 0.5, "in (0, 1/2)")),
    "experiment.linear_check": _Key(bool),
    "rate.method": _Key(str, ("exact", "iterative")),
    "rate.target.kind": _Key(str, ("harmonic", "csv")),
    "rate.target.mode": _COUNT, "rate.target.re": _NUMBER, "rate.target.im": _NUMBER,
    "rate.target.path": _NAME,
    "rate.intervals": _COUNT, "rate.rounds": _COUNT, "rate.maxiter": _COUNT,
    "rate.dt": _POSITIVE, "rate.flux_scheme": _Key(str, ("rusanov", "spectral")),
}
_KIND_TEXT = {float: "a finite number", int: "an integer", str: "a name",
              bool: "true or false"}


def _key_schema(key: str) -> _Key | None:
    parts = key.split(".")
    if len(parts) == 3 and parts[0] == "model" and parts[1] in _FAMILIES:
        return _SCHEMA.get(key, _NUMBER)
    return _SCHEMA.get(key)


def _is_kind(value, kind: type) -> bool:
    """Whether a parsed value is of a kind; a bool is never a number."""
    if isinstance(value, bool) or kind in (str, bool):
        return type(value) is kind
    if kind is int:
        return isinstance(value, int)
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


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
    """A fully resolved run: command, flat config, output location.

    entries holds the parsed values, which the hash and config.txt list;
    values holds them converted to their key's kind, which the run reads.
    """

    command: str
    experiment: str | None
    entries: dict
    lines: dict = field(repr=False)
    values: dict = field(default_factory=dict, repr=False)
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

    @property
    def seed(self) -> int:
        return self.values.get("seed", 0)

    def where(self, key: str, message: str) -> str:
        lineno = self.lines.get(key, 0)
        if lineno:
            return f"{self.source} line {lineno}: {key}: {message}"
        return f"{self.source}: {key}: {message}"

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigurationError(
                f"{self.source}: missing required key {key!r}")
        return self.values[key]


def _converted(cfg: RunConfig, key: str, value):
    """value converted to key's kind; a ConfigurationError naming the key if
    the key is unknown or value is not of its kind or not admitted."""
    schema = _key_schema(key)
    if schema is None:
        raise ConfigurationError(cfg.where(key, "unknown config key"))
    many = isinstance(value, tuple)
    items = value if many else (value,)
    if (many and not schema.many) or not items or not all(
            _is_kind(item, schema.kind) for item in items):
        expected = _KIND_TEXT[schema.kind] + (
            " or a comma-separated list of them" if schema.many else "")
        raise ConfigurationError(cfg.where(key, f"expected {expected}, got {value!r}"))
    for item in items:
        if schema.names and item not in schema.names:
            raise ConfigurationError(cfg.where(
                key, f"must be one of {', '.join(schema.names)}, got {item!r}"))
        if schema.bound and not schema.bound[0](item):
            raise ConfigurationError(cfg.where(
                key, f"must be {schema.bound[1]}, got {item!r}"))
    items = tuple(schema.kind(item) for item in items)
    return items if schema.many else items[0]


_REQUIRED_KEYS = ("model.flux.kind", "model.diffusion.kind",
                  "model.diffusion.theta", "model.noise.kind",
                  "grid.n", "solver.dt", "solver.t_end")


def load_run_config(command: str, experiment: str | None, text: str,
                    source: str = "<config>", seed=None, out=None,
                    workers=None, overrides=()) -> RunConfig:
    """Parse, apply overrides, and check every key against the schema."""
    entries_lines = parse_config_text(text, source)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(
                f"override {item!r} must have the form key=value")
        key, _, rest = item.partition("=")
        entries_lines[key.strip()] = (_parse_scalar(rest), 0)
    if seed is not None:
        entries_lines["seed"] = (int(seed), 0)
    if workers is None:
        workers = os.cpu_count() or 1
    cfg = RunConfig(
        command=command, experiment=experiment,
        entries={key: value for key, (value, _) in entries_lines.items()},
        lines={key: lineno for key, (_, lineno) in entries_lines.items()},
        out=out or "runs", workers=int(workers), source=source)
    for key, value in cfg.entries.items():
        cfg.values[key] = _converted(cfg, key, value)
    for key in _REQUIRED_KEYS:
        cfg.require(key)
    for key in cfg.values:
        if key.startswith("model.") and not key.endswith(".kind"):
            _, block, param = key.split(".")
            kind = cfg.values[f"model.{block}.kind"]
            if param not in inspect.signature(_FAMILIES[block][kind]).parameters:
                raise ConfigurationError(cfg.where(key, (
                    f"unknown config key: {block} kind {kind!r} has no "
                    f"parameter {param!r}")))
    _build_solver_config(cfg)  # surface solver key errors before any work
    return cfg


# ---------------------------------------------------------------------------
# builders


def _build_grid(cfg: RunConfig) -> GridSpec:
    try:
        return GridSpec(cfg.get("grid.n"))
    except ValueError as exc:
        raise ConfigurationError(cfg.where("grid.n", str(exc))) from exc


def _keyed(cfg: RunConfig, section: str, exc: ConfigurationError):
    """exc, whose message leads with a key or a parameter name, as an error
    naming that key (or section.<name>) and its line; else exc itself."""
    name, _, message = str(exc).partition(": ")
    key = name if name in _SCHEMA else f"{section}.{name}"
    return ConfigurationError(cfg.where(key, message)) if key in _SCHEMA else exc


def _build_solver_config(cfg: RunConfig) -> SolverConfig:
    try:
        return SolverConfig(**{key[len("solver."):]: value
                               for key, value in cfg.values.items()
                               if key.startswith("solver.")})
    except ConfigurationError as exc:
        raise _keyed(cfg, "solver", exc) from exc


def _from_file(cfg: RunConfig, key: str, read, *args):
    """read(path, *args) of the file that key names; a file that cannot be
    opened or parsed is a config error naming the key."""
    try:
        return read(cfg.require(key), *args)
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigurationError(cfg.where(key, str(exc))) from exc


def _build_recipe(cfg: RunConfig) -> dict:
    recipe: dict = {block: {} for block in _FAMILIES}
    for key, value in cfg.values.items():
        if key.startswith("model."):
            _, block, param = key.split(".")
            recipe[block][param] = value
    return recipe


def _build_model(cfg: RunConfig):
    try:
        return build_model(_build_recipe(cfg))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{cfg.source}: model: {exc}") from exc


def _harmonic_mode(cfg: RunConfig, key: str, grid: GridSpec) -> int:
    """The mode that key names, which must lie below the grid's Nyquist
    mode: that sine vanishes on the nodes, and larger modes alias."""
    mode = cfg.get(key, 1)
    n = grid.points_per_axis
    if mode >= n // 2:
        raise ConfigurationError(cfg.where(key, f"mode must lie in 1..{n // 2 - 1}"))
    return mode


def _build_initial(cfg: RunConfig, grid: GridSpec):
    kind = cfg.get("initial.kind", "constant")
    if kind == "constant":
        return constant_field(grid, cfg.get("initial.value", 1.0))
    if kind == "harmonic":
        base = cfg.get("initial.base", 1.0)
        amplitude = cfg.get("initial.amplitude", 0.1)
        mode = _harmonic_mode(cfg, "initial.mode", grid)
        phase = cfg.get("initial.phase", 0.0)
        x = grid.nodes()
        values = base + amplitude * np.sin(2.0 * np.pi * mode * x + phase)
        return SpectralField(grid, values)
    u0 = _from_file(cfg, "initial.path", field_from_csv)
    if u0.grid != grid:
        raise ConfigurationError(cfg.where(
            "initial.path",
            f"field has {u0.grid.points_per_axis} nodes, grid.n is "
            f"{grid.points_per_axis}"))
    return u0


def _build_control(cfg: RunConfig, model, config: SolverConfig):
    if not any(key.startswith("control.") for key in cfg.values):
        return None
    kind = cfg.get("control.kind", "random")
    if kind == "csv":
        def read(path):
            control = control_from_csv(path)
            control.check_fits(config.t_end, model.noise.truncation)
            return control

        return _from_file(cfg, "control.path", read)
    truncation = model.noise.truncation
    if kind == "zero":
        times = np.array([0.0, config.t_end])
        return Control(times=times, coeffs=np.zeros((1, truncation)))
    return random_control(cfg.get("control.seed", cfg.seed), truncation,
                          config.t_end, intervals=cfg.get("control.intervals", 8),
                          amplitude=cfg.get("control.amplitude", 1.0))


def _build_target(cfg: RunConfig, grid: GridSpec):
    if cfg.get("rate.target.kind", "harmonic") == "csv":
        return _from_file(cfg, "rate.target.path", field_from_csv, grid)
    mode = _harmonic_mode(cfg, "rate.target.mode", grid)
    re = cfg.get("rate.target.re", 0.1)
    im = cfg.get("rate.target.im", 0.0)
    n = grid.points_per_axis
    spectrum = np.zeros(n, dtype=complex)
    spectrum[mode] = re + 1j * im
    spectrum[-mode] = re - 1j * im
    return field_from_spectrum(grid, spectrum)


def _prepared(cfg: RunConfig):
    """Model, grid and solver config of a run, checked against the model's
    structural assumptions and the stable step."""
    model = _build_model(cfg)
    grid = _build_grid(cfg)
    config = _build_solver_config(cfg)
    failed = [c.name for c in validate_model(model).checks if not c.passed]
    if failed:
        # a check is named after its block: flux-, diffusion- or noise-
        raise ConfigurationError(cfg.where(
            f"model.{failed[0].split('-')[0]}.kind",
            f"model violates structural assumptions: {', '.join(failed)}"))
    _check_step(cfg, "solver.dt", model, grid, config)
    return model, grid, config


def _check_step(cfg: RunConfig, key: str, model, grid: GridSpec,
                config: SolverConfig):
    """A config error naming key unless config.dt divides t_end stably."""
    try:
        plan_steps(config)
        limit = stable_dt(model, grid, config)
        if config.dt > limit * (1.0 + 1e-12):
            raise ConfigurationError(f"dt {config.dt:g} exceeds the stable step {limit:g}")
    except ConfigurationError as exc:
        raise ConfigurationError(cfg.where(key, str(exc))) from exc


# ---------------------------------------------------------------------------
# artifact output


def _write_run(cfg: RunConfig, artifacts: dict, passed: bool, extra: dict) -> str:
    """Write artifacts plus manifest.json under out/<label>-<hash>/.

    artifacts maps file name -> callable(path), and the canonical config
    listing is added as config.txt; ``created`` is the single volatile
    manifest field.
    """
    run_dir = os.path.join(cfg.out, f"{cfg.label}-{cfg.hash}")
    os.makedirs(run_dir, exist_ok=True)
    artifacts = dict(artifacts)
    artifacts["config.txt"] = _text_artifact(_listing(cfg.label, cfg.entries) + "\n")
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
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        fh.write(text + "\n")
    return run_dir


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
    path = WienerBatch(cfg.seed, 0, model.noise.truncation) if config.eps > 0.0 else None
    traj = solve(u0, model, config, path)
    artifacts = {"trajectory.csv": lambda p: trajectory_to_csv(traj, p)}
    terminal = traj.values[-1]
    lines = [f"PASS simulate: {len(traj.times)} snapshots to t={config.t_end:g}, "
             f"terminal mean {float(np.mean(terminal)):.6g}"]
    extra = {"snapshots": len(traj.times),
             "terminal_mean": float(np.mean(terminal))}
    return True, lines, artifacts, extra


def _require_noise_free(cfg: RunConfig, config: SolverConfig, runs: str):
    if config.eps != 0.0:
        raise ConfigurationError(cfg.where(
            "solver.eps", f"{runs} runs are noise free; set solver.eps = 0"))


def _run_skeleton(cfg: RunConfig):
    model, grid, config = _prepared(cfg)
    _require_noise_free(cfg, config, "skeleton")
    u0 = _build_initial(cfg, grid)
    control = _build_control(cfg, model, config)
    traj = solve(u0, model, config, control=control)
    artifacts = {"trajectory.csv": lambda p: trajectory_to_csv(traj, p)}
    if control is not None:
        artifacts["control.csv"] = lambda p: control_to_csv(control, p)
    lines = [f"PASS skeleton: {len(traj.times)} snapshots to t={config.t_end:g}, "
             f"control energy {0.0 if control is None else control.energy:.6g}"]
    return True, lines, artifacts, {"snapshots": len(traj.times)}


def _run_oracle(cfg: RunConfig):
    model, grid, config = _prepared(cfg)
    _, _, mu, weights, variance = linearize_run(model, _build_initial(cfg, grid), config)
    weight_sq = np.sum(np.abs(weights) ** 2, axis=1)
    rows = [f"{int(k)},{float(m.real)!r},{float(m.imag)!r},{float(w)!r},{float(v)!r}\n"
            for k, m, w, v in zip(grid.wavenumbers(), mu, weight_sq, variance)]
    artifacts = {"modes.csv": _text_artifact(
        "".join(["k,drift_re,drift_im,weight_sq,star_variance\n", *rows]))}
    lines = [f"PASS oracle: {len(rows)} modes at t={config.t_end:g}, "
             f"max variance {float(np.max(variance)):.6g}"]
    return True, lines, artifacts, {"max_star_variance": float(np.max(variance))}


def _run_rate(cfg: RunConfig):
    method = cfg.get("rate.method", "exact")
    model, grid, config = _prepared(cfg)
    if method == "exact":
        # the exact rate reads only the frozen model
        _, model, *_ = linearize_run(model, _build_initial(cfg, grid), config)
    if config.gamma > 0.0:
        raise ConfigurationError(cfg.where(
            "solver.gamma", "the rate has no biharmonic term; set solver.gamma = 0"))
    target = _build_target(cfg, grid)
    if method == "exact":
        report = mdp_rate_exact(target, model, config.t_end, eta=config.eta,
                                control_intervals=cfg.get("rate.intervals", 64))
    else:
        options = {name: cfg.get(f"rate.{name}", option.default)
                   for name, option in RateOptions.__dataclass_fields__.items()}
        noise_free = SolverConfig(dt=options["dt"], t_end=config.t_end, eta=config.eta,
                                  flux_scheme=options["flux_scheme"])
        _check_step(cfg, "rate.dt", model, grid, noise_free)
        report = ldp_rate_iterative(target, _build_initial(cfg, grid), model,
                                    config.t_end, RateOptions(**options), eta=config.eta)

    control_name = "control.csv" if report.optimal_control is not None else None
    artifacts = {
        "report.json": _text_artifact(
            rate_report_to_json(report, control_name) + "\n")}
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

    samples = cfg.get("experiment.samples",
                      500 if name in ("contraction", "mass-martingale") else 200)
    if name == "contraction":
        pairs = [_smooth_pair(grid, seed, i)
                 for i in range(cfg.get("experiment.pairs", 10))]
        return contraction_experiment(
            recipe, pairs, cfg.get("experiment.eps", 1e-2), samples,
            config=config, seed=seed, workers=workers,
            tol=cfg.get("experiment.tol", 1e-2))
    if name == "clt":
        return clt_experiment(
            recipe, cfg.get("experiment.eps_grid", (1e-2, 1e-3, 1e-4)),
            cfg.get("experiment.eta", config.eta), samples, u0=u0, config=config,
            modes=cfg.get("experiment.modes", (1, 2)), seed=seed, workers=workers)
    if name == "mass-martingale":
        return mass_martingale_experiment(
            recipe, cfg.get("experiment.eps", 1e-2), samples, u0=u0,
            config=config, seed=seed, workers=workers)
    if name == "regularization":
        _require_noise_free(cfg, config, "regularization")
        return regularization_experiment(
            recipe, _build_control(cfg, model, config),
            cfg.get("experiment.ladder", (1e-2, 1e-3, 1e-4, 1e-5)),
            which=cfg.get("experiment.which", "eta"), u0=u0, config=config)
    if name == "condition2":
        family = [random_control((seed + 1) * 1000 + i, model.noise.truncation,
                                 config.t_end,
                                 intervals=cfg.get("experiment.intervals", 8),
                                 amplitude=cfg.get("experiment.amplitude", 0.5))
                  for i in range(cfg.get("experiment.controls", 4))]
        return condition2_coupling_experiment(
            recipe, family, cfg.get("experiment.eps_grid", (1e-2, 1e-4, 1e-6)),
            samples, u0=u0, delta=cfg.get("experiment.delta"),
            level_bound=cfg.get("experiment.level_bound"),
            config=config, seed=seed, workers=workers)
    if name == "mdp":
        return mdp_concentration_experiment(
            recipe, cfg.get("experiment.a", 0.25),
            cfg.get("experiment.eps_grid", (1e-2, 1e-3, 1e-4)), samples,
            u0=u0, config=config,
            linear_check=cfg.get("experiment.linear_check", False),
            modes=cfg.get("experiment.modes", (1,)), seed=seed, workers=workers)
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
    try:
        passed, lines, artifacts, extra = _RUNNERS[cfg.command](cfg)
    except ConfigurationError as exc:
        raise _keyed(cfg, cfg.command, exc) from exc
    run_dir = _write_run(cfg, artifacts, passed, extra)
    return passed, lines, run_dir


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
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
    return parser


# built once: a parser per call of main is cyclic garbage, and when the
# collector frees it sets the peak memory of repeated in-process calls
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
