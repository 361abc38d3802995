"""fraclab benchmark: three CLI workloads, timed end to end and traced layer
by layer.

    python3 perfbench/run.py --workload clt-ensemble --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Human-readable lines go to standard error.  CLI artifacts and trace files go
under ``.perfbench-out/`` at the checkout root.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import FULL, SMOKE, WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# fresh interpreters per run whose median is setup_s
SETUP_LAUNCHES = 3
# untraced/traced call pairs per traced run
TRACE_PAIRS = 2

SETUP_SCRIPT = r"""
import sys
from fraclab.cli import load_run_config
from fraclab.models import build_model, validate_model

command, experiment, path = sys.argv[1], sys.argv[2] or None, sys.argv[3]
with open(path) as fh:
    cfg = load_run_config(command, experiment, fh.read(), source=path)
recipe = {"flux": {}, "diffusion": {}, "noise": {}}
for key, value in cfg.entries.items():
    parts = key.split(".")
    if parts[0] == "model":
        recipe[parts[1]][parts[2]] = value
if not validate_model(build_model(recipe)).passed:
    sys.exit("model failed validation")
print("ready", flush=True)
"""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                     if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import fraclab from this checkout's src/, never from elsewhere."""
    if not (SRC / "fraclab" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC / 'fraclab'}")
    sys.path.insert(0, str(SRC))
    import fraclab.cli

    if Path(fraclab.cli.__file__).resolve().parent != SRC / "fraclab":
        raise SystemExit(f"benchmark: imported fraclab from {fraclab.cli.__file__}")
    return fraclab.cli


# ---------------------------------------------------------------------------
# one CLI operation


@dataclass(frozen=True)
class Op:
    """Outcome of one call of ``fraclab.cli.main``."""

    wall: float
    exit_code: int | None
    run_dir: str | None
    error: str | None


def run_op(cli, workload, config_path: Path, out: Path, workers=None) -> Op:
    argv = workload.argv(str(config_path), str(out), workers)
    captured = io.StringIO()
    error = None
    exit_code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            exit_code = cli.main(argv)
    except Exception as exc:  # a crash of the program is a failed operation
        log(traceback.format_exc())
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    run_dir = None
    for line in captured.getvalue().splitlines():
        if line.startswith("artifacts: "):
            run_dir = line[len("artifacts: "):]
    if error is None and exit_code in (2, 3):
        error = f"exit code {exit_code}"
    if error is None and run_dir is None:
        error = "no artifacts line"
    return Op(wall, exit_code, run_dir, error)


class Ledger:
    """Operations attempted and failed, and output checks, of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.artifact = None

    def record(self, op: Op) -> None:
        """Count an operation and check its outputs."""
        self.attempted += 1
        if op.error is not None:
            self.failed += 1
            log(f"{self.workload.name}: operation failed: {op.error}")
            return
        try:
            self.workload.check(op.exit_code, op.run_dir)
        except (CheckError, OSError, KeyError, ValueError) as exc:
            # a missing or malformed artifact is a wrong output too
            self.correct = False
            log(f"{self.workload.name}: check failed: {type(exc).__name__}: {exc}")
            return
        path = os.path.join(op.run_dir, self.workload.comparable_artifact())
        with open(path, "rb") as fh:
            data = fh.read()
        if self.artifact is None:
            self.artifact = data
        elif data != self.artifact:
            self.correct = False
            log(f"{self.workload.name}: {self.workload.comparable_artifact()} "
                f"differs between runs of the same inputs")


def artifacts(op: Op) -> tuple:
    """Bytes in the run directory and the report's iterations, if any."""
    if op.run_dir is None or not os.path.isdir(op.run_dir):
        return 0, 0
    size = sum(entry.stat().st_size for entry in os.scandir(op.run_dir))
    iterations = 0
    report = os.path.join(op.run_dir, "report.json")
    if os.path.exists(report):
        with open(report) as fh:
            iterations = json.load(fh).get("iterations", 0)
    return size, iterations


def clear(run_dir) -> None:
    if run_dir is not None:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# end-to-end run


def setup_seconds(workload, config_path: Path) -> float:
    """Fresh interpreter to a validated model: import, parse, build, validate."""
    command = workload.command[0]
    experiment = workload.command[1] if len(workload.command) > 1 else ""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_SCRIPT, command, experiment, str(config_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up launch failed: {err.strip()}")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(cli, workload, config_path: Path, seconds: float,
               launches: int) -> dict:
    ledger = Ledger(workload)
    walls = []
    out = OUT / workload.name / "timed"
    start = time.perf_counter()
    while True:
        op = run_op(cli, workload, config_path, out)
        walls.append(op.wall)
        ledger.record(op)
        clear(op.run_dir)
        if time.perf_counter() - start >= seconds:
            break
    # read before the set-up launches, whose interpreters are children too
    rss = peak_rss_mb()
    setups = [setup_seconds(workload, config_path) for _ in range(launches)]
    log(f"{workload.name}: {len(walls)} operations, wall_s "
        f"{' '.join(f'{w:.3f}' for w in walls)}; setup_s "
        f"{' '.join(f'{s:.3f}' for s in setups)}")
    return result(ledger, {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    })


def result(ledger: Ledger, metrics: dict) -> dict:
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# traced run


def import_ms() -> dict:
    """Cumulative import time of fraclab.cli and fraclab.models, in ms, from
    ``python -X importtime`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fraclab.cli"],
        capture_output=True, text=True, env=child_env(), cwd=str(ROOT),
        timeout=120, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [part.strip() for part in line[len("import time:"):].split("|")]
        if fields[2] in ("fraclab.cli", "fraclab.models"):
            found[fields[2]] = int(fields[1]) / 1000.0
    return found


def traced(cli, workload, config_path: Path) -> dict:
    """Two pairs of an untraced and a traced call on one worker, after one
    call as timed when the timed runs use more workers.  Per-layer metrics
    come from the faster traced call; both traced calls must count the same,
    and every call's artifacts must match byte for byte.  The overhead is the
    faster traced call minus the faster untraced one."""
    ledger = Ledger(workload)
    if workload.workers != 1:
        first = run_op(cli, workload, config_path, OUT / workload.name / "timed")
        ledger.record(first)
        clear(first.run_dir)
    plain_walls = []
    runs = []
    for _ in range(TRACE_PAIRS):
        plain = run_op(cli, workload, config_path,
                       OUT / workload.name / "serial", workers=1)
        plain_walls.append(plain.wall)
        ledger.record(plain)
        clear(plain.run_dir)
        tracer = Tracer()
        tracer.install()
        try:
            op = run_op(cli, workload, config_path,
                        OUT / workload.name / "traced", workers=1)
        finally:
            tracer.remove()
        ledger.record(op)
        runs.append((op.wall, tracer, artifacts(op)))
        clear(op.run_dir)
    if any(run[1].counts != runs[0][1].counts for run in runs):
        ledger.correct = False
        log(f"{workload.name}: layer counts differ between traced calls of "
            f"the same inputs")
    wall, tracer, (artifact_bytes, iterations) = min(runs, key=lambda run: run[0])
    overhead = wall - min(plain_walls)

    totals = tracer.totals()
    counts = tracer.counts

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    steps = counts["solver.steps"]
    rng_blocks = counts["solver.rng_blocks"]
    skeleton_solves = calls("skeleton.solve")
    solves_in_minimize, _ = tracer.under("rate.minimize", "skeleton.solve")
    _, rate_solve_s = tracer.under("rate", "skeleton.solve")
    paths, path_s = tracer.under("experiments", "solver.solve")
    imports = import_ms()
    metrics = {
        "cli.import_ms": (imports.get("fraclab.cli", 0.0), "ms"),
        "models.import_ms": (imports.get("fraclab.models", 0.0), "ms"),
        "cli.parse_ms": (1e3 * total("cli.parse"), "ms"),
        "cli.precheck_ms": (1e3 * total("cli.precheck"), "ms"),
        "cli.write_ms": (1e3 * total("cli.write"), "ms"),
        "cli.artifact_bytes": (artifact_bytes, "B"),
        "fields.spectral_fields": (counts["fields.spectral_fields"], "count"),
        "models.flux_calls_per_step": (per(counts["models.flux_calls"], steps),
                                       "count"),
        "models.builds": (counts["models.builds"], "count"),
        "solver.solves": (calls("solver.solve"), "count"),
        "solver.steps": (steps, "count"),
        "solver.us_per_step": (1e6 * per(total("solver.solve"), steps), "us"),
        "solver.ffts_per_step": (per(counts["solver.ffts"], steps), "count"),
        "solver.rng_blocks": (rng_blocks, "count"),
        "solver.rng_us_per_block": (
            1e6 * per(tracer.times["solver.rng_blocks"], rng_blocks), "us"),
        "solver.digest_blocks": (counts["solver.digest_blocks"], "count"),
        "skeleton.solves": (skeleton_solves, "count"),
        "skeleton.ms_per_solve": (1e3 * per(total("skeleton.solve"),
                                            skeleton_solves), "ms"),
        "oracle.calls": (calls("oracle"), "count"),
        "oracle.ms": (1e3 * total("oracle"), "ms"),
        "rate.skeleton_solves": (per(solves_in_minimize,
                                     counts["rate.gradient_evals"]), "count"),
        "rate.iterations": (iterations, "count"),
        "rate.rounds_failed": (counts["rate.rounds_failed"], "count"),
        "rate.self_ms": (1e3 * (total("rate") - rate_solve_s), "ms"),
        "experiments.paths": (paths, "count"),
        "experiments.self_ms": (1e3 * (total("experiments") - path_s
                                       - tracer.under("experiments", "oracle")[1]),
                                "ms"),
        "experiments.task_bytes": (counts["experiments.task_bytes"], "B"),
        "trace.overhead_ms": (1e3 * overhead, "ms"),
        "trace.overhead_pct": (100.0 * per(overhead, min(plain_walls)), "%"),
    }
    trace_path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "untraced_wall_s": min(plain_walls), "traced_wall_s": wall,
                   **tracer.dump()}, fh)
    if tracer.skipped:
        log(f"{workload.name}: not traced, missing: {', '.join(tracer.skipped)}")
    log(f"{workload.name}: trace written to {trace_path}")
    return result(ledger, metrics)


# ---------------------------------------------------------------------------
# entry points


def measure(cli, name: str, seed: int, seconds: float, trace: bool,
            sizes: dict, launches: int = SETUP_LAUNCHES) -> dict:
    workload = WORKLOADS[name](seed, sizes[name])
    run_root = OUT / name
    shutil.rmtree(run_root, ignore_errors=True)
    run_root.mkdir(parents=True)
    config_path = run_root / "config.txt"
    config_path.write_text(workload.config_text)
    if trace:
        return traced(cli, workload, config_path)
    return end_to_end(cli, workload, config_path, seconds, launches)


def smoke(cli) -> int:
    """Every workload at tiny sizes, timed and traced, with every check, and
    the metric names held against BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    ok = True
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            start = time.perf_counter()
            out = measure(cli, name, 0, 0.0, trace, SMOKE, launches=1)
            printed = [(metric, entry["unit"])
                       for metric, entry in out["metrics"].items()]
            expected = [(m["name"], m["unit"]) for m in declared[section]]
            good = out["correct"] and out["failed"] == 0 and printed == expected
            ok = ok and good
            log(f"smoke {name} trace={int(trace)}: "
                f"{'ok' if good else 'FAILED'} in {time.perf_counter() - start:.1f} s")
            print(json.dumps({"workload": name, "trace": int(trace), **out}))
    print(json.dumps({"smoke": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    cli = import_program()
    if args.smoke:
        return smoke(cli)
    out = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace),
                  FULL)
    for metric, entry in out["metrics"].items():
        log(f"{args.workload}: {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
