"""Per-layer tracing of fraclab from outside the program.

``Tracer.install`` wraps the module-level names through which fraclab's
modules call each other (``fraclab.experiments.solve``,
``fraclab.rate.solve_skeleton``, ``fraclab.cli.validate_model``, ...), plus a
few class methods and the ``numpy.fft`` functions.  Coarse layer calls become
spans (name, start, end, parent) kept in memory; calls too frequent for a
span each (RNG blocks, flux evaluations, FFTs, field constructions) only add
to counters.  ``remove`` puts every original back.  Nothing in ``src/`` is
changed, and the untraced timing runs never install the wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import pickle
import sys
import time
from collections import Counter, defaultdict

import numpy as np

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft")

# span names: (defining module, public functions) -> layer
SPAN_LAYERS = (
    ("fraclab.solver", ("solve",), "solver.solve"),
    ("fraclab.skeleton", ("solve_skeleton", "solve_mdp_skeleton",
                          "solve_controlled_spde"), "skeleton.solve"),
    ("fraclab.rate", ("ldp_rate_iterative", "mdp_rate_exact",
                      "verify_rate_bound"), "rate"),
    ("fraclab.experiments", ("contraction_experiment", "clt_experiment",
                             "mass_martingale_experiment",
                             "regularization_experiment",
                             "condition2_coupling_experiment",
                             "mdp_concentration_experiment"), "experiments"),
)

CLI_SPANS = (
    ("load_run_config", "cli.parse"),
    ("validate_model", "cli.precheck"),
    ("stable_dt", "cli.precheck"),
    ("_write_run", "cli.write"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


class Tracer:
    """Spans and counters of one traced CLI run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.skipped: list[str] = []
        self._undo: list = []
        self._in_solve = 0

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_time += span.duration

    def _span_wrapper(self, func, name, on_call=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = tracer._enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit(span)

        return wrapper

    def _count_wrapper(self, func, name, solve_only=False, timed=False):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if solve_only and not tracer._in_solve:
                return func(*args, **kwargs)
            tracer.counts[name] += 1
            if not timed:
                return func(*args, **kwargs)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.times[name] += time.perf_counter() - start

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_callers(self, defining: str, func_name: str, make) -> None:
        """Replace every other fraclab module's binding of a public function."""
        source = sys.modules[defining]
        func = getattr(source, func_name, None)
        if func is None:
            self.skipped.append(f"{defining}.{func_name}")
            return
        for mod_name, module in sorted(sys.modules.items()):
            if (not mod_name.startswith("fraclab.") or mod_name == defining
                    or module is None):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, make(func))

    def install(self) -> None:
        import fraclab.cli
        import fraclab.experiments
        import fraclab.fields
        import fraclab.models
        import fraclab.oracle
        import fraclab.rate
        import fraclab.solver

        cli = fraclab.cli
        for attr, name in CLI_SPANS:
            if attr in vars(cli):
                self._set(cli, attr, self._span_wrapper(getattr(cli, attr), name))
            else:
                self.skipped.append(f"fraclab.cli.{attr}")

        for defining, names, layer in SPAN_LAYERS:
            if layer == "solver.solve":
                make = self._solve_wrapper
            else:
                make = functools.partial(self._span_wrapper, name=layer)
            for func_name in names:
                self._wrap_callers(defining, func_name, make)
        for func_name in fraclab.oracle.__all__:
            if inspect.isfunction(getattr(fraclab.oracle, func_name, None)):
                self._wrap_callers("fraclab.oracle", func_name,
                                   functools.partial(self._span_wrapper,
                                                     name="oracle"))
        self._wrap_callers("fraclab.models", "build_model",
                           lambda f: self._count_wrapper(f, "models.builds"))

        rate = fraclab.rate
        if "minimize" in vars(rate):
            self._set(rate, "minimize", self._minimize_wrapper(rate.minimize))
        else:
            self.skipped.append("fraclab.rate.minimize")

        experiments = fraclab.experiments
        if "_map_samples" in vars(experiments):
            self._set(experiments, "_map_samples",
                      self._map_wrapper(experiments._map_samples))
        else:
            self.skipped.append("fraclab.experiments._map_samples")

        wiener = fraclab.solver.WienerPath
        self._set(wiener, "increments",
                  self._count_wrapper(wiener.increments, "solver.rng_blocks",
                                      timed=True))
        self._set(wiener, "digest", self._digest_wrapper(wiener.digest))

        field_cls = fraclab.fields.SpectralField
        self._set(field_cls, "__init__",
                  self._count_wrapper(field_cls.__init__, "fields.spectral_fields"))

        families = fraclab.models.FLUX_FAMILIES
        for kind, factory in list(families.items()):
            self._undo.append((families, kind, factory))
            families[kind] = self._flux_factory(factory)

        for name in FFT_NAMES:
            self._set(np.fft, name,
                      self._count_wrapper(getattr(np.fft, name), "solver.ffts",
                                          solve_only=True))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- special wrappers ---------------------------------------------------

    def _on_solve(self, args, kwargs) -> None:
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        self.counts["solver.steps"] += int(round(config.t_end / config.dt))

    def _solve_wrapper(self, func):
        inner = self._span_wrapper(func, "solver.solve", on_call=self._on_solve)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._in_solve += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._in_solve -= 1

        return wrapper

    def _digest_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(path, step_count, dt):
            tracer.counts["solver.digest_blocks"] += int(step_count)
            return func(path, step_count, dt)

        return self._span_wrapper(wrapper, "solver.digest")

    def _minimize_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            tracer.counts["rate.rounds_failed"] += int(not result.success)
            tracer.counts["rate.gradient_evals"] += int(result.njev)
            return result

        return self._span_wrapper(wrapper, "rate.minimize")

    def _map_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(worker, tasks, workers):
            tracer.counts["experiments.task_bytes"] += sum(
                len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
                for task in tasks)
            return func(worker, tasks, workers)

        return wrapper

    def _flux_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(
                spec,
                eval=tracer._count_wrapper(spec.eval, "models.flux_calls",
                                           solve_only=True),
                deriv=tracer._count_wrapper(spec.deriv, "models.flux_calls",
                                            solve_only=True))

        return wrapper

    # -- reduction ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_time
        return out

    def under(self, ancestor: str, name: str) -> tuple:
        """Calls and inclusive seconds of the spans called name that have an
        ancestor called ancestor."""
        calls, seconds = 0, 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent >= 0:
                if self.spans[parent].name == ancestor:
                    calls += 1
                    seconds += span.duration
                    break
                parent = self.spans[parent].parent
        return calls, seconds

    def dump(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
            "leaf_seconds": dict(self.times),
            "totals": self.totals(),
            "skipped": list(self.skipped),
        }
