"""The benchmark's tracer finds every name it wraps in the package.

perfbench/tracer.py wraps module-level names of fraclab from outside the
program; a name it cannot find would crash a traced run or leave one of its
per-layer metrics at 0.  It wraps every function in fraclab.oracle.__all__
and skips a listed name the module lacks, so every __all__ must be current.
"""

import importlib
import importlib.util
import os
import pkgutil

import numpy as np

import fraclab
import fraclab.rate
from fraclab.fields import GridSpec, SpectralField
from fraclab.models import FLUX_FAMILIES, build_model
from fraclab.skeleton import random_control, solve_controlled_spde
from fraclab.solver import SolverConfig

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_every_name_it_patches():
    minimize = fraclab.rate.minimize
    tracer = load_tracer()
    try:
        tracer.install()
        assert tracer.skipped == []
        assert fraclab.rate.minimize is not minimize
    finally:
        tracer.remove()
    assert fraclab.rate.minimize is minimize


def test_every_public_name_is_defined():
    for info in pkgutil.iter_modules(fraclab.__path__, "fraclab."):
        module = importlib.import_module(info.name)
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], f"{info.name}.__all__ lists undefined {missing}"


def test_traced_flux_families_run_and_keep_every_bit():
    # the tracer rebuilds each FluxSpec a family makes with counted eval and
    # deriv; every family, built under it, must run both flux schemes to
    # the untraced bits
    grid = GridSpec(32)
    u0 = SpectralField(grid, 1.0 + 0.2 * np.sin(2.0 * np.pi * grid.nodes()))
    control = random_control(1, 4, 5e-3, intervals=2)

    def terminals():
        out = []
        for kind in FLUX_FAMILIES:
            model = build_model({
                "flux": {"kind": kind},
                "diffusion": {"kind": "linear", "slope": 0.5, "theta": 0.5},
                "noise": {"kind": "diagonal-decay", "truncation": 4}})
            for scheme in ("rusanov", "spectral"):
                config = SolverConfig(dt=1e-3, t_end=5e-3, flux_scheme=scheme)
                out.append(solve_controlled_spde(u0, model, control, config).values[-1])
        return out

    plain = terminals()
    tracer = load_tracer()
    try:
        tracer.install()
        traced = terminals()
    finally:
        tracer.remove()
    assert tracer.counts["models.flux_calls"] > 0
    assert len(traced) == 2 * len(FLUX_FAMILIES)
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
