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

import fraclab
import fraclab.rate

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_tracer_wraps_every_name_it_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    minimize = fraclab.rate.minimize
    tracer = module.Tracer()
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
