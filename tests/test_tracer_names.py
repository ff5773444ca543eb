"""The names the benchmark's tracer wraps must keep resolving.

``bench/tracer.py`` replaces slowphase functions and methods by name, so a
rename or deletion in the package would break ``bench/run.py --trace 1``.
The tracer module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import slowphase
import slowphase.pipeline  # as the benchmark imports it: store, config, ...

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = _load_tracer()
    targets = [t for names in tracer.FUNCTION_SPANS.values() for t in names]
    assert targets
    for module, attr in targets:
        assert callable(getattr(getattr(slowphase, module), attr)), (module, attr)


def test_traced_methods_resolve():
    assert callable(slowphase.series.wavenumbers)
    for owner, attr in (
        (slowphase.models.VectorFieldModel, "eval"),
        (slowphase.models.VectorFieldModel, "jacobian"),
        (slowphase.integrate.CycleInterpolant, "__call__"),
        (slowphase.series.FourierSeries, "evaluate"),
    ):
        assert callable(getattr(owner, attr)), (owner.__name__, attr)
