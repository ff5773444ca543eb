"""The names the benchmark's tracer wraps must keep resolving.

``bench/tracer.py`` replaces slowphase functions and methods by name, so a
rename or deletion in the package would break ``bench/run.py --trace 1``.
The tracer module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import slowphase
import slowphase.pipeline  # as the benchmark imports it: store, config, ...
from slowphase.config import RunConfig
from slowphase.pipeline import Stage, run_pipeline

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


def test_tracer_sees_every_stage_call(tmp_path):
    """The stage table calls the numerical and save functions through the
    pipeline module's names, so the tracer's per-layer spans fire."""
    tracer = _load_tracer().Tracer()
    config = RunConfig(
        model="oracle", relax_time=20.0, grid_size=128, order=4,
        out_dir=str(tmp_path / "out"),
    )
    tracer.install(slowphase)
    try:
        slowphase.pipeline.run_pipeline(config, through=Stage.RESPONSE)
    finally:
        tracer.uninstall()
    assert slowphase.pipeline.run_pipeline is run_pipeline  # uninstalled
    # each stage saves once: the cycle, the spectrum, the frames (with the
    # polished orbit), the manifold and the response
    assert tracer.calls("pipeline.save") == 5
    for name in (
        "cycle.find_cycle", "frames.build_bundle_frame", "manifold.expand_slow_manifold",
    ):
        assert tracer.calls(name) == 1, name
