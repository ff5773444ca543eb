"""Traced run: spans and exact counters around slowphase's public functions.

The tracer wraps functions from outside the program, by replacing the names
their callers look up: every ``slowphase`` module attribute bound to the
function (``slowphase.pipeline.find_cycle``, ``slowphase.frames.wavenumbers``,
the package namespace, ...) and class attributes for methods
(``VectorFieldModel.eval``, ``FourierSeries.evaluate``,
``scipy.integrate.DOP853.step``).  Each call records a span -- name, start,
end, parent span and run id -- kept in memory and written out at the end.
A span's self time is its duration minus the durations of its direct
children.  ``wavenumbers`` is counted without a span: it is called about 10^5
times per run and is never where time goes.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# span name -> names of slowphase functions, as (module, attribute)
FUNCTION_SPANS = {
    "cycle.find_cycle": [("cycle", "find_cycle")],
    "cycle.floquet_spectrum": [("cycle", "floquet_spectrum")],
    "cycle.check_resonances": [("cycle", "check_resonances")],
    "frames.build_bundle_frame": [("frames", "build_bundle_frame")],
    "frames.build_adjoint_frame": [("frames", "build_adjoint_frame")],
    "frames.build_real_frames": [("frames", "build_real_frames")],
    "frames.cross_check_adjoint_frame": [("frames", "cross_check_adjoint_frame")],
    "manifold.expand_slow_manifold": [("manifold", "expand_slow_manifold")],
    "response.expand_response_functions": [("response", "expand_response_functions")],
    "validation.run_validation": [("validation", "run_validation")],
    "validation.accuracy_domain": [("validation", "accuracy_domain")],
    "validation.trajectory_consistency": [("validation", "trajectory_consistency")],
    "validation.orthogonality_report": [("validation", "orthogonality_report")],
    "validation.truncation_slope": [("validation", "truncation_slope")],
    "models.jet_compose": [("models", "jet_compose")],
    "series.solve_diagonal": [("series", "solve_diagonal")],
    "store.write": [
        ("store", "write_series_csv"),
        ("store", "write_json"),
        ("store", "write_rows_csv"),
    ],
    "store.read": [("store", "read_series_csv"), ("store", "read_json")],
    "pipeline.run_pipeline": [("pipeline", "run_pipeline")],
    "pipeline.load_result": [("pipeline", "load_result")],
    "pipeline.save": [
        ("pipeline", name)
        for name in (
            "save_cycle", "save_spectrum", "save_frames",
            "save_manifold", "save_response", "save_validation",
        )
    ],
}


class Tracer:
    """Records spans of one process; not thread-safe (the benchmark is serial)."""

    def __init__(self):
        self.run_id = None
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.stats = {}  # name -> [calls, self seconds, total seconds]
        self.counts = {"store.bytes_written": 0, "store.bytes_read": 0, "series.wavenumbers_calls": 0}
        self._stack = []  # open span indices
        self._child = []  # child seconds of each open span
        self._patches = []  # (owner, attribute, previous value or None if inherited)

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, name_of=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``name_of(args)`` picks the span name per call; ``after(args)`` runs
        outside the span once the call returned, for byte counters.
        """
        spans, stack, child, stats = self.spans, self._stack, self._child, self.stats

        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                children = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                spans[index] = (span_name, start, end, parent, self.run_id)
                entry = stats.get(span_name)
                if entry is None:
                    entry = stats[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - children
                entry[2] += duration
                if after is not None:
                    after(args)

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every slowphase module attribute that names ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "slowphase" or mod_name.startswith("slowphase.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_method(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self, sp):
        import numpy as np
        from scipy.integrate import DOP853

        def grow(key):
            def after(args):
                self.counts[key] += os.path.getsize(args[0])

            return after

        for span_name, targets in FUNCTION_SPANS.items():
            after = {"store.write": grow("store.bytes_written"), "store.read": grow("store.bytes_read")}.get(span_name)
            for module, attr in targets:
                original = getattr(getattr(sp, module), attr)
                self._replace_everywhere(original, self.wrap(span_name, original, after=after))

        wavenumbers = sp.series.wavenumbers
        self._replace_everywhere(wavenumbers, self.count("series.wavenumbers_calls", wavenumbers))

        model_cls = sp.models.VectorFieldModel
        for attr in ("eval", "jacobian"):
            # one state (``_point``) or a batch of states (``_grid``)
            names = {True: f"models.{attr}_point", False: f"models.{attr}_grid"}
            self._replace_method(
                model_cls, attr,
                self.wrap(None, getattr(model_cls, attr), name_of=lambda args, n=names: n[np.ndim(args[1]) == 1]),
            )
        self._replace_method(DOP853, "step", self.wrap("integrate.step", DOP853.step))
        interp = sp.integrate.CycleInterpolant
        self._replace_method(interp, "__call__", self.wrap("integrate.interp", interp.__call__))
        series = sp.series.FourierSeries
        self._replace_method(series, "evaluate", self.wrap("series.evaluate", series.evaluate))

    def uninstall(self):
        for owner, attr, previous in reversed(self._patches):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        runs = sorted({s[4] for s in self.spans})
        run_index = {r: i for i, r in enumerate(runs)}
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "names": names,
            "runs": runs,
            "spans": [
                [index[n], round(a, 7), round(b, 7), p, run_index[r]]
                for n, a, b, p, r in self.spans
            ],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

