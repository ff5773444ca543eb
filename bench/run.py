#!/usr/bin/env python3
"""slowphase benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload ei-validate --seed 1 --seconds 20 --trace 0

The set-up (a cold pipeline run that writes the artifacts the workload starts
from) runs first; then the run repeats rounds of the workload until
``--seconds`` have passed (at least one round) and checks each operation
against ``bench/reference.json``.  With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``, with times scaled to full host speed
(see ``hostspeed.py``); with ``--trace 1`` it runs the
set-up and one round under the tracer and reports the per-layer metrics.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the details (machine, per-round times, check
failures, byte identity of coefficient artifacts).  Exit code 0 when every
operation passed its check, 1 otherwise, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import check
import hostspeed
import tracer as tracing
import workloads as wl

SETUP_PROBES = 2  # fresh-interpreter set-ups timed per run; setup_s is their median


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(wl.SIZES), default="full",
        help="'smoke' runs both workloads at grid 2^10 and low orders",
    )
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where that cannot be asked."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return int(lib.scipy_openblas_get_num_threads64_())
    return None


def time_setup(args) -> tuple[list, list]:
    """Wall times of fresh interpreters running ``setup_probe.py``, and the
    mean host-speed probe time each one reported.

    Each probe writes the artifacts the rounds start from; the last one's stay.
    """
    cmd = [sys.executable, os.path.join("bench", "setup_probe.py"), args.workload, args.size, str(args.seed)]
    times, probes = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1])["probe_mean_s"])
    return times, probes


class Run:
    """Rounds of one workload, their wall times and check outcomes."""

    def __init__(self, sp, args, tracer=None):
        self.sp, self.args, self.size = sp, args, wl.SIZES[args.size]
        self.reference = check.load_reference()
        self.tracer = tracer
        self.round_s = []
        self.probe_s = []  # per round: mean host-speed probe time (untraced runs)
        self.attempted = self.failed = 0
        self.failures = []
        self.identical = []  # per operation: coefficients byte-identical to the reference

    def attempt(self, fn, *a):
        """Time one round; an exception it raised is returned, not raised."""
        if self.tracer is not None:
            self.tracer.run_id = f"{self.args.workload}:{self.args.seed}:{len(self.round_s)}"
            fn = self.tracer.wrap("bench.round", fn)
        sampler = hostspeed.Sampler() if self.tracer is None else contextlib.nullcontext()
        with sampler:
            start = time.perf_counter()
            try:
                outcome = fn(*a)
            except Exception as exc:  # an operation that raised counts as failed
                traceback.print_exc(file=sys.stderr)
                outcome = exc
            self.round_s.append(time.perf_counter() - start)
        if self.tracer is None:
            self.probe_s.append(sampler.mean_s())
        return outcome

    def judge(self, outcome):
        """Count one operation; ``outcome`` is its result or exception."""
        key = wl.case_key(self.args.workload, self.args.size)
        self.attempted += 1
        if isinstance(outcome, BaseException):
            self.failed += 1
            self.failures.append(f"{key}: {type(outcome).__name__}: {outcome}")
            return
        ref = self.reference.get(key)
        if ref is None:
            self.failed += 1
            self.failures.append(f"{key}: no reference value")
            return
        problems, identical = check.compare(wl.observe_pipeline(outcome), ref)
        self.identical.append(identical)
        if problems:
            self.failed += 1
            self.failures += [f"{key}: {p}" for p in problems]

    def round(self):
        """One operation on a fresh copy of the set-up's artifacts; returns
        the output directory."""
        workload, seed = self.args.workload, self.args.seed
        base = wl.base_config(self.sp, workload, self.size, seed)
        config = wl.round_config(self.sp, workload, self.size, seed, len(self.round_s))
        shutil.rmtree(config.out_dir, ignore_errors=True)
        shutil.copytree(base.out_dir, config.out_dir)
        self.judge(self.attempt(wl.OPERATIONS[workload], self.sp, config))
        return config.out_dir

    def go(self, rounds=None):
        """Run rounds until ``--seconds`` passed, or exactly ``rounds``."""
        start = time.perf_counter()
        while True:
            out_dir = self.round()
            if rounds is not None and len(self.round_s) >= rounds:
                return out_dir
            if rounds is None and time.perf_counter() - start >= self.args.seconds:
                return out_dir


def value(v, unit):
    return {"value": v, "unit": unit}


def scaled(times, probes):
    return [hostspeed.scaled(t, p) for t, p in zip(times, probes)]


def end_to_end(run: Run, setup_times, setup_probes) -> dict:
    return {
        "run_s": value(statistics.median(scaled(run.round_s, run.probe_s)), "s"),
        "setup_s": value(statistics.median(scaled(setup_times, setup_probes)), "s"),
        "peak_rss_mb": value(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run, out_dir) -> dict:
    t = run.tracer
    count, sec, us = "count", "s", "us"

    def per_call_us(name):
        calls = t.calls(name)
        return 1e6 * t.self_s(name) / calls if calls else 0.0

    m = {
        "trace.setup_s": value(t.total_s("bench.setup"), sec),
        "bench.setup_self_s": value(t.self_s("bench.setup"), sec),
        "trace.run_s": value(run.round_s[0], sec),
        "bench.round_self_s": value(t.self_s("bench.round"), sec),
        "models.eval_point_calls": value(t.calls("models.eval_point"), count),
        "models.eval_point_us": value(per_call_us("models.eval_point"), us),
        "models.jacobian_point_calls": value(t.calls("models.jacobian_point"), count),
        "models.jacobian_point_us": value(per_call_us("models.jacobian_point"), us),
        "models.eval_grid_calls": value(t.calls("models.eval_grid"), count),
        "models.eval_grid_s": value(t.self_s("models.eval_grid"), sec),
        "models.jacobian_grid_calls": value(t.calls("models.jacobian_grid"), count),
        "models.jacobian_grid_s": value(t.self_s("models.jacobian_grid"), sec),
        "models.jet_compose_calls": value(t.calls("models.jet_compose"), count),
        "models.jet_compose_s": value(t.self_s("models.jet_compose"), sec),
        "integrate.steps": value(t.calls("integrate.step"), count),
        "integrate.step_s": value(t.self_s("integrate.step"), sec),
        "integrate.interp_calls": value(t.calls("integrate.interp"), count),
        "integrate.interp_s": value(t.self_s("integrate.interp"), sec),
        "series.evaluate_calls": value(t.calls("series.evaluate"), count),
        "series.evaluate_s": value(t.self_s("series.evaluate"), sec),
        "series.wavenumbers_calls": value(t.counts["series.wavenumbers_calls"], count),
        "series.solve_diagonal_calls": value(t.calls("series.solve_diagonal"), count),
        "series.solve_diagonal_s": value(t.self_s("series.solve_diagonal"), sec),
        "store.write_s": value(t.self_s("store.write"), sec),
        "store.files_written": value(t.calls("store.write"), count),
        "store.bytes_written": value(t.counts["store.bytes_written"], "B"),
        "store.read_s": value(t.self_s("store.read"), sec),
        "store.files_read": value(t.calls("store.read"), count),
        "store.bytes_read": value(t.counts["store.bytes_read"], "B"),
        "store.artifact_bytes": value(wl.dir_bytes(out_dir), "B"),
        "pipeline.run_pipeline_s": value(t.total_s("pipeline.run_pipeline"), sec),
        "pipeline.self_s": value(t.self_s("pipeline.run_pipeline"), sec),
        "pipeline.load_result_s": value(t.self_s("pipeline.load_result"), sec),
        "pipeline.save_s": value(t.self_s("pipeline.save"), sec),
    }
    for span in tracing.FUNCTION_SPANS:
        layer = span.split(".")[0]
        if layer in ("cycle", "frames", "manifold", "response", "validation"):
            m[f"{span}_s"] = value(t.self_s(span), sec)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(wl.ROOT)
    sp = wl.import_program()
    details = {"workload": args.workload, "seed": args.seed, "size": args.size, "machine": machine()}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(sp)
        run = Run(sp, args, tracer)
        try:
            tracer.run_id = f"{args.workload}:{args.seed}:setup"
            tracer.wrap("bench.setup", wl.prepare)(sp, args.workload, run.size, args.seed)
            out_dir = run.go(rounds=1)
        finally:
            tracer.uninstall()
        metrics = per_layer(run, out_dir)
        trace_path = wl.OUT / f"trace-{args.workload}.json"
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path)
        details["spans"] = len(tracer.spans)
    else:
        setup_times, setup_probes = time_setup(args)
        run = Run(sp, args)
        out_dir = run.go()
        metrics = end_to_end(run, setup_times, setup_probes)
        details.update(
            artifact_bytes=wl.dir_bytes(out_dir),
            setup_wall_s=setup_times,
            setup_probe_mean_s=setup_probes,
            round_wall_median_s=statistics.median(run.round_s),
            round_probe_mean_s=run.probe_s,
        )

    details.update(
        round_s=run.round_s,
        failed_frac=run.failed / run.attempted,
        coefficients_identical=len(run.identical) == run.attempted and all(run.identical),
        failures=run.failures,
    )
    print(json.dumps(details))
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
