"""Run a test script in a fresh interpreter.

A forked worker is taken only by a process that runs one OS thread, and the
test process may hold a multi-threaded OpenBLAS, so the tests of the forked
workers run their scripts here.
"""

import json
import os
import subprocess
import sys

import slowphase


def run_child(script, *args):
    """The last stdout line, parsed as JSON, of ``script`` run in a fresh
    interpreter with one OpenBLAS thread (so it runs one OS thread and may
    fork) and every warning an error."""
    src = os.path.dirname(os.path.dirname(slowphase.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
