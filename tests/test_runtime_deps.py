"""numpy is the only runtime dependency: the package imports no scipy.

scipy stays a test dependency, as the reference the in-house DOP853 stepper
and Brent root are compared with bitwise.
"""

import os
import subprocess
import sys

import slowphase

PROBE = (
    "import sys, slowphase, slowphase.pipeline, slowphase.cli; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
)


def test_package_imports_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the reference tests
    src = os.path.dirname(os.path.dirname(slowphase.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.strip() == "[]"
