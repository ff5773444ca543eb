#!/usr/bin/env python3
"""Full production run on the 6D excitatory/inhibitory mean-field network.

Reproduces the reference configuration: Fourier grid 2^12, expansions to
order 9, both accuracy tolerances, and the complete validation suite.
Expect about half a second of runtime (0.50-0.54 s on 2 cores at one
OpenBLAS thread, of which 97-104 ms locate the cycle: the relaxation, then
one variational pass per Newton step, two here, the last of which samples
the orbit and gives the monodromy and the bundle frame's seeds); the multiplier
table, per-order residuals, and accuracy-domain widths are printed at the
end.  The table is exp(lam T) of the polished Floquet frame's exponents lam
and period T, which ``frames.json`` stores; ``manifest.json`` records the
run's provenance and copies no number.

Usage: python3 scripts/run_ei.py [out_dir]
"""

import sys
import time

import numpy as np

from slowphase.config import RunConfig
from slowphase.pipeline import run_pipeline


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "runs/ei"
    config = RunConfig(
        model="ei",
        grid_size=4096,
        order=9,
        tolerances=(1e-6, 1e-8),
        out_dir=out,
    )
    t0 = time.time()
    result = run_pipeline(config)
    elapsed = time.time() - t0

    print(f"period T = {result.cycle.period:.10g}")
    exponents, period = result.bundle.exponents, result.cycle.period
    print("multipliers (from the polished Floquet frame):")
    for j, lam in enumerate(exponents):
        print(f"  mu_{j} = {complex(np.exp(lam * period)):.6g}")
    print("exponents:")
    for j, lam in enumerate(exponents):
        print(f"  lam_{j} = {complex(lam):.6g}")
    print(f"manifold residual max = {result.manifold.residuals.max():.3e}")
    print(f"response solvability  = {result.response.solvability_residual:.3e}")
    print(f"validation: {result.validation.summary()}")
    print(f"elapsed {elapsed:.1f} s; artifacts in {out}")


if __name__ == "__main__":
    main()
