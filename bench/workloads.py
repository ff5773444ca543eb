"""The benchmark workloads: seeded inputs, operations and observations.

Every workload talks to slowphase through its public API only.  The seed
becomes the run seed; the program receives only the generated configuration.
Both workloads start from artifacts that their set-up writes with a cold
pipeline run (``prepare``); an operation copies them (untimed) and resumes.

* ``ei-validate`` -- set-up runs the pipeline through the response stage;
  the operation loads every artifact and runs the validation stage.
* ``ei-resume``   -- set-up runs the pipeline through the frames stage; the
  operation loads them and resumes through the response stage at a higher
  order.

``SIZES`` holds the benchmark settings (``full``) and the reduced settings
the smoke test uses (``smoke``).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"  # relative to ROOT, so manifests do not name the checkout

WORKLOADS = ("ei-validate", "ei-resume")

# The program is serial; a second OpenBLAS thread only spin-waits on the
# other core, which made timings noisier on a shared 2-core host.  Must be
# set before numpy is first imported, so it is set when this module loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def import_program():
    """Put the checkout's ``src`` first on the path and import slowphase from it.

    Exits with code 2 when the checkout holds no program, so the benchmark
    never measures an installed copy by accident.
    """
    if not (SRC / "slowphase" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import slowphase
    import slowphase.pipeline  # also loads config and errors

    if Path(slowphase.__file__).resolve().parent != SRC / "slowphase":
        print(f"bench: imported slowphase from {slowphase.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return slowphase


@dataclass(frozen=True)
class Size:
    grid_size: int
    order: int  # set-up order; ei-validate validates this expansion
    resume_order: int  # order ei-resume expands to
    n_samples: int  # validation trajectory samples of ei-validate


SIZES = {
    "full": Size(1024, 9, 10, 8),
    "smoke": Size(1024, 5, 7, 10),
}


def base_config(sp, workload: str, size: Size, seed: int):
    """Configuration of the set-up, which writes the artifacts a round starts from."""
    return sp.config.RunConfig(
        model="ei",
        grid_size=size.grid_size,
        order=size.order,
        n_samples=size.n_samples,
        seed=seed,
        out_dir=str(OUT / workload / "base"),
    )


def round_config(sp, workload: str, size: Size, seed: int, index: int):
    """Configuration of round ``index`` of a run.

    ei-validate draws a fresh validation sample set each round (run seed
    ``1000 * seed + index``): the cost of one draw of 8 samples varies by
    about a fifth, so a run covers many draws, and the same seed gives the
    same draws.
    """
    base = base_config(sp, workload, size, seed)
    order = size.resume_order if workload == "ei-resume" else size.order
    return replace(base, order=order, seed=1000 * seed + index, out_dir=str(OUT / workload / "run"))


def setup_stage(sp, workload: str) -> str:
    """Last stage the set-up runs.  ei-resume starts from frames-stage
    artifacts only: a manifold already on disk would be reused whatever the
    order, so the check asserts the order it got."""
    return sp.pipeline.Stage.FRAMES if workload == "ei-resume" else sp.pipeline.Stage.RESPONSE


def prepare(sp, workload: str, size: Size, seed: int) -> None:
    """Set-up: a cold pipeline run through ``setup_stage``."""
    base = base_config(sp, workload, size, seed)
    shutil.rmtree(base.out_dir, ignore_errors=True)
    sp.pipeline.run_pipeline(base, through=setup_stage(sp, workload))


# ---------------------------------------------------------------------------
# observations compared against the reference


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def observe(cycle, spectrum, bundle, manifold, response, validation, coefficients):
    import numpy as np

    period = float(cycle.period)
    exponents = np.asarray(bundle.exponents)
    obs = {
        "period": period,
        "exponents": _pairs(exponents),
        "multipliers": _pairs(np.exp(exponents * period)),
        "classes": list(spectrum.classes),
        "manifold_order": int(manifold.nominal_order),
        "response_order": int(response.order),
        "manifold_residuals": [float(r) for r in manifold.residuals],
        "solvability_residual": float(response.solvability_residual),
        "normalization_defect": float(response.normalization_defect),
        "coefficients": coefficients,
    }
    if validation is not None:
        obs["domain_min_width"] = validation.summary()["domain_min_width"]
    return obs


def file_hashes(out_dir) -> dict:
    """sha256 of every coefficient artifact in ``out_dir``."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith("_coeff.csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


# ---------------------------------------------------------------------------
# operations: each returns what ``observe_pipeline`` needs, so the caller can
# time the operation alone


def op_validate(sp, config):
    loaded = sp.pipeline.load_result(config)
    return sp.pipeline.run_pipeline(config, resume=loaded, through=sp.pipeline.Stage.VALIDATE)


def op_resume(sp, config):
    loaded = sp.pipeline.load_result(config)
    return sp.pipeline.run_pipeline(config, resume=loaded, through=sp.pipeline.Stage.RESPONSE)


OPERATIONS = {"ei-validate": op_validate, "ei-resume": op_resume}


def observe_pipeline(result):
    return observe(
        result.cycle, result.spectrum, result.bundle, result.manifold,
        result.response, result.validation, file_hashes(result.config.out_dir),
    )


def case_key(workload: str, size_name: str) -> str:
    """Reference key of one operation."""
    return f"{workload}/{size_name}"
