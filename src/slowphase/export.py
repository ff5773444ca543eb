"""Plot-ready exports of pipeline artifacts.

Three formats:

* ``csv`` -- sampled curves, one file per function (header
  ``theta,<component names>``): the orbit, the real frame columns (tangent
  and normal bundle; phase and amplitude response curves), and each order of
  the manifold and response expansions; and each stored coefficient series
  as a text table (:func:`~slowphase.store.write_series_csv`:
  ``cycle_coeff.csv``, ``frame_{bundle,adjoint}_coeff.csv``,
  ``manifold_order_NN_coeff.csv``, ``response_{phase,amplitude}_order_NN_coeff.csv``).
* ``json`` -- the manifest and the spectrum.
* ``plotdata`` -- long-format tables ``theta,sigma,component,value``
  covering the accuracy domain at the loosest tolerance: the manifold
  surface and the response functions evaluated on it.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from .errors import ConfigError
from .frames import build_real_frames
from .manifold import evaluate_manifold
from .pipeline import PipelineResult
from .store import write_function_csv, write_rows_csv, write_series_csv
from .validation import accuracy_domain

__all__ = ["export_artifacts"]

SELECTORS = ("cycle", "frames", "manifold", "response", "all")
FORMATS = ("csv", "json", "plotdata")


def _curve_files(result: PipelineResult, out) -> list:
    files = []
    names = result.model.state_names
    cycle = result.cycle
    theta = cycle.theta
    files.append(
        write_function_csv(
            os.path.join(out, "curve_cycle.csv"), theta, cycle.samples, names
        )
    )
    files.append(write_series_csv(os.path.join(out, "cycle_coeff.csv"), cycle.series))
    return files


def _frame_files(result: PipelineResult, out) -> list:
    files = []
    names = result.model.state_names
    bundle_real, adjoint_real = build_real_frames(result.bundle, result.adjoint)
    for label, series in (("bundle", bundle_real), ("adjoint", adjoint_real)):
        vals = series.samples().real
        theta = series.grid()
        for j in range(vals.shape[2]):
            files.append(
                write_function_csv(
                    os.path.join(out, f"curve_{label}_column_{j}.csv"),
                    theta,
                    vals[:, :, j],
                    names,
                )
            )
    for label in ("bundle", "adjoint"):
        files.append(write_series_csv(
            os.path.join(out, f"frame_{label}_coeff.csv"), getattr(result, label).series
        ))
    return files


def _manifold_files(result: PipelineResult, out) -> list:
    files = []
    names = result.model.state_names
    man = result.manifold
    theta = man.order_series(0).grid()
    for n in range(man.nominal_order + 1):
        files.append(
            write_function_csv(
                os.path.join(out, f"curve_manifold_order_{n:02d}.csv"),
                theta,
                man.order_series(n).samples().real,
                names,
            )
        )
    for n in range(man.total_order + 1):
        files.append(write_series_csv(
            os.path.join(out, f"manifold_order_{n:02d}_coeff.csv"), man.order_series(n)
        ))
    return files


def _response_files(result: PipelineResult, out) -> list:
    files = []
    names = result.model.state_names
    resp = result.response
    theta = resp.phase.orders[0].grid()
    for label, ft in (("phase", resp.phase), ("amplitude", resp.amplitude)):
        for n in range(resp.order + 1):
            files.append(
                write_function_csv(
                    os.path.join(out, f"curve_response_{label}_order_{n:02d}.csv"),
                    theta,
                    ft.order_series(n).samples().real,
                    names,
                )
            )
            files.append(write_series_csv(
                os.path.join(out, f"response_{label}_order_{n:02d}_coeff.csv"),
                ft.order_series(n),
            ))
    return files


def _surface_rows(result: PipelineResult):
    """Long-format rows over the loosest-tolerance accuracy domain: about 128
    phases, 33 amplitudes each."""
    man = result.manifold
    resp = result.response
    model = result.model
    domain = accuracy_domain(
        man, model, (max(result.config.tolerances),),
        scan_max=result.config.sigma_scan_max,
    )
    names = model.state_names
    n = len(domain.theta)
    step = max(1, n // 128)
    rows = []
    for i in range(0, n, step):
        th = domain.theta[i]
        lo = -domain.sigma_neg[0][i]
        hi = domain.sigma_pos[0][i]
        for sg in np.linspace(lo, hi, 33):
            point = evaluate_manifold(man, th, sg)
            z = resp.phase.evaluate(th, sg).real if resp is not None else None
            a = resp.amplitude.evaluate(th, sg).real if resp is not None else None
            for c, name in enumerate(names):
                rows.append((th, sg, f"K.{name}", point[c]))
                if z is not None:
                    rows.append((th, sg, f"Z.{name}", z[c]))
                if a is not None:
                    rows.append((th, sg, f"I.{name}", a[c]))
    return rows


def export_artifacts(
    result: PipelineResult, what: str = "all", fmt: str = "csv", out_dir=None
) -> list:
    """Write the selected artifacts; returns the list of files written."""
    if what not in SELECTORS:
        raise ConfigError(f"unknown export selector '{what}'; choose from {SELECTORS}")
    if fmt not in FORMATS:
        raise ConfigError(f"unknown export format '{fmt}'; choose from {FORMATS}")
    out = out_dir or os.path.join(result.config.out_dir, "exports")
    os.makedirs(out, exist_ok=True)
    files = []

    if fmt == "json":
        src = os.path.join(result.config.out_dir, "manifest.json")
        if os.path.exists(src):
            dst = os.path.join(out, "manifest.json")
            if os.path.abspath(src) != os.path.abspath(dst):
                shutil.copyfile(src, dst)
            files.append(dst)
        src = os.path.join(result.config.out_dir, "spectrum.json")
        if os.path.exists(src):
            dst = os.path.join(out, "spectrum.json")
            if os.path.abspath(src) != os.path.abspath(dst):
                shutil.copyfile(src, dst)
            files.append(dst)
        return files

    if fmt == "plotdata":
        if result.manifold is None:
            raise ConfigError("plotdata export requires the manifold stage")
        rows = _surface_rows(result)
        files.append(
            write_rows_csv(
                os.path.join(out, "plotdata_slow_manifold.csv"),
                ["theta", "sigma", "component", "value"],
                rows,
            )
        )
        return files

    if what in ("cycle", "all") and result.cycle is not None:
        files += _curve_files(result, out)
    if what in ("frames", "all") and result.bundle is not None:
        files += _frame_files(result, out)
    if what in ("manifold", "all") and result.manifold is not None:
        files += _manifold_files(result, out)
    if what in ("response", "all") and result.response is not None:
        files += _response_files(result, out)
    if not files:
        raise ConfigError(
            f"nothing to export for '{what}': run the pipeline stages first"
        )
    return files
