"""Plot-ready exports of pipeline artifacts.

Three formats:

* ``csv`` -- sampled curves, one file per function (header
  ``theta,<component names>``): the orbit, the real frame columns (tangent
  and normal bundle; phase and amplitude response curves), and each order of
  the manifold and response expansions; and each stored coefficient series
  as a text table (:func:`~slowphase.store.write_series_csv`:
  ``cycle_coeff.csv``, ``frame_{bundle,adjoint}_coeff.csv``,
  ``manifold_order_NN_coeff.csv``, ``response_{phase,amplitude}_order_NN_coeff.csv``),
  one row per stored wavenumber: k = 0..N/2 for the real cycle, manifold and
  response series, k = -N/2..N/2-1 for the complex frames.
* ``json`` -- byte copies of the manifest, then of every JSON file of its
  inventory in sorted order: the stage metadata, which holds the numbers.
  Each file is read once and checked as :func:`~slowphase.pipeline.load_result`
  checks it; the bytes read are written once every file passed.
* ``plotdata`` -- long-format tables ``theta,sigma,component,value``
  covering the accuracy domain at the loosest tolerance: the manifold
  surface and the response functions evaluated on it.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError
from .frames import build_real_frames
from .manifold import evaluate_manifold
from .pipeline import PipelineResult, _check_inventory, _read_manifest, cycle_sweep
from .series import FourierTaylor
from .store import read_bytes, write_function_csv, write_rows_csv, write_series_csv
from .validation import accuracy_domain

__all__ = ["export_artifacts"]

SELECTORS = ("cycle", "frames", "manifold", "response", "all")
FORMATS = ("csv", "json", "plotdata")


def _curve_files(result: PipelineResult, out) -> list:
    if result.cycle.series is None:  # no frames stage: the orbit of the recomputed pass
        cycle_sweep(result)
    cycle = result.cycle
    return [
        write_function_csv(os.path.join(out, "curve_cycle.csv"), cycle.theta,
                           cycle.samples, result.model.state_names),
        write_series_csv(os.path.join(out, "cycle_coeff.csv"), cycle.series),
    ]


def _frame_files(result: PipelineResult, out) -> list:
    files = []
    theta, *real_frames = build_real_frames(result.bundle, result.adjoint)
    for label, vals in zip(("bundle", "adjoint"), real_frames):
        for j in range(vals.shape[2]):
            files.append(write_function_csv(
                os.path.join(out, f"curve_{label}_column_{j}.csv"),
                theta, vals[:, :, j], result.model.state_names,
            ))
        files.append(write_series_csv(
            os.path.join(out, f"frame_{label}_coeff.csv"), getattr(result, label).series
        ))
    return files


def _expansion_files(result: PipelineResult, out, label, ft: FourierTaylor, nominal) -> list:
    """Curves of orders 0..``nominal`` and coefficient tables of every order
    of expansion ``label``: manifold, response_phase or response_amplitude."""
    files = []
    theta = ft.order_series(0).grid()
    for n in range(ft.order + 1):
        series = ft.order_series(n)
        if n <= nominal:
            files.append(write_function_csv(
                os.path.join(out, f"curve_{label}_order_{n:02d}.csv"),
                theta, series.samples(), result.model.state_names,
            ))
        files.append(write_series_csv(
            os.path.join(out, f"{label}_order_{n:02d}_coeff.csv"), series
        ))
    return files


def _surface_rows(result: PipelineResult):
    """Long-format rows over the loosest-tolerance accuracy domain: about 128
    phases, 33 amplitudes each; K, Z and I are each one batched call."""
    man = result.manifold
    resp = result.response
    model = result.model
    domain = accuracy_domain(man, model, (max(result.config.tolerances),))
    n = len(domain.theta)
    idx = np.arange(0, n, max(1, n // 128))
    theta = np.repeat(domain.theta[idx], 33)
    sigma = np.linspace(-domain.sigma_neg[0][idx], domain.sigma_pos[0][idx], 33, axis=1).ravel()
    values = [("K", evaluate_manifold(man, theta, sigma))]
    if resp is not None:
        values += [("Z", resp.phase.evaluate(theta, sigma)),
                   ("I", resp.amplitude.evaluate(theta, sigma))]
    return [
        (th, sg, f"{label}.{name}", v[i, c])
        for i, (th, sg) in enumerate(zip(theta, sigma))
        for c, name in enumerate(model.state_names)
        for label, v in values
    ]


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
        run = result.config.out_dir
        manifest, inventory = _read_manifest(run)
        digests = {}
        data = {name: read_bytes(os.path.join(run, name), digests)
                for name in sorted(n for n in inventory if n.endswith(".json"))}
        _check_inventory(run, digests, inventory)
        for name, content in {"manifest.json": manifest, **data}.items():
            path = os.path.join(out, name)
            with open(path, "wb") as fh:
                fh.write(content)
            files.append(path)
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
        man = result.manifold
        files += _expansion_files(result, out, "manifold", man.coeffs, man.nominal_order)
    if what in ("response", "all") and result.response is not None:
        resp = result.response
        for label in ("phase", "amplitude"):
            ft = getattr(resp, label)
            files += _expansion_files(result, out, f"response_{label}", ft, resp.order)
    if not files:
        raise ConfigError(
            f"nothing to export for '{what}': run the pipeline stages first"
        )
    return files
