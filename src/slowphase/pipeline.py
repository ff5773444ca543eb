"""Pipeline orchestration and artifact persistence.

Stages: cycle -> floquet (+divisor tables) -> frames (+adjoint cross-check)
-> manifold -> response -> validation.  The table ``STAGES`` gives each step
its metadata file, the config keys it reads, and its compute-and-save, load
and manifest steps; :func:`run_pipeline`, :func:`load_result` and the
manifest each loop over it.  Each file has one writer: a step's run calls
only its own ``save_*``, once it succeeded.  A stored stage writes a JSON
metadata file, keyed by the fields of its result dataclass and ``inputs``
(the config echo of the keys it and every earlier stored stage read, see
:func:`_inputs`), and a ``.npy`` file per stored series.  The cycle stage
stores the shooting anchor and period, not its pass, which is recomputed from
them.  The frames stage stores the polished period, the adjoint cross-check's
report and the frames' exponents and residuals in ``frames.json`` (their
classes are the spectrum's), the polished orbit in ``cycle_coeff.npy``
(N/2 + 1, d), and ``frame_{bundle,adjoint}_coeff.npy`` (N, d, d);
``manifold_coeff.npy`` and ``response_{phase,amplitude}_coeff.npy`` are
(orders, N/2 + 1, d): real series one-sided, complex frames all N rows
(:mod:`slowphase.series`), all of period 1.  The divisor tables and the
validation are recomputed on every run, never loaded.  The manifest records
the configuration echo, the spectral tables, per-order residuals, and a
checksummed file inventory, against which :func:`load_result` checks every
file it reads.  A recursion divisor below ``solver.small_divisor_tol`` (a
resonance) or a hyperbolicity failure aborts the run in the floquet stage;
finished stages keep their files and the manifest records the failed one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import PARAMS_PREFIX, RunConfig, _show
from .cycle import (CycleResult, FloquetSpectrum, check_resonances, find_cycle,
                    floquet_spectrum, variational_sweep)
from .errors import ConfigError, GridError, ResonanceError, SlowphaseError
from .frames import Frame, build_adjoint_frame, build_bundle_frame, cross_check_adjoint_frame
from .manifold import ManifoldExpansion, expand_slow_manifold
from .models import get_model
from .response import ResponseExpansion, expand_response_functions
from .series import FourierSeries, FourierTaylor
from .store import read_coeffs, read_json, sha256_file, write_coeffs, write_json, write_rows_csv
from .validation import run_validation, tolerance_labels

__all__ = ["PipelineResult", "run_pipeline", "Stage", "STAGES", "load_result"]


@dataclass
class PipelineResult:
    config: RunConfig
    model: object = None
    cycle: CycleResult | None = None
    spectrum: FloquetSpectrum | None = None
    resonance: object = None
    bundle: Frame | None = None
    adjoint: Frame | None = None
    crosscheck: dict | None = None
    band_cut: int | None = None
    manifold: ManifoldExpansion | None = None
    response: ResponseExpansion | None = None
    validation: object = None
    manifest: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# artifact codec; a loader decodes the metadata that load_result read and checked

def _meta(obj, skip=()) -> dict:
    """Fields of dataclass ``obj`` except ``skip``, keyed by field name."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def _complex(pairs) -> np.ndarray:
    """Complex array from nested [re, im] pairs, exact down to signed zeros."""
    return np.asarray(pairs, dtype=float).view(complex)[..., 0]


def _read(result, name, shape, digests) -> np.ndarray:
    path = os.path.join(result.config.out_dir, f"{name}_coeff.npy")
    return read_coeffs(path, shape, digests)


def _load_orders(result, name, order, digests) -> FourierTaylor:
    # every stored expansion is real, on the grid of the loaded cycle
    shape = (order + 1, result.cycle.grid_size // 2 + 1, len(result.cycle.anchor))
    return FourierTaylor(_read(result, name, shape, digests), real=True)


def save_cycle(out, cycle: CycleResult, inputs: dict):
    meta = _meta(cycle, skip=("series", "sweep"))
    write_json(os.path.join(out, "cycle.json"), {**meta, "inputs": inputs})


def load_cycle(result, meta, digests):
    meta["anchor"] = np.asarray(meta["anchor"])
    result.cycle = CycleResult(**meta)


def save_spectrum(out, spectrum: FloquetSpectrum, inputs: dict):
    # eigenvectors are stored column by column
    meta = {**_meta(spectrum), "eigenvectors": spectrum.eigenvectors.T, "inputs": inputs}
    write_json(os.path.join(out, "spectrum.json"), meta)


def load_spectrum(result, meta, digests):
    for key in ("multipliers", "exponents"):
        meta[key] = _complex(meta[key])
    meta["eigenvectors"] = _complex(meta["eigenvectors"]).T
    meta["monodromy"] = np.asarray(meta["monodromy"])
    meta["classes"] = tuple(meta["classes"])
    meta["gauge_components"] = tuple(meta["gauge_components"])
    result.spectrum = FloquetSpectrum(**meta)


def save_frames(out, result: PipelineResult, inputs: dict):
    """Write the polished orbit and period, the complex frames, and the
    adjoint cross-check's report as the ``crosscheck`` entry."""
    write_coeffs(os.path.join(out, "cycle_coeff.npy"), result.cycle.series.coef)
    meta = {"period": result.cycle.period, "band_cut": result.band_cut,
            "crosscheck": result.crosscheck, "inputs": inputs}
    for name in ("bundle", "adjoint"):
        frame = getattr(result, name)
        write_coeffs(os.path.join(out, f"frame_{name}_coeff.npy"), frame.series.coef)
        meta[name] = _meta(frame, skip=("series", "classes"))
    write_json(os.path.join(out, "frames.json"), meta)


def load_frames(result, meta, digests):
    """Replace the shooting cycle by the polished one, anchored at its theta =
    0 sample.  Only the complex frames, the only ones the pipeline uses, are
    stored: ``build_real_frames`` recomputes the real ones for an export.
    Their classes are the loaded spectrum's.  An unknown key is refused,
    as the dataclass loaders refuse an unknown field."""
    unknown = sorted(set(meta) - {"period", "band_cut", "crosscheck", "bundle", "adjoint"})
    if unknown:
        raise TypeError(f"unknown keys {unknown}")
    grid_size, dim = result.cycle.grid_size, len(result.cycle.anchor)
    series = FourierSeries(_read(result, "cycle", (grid_size // 2 + 1, dim), digests), real=True)
    result.cycle = replace(result.cycle, anchor=series.samples()[0].copy(),
                           period=meta["period"], series=series)
    result.band_cut, result.crosscheck = meta["band_cut"], meta["crosscheck"]
    for name in ("bundle", "adjoint"):
        frame = meta[name]
        frame["exponents"] = _complex(frame["exponents"])
        coef = _read(result, f"frame_{name}", (grid_size, dim, dim), digests)
        setattr(result, name, Frame(series=FourierSeries(coef),
                                    classes=result.spectrum.classes, **frame))


def save_manifold(out, manifold: ManifoldExpansion, inputs: dict):
    write_coeffs(os.path.join(out, "manifold_coeff.npy"), manifold.coeffs.coef)
    meta = _meta(manifold, skip=("coeffs",))
    meta["total_order"] = manifold.total_order
    meta["inputs"] = inputs
    # text keys, so the file sorts them as text ("10" before "2")
    meta["divisor_minima"] = {str(k): v for k, v in manifold.divisor_minima.items()}
    write_json(os.path.join(out, "manifold.json"), meta)


def load_manifold(result, meta, digests):
    coeffs = _load_orders(result, "manifold", meta.pop("total_order"), digests)
    meta["residuals"] = np.asarray(meta["residuals"])
    meta["divisor_minima"] = {int(k): v for k, v in meta["divisor_minima"].items()}
    result.manifold = ManifoldExpansion(coeffs=coeffs, **meta)


def save_response(out, response: ResponseExpansion, inputs: dict):
    write_coeffs(os.path.join(out, "response_phase_coeff.npy"), response.phase.coef)
    write_coeffs(os.path.join(out, "response_amplitude_coeff.npy"), response.amplitude.coef)
    meta = _meta(response, skip=("phase", "amplitude"))
    meta["order"] = response.order
    meta["inputs"] = inputs
    write_json(os.path.join(out, "response.json"), meta)


def load_response(result, meta, digests):
    order = meta.pop("order")
    for key in ("phase_residuals", "amplitude_residuals"):
        meta[key] = np.asarray(meta[key])
    result.response = ResponseExpansion(
        phase=_load_orders(result, "response_phase", order, digests),
        amplitude=_load_orders(result, "response_amplitude", order, digests),
        **meta,
    )


def save_validation(out, report):
    payload = report.summary()
    payload["orthogonality"] = report.orthogonality
    payload["trajectory"] = report.trajectory
    write_json(os.path.join(out, "validation.json"), payload)
    domain = report.domain
    header, columns = ["theta"], [domain.theta]
    for tol, pos, neg in zip(domain.tolerances, domain.sigma_pos, domain.sigma_neg):
        label = tolerance_labels(tol)[1]
        header += [f"sigma_max_pos_{label}", f"sigma_max_neg_{label}"]
        columns += [pos, neg]
    write_rows_csv(os.path.join(out, "accuracy_domain.csv"), header, zip(*columns))


# ---------------------------------------------------------------------------
# compute-and-save steps: each calls the numerical and store functions through
# this module's globals, so a wrapper that rebinds those names (the
# benchmark's tracer, a test's monkeypatch) sees every call

def _inputs(result, meta_file) -> dict:
    """The ``inputs`` recorded in ``meta_file``: the canonical config echo of
    the keys its stage and every earlier stored stage read.  Model parameters
    are echoed at the model's resolved values, so a default written out is no
    change, and ``cycle.guess`` as the effective guess."""
    inputs = {PARAMS_PREFIX + k: _show(v) for k, v in result.model.params.items()}
    for step in STAGES:
        if step.load is not None:
            inputs.update((key, result.config.echo(key)) for key in step.keys)
        if step.meta == meta_file:
            return inputs


def _run_cycle(result):
    config = result.config
    guess = np.asarray(config.effective_guess(), dtype=float)
    result.cycle = find_cycle(
        result.model, guess, settings=config.integrator, grid_size=config.grid_size,
        relax_time=config.relax_time, newton_tol=config.newton_tol,
    )
    save_cycle(config.out_dir, result.cycle, _inputs(result, "cycle.json"))


def cycle_sweep(result):
    """find_cycle's pass, not stored: recomputed once for a loaded shooting
    cycle from its anchor and period, with the orbit it samples."""
    cycle = result.cycle
    if cycle.sweep is None:
        cycle.sweep = variational_sweep(result.model, cycle.anchor, cycle.period,
                                        cycle.grid_size, result.config.integrator)
        cycle.series = FourierSeries.from_samples(cycle.sweep.states)
    return cycle.sweep


def _run_spectrum(result):
    result.spectrum = floquet_spectrum(cycle_sweep(result))
    save_spectrum(result.config.out_dir, result.spectrum, _inputs(result, "spectrum.json"))


def _run_resonance(result):
    config = result.config
    result.resonance = check_resonances(result.spectrum, config.order)
    write_json(os.path.join(config.out_dir, "resonance.json"), result.resonance.summary())
    table, n, j, divisor = result.resonance.smallest()
    if divisor < config.small_divisor_tol:
        raise ResonanceError(
            f"{table} divisor of order {n} in direction {j} is {divisor:.3e}, below "
            f"solver.small_divisor_tol = {_show(config.small_divisor_tol)}"
        )


def _run_frames(result):
    model, spectrum, sweep = result.model, result.spectrum, cycle_sweep(result)
    build = build_bundle_frame(model, result.cycle, spectrum, sweep)
    cycle, bundle, band_cut = build.cycle, build.bundle, build.diagnostics["band_cut"]
    adjoint = build_adjoint_frame(model, cycle, bundle, sweep, band_cut)
    crosscheck = cross_check_adjoint_frame(model, cycle, bundle, adjoint, sweep)
    # the polished cycle replaces the shooting one only once the stage succeeded
    result.cycle, result.bundle, result.adjoint = cycle, bundle, adjoint
    result.crosscheck, result.band_cut = crosscheck, band_cut
    save_frames(result.config.out_dir, result, _inputs(result, "frames.json"))


def _run_manifold(result):
    config = result.config
    result.manifold = expand_slow_manifold(
        result.model, result.cycle, result.bundle, result.adjoint, order=config.order,
        gauge=config.gauge, small_divisor_tol=config.small_divisor_tol,
    )
    save_manifold(config.out_dir, result.manifold, _inputs(result, "manifold.json"))


def _run_response(result):
    config = result.config
    result.response = expand_response_functions(
        result.model, result.manifold, result.bundle, result.adjoint, order=config.order,
        small_divisor_tol=config.small_divisor_tol,
        solvability_tol=config.solvability_tol,
    )
    save_response(config.out_dir, result.response, _inputs(result, "response.json"))


def _run_validation(result):
    config = result.config
    result.validation = run_validation(
        result.model, result.manifold, result.response, tolerances=config.tolerances,
        n_samples=config.n_samples, seed=config.seed, settings=config.integrator,
    )
    save_validation(config.out_dir, result.validation)


def _pairs(values) -> list:
    return [[z.real, z.imag] for z in values]


def _spectrum_entries(result) -> dict:
    spectrum = result.spectrum
    return {
        "multipliers_shooting": _pairs(spectrum.multipliers),
        "exponents_shooting": _pairs(spectrum.exponents),
        "lyapunov": list(map(float, spectrum.exponents.real)),
        "classes": list(spectrum.classes),
        "hyperbolicity_defect": spectrum.hyperbolicity_defect,
    }


def _frames_entries(result) -> dict:
    # table recomputed from the polished Floquet frame: the refined exponents
    # are spectrally accurate, unlike raw eigenvalues of the monodromy for
    # strongly contracting directions
    T = result.cycle.period
    refined = result.bundle.exponents
    return {
        "exponents": _pairs(refined),
        "multipliers": _pairs(np.exp(z * T) for z in refined),
        "frame_residuals": {"bundle": result.bundle.residual,
                            "adjoint": result.adjoint.residual},
        "band_cut": result.band_cut,
        "adjoint_crosscheck": result.crosscheck,
    }


def _response_entries(result) -> dict:
    response = result.response
    return {"response": {
        "solvability_residual": response.solvability_residual,
        "normalization_defect": response.normalization_defect,
        "phase_residuals": list(response.phase_residuals),
        "amplitude_residuals": list(response.amplitude_residuals),
    }}


# ---------------------------------------------------------------------------
# stages

class Stage:
    CYCLE = "cycle"
    FLOQUET = "floquet"
    FRAMES = "frames"
    MANIFOLD = "manifold"
    RESPONSE = "response"
    VALIDATE = "validate"
    ORDER = (CYCLE, FLOQUET, FRAMES, MANIFOLD, RESPONSE, VALIDATE)


class Step(NamedTuple):
    stage: str  # what ``through`` selects and a failure records
    field: str  # the PipelineResult field that is None until the step ran
    meta: str  # metadata file
    # the config keys it reads that no earlier stored step declares; each key
    # is declared once, so a stored step's inputs are its keys and those of
    # every earlier stored step
    keys: tuple
    run: Callable  # (result): compute, set ``field`` and save
    load: Callable | None  # (result, meta, digests); None: never loaded
    manifest: Callable  # (result) -> manifest entries


STAGES = (
    Step(
        Stage.CYCLE, "cycle", "cycle.json",
        ("model.name", "integrator.rtol", "integrator.atol", "integrator.max_steps",
         "cycle.guess", "cycle.relax_time", "cycle.newton_tol", "cycle.grid_N"),
        _run_cycle, load_cycle,
        lambda r: {"period": r.cycle.period, "shooting_residual": r.cycle.shooting_residual},
    ),
    Step(Stage.FLOQUET, "spectrum", "spectrum.json", (),
         _run_spectrum, load_spectrum, _spectrum_entries),
    # reads manifold.order and solver.small_divisor_tol, which the manifold
    # step declares; recomputed on every run, so neither makes a stored stage
    # stale
    Step(Stage.FLOQUET, "resonance", "resonance.json", (),
         _run_resonance, None, lambda r: {"resonance": r.resonance.summary()}),
    Step(Stage.FRAMES, "bundle", "frames.json", (),
         _run_frames, load_frames, _frames_entries),
    Step(
        Stage.MANIFOLD, "manifold", "manifold.json",
        ("manifold.order", "manifold.gauge", "solver.small_divisor_tol"),
        _run_manifold, load_manifold,
        lambda r: {
            "manifold_residuals": list(r.manifold.residuals),
            "manifold_divisor_minima": {
                str(k): v for k, v in r.manifold.divisor_minima.items()
            },
        },
    ),
    Step(Stage.RESPONSE, "response", "response.json", ("solver.solvability_tol",),
         _run_response, load_response, _response_entries),
    Step(
        Stage.VALIDATE, "validation", "validation.json",
        ("validation.tolerances", "validation.samples", "run.seed"),
        _run_validation, None, lambda r: {"validation": r.validation.summary()},
    ),
)


def run_pipeline(
    config: RunConfig,
    through: str = Stage.VALIDATE,
    resume: PipelineResult | None = None,
) -> PipelineResult:
    """Execute stages up to ``through`` inclusive, persisting artifacts in
    ``config.out_dir``.

    ``resume`` carries artifacts of earlier stages (e.g. loaded from disk by
    the CLI); stages with artifacts present are skipped.
    """
    config = config.validate()
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    result = resume or PipelineResult(config=config)
    result.config = config
    result.model = get_model(config.model, config.model_params)
    guess = config.effective_guess()
    if len(guess) != result.model.dim:
        raise ConfigError(
            f"cycle.guess has {len(guess)} values, but model '{config.model}' "
            f"has dimension {result.model.dim}"
        )
    last = Stage.ORDER.index(through)
    try:
        for step in STAGES:
            if Stage.ORDER.index(step.stage) > last:
                break
            if getattr(result, step.field) is None:
                step.run(result)
    except SlowphaseError as exc:
        _write_manifest(out, result, step.stage, str(exc))
        raise
    _write_manifest(out, result, None, None)
    return result


def _write_manifest(out, result: PipelineResult, failed_stage, error):
    result.manifest = manifest = {
        "tool": "slowphase",
        "version": __version__,
        "config": result.config.echo_text(),
        "failed_stage": failed_stage,
        "error": error,
    }
    for step in STAGES:
        if getattr(result, step.field) is not None:
            manifest.update(step.manifest(result))
    inventory = {}
    for name in sorted(os.listdir(out)):
        if name == "manifest.json" or not name.endswith((".npy", ".csv", ".json")):
            continue
        inventory[name] = sha256_file(os.path.join(out, name))
    manifest["files"] = inventory
    write_json(os.path.join(out, "manifest.json"), manifest)


def load_result(config: RunConfig) -> PipelineResult:
    """Load the artifacts of consecutive stored stages in ``config.out_dir``,
    each on the grid of the loaded cycle; loading stops at the first stage
    whose metadata file is missing.  The cycle is the shooting one, without
    its pass or series, or, once the frames stage loaded, the polished one.

    Raises ``ConfigError`` naming the file when the ``inputs`` a metadata file
    records differ from the config's (see :func:`_inputs`: the stage was built
    under another config), with each differing key's stored and requested
    values; when a metadata file does not parse, lacks a field (``inputs`` too),
    holds an unknown one or a grid size that is not a power of two; when a
    coefficient file is missing, truncated, of the wrong dtype or shape, or
    non-finite; and then when ``manifest.json`` is missing, or a file read is
    absent from its inventory or differs from its sha256 there.  So stale or
    corrupt artifacts are never resumed.
    """
    result = PipelineResult(config=config)
    result.model = get_model(config.model, config.model_params)
    digests = {}  # path -> sha256 of every file the loaders read
    for step in STAGES:
        if step.load is None:
            continue
        path = os.path.join(config.out_dir, step.meta)
        if not os.path.exists(path):
            break
        try:
            meta = read_json(path, digests)
            stored, wanted = dict(meta.pop("inputs")), _inputs(result, step.meta)
            if stored != wanted:
                raise _stale(path, step.stage, stored, wanted)
            step.load(result, meta, digests)
        except (TypeError, KeyError, ValueError, GridError) as exc:
            raise ConfigError(
                f"{path}: malformed metadata ({type(exc).__name__}: {exc})"
            ) from exc
    if digests:
        _check_inventory(config.out_dir, digests)
    return result


def _stale(path, stage, stored, wanted) -> ConfigError:
    """The error naming each key whose stored value the config changes."""
    keys = sorted(k for k in stored.keys() | wanted.keys() if stored.get(k) != wanted.get(k))
    changed = "; ".join(f"{k} = {stored.get(k, 'unset')} -> {wanted.get(k, 'unset')}" for k in keys)
    return ConfigError(
        f"{path}: stale {stage} stage, built under other config values "
        f"(stored -> requested): {changed}"
    )


def _check_inventory(out, digests):
    """Match each digest against the file inventory of the manifest."""
    path = os.path.join(out, "manifest.json")
    try:
        inventory = dict(read_json(path)["files"])
    except FileNotFoundError as exc:
        raise ConfigError(
            f"{path}: manifest missing, so the stored artifacts cannot be checked"
        ) from exc
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(
            f"{path}: malformed manifest ({type(exc).__name__}: {exc})"
        ) from exc
    for file, digest in digests.items():
        expected = inventory.get(os.path.basename(file))
        if expected is None:
            raise ConfigError(f"{file}: not in the file inventory of {path}")
        if digest != expected:
            raise ConfigError(
                f"{file}: sha256 differs from the file inventory of {path} "
                "(changed after the run wrote it)"
            )
