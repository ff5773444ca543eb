"""Pipeline orchestration and artifact persistence.

Stages: cycle -> floquet (+divisor tables) -> frames (+adjoint cross-check)
-> manifold -> response -> validation.  The table ``STAGES`` gives each step
its metadata file, the config keys it reads, and its compute-and-save and
load steps; :func:`run_pipeline` and :func:`load_result` loop over it.  Each
file has one writer: a step's run calls only its own ``save_*``, once it
succeeded.  A stored stage writes a JSON metadata file, keyed by the fields
of its result dataclass that it computes and ``inputs`` (the config echo of
the keys it and every earlier stored stage read, see :func:`_inputs`), and a
``.npy`` file per stored series; a field that ``inputs`` or an earlier file
fixes is rebuilt on load.  The cycle stage stores the shooting anchor and
period, not its pass, which is recomputed from them.  The floquet stage
stores the monodromy alone: the loader classifies it again with
:func:`~slowphase.cycle.floquet_spectrum`.  The frames stage stores
the polished period, the adjoint cross-check's report and the frames'
exponents and residuals in ``frames.json`` (their classes are the
spectrum's), the polished orbit in ``cycle_coeff.npy`` (N/2 + 1, d), and
``frame_{bundle,adjoint}_coeff.npy`` (N, d, d); ``manifold_coeff.npy`` and
``response_{phase,amplitude}_coeff.npy`` are (orders, N/2 + 1, d): real
series one-sided, complex frames all N rows (:mod:`slowphase.series`), all
of period 1.  The divisor tables and the validation are recomputed on every
run, never loaded.  The manifest is the run's provenance alone: the
configuration echo, the failed stage and its error, and a checksummed file
inventory, against which :func:`load_result` checks every file it reads;
every number lives in its stage file.  The inventory is
``PipelineResult.digests``, the sha256 of each file in the output directory
that the run read or wrote; any other file stays there unlisted and refused.
A recursion divisor below ``solver.small_divisor_tol`` (a resonance) or a
hyperbolicity failure aborts the run in the floquet stage; finished stages
keep their files and the manifest records the failed one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import PARAMS_PREFIX, RunConfig, _show
from .cycle import (CycleResult, FloquetSpectrum, check_resonances, find_cycle,
                    floquet_spectrum, variational_sweep)
from .errors import ConfigError, GridError, NumericalError, ResonanceError, SlowphaseError
from .frames import Frame, build_adjoint_frame, build_bundle_frame, cross_check_adjoint_frame
from .manifold import ManifoldExpansion, expand_slow_manifold, slow_exponent
from .models import get_model
from .response import ResponseExpansion, expand_response_functions
from .series import FourierSeries, FourierTaylor
from .store import read_bytes, read_coeffs, read_json, write_coeffs, write_json, write_rows_csv
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
    # path -> sha256 of every file this run read or wrote, for the manifest
    digests: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# artifact codec; a loader decodes the metadata that load_result read and checked

def _meta(obj, skip=()) -> dict:
    """Fields of dataclass ``obj`` except ``skip``, keyed by field name."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def _exact(meta: dict, *keys) -> dict:
    """``meta``, which must hold exactly ``keys``: a key this version does
    not write, or a missing one, is malformed metadata."""
    unknown, missing = sorted(meta.keys() - set(keys)), sorted(set(keys) - meta.keys())
    if unknown or missing:
        raise TypeError(f"unknown keys {unknown}, missing keys {missing}")
    return meta


def _number(name, value, shape=(), kind=float, low=-math.inf, high=math.inf):
    """``value``, a number of a stage file or nested lists of them of
    ``shape`` (a None entry: any length), returned as it is once every number
    is of type ``kind`` (a bool, an integer or a string is no float), finite
    and in (low, high].  A ValueError names ``name`` otherwise."""
    array = np.asarray(value, dtype=object)
    if len(array.shape) != len(shape) or any(
            want not in (None, got) for got, want in zip(array.shape, shape)):
        raise ValueError(f"{name}: shape {array.shape}, not {shape}")
    for x in array.flat:
        if type(x) is not kind or not math.isfinite(x) or not low < x <= high:
            raise ValueError(f"{name}: {x!r} is not a finite {kind.__name__} in "
                             f"({low}, {high}]")
    return value


def _complex(pairs) -> np.ndarray:
    """Complex array from nested [re, im] pairs, exact down to signed zeros."""
    return np.asarray(pairs, dtype=float).view(complex)[..., 0]


def _read(result, name, shape) -> np.ndarray:
    path = os.path.join(result.config.out_dir, f"{name}_coeff.npy")
    return read_coeffs(path, shape, result.digests)


def _load_orders(result, name, order) -> FourierTaylor:
    # every stored expansion is real, on the grid of the loaded cycle
    shape = (order + 1, result.cycle.grid_size // 2 + 1, len(result.cycle.anchor))
    return FourierTaylor(_read(result, name, shape), real=True)


def save_cycle(out, cycle: CycleResult, inputs: dict, digests: dict | None = None):
    meta = _meta(cycle, skip=("series", "sweep", "grid_size"))
    write_json(os.path.join(out, "cycle.json"), {**meta, "inputs": inputs}, digests)


def load_cycle(result, meta):
    meta["anchor"] = np.asarray(_number("anchor", meta["anchor"], (result.model.dim,)))
    _number("period", meta["period"], low=0.0)
    _number("shooting_residual", meta["shooting_residual"])
    search = _exact(meta["search"], "relax_returns", "relaxed_time", "return_gap",
                    "newton_steps")
    _number("search.relax_returns", search["relax_returns"], kind=int, low=0)
    for key in ("relaxed_time", "return_gap"):
        _number(f"search.{key}", search[key])
    _number("search.newton_steps", search["newton_steps"], (None,))
    result.cycle = CycleResult(**meta, grid_size=result.config.grid_size)


def save_spectrum(out, spectrum: FloquetSpectrum, inputs: dict, digests: dict | None = None):
    # every other field is floquet_spectrum's function of the monodromy
    meta = {"monodromy": spectrum.monodromy, "inputs": inputs}
    write_json(os.path.join(out, "spectrum.json"), meta, digests)


def load_spectrum(result, meta):
    # the shooting period: the frames stage, which polishes it, loads later
    dim = result.model.dim
    monodromy = np.asarray(_number("monodromy", _exact(meta, "monodromy")["monodromy"],
                                   (dim, dim)))
    result.spectrum = floquet_spectrum(monodromy, result.cycle.period)


def save_frames(out, result: PipelineResult, inputs: dict):
    """Write the polished orbit and period, the complex frames, and the
    adjoint cross-check's report as the ``crosscheck`` entry."""
    digests = result.digests
    write_coeffs(os.path.join(out, "cycle_coeff.npy"), result.cycle.series.coef, digests)
    meta = {"period": result.cycle.period, "band_cut": result.band_cut,
            "crosscheck": result.crosscheck, "inputs": inputs}
    for name in ("bundle", "adjoint"):
        frame = getattr(result, name)
        write_coeffs(os.path.join(out, f"frame_{name}_coeff.npy"), frame.series.coef, digests)
        meta[name] = _meta(frame, skip=("series", "classes"))
    write_json(os.path.join(out, "frames.json"), meta, digests)


def load_frames(result, meta):
    """Replace the shooting cycle by the polished one, anchored at its theta =
    0 sample.  Only the complex frames, the only ones the pipeline uses, are
    stored: ``build_real_frames`` recomputes the real ones for an export.
    Their classes are the loaded spectrum's.  An unknown key is refused,
    as the dataclass loaders refuse an unknown field."""
    _exact(meta, "period", "band_cut", "crosscheck", "bundle", "adjoint")
    crosscheck = _exact(meta["crosscheck"], "eigenvalue_duality_rel_errors",
                        "psi_phi_identity_defect", "column_discrepancies")
    grid_size, dim = result.cycle.grid_size, len(result.cycle.anchor)
    _number("period", meta["period"], low=0.0)
    # the range _active_bandwidth returns
    _number("band_cut", meta["band_cut"], kind=int, low=0, high=grid_size // 3)
    for key, value in crosscheck.items():
        shape = () if key == "psi_phi_identity_defect" else (dim,)
        _number(f"crosscheck.{key}", value, shape)
    series = FourierSeries(_read(result, "cycle", (grid_size // 2 + 1, dim)), real=True)
    result.cycle = replace(result.cycle, anchor=series.samples()[0].copy(),
                           period=meta["period"], series=series)
    result.band_cut, result.crosscheck = meta["band_cut"], meta["crosscheck"]
    for name in ("bundle", "adjoint"):
        frame = _exact(meta[name], "exponents", "residual")
        _number(f"{name}.residual", frame["residual"])
        frame["exponents"] = _complex(_number(f"{name}.exponents", frame["exponents"],
                                              (dim, 2)))
        coef = _read(result, f"frame_{name}", (grid_size, dim, dim))
        setattr(result, name, Frame(series=FourierSeries(coef),
                                    classes=result.spectrum.classes, **frame))


def save_manifold(out, manifold: ManifoldExpansion, inputs: dict, digests: dict | None = None):
    write_coeffs(os.path.join(out, "manifold_coeff.npy"), manifold.coeffs.coef, digests)
    meta = {"residuals": manifold.residuals, "conjugation_drift": manifold.conjugation_drift,
            "inputs": inputs}
    write_json(os.path.join(out, "manifold.json"), meta, digests)


def load_manifold(result, meta):
    config = result.config
    _exact(meta, "residuals", "conjugation_drift")
    meta["residuals"] = np.asarray(_number("residuals", meta["residuals"],
                                           (config.order + 2,)))
    _number("conjugation_drift", meta["conjugation_drift"])
    result.manifold = ManifoldExpansion(
        coeffs=_load_orders(result, "manifold", config.order + 1),
        nominal_order=config.order, period=result.cycle.period,
        slow_exponent=slow_exponent(result.bundle), gauge=config.gauge, **meta,
    )


def save_response(out, response: ResponseExpansion, inputs: dict, digests: dict | None = None):
    write_coeffs(os.path.join(out, "response_phase_coeff.npy"), response.phase.coef, digests)
    write_coeffs(os.path.join(out, "response_amplitude_coeff.npy"), response.amplitude.coef,
                 digests)
    meta = {**_meta(response, skip=("phase", "amplitude")), "inputs": inputs}
    write_json(os.path.join(out, "response.json"), meta, digests)


def load_response(result, meta):
    order = result.config.order
    for key in ("phase_residuals", "amplitude_residuals"):
        meta[key] = np.asarray(_number(key, meta[key], (order + 1,)))
    for key in ("solvability_residual", "free_coefficient", "normalization_defect",
                "conjugation_drift"):
        _number(key, meta[key])
    result.response = ResponseExpansion(
        phase=_load_orders(result, "response_phase", order),
        amplitude=_load_orders(result, "response_amplitude", order),
        **meta,
    )


def save_validation(out, report, digests: dict | None = None):
    payload = report.summary()
    payload["orthogonality"] = report.orthogonality
    payload["trajectory"] = report.trajectory
    write_json(os.path.join(out, "validation.json"), payload, digests)
    domain = report.domain
    header, columns = ["theta"], [domain.theta]
    for tol, pos, neg in zip(domain.tolerances, domain.sigma_pos, domain.sigma_neg):
        label = tolerance_labels(tol)[1]
        header += [f"sigma_max_pos_{label}", f"sigma_max_neg_{label}"]
        columns += [pos, neg]
    # '%.17g' formats Python floats faster than numpy scalars, to the same bytes
    rows = zip(*(column.tolist() for column in columns))
    write_rows_csv(os.path.join(out, "accuracy_domain.csv"), header, rows, digests)


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
    save_cycle(config.out_dir, result.cycle, _inputs(result, "cycle.json"), result.digests)


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
    result.spectrum = floquet_spectrum(cycle_sweep(result).product(), result.cycle.period)
    save_spectrum(result.config.out_dir, result.spectrum, _inputs(result, "spectrum.json"),
                  result.digests)


def _run_resonance(result):
    config = result.config
    result.resonance = check_resonances(result.spectrum, config.order)
    write_json(os.path.join(config.out_dir, "resonance.json"), result.resonance.summary(),
               result.digests)
    table, n, j, divisor = result.resonance.smallest()
    if not divisor >= config.small_divisor_tol:  # a NaN divisor too
        raise ResonanceError(
            f"{table} divisor of order {n} in direction {j} is {divisor:.3e}, below "
            f"solver.small_divisor_tol = {_show(config.small_divisor_tol)}"
        )


def _run_frames(result):
    model, sweep = result.model, cycle_sweep(result)
    cycle, bundle, band_cut = build_bundle_frame(model, result.cycle, result.spectrum)
    adjoint = build_adjoint_frame(model, cycle, bundle, band_cut)
    crosscheck = cross_check_adjoint_frame(bundle, adjoint, sweep, cycle.period)
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
    save_manifold(config.out_dir, result.manifold, _inputs(result, "manifold.json"),
                  result.digests)


def _run_response(result):
    config = result.config
    result.response = expand_response_functions(
        result.model, result.manifold, result.bundle, result.adjoint, order=config.order,
        small_divisor_tol=config.small_divisor_tol,
        solvability_tol=config.solvability_tol,
    )
    save_response(config.out_dir, result.response, _inputs(result, "response.json"),
                  result.digests)


def _run_validation(result):
    config = result.config
    result.validation = run_validation(
        result.model, result.manifold, result.response, tolerances=config.tolerances,
        n_samples=config.n_samples, seed=config.seed, settings=config.integrator,
    )
    save_validation(config.out_dir, result.validation, result.digests)


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
    load: Callable | None  # (result, meta); None: never loaded


STAGES = (
    Step(
        Stage.CYCLE, "cycle", "cycle.json",
        ("model.name", "integrator.rtol", "integrator.atol", "integrator.max_steps",
         "cycle.guess", "cycle.relax_time", "cycle.newton_tol", "cycle.grid_N"),
        _run_cycle, load_cycle,
    ),
    Step(Stage.FLOQUET, "spectrum", "spectrum.json", (), _run_spectrum, load_spectrum),
    # reads manifold.order and solver.small_divisor_tol, which the manifold
    # step declares; recomputed on every run, so neither makes a stored stage
    # stale
    Step(Stage.FLOQUET, "resonance", "resonance.json", (), _run_resonance, None),
    Step(Stage.FRAMES, "bundle", "frames.json", (), _run_frames, load_frames),
    Step(
        Stage.MANIFOLD, "manifold", "manifold.json",
        ("manifold.order", "manifold.gauge", "solver.small_divisor_tol"),
        _run_manifold, load_manifold,
    ),
    Step(Stage.RESPONSE, "response", "response.json", ("solver.solvability_tol",),
         _run_response, load_response),
    Step(
        Stage.VALIDATE, "validation", "validation.json",
        ("validation.tolerances", "validation.samples", "run.seed"),
        _run_validation, None,
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
    the CLI); stages with artifacts present are skipped.  The run goes into
    a copy of ``resume`` with its own ``digests``, so ``resume`` is left as
    it was, but for :func:`cycle_sweep` on its loaded cycle.
    """
    config = config.validate()
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    result = (PipelineResult(config=config) if resume is None
              else replace(resume, config=config, digests=dict(resume.digests)))
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
    """The run's provenance: config echo, failure record and the sha256
    inventory of the files in ``out`` that this run read or wrote (not those
    of a resumed result's other directory), each with the digest of those
    bytes, so one changed on disk since is refused on the next load."""
    here = os.path.abspath(out)
    inventory = {os.path.basename(path): digest for path, digest in sorted(result.digests.items())
                 if os.path.dirname(os.path.abspath(path)) == here}
    result.manifest = {
        "tool": "slowphase",
        "version": __version__,
        "config": result.config.echo_text(),
        "failed_stage": failed_stage,
        "error": error,
        "files": inventory,
    }
    write_json(os.path.join(out, "manifest.json"), result.manifest)


def load_result(config: RunConfig) -> PipelineResult:
    """Load the artifacts of consecutive stored stages in ``config.out_dir``,
    each on the grid of the loaded cycle; loading stops at the first stage
    whose metadata file is missing.  The cycle is the shooting one, without
    its pass or series, or, once the frames stage loaded, the polished one.

    Raises ``ConfigError`` naming the file when the ``inputs`` a metadata file
    records differ from the config's (see :func:`_inputs`: the stage was built
    under another config), with each differing key's stored and requested
    values; when a metadata file does not parse, lacks a field (``inputs`` too)
    or holds an unknown one (a field rebuilt on load included), holds a
    number that is not finite, of its type and shape and in its range (see
    :func:`_number`: a period is positive, a band cut in 1..N // 3), or holds
    a monodromy that :func:`floquet_spectrum` refuses; when a
    coefficient file is missing, truncated, of the wrong dtype or shape, or
    non-finite; and then when ``manifest.json`` is missing, or a file read is
    absent from its inventory or differs from its sha256 there.  So stale or
    corrupt artifacts are never resumed.
    """
    result = PipelineResult(config=config)
    result.model = get_model(config.model, config.model_params)
    for step in STAGES:
        if step.load is None:
            continue
        path = os.path.join(config.out_dir, step.meta)
        if not os.path.exists(path):
            break
        try:
            meta = read_json(path, result.digests)
            stored, wanted = dict(meta.pop("inputs")), _inputs(result, step.meta)
            if stored != wanted:
                raise _stale(path, step.stage, stored, wanted)
            step.load(result, meta)
        except (TypeError, KeyError, ValueError, GridError, NumericalError) as exc:
            raise ConfigError(
                f"{path}: malformed metadata ({type(exc).__name__}: {exc})"
            ) from exc
    if result.digests:
        _check_inventory(config.out_dir, result.digests, _read_manifest(config.out_dir)[1])
    return result


def _stale(path, stage, stored, wanted) -> ConfigError:
    """The error naming each key whose stored value the config changes."""
    keys = sorted(k for k in stored.keys() | wanted.keys() if stored.get(k) != wanted.get(k))
    changed = "; ".join(f"{k} = {stored.get(k, 'unset')} -> {wanted.get(k, 'unset')}" for k in keys)
    return ConfigError(
        f"{path}: stale {stage} stage, built under other config values "
        f"(stored -> requested): {changed}"
    )


def _read_manifest(out) -> tuple:
    """The bytes of the manifest in ``out`` and its file inventory."""
    path = os.path.join(out, "manifest.json")
    try:
        data = read_bytes(path)
        return data, dict(json.loads(data)["files"])
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: manifest missing, so the stored artifacts cannot be "
                          "checked") from exc
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from exc


def _check_inventory(out, digests, inventory):
    """Match each digest against ``inventory``, that of the manifest in ``out``."""
    path = os.path.join(out, "manifest.json")
    for file, digest in digests.items():
        expected = inventory.get(os.path.basename(file))
        if expected is None:
            raise ConfigError(f"{file}: not in the file inventory of {path}")
        if digest != expected:
            raise ConfigError(
                f"{file}: sha256 differs from the file inventory of {path} "
                "(changed after the run wrote it)"
            )
