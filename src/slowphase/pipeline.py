"""Pipeline orchestration and artifact persistence.

Stages: cycle -> floquet -> resonances -> frames (+independent cross-check)
-> manifold -> response -> validation.  Each stage writes its artifacts into
the output directory so later subcommands can resume without recomputation:
one JSON metadata file keyed by the fields of its result dataclass, and one
``.npy`` coefficient file per stored series or expansion (``cycle_coeff.npy``
of shape (N, d); ``frame_{bundle,adjoint}_coeff.npy``, (N, d, d);
``manifold_coeff.npy`` and ``response_{phase,amplitude}_coeff.npy``, (orders,
N, d)).  Every stored series has period 1.  The manifest records the
configuration echo, the spectral tables, per-order residuals, and a
checksummed file inventory, against which :func:`load_result` checks every
file it reads.  A flagged resonance or a hyperbolicity failure aborts the
run; artifacts produced so far are kept and the manifest records the failed
stage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .config import RunConfig
from .cycle import (
    CycleResult,
    FloquetSpectrum,
    check_resonances,
    find_cycle,
    floquet_spectrum,
)
from .errors import ConfigError, ResonanceError, SlowphaseError
from .frames import (
    Frame,
    build_adjoint_frame,
    build_bundle_frame,
    cross_check_adjoint_frame,
)
from .manifold import ManifoldExpansion, expand_slow_manifold
from .models import get_model
from .response import ResponseExpansion, expand_response_functions
from .series import FourierSeries, FourierTaylor
from .store import (
    read_coeffs,
    read_json,
    sha256_file,
    write_coeffs,
    write_json,
    write_rows_csv,
)
from .validation import run_validation

__all__ = ["PipelineResult", "run_pipeline", "Stage", "load_result"]


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


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# artifact codec: each stage writes one JSON metadata file, keyed by the
# field names of its result dataclass, plus its coefficient arrays

def _meta(obj, skip=()) -> dict:
    """Fields of dataclass ``obj`` except ``skip``, keyed by field name."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def _complex(pairs) -> np.ndarray:
    """Complex array from nested [re, im] pairs, exact down to signed zeros."""
    return np.asarray(pairs, dtype=float).view(complex)[..., 0]


def _grid(out, grid=None) -> tuple:
    """(grid size, dimension) of the stored cycle, shared by every stored series.

    ``load_result`` passes the grid of the cycle it already loaded; a loader
    called on its own reads it from ``cycle.json``.
    """
    if grid is not None:
        return grid
    meta = read_json(os.path.join(out, "cycle.json"))
    return meta["grid_size"], len(meta["anchor"])


def _save_orders(out, prefix, taylor: FourierTaylor):
    coef = np.stack([series.coef for series in taylor.orders])
    write_coeffs(os.path.join(out, f"{prefix}_coeff.npy"), coef)


def _load_orders(out, prefix, order, digests, grid) -> FourierTaylor:
    shape = (order + 1, *_grid(out, grid))
    coef = read_coeffs(os.path.join(out, f"{prefix}_coeff.npy"), shape, digests)
    return FourierTaylor(tuple(FourierSeries(c) for c in coef))


def save_cycle(out, cycle: CycleResult):
    write_coeffs(os.path.join(out, "cycle_coeff.npy"), cycle.series.coef)
    write_json(os.path.join(out, "cycle.json"), _meta(cycle, skip=("series", "samples")))


def load_cycle(out, digests=None) -> CycleResult:
    meta = read_json(os.path.join(out, "cycle.json"), digests)
    meta["anchor"] = np.asarray(meta["anchor"])
    shape = (meta["grid_size"], len(meta["anchor"]))
    coef = read_coeffs(os.path.join(out, "cycle_coeff.npy"), shape, digests)
    series = FourierSeries(coef)
    return CycleResult(series=series, samples=series.samples().real, **meta)


def save_spectrum(out, spectrum: FloquetSpectrum):
    # eigenvectors are stored column by column
    meta = {**_meta(spectrum), "eigenvectors": spectrum.eigenvectors.T}
    write_json(os.path.join(out, "spectrum.json"), meta)


def load_spectrum(out, digests=None) -> FloquetSpectrum:
    meta = read_json(os.path.join(out, "spectrum.json"), digests)
    for key in ("multipliers", "exponents"):
        meta[key] = _complex(meta[key])
    meta["eigenvectors"] = _complex(meta["eigenvectors"]).T
    meta["lyapunov"] = np.asarray(meta["lyapunov"])
    meta["monodromy"] = np.asarray(meta["monodromy"])
    meta["classes"] = tuple(meta["classes"])
    return FloquetSpectrum(**meta)


def save_frames(out, result: PipelineResult):
    """Write the complex frames, the only frames the pipeline uses."""
    meta = {"band_cut": result.band_cut}
    for name in ("bundle", "adjoint"):
        frame = getattr(result, name)
        write_coeffs(os.path.join(out, f"frame_{name}_coeff.npy"), frame.series.coef)
        meta[name] = _meta(frame, skip=("series",))
    if result.crosscheck is not None:
        write_json(os.path.join(out, "adjoint_crosscheck.json"), result.crosscheck)
    write_json(os.path.join(out, "frames.json"), meta)


def load_frames(out, digests=None, grid=None) -> dict:
    """PipelineResult fields of the frames stage.

    Only the complex frames are stored: ``build_real_frames`` recomputes the
    real frames exactly when an export needs them.
    """
    meta = read_json(os.path.join(out, "frames.json"), digests)
    grid_size, dim = _grid(out, grid)
    loaded = {"band_cut": meta["band_cut"]}
    for name in ("bundle", "adjoint"):
        frame = meta[name]
        frame["exponents"] = _complex(frame["exponents"])
        frame["classes"] = tuple(frame["classes"])
        path = os.path.join(out, f"frame_{name}_coeff.npy")
        coef = read_coeffs(path, (grid_size, dim, dim), digests)
        loaded[name] = Frame(series=FourierSeries(coef), **frame)
    path = os.path.join(out, "adjoint_crosscheck.json")
    if os.path.exists(path):
        loaded["crosscheck"] = read_json(path, digests)
    return loaded


def save_manifold(out, manifold: ManifoldExpansion):
    _save_orders(out, "manifold", manifold.coeffs)
    meta = _meta(manifold, skip=("coeffs",))
    meta["total_order"] = manifold.total_order
    # text keys, so the file sorts them as text ("10" before "2")
    meta["divisor_minima"] = {str(k): v for k, v in manifold.divisor_minima.items()}
    write_json(os.path.join(out, "manifold.json"), meta)


def load_manifold(out, digests=None, grid=None) -> ManifoldExpansion:
    meta = read_json(os.path.join(out, "manifold.json"), digests)
    coeffs = _load_orders(out, "manifold", meta.pop("total_order"), digests, grid)
    meta["residuals"] = np.asarray(meta["residuals"])
    meta["divisor_minima"] = {int(k): v for k, v in meta["divisor_minima"].items()}
    return ManifoldExpansion(coeffs=coeffs, **meta)


def save_response(out, response: ResponseExpansion):
    _save_orders(out, "response_phase", response.phase)
    _save_orders(out, "response_amplitude", response.amplitude)
    meta = _meta(response, skip=("phase", "amplitude"))
    meta["order"] = response.order
    write_json(os.path.join(out, "response.json"), meta)


def load_response(out, digests=None, grid=None) -> ResponseExpansion:
    meta = read_json(os.path.join(out, "response.json"), digests)
    order = meta.pop("order")
    for key in ("phase_residuals", "amplitude_residuals"):
        meta[key] = np.asarray(meta[key])
    return ResponseExpansion(
        phase=_load_orders(out, "response_phase", order, digests, grid),
        amplitude=_load_orders(out, "response_amplitude", order, digests, grid),
        **meta,
    )


def save_validation(out, report):
    payload = report.summary()
    payload["orthogonality"] = report.orthogonality
    payload["trajectory"] = report.trajectory
    write_json(os.path.join(out, "validation.json"), payload)
    domain = report.domain
    header = ["theta"]
    for tol in domain.tolerances:
        header += [f"sigma_max_pos_{tol:.0e}", f"sigma_max_neg_{tol:.0e}"]
    rows = []
    for i, th in enumerate(domain.theta):
        row = [th]
        for t_i in range(len(domain.tolerances)):
            row += [domain.sigma_pos[t_i][i], domain.sigma_neg[t_i][i]]
        rows.append(row)
    write_rows_csv(os.path.join(out, "accuracy_domain.csv"), header, rows)


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
    out = _ensure_dir(config.out_dir)
    result = resume or PipelineResult(config=config)
    result.config = config
    result.model = get_model(config.model, config.model_params)
    model = result.model
    guess = config.effective_guess()
    if len(guess) != model.dim:
        raise ConfigError(
            f"cycle.guess has {len(guess)} values, but model '{config.model}' "
            f"has dimension {model.dim}"
        )
    last = Stage.ORDER.index(through)
    stage = None  # the stage running, recorded if it fails

    try:
        if last >= 0 and result.cycle is None:
            stage = Stage.CYCLE
            result.cycle = find_cycle(
                model,
                np.asarray(guess, dtype=float),
                settings=config.integrator,
                grid_size=config.grid_size,
                relax_time=config.relax_time,
                newton_tol=config.newton_tol,
            )
            save_cycle(out, result.cycle)

        if last >= 1:
            stage = Stage.FLOQUET
            if result.spectrum is None:
                result.spectrum = floquet_spectrum(
                    model, result.cycle.anchor, result.cycle.period, config.integrator
                )
                save_spectrum(out, result.spectrum)
            if result.resonance is None:
                order = config.resonance_order or max(config.order, 2)
                result.resonance = check_resonances(
                    result.spectrum, order, config.resonance_tol
                )
                write_json(
                    os.path.join(out, "resonance.json"), result.resonance.summary()
                )
                if result.resonance.is_resonant:
                    worst = result.resonance.flagged[0]
                    raise ResonanceError(
                        f"flagged resonance: multi-index {worst[0]} against "
                        f"direction {worst[1] + 1}, residual {worst[2]:.3e}"
                    )

        if last >= 2 and result.bundle is None:
            stage = Stage.FRAMES
            build = build_bundle_frame(
                model,
                result.cycle,
                result.spectrum,
                settings=config.integrator,
            )
            result.bundle = build.bundle
            result.cycle = build.cycle  # spectrally polished orbit and period
            result.band_cut = build.diagnostics["band_cut"]
            save_cycle(out, result.cycle)
            jac = model.jacobian(result.cycle.samples)
            result.adjoint = build_adjoint_frame(
                result.bundle, jac, result.cycle.period, k_cut=result.band_cut
            )
            result.crosscheck = cross_check_adjoint_frame(
                model,
                result.cycle,
                result.spectrum,
                result.bundle,
                result.adjoint,
                settings=config.integrator,
            )
            save_frames(out, result)

        if last >= 3 and result.manifold is None:
            stage = Stage.MANIFOLD
            result.manifold = expand_slow_manifold(
                model,
                result.cycle,
                result.bundle,
                result.adjoint,
                order=config.order,
                extra_orders=config.extra_orders,
                gauge=config.gauge,
                small_divisor_tol=config.small_divisor_tol,
            )
            save_manifold(out, result.manifold)

        if last >= 4 and result.response is None:
            stage = Stage.RESPONSE
            result.response = expand_response_functions(
                model,
                result.manifold,
                result.bundle,
                result.adjoint,
                order=config.order,
                small_divisor_tol=config.small_divisor_tol,
                solvability_tol=config.solvability_tol,
            )
            save_response(out, result.response)

        if last >= 5 and result.validation is None:
            stage = Stage.VALIDATE
            result.validation = run_validation(
                model,
                result.manifold,
                result.response,
                tolerances=config.tolerances,
                scan_max=config.sigma_scan_max,
                n_samples=config.n_samples,
                horizon_periods=config.horizon_periods,
                seed=config.seed,
                settings=config.integrator,
            )
            save_validation(out, result.validation)
    except SlowphaseError as exc:
        result.manifest = _build_manifest(out, result, stage, str(exc))
        write_json(os.path.join(out, "manifest.json"), result.manifest)
        raise

    result.manifest = _build_manifest(out, result, None, None)
    write_json(os.path.join(out, "manifest.json"), result.manifest)
    return result


def _build_manifest(out, result: PipelineResult, failed_stage, error) -> dict:
    manifest = {
        "tool": "slowphase",
        "version": __version__,
        "config": result.config.echo_text(),
        "failed_stage": failed_stage,
        "error": error,
    }
    if result.cycle is not None:
        manifest["period"] = result.cycle.period
        manifest["shooting_residual"] = result.cycle.shooting_residual
    if result.spectrum is not None:
        spectrum = result.spectrum
        manifest["multipliers_shooting"] = [
            [z.real, z.imag] for z in spectrum.multipliers
        ]
        manifest["exponents_shooting"] = [
            [z.real, z.imag] for z in spectrum.exponents
        ]
        manifest["lyapunov"] = list(map(float, spectrum.lyapunov))
        manifest["classes"] = list(spectrum.classes)
        manifest["hyperbolicity_defect"] = spectrum.hyperbolicity_defect
    if result.resonance is not None:
        manifest["resonance"] = result.resonance.summary()
    if result.bundle is not None:
        # table recomputed from the polished Floquet frame: the refined
        # exponents are spectrally accurate, unlike raw eigenvalues of the
        # monodromy for strongly contracting directions
        T = result.cycle.period
        refined = result.bundle.exponents
        manifest["exponents"] = [[z.real, z.imag] for z in refined]
        manifest["multipliers"] = [
            [np.exp(z * T).real, np.exp(z * T).imag] for z in refined
        ]
        manifest["frame_residuals"] = {
            "bundle": result.bundle.residual,
            "adjoint": result.adjoint.residual if result.adjoint else None,
        }
        manifest["band_cut"] = result.band_cut
    if result.crosscheck is not None:
        manifest["adjoint_crosscheck"] = {
            k: (list(v) if isinstance(v, np.ndarray) else v)
            for k, v in result.crosscheck.items()
        }
    if result.manifold is not None:
        manifest["manifold_residuals"] = list(result.manifold.residuals)
        manifest["manifold_divisor_minima"] = {
            str(k): v for k, v in result.manifold.divisor_minima.items()
        }
    if result.response is not None:
        manifest["response"] = {
            "solvability_residual": result.response.solvability_residual,
            "normalization_defect": result.response.normalization_defect,
            "phase_residuals": list(result.response.phase_residuals),
            "amplitude_residuals": list(result.response.amplitude_residuals),
        }
    if result.validation is not None:
        manifest["validation"] = result.validation.summary()

    inventory = {}
    for name in sorted(os.listdir(out)):
        if name == "manifest.json" or not name.endswith((".npy", ".csv", ".json")):
            continue
        inventory[name] = sha256_file(os.path.join(out, name))
    manifest["files"] = inventory
    return manifest


def load_result(config: RunConfig) -> PipelineResult:
    """Load the artifacts of consecutive stages that exist in ``config.out_dir``.

    A stage whose metadata file is missing has not run; loading stops there.
    Raises ``ConfigError`` when a metadata file does not parse, lacks a field
    or holds one its loader does not know; when a coefficient file of a stage
    whose metadata exists is missing, truncated, of the wrong dtype or shape,
    or non-finite; when the stored cycle was computed on another grid, or a
    stored manifold or response to another order, than ``config`` asks for;
    and, these checks passed, when ``manifest.json`` is missing, or a file
    read is absent from its inventory or differs from its sha256 there (the
    digests are of the bytes the loaders already read).  Every error names
    the file, so stale or corrupt artifacts are never resumed.
    """
    out = config.out_dir
    result = PipelineResult(config=config)
    result.model = get_model(config.model, config.model_params)
    digests = {}  # path -> sha256 of every file the loaders read
    for name, meta_file, load in (
        ("cycle", "cycle.json", load_cycle),
        ("spectrum", "spectrum.json", load_spectrum),
        (None, "frames.json", load_frames),  # sets several fields
        ("manifold", "manifold.json", load_manifold),
        ("response", "response.json", load_response),
    ):
        meta_path = os.path.join(out, meta_file)
        if not os.path.exists(meta_path):
            break
        try:
            if name in ("cycle", "spectrum"):
                loaded = load(out, digests)
            else:  # sized by the cycle loaded first
                grid = (result.cycle.grid_size, len(result.cycle.anchor))
                loaded = load(out, digests, grid)
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(
                f"{meta_path}: malformed metadata ({type(exc).__name__}: {exc})"
            ) from exc
        vars(result).update({name: loaded} if name else loaded)
    stored = (
        ("cycle", "grid size", lambda c: c.grid_size, "cycle.grid_N", config.grid_size),
        ("manifold", "order", lambda m: m.nominal_order, "manifold.order", config.order),
        ("response", "order", lambda r: r.order, "manifold.order", config.order),
    )
    for name, what, value_of, key, wanted in stored:
        artifact = getattr(result, name)
        if artifact is not None and value_of(artifact) != wanted:
            raise ConfigError(
                f"{out}: stored {name} has {what} {value_of(artifact)}, "
                f"config asks for {key} = {wanted}"
            )
    if digests:
        _check_inventory(out, digests)
    return result


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
