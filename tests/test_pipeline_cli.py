import csv
import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import slowphase
from oracle_block import GUESS as BLOCK_GUESS
from slowphase import models
from slowphase.cli import main
from slowphase.config import KEYS, RunConfig, load_config
from slowphase.export import export_artifacts
from slowphase.frames import build_real_frames
from slowphase.manifold import evaluate_manifold
from slowphase.cycle import DIVISOR_TABLES
from slowphase.errors import ConfigError, FrameError, ResonanceError
from slowphase.pipeline import STAGES, Stage, load_result, run_pipeline
from slowphase.series import FourierSeries
from slowphase.store import write_coeffs, write_json, write_series_csv


ORACLE_CFG = """
model.name = oracle
cycle.guess = 1.3, 0.0
cycle.relax_time = 20.0
cycle.grid_N = 128
manifold.order = 4
validation.samples = 10
output.directory = {out}
"""


# the manifest is the run's provenance; every number lives in its stage file
MANIFEST_KEYS = {"tool", "version", "config", "failed_stage", "error", "files"}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path):
    """The sha256 of the bytes on disk, for forged manifests and checks."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_cfg(tmp_path, out_name="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ORACLE_CFG.format(out=tmp_path / out_name))
    return str(cfg), str(tmp_path / out_name)


def test_pipeline_artifacts_and_manifest(oracle_run):
    out = oracle_run.config.out_dir
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["failed_stage"] is None
    assert manifest["version"]
    # every inventoried file exists and its checksum matches
    for name, digest in manifest["files"].items():
        path = os.path.join(out, name)
        assert os.path.exists(path)
        assert _sha256(path) == digest
    # the multiplier table comes from the refined exponents and the polished
    # period
    frames = _read_json(os.path.join(out, "frames.json"))
    period = frames["period"]
    assert period == pytest.approx(2 * np.pi, abs=1e-9)
    lam = complex(*frames["bundle"]["exponents"][1])
    assert np.exp(lam * period).real == pytest.approx(np.exp(-4 * np.pi), rel=1e-8)


def _assert_same_frame(loaded, original):
    assert np.array_equal(loaded.series.coef, original.series.coef)
    assert loaded.series.real == original.series.real
    assert np.array_equal(loaded.exponents, original.exponents)


def test_artifact_reload_round_trip(oracle_run, ei_run):
    result = oracle_run.result
    loaded = load_result(oracle_run.config)
    cycle = loaded.cycle
    # the polished cycle: its anchor is the theta = 0 sample of its series
    assert np.array_equal(cycle.anchor, result.cycle.anchor)
    assert cycle.period == result.cycle.period
    assert np.array_equal(cycle.series.coef, result.cycle.series.coef)
    assert cycle.series.real == result.cycle.series.real
    # grid values are synthesized from the series and read-only
    assert np.array_equal(cycle.samples, result.cycle.samples)
    with pytest.raises(ValueError):
        cycle.samples[0, 0] = 0.0
    spectrum = loaded.spectrum
    assert np.array_equal(spectrum.multipliers, result.spectrum.multipliers)
    manifold = loaded.manifold
    assert manifold.nominal_order == result.manifold.nominal_order
    for n in range(manifold.total_order + 1):
        assert np.array_equal(
            manifold.order_series(n).coef, result.manifold.order_series(n).coef
        )
    assert manifold.coeffs.real == result.manifold.coeffs.real
    response = loaded.response
    assert response.order == result.response.order
    assert response.solvability_residual == result.response.solvability_residual
    assert response.normalization_defect == result.response.normalization_defect
    assert np.array_equal(response.phase_residuals, result.response.phase_residuals)
    for label in ("phase", "amplitude"):
        loaded, original = getattr(response, label), getattr(result.response, label)
        assert loaded.real == original.real
        for n in range(response.order + 1):
            assert np.array_equal(
                loaded.order_series(n).coef, original.order_series(n).coef
            )

    # frames: the ei cycle has a negative multiplier, so its real frames
    # are sampled over the lift to theta in [0, 2); they are neither stored
    # nor loaded, and build_real_frames rebuilds them from the loaded
    # complex frames
    out = ei_run.config.out_dir
    result = ei_run.result
    assert not [n for n in os.listdir(out) if "_real" in n]
    ei_loaded = load_result(ei_run.config)
    frames = {name: getattr(ei_loaded, name) for name in ("bundle", "adjoint")}
    assert ei_loaded.band_cut == result.band_cut
    assert "real_negative" in result.bundle.classes
    assert len(ei_run.theta_real) == 2 * result.cycle.grid_size

    def assert_same_frames(frames):
        rebuilt = build_real_frames(frames["bundle"], frames["adjoint"])
        for name in ("bundle", "adjoint"):
            _assert_same_frame(frames[name], getattr(result, name))
        for name, values in zip(("theta_real", "bundle_real", "adjoint_real"), rebuilt):
            assert np.array_equal(values, getattr(ei_run, name))

    assert_same_frames(frames)


def test_staged_subcommands_resume(tmp_path):
    cfg, out = _write_cfg(tmp_path)
    assert main(["cycle", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "cycle.json"))
    assert not os.path.exists(os.path.join(out, "spectrum.json"))
    # the cycle stage stores no coefficients: its pass is recomputed
    assert not [n for n in os.listdir(out) if n.endswith(".npy")]
    cycle_digest = _sha256(os.path.join(out, "cycle.json"))

    assert main(["floquet", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "spectrum.json"))
    # the cycle stage was reused, not recomputed
    assert _sha256(os.path.join(out, "cycle.json")) == cycle_digest

    assert main(["manifold", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "manifold.json"))
    assert main(["response", "--config", cfg]) == 0
    assert main(["validate", "--config", cfg]) == 0
    assert _read_json(os.path.join(out, "validation.json"))["order0_residual"] < 1e-10

    assert main(["export", "--config", cfg, "--what", "all", "--format", "csv"]) == 0
    assert os.path.exists(os.path.join(out, "exports", "curve_cycle.csv"))


def test_stale_cycle_grid_rejected(tmp_path, capsys):
    """A cycle stored at another grid size is not resumed."""
    cfg, out = _write_cfg(tmp_path)
    assert main(["cycle", "--config", cfg]) == 0
    cfg_256 = tmp_path / "run256.cfg"
    cfg_256.write_text(
        ORACLE_CFG.replace("cycle.grid_N = 128", "cycle.grid_N = 256").format(out=out)
    )
    assert main(["manifold", "--config", str(cfg_256)]) == 4
    err = capsys.readouterr().err
    assert "128" in err and "256" in err
    assert not [n for n in os.listdir(out) if n.startswith("manifold_order_")]


@pytest.mark.parametrize("first, second", [(6, 4), (4, 6)])
def test_stale_manifold_order_rejected(tmp_path, capsys, first, second):
    """A manifold stored at another order is a config error, either way."""
    out = str(tmp_path / "out")
    cfgs = {}
    for order in (first, second):
        cfgs[order] = tmp_path / f"run{order}.cfg"
        cfgs[order].write_text(
            ORACLE_CFG.replace("manifold.order = 4", f"manifold.order = {order}").format(out=out)
        )
    assert main(["manifold", "--config", str(cfgs[first])]) == 0
    capsys.readouterr()
    assert main(["response", "--config", str(cfgs[second])]) == 4
    err = capsys.readouterr().err
    assert "manifold.json: stale manifold stage" in err
    assert f"manifold.order = {first} -> {second}" in err
    assert not os.path.exists(os.path.join(out, "response.json"))


def test_stale_response_order_rejected(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path)
    assert main(["response", "--config", cfg]) == 0
    # a response at order 4 next to a manifold claiming order 5: its inputs
    # say so, and its coefficients and residuals hold the 7 orders that
    # order 5 loads
    manifold_json = os.path.join(out, "manifold.json")
    meta = _read_json(manifold_json)
    meta["inputs"]["manifold.order"] = "5"
    meta["residuals"].append(0.0)
    write_json(manifold_json, meta)
    coeff_path = os.path.join(out, "manifold_coeff.npy")
    coef = np.load(coeff_path)
    write_coeffs(coeff_path, np.concatenate([coef, np.zeros_like(coef[:1])]))
    cfg_5 = tmp_path / "run5.cfg"
    cfg_5.write_text(ORACLE_CFG.replace("manifold.order = 4", "manifold.order = 5").format(out=out))
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg_5)]) == 4
    err = capsys.readouterr().err
    assert "response.json: stale response stage" in err and "manifold.order = 4 -> 5" in err
    assert not os.path.exists(os.path.join(out, "validation.json"))


def test_stale_cycle_keys_rejected(tmp_path, capsys):
    """A cycle relaxed for another time from another guess is not resumed."""
    cfg, out = _write_cfg(tmp_path)
    assert main(["cycle", "--config", cfg]) == 0
    changed = tmp_path / "changed.cfg"
    changed.write_text(
        ORACLE_CFG.replace("cycle.relax_time = 20.0", "cycle.relax_time = 35")
        .replace("cycle.guess = 1.3, 0.0", "cycle.guess = 1.1, 0.2")
        .format(out=out)
    )
    capsys.readouterr()
    assert main(["manifold", "--config", str(changed)]) == 4
    err = capsys.readouterr().err
    assert "cycle.json: stale cycle stage" in err
    assert "cycle.relax_time = 20.0 -> 35.0" in err
    assert "cycle.guess = 1.3, 0.0 -> 1.1, 0.2" in err
    assert not os.path.exists(os.path.join(out, "spectrum.json"))


def test_keys_read_downstream_do_not_make_stages_stale(tmp_path):
    """Keys of later stages, of the floquet stage's divisor gate and of the
    validation, and the output directory, leave the stored stages fresh."""
    cfg, out = _write_cfg(tmp_path)
    assert main(["floquet", "--config", cfg]) == 0
    moved = tmp_path / "moved"
    shutil.copytree(out, moved)
    changed = tmp_path / "changed.cfg"
    changed.write_text(
        ORACLE_CFG.replace("manifold.order = 4", "manifold.order = 5")
        .replace("validation.samples = 10", "validation.samples = 3").format(out=moved)
        + "run.seed = 7\nsolver.small_divisor_tol = 1e-9\n"
    )
    assert main(["response", "--config", str(changed)]) == 0
    assert load_result(load_config(str(changed))).response.order == 5


@pytest.mark.parametrize("value, code", [("-5.2", 4), ("-5.0", 0), ("-5", 0)])
def test_changed_model_parameter_rejected(ei_run, tmp_path, capsys, value, code):
    """A stored cycle of another model parameter is stale; the default
    written out explicitly is the same config."""
    out = tmp_path / "out"
    shutil.copytree(ei_run.config.out_dir, out, ignore=shutil.ignore_patterns("exports"))
    cfg = tmp_path / "ei.cfg"
    cfg.write_text(
        replace(ei_run.config, out_dir=str(out)).echo_text()
        + f"model.params.eta_e = {value}\n"
    )
    capsys.readouterr()
    assert main(["floquet", "--config", str(cfg)]) == code
    if code:
        err = capsys.readouterr().err
        assert "cycle.json: stale cycle stage" in err
        assert "model.params.eta_e = -5.0 -> -5.2" in err


def test_model_parameter_from_code_echoes_as_parsed(tmp_path):
    """An integer parameter given in code is stored as the parser reads it,
    so the CLI resumes the directory under the same value from a file."""
    out = tmp_path / "out"
    config = RunConfig(
        model="ei", model_params={"eta_e": -5}, grid_size=1024, out_dir=str(out)
    )
    assert config.model_params == {"eta_e": -5.0}
    assert "model.params.eta_e = -5.0\n" in config.echo_text()
    run_pipeline(config, through=Stage.CYCLE)
    assert _read_json(out / "cycle.json")["inputs"]["model.params.eta_e"] == "-5.0"
    assert "model.params.eta_e = -5.0\n" in _read_json(out / "manifest.json")["config"]
    cfg = tmp_path / "ei.cfg"
    cfg.write_text(
        "model.name = ei\nmodel.params.eta_e = -5\ncycle.grid_N = 1024\n"
        f"output.directory = {out}\n"
    )
    assert main(["floquet", "--config", str(cfg)]) == 0
    with pytest.raises(ConfigError, match="model.params.eta_e must be a finite number"):
        RunConfig(model="ei", model_params={"eta_e": "fast"})


@pytest.mark.parametrize("order", [4, 6])
def test_replaced_upstream_stage_rejected(response_stage_dir, tmp_path, capsys, order):
    """A manifold of order 6 put under a response of order 4, with the
    inventory rewritten to match, is stale under either order."""
    out = tmp_path / "out"
    shutil.copytree(response_stage_dir, out)
    cfg_6 = tmp_path / "run6.cfg"
    cfg_6.write_text(
        ORACLE_CFG.replace("manifold.order = 4", "manifold.order = 6")
        .format(out=tmp_path / "out6")
    )
    assert main(["manifold", "--config", str(cfg_6)]) == 0
    manifest = _read_json(out / "manifest.json")
    for name in ("manifold.json", "manifold_coeff.npy"):
        shutil.copyfile(tmp_path / "out6" / name, out / name)
        manifest["files"][name] = _sha256(out / name)
    write_json(out / "manifest.json", manifest)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        ORACLE_CFG.replace("manifold.order = 4", f"manifold.order = {order}").format(out=out)
    )
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg)]) == 4
    stale = "manifold" if order == 4 else "response"
    assert f"{stale}.json: stale {stale} stage" in capsys.readouterr().err
    assert not os.path.exists(out / "validation.json")


def test_every_config_key_declared_by_one_stage():
    # a stored stage records the keys of it and of every earlier stored
    # stage, so a key no stage declares would never make a stage stale
    stage_free = ["output.directory"]
    declared = [key for step in STAGES for key in step.keys] + stage_free
    for key in KEYS:
        assert declared.count(key.name) == 1, key.name
    assert len(declared) == len(KEYS)


def test_corrupt_metadata_is_config_error(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path)
    assert main(["cycle", "--config", cfg]) == 0
    cycle_json = os.path.join(out, "cycle.json")
    meta = _read_json(cycle_json)
    del meta["period"]
    write_json(cycle_json, meta)
    capsys.readouterr()
    assert main(["response", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert cycle_json in err and "period" in err


def test_real_series_are_stored_one_sided(oracle_run):
    """The cycle, manifold and response files hold the N/2 + 1 one-sided grid
    rows of a real series, the complex frames all N rows."""
    out, n = oracle_run.config.out_dir, oracle_run.config.grid_size
    rows = {}
    for name in os.listdir(out):
        if name.endswith("_coeff.npy"):
            grid_axis = 0 if name.startswith(("cycle", "frame")) else 1
            rows[name] = np.load(os.path.join(out, name)).shape[grid_axis]
    assert rows == {
        "cycle_coeff.npy": n // 2 + 1, "manifold_coeff.npy": n // 2 + 1,
        "response_phase_coeff.npy": n // 2 + 1, "response_amplitude_coeff.npy": n // 2 + 1,
        "frame_bundle_coeff.npy": n, "frame_adjoint_coeff.npy": n,
    }


def test_manifest_lists_every_artifact(oracle_run):
    out = oracle_run.config.out_dir
    manifest = _read_json(os.path.join(out, "manifest.json"))
    on_disk = {
        n for n in os.listdir(out)
        if n.endswith((".npy", ".csv", ".json")) and n != "manifest.json"
    }
    assert set(manifest["files"]) == on_disk
    # the inventory is the digests of the files the run wrote, by name
    assert manifest["files"] == {
        os.path.basename(path): digest for path, digest in oracle_run.result.digests.items()
    }
    assert {n for n in on_disk if n.endswith(".npy")} == {
        "cycle_coeff.npy", "frame_bundle_coeff.npy", "frame_adjoint_coeff.npy",
        "manifold_coeff.npy", "response_phase_coeff.npy",
        "response_amplitude_coeff.npy",
    }


@pytest.fixture(scope="module")
def response_stage_dir(tmp_path_factory):
    """An oracle run directory through the response stage."""
    cfg, out = _write_cfg(tmp_path_factory.mktemp("response_stage"))
    assert main(["response", "--config", cfg]) == 0
    return out


def _truncate(path):
    with open(path, "rb+") as fh:
        fh.truncate(os.path.getsize(path) - 24)


def _retype(path):
    coef = np.load(path).astype(np.complex64)
    with open(path, "wb") as fh:
        np.save(fh, coef, allow_pickle=False)


def _drop_order(path):
    write_coeffs(path, np.load(path)[:-1])


def _poison(path):
    coef = np.load(path)
    coef[3, 5, 1] = complex(np.nan, 0.0)
    write_coeffs(path, coef)


def _flip_bit(path):
    # the lowest mantissa bit of the last coefficient's real part: the file
    # still loads, with every value finite and of the right dtype and shape
    with open(path, "rb+") as fh:
        data = bytearray(fh.read())
        data[-16] ^= 1
        fh.seek(0)
        fh.write(data)
    assert np.isfinite(np.load(path)).all()


def _drop_inventory_entry(path):
    manifest_path = os.path.join(os.path.dirname(path), "manifest.json")
    manifest = _read_json(manifest_path)
    del manifest["files"][os.path.basename(path)]
    write_json(manifest_path, manifest)


def _append_newline(path):
    # same content, other bytes: it still parses, but is not what was written
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")


def _add_earlier_frame_keys(path):
    # frames.json as versions that stored the real-representation fields wrote it
    meta = _read_json(path)
    for name in ("bundle", "adjoint"):
        meta[name].update(kind=name, representation="complex", blocks=[], period=1.0)
    write_json(path, meta)


def _drop_period(path):
    # frames.json as versions that stored the polished orbit as the cycle
    # stage's wrote it
    meta = _read_json(path)
    del meta["period"]
    write_json(path, meta)


def _drop_crosscheck(path):
    # frames.json as versions that wrote the cross-check's report to its own
    # file wrote it
    meta = _read_json(path)
    del meta["crosscheck"]
    write_json(path, meta)


def _set_key(path, key, value):
    # metadata with ``key`` set (a dotted key names one within an entry), its
    # inventory digest updated, so only the loader's refusal of the key stops it
    meta = _read_json(path)
    *entries, last = key.split(".")
    target = meta
    for entry in entries:
        target = target[entry]
    target[last] = value
    write_json(path, meta)
    manifest_path = os.path.join(os.path.dirname(path), "manifest.json")
    manifest = _read_json(manifest_path)
    manifest["files"][os.path.basename(path)] = _sha256(path)
    write_json(manifest_path, manifest)


def _add_unknown_key(path):
    # frames.json with a key no loader reads
    _set_key(path, "bogus", 1)


def _add_lyapunov(path):
    # spectrum.json as versions that stored the exponents' real parts wrote it
    _set_key(path, "lyapunov", [0.0, -2.0])


def _set(key, value):
    return lambda path: _set_key(path, key, value)


# keys that the stage files held while they stored numbers that another
# stored number fixes; each loader now rebuilds them or has no use for them
RETIRED_KEYS = [
    *(("spectrum.json", key) for key in (
        "multipliers", "exponents", "eigenvectors", "classes", "hyperbolicity_defect",
        "eigenvector_condition", "gauge_components")),
    ("cycle.json", "search.section_value"),
    ("frames.json", "crosscheck.max_column_discrepancy"),
    ("frames.json", "crosscheck.exponent_shift"),
]


def _drop_last_exponent(path):
    # a bundle exponent list one pair short of the model's dimension
    _set_key(path, "bundle.exponents", _read_json(path)["bundle"]["exponents"][:-1])


def _nan_phase_residuals(path):
    _set_key(path, "phase_residuals", [math.nan] * len(_read_json(path)["phase_residuals"]))


# a number that a loader keeps, set to a value of the wrong type, shape or
# range, or to a non-finite one; every other byte as the run wrote it
DAMAGED_NUMBERS = [
    ("frames.json", "period_nan", _set("period", math.nan)),
    ("frames.json", "period_negative", _set("period", -1.0)),
    ("frames.json", "period_string", _set("period", "abc")),
    ("frames.json", "exponents_short", _drop_last_exponent),
    ("frames.json", "band_cut_string", _set("band_cut", "abc")),
    ("frames.json", "adjoint_residual_string", _set("adjoint.residual", "abc")),
    ("cycle.json", "period_nan", _set("period", math.nan)),
    ("cycle.json", "period_negative", _set("period", -6.28)),
    ("cycle.json", "period_string", _set("period", "x")),
    ("manifold.json", "residuals_short", _set("residuals", [0.0])),
    ("manifold.json", "drift_string", _set("conjugation_drift", "x")),
    ("response.json", "solvability_string", _set("solvability_residual", "x")),
    ("response.json", "phase_residuals_nan", _nan_phase_residuals),
]


def _drop_inputs(path):
    # metadata as versions that recorded no stage inputs wrote it
    meta = _read_json(path)
    del meta["inputs"]
    write_json(path, meta)


@pytest.mark.parametrize(
    "name, damage",
    [
        ("response_phase_coeff.npy", os.remove),
        ("frame_bundle_coeff.npy", _truncate),
        ("cycle_coeff.npy", _retype),
        ("manifold_coeff.npy", _drop_order),
        ("response_amplitude_coeff.npy", _poison),
        ("frame_adjoint_coeff.npy", _flip_bit),
        ("manifest.json", os.remove),
        ("manifold_coeff.npy", _drop_inventory_entry),
        ("response.json", _append_newline),
        ("frames.json", _add_earlier_frame_keys),
        ("frames.json", _drop_period),
        ("cycle.json", _drop_inputs),
        ("frames.json", _drop_crosscheck),
        ("spectrum.json", _add_lyapunov),
        ("frames.json", _add_unknown_key),
        *((name, _set(key, 0.0)) for name, key in RETIRED_KEYS),
        *((name, damage) for name, _, damage in DAMAGED_NUMBERS),
    ],
    ids=[
        "missing", "truncated", "dtype", "shape", "non_finite", "bit_flip",
        "manifest_missing", "not_inventoried", "digest_differs",
        "earlier_frame_keys", "no_polished_period", "no_inputs", "crosscheck_missing",
        "spectrum_lyapunov", "frames_unknown_key",
        *(f"{name.split('.')[0]}_{key.split('.')[-1]}" for name, key in RETIRED_KEYS),
        *(f"{name.split('.')[0]}_{label}" for name, label, _ in DAMAGED_NUMBERS),
    ],
)
def test_damaged_coefficient_file_exits_4(response_stage_dir, tmp_path, capsys, name, damage):
    """A damaged artifact of a stage whose metadata exists is never silently
    recomputed or resumed: exit 4, naming the file."""
    out = tmp_path / "out"
    shutil.copytree(response_stage_dir, out)
    damage(str(out / name))
    cfg, _ = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    assert str(out / name) in capsys.readouterr().err
    assert not os.path.exists(out / "validation.json")


def test_file_changed_after_its_load_is_refused(tmp_path, monkeypatch, capsys):
    """The manifest lists the digest of the bytes a run loaded, not of what
    lies on disk when it is written: a frame file changed after load_result
    verified it is refused by the next resume, exit 4, naming the file."""
    cfg, out = _write_cfg(tmp_path)
    assert main(["manifold", "--config", cfg]) == 0
    bundle = os.path.join(out, "frame_bundle_coeff.npy")
    expand = slowphase.pipeline.expand_response_functions

    def expand_after_a_change(*args, **kwargs):
        _flip_bit(bundle)  # loaded and verified by now
        return expand(*args, **kwargs)

    monkeypatch.setattr(slowphase.pipeline, "expand_response_functions", expand_after_a_change)
    assert main(["response", "--config", cfg]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert f"{bundle}: sha256 differs from the file inventory" in err
    assert not os.path.exists(os.path.join(out, "validation.json"))


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("cycle.json", "grid_size", 128),
        ("spectrum.json", "period", 2 * math.pi),
        ("manifold.json", "total_order", 5),
        ("manifold.json", "divisor_minima", {"2": 2.0}),
        ("response.json", "order", 4),
    ],
    ids=["cycle_grid_size", "spectrum_period", "manifold_total_order",
         "manifold_divisor_minima", "response_order"],
)
def test_stored_copy_of_a_rebuilt_field_exits_4(response_stage_dir, tmp_path, capsys,
                                                 name, key, value):
    """A field that the config or an earlier stage's file fixes is rebuilt on
    load and has no key of its own: a file that holds it, as directories
    written before were, is malformed metadata, exit 4, naming the file."""
    out = tmp_path / "out"
    shutil.copytree(response_stage_dir, out)
    _set_key(str(out / name), key, value)
    cfg, _ = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert f"{out / name}: malformed metadata" in err and key in err
    assert not os.path.exists(out / "validation.json")


def test_refused_monodromy_exits_4(response_stage_dir, tmp_path, capsys):
    """The loader classifies the stored monodromy again: one that the
    classifier refuses, here scaled by 2 so that the trivial multiplier is
    2, is malformed metadata, exit 4 naming the file, not a numerical abort."""
    out = tmp_path / "out"
    shutil.copytree(response_stage_dir, out)
    path = out / "spectrum.json"
    _set_key(str(path), "monodromy", (2 * np.array(_read_json(path)["monodromy"])).tolist())
    cfg, _ = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert f"{path}: malformed metadata (HyperbolicityError" in err
    assert not os.path.exists(out / "validation.json")


def test_csv_store_of_earlier_versions_exits_4(response_stage_dir, tmp_path, capsys):
    """A directory written when coefficients were CSV tables is not read."""
    out = tmp_path / "out"
    shutil.copytree(response_stage_dir, out)
    for name in os.listdir(out):
        if name.endswith("_coeff.npy"):
            coef = np.load(out / name)
            if name.startswith(("manifold", "response")):
                for n, order in enumerate(coef):
                    table = out / name.replace("_coeff.npy", f"_order_{n:02d}_coeff.csv")
                    write_series_csv(table, FourierSeries(order, real=True))
            else:
                real = name.startswith("cycle")
                write_series_csv(out / name.replace(".npy", ".csv"), FourierSeries(coef, real=real))
            os.remove(out / name)
    cfg, _ = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert str(out / "cycle_coeff.npy") in err and "missing" in err


def test_retired_manifold_key_of_earlier_versions_exits_4(response_stage_dir, tmp_path,
                                                          capsys):
    """A manifold stored when manifold.extra_orders was a key records it in
    its inputs; that stage is stale now the key is gone: exit 4, naming the
    file and the key."""
    out = tmp_path / "out"
    shutil.copytree(response_stage_dir, out)
    path = out / "manifold.json"
    meta = _read_json(path)
    meta["inputs"]["manifold.extra_orders"] = "1"
    write_json(path, meta)
    manifest = _read_json(out / "manifest.json")
    manifest["files"]["manifold.json"] = _sha256(path)
    write_json(out / "manifest.json", manifest)
    cfg, _ = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert f"{path}: stale manifold stage" in err
    assert "manifold.extra_orders = 1 -> unset" in err
    assert not os.path.exists(out / "validation.json")


@pytest.mark.parametrize(
    "name",
    ["cycle_coeff.npy", "manifold_coeff.npy", "response_phase_coeff.npy",
     "response_amplitude_coeff.npy"],
)
def test_two_sided_real_series_exits_4(response_stage_dir, tmp_path, capsys, name):
    """A real series stored in the two-sided layout of earlier versions, N
    grid rows where the one-sided layout has N/2 + 1, is refused: exit 4,
    naming the file."""
    out = tmp_path / "out"
    shutil.copytree(response_stage_dir, out)
    path = out / name
    coef = np.load(path)
    axis = 0 if name == "cycle_coeff.npy" else 1
    values = np.fft.irfft(coef, n=2 * (coef.shape[axis] - 1), axis=axis, norm="forward")
    write_coeffs(str(path), np.fft.fft(values, axis=axis, norm="forward"))
    two_sided = np.load(path).shape
    assert two_sided[axis] == 128  # the grid size of ORACLE_CFG
    cfg, _ = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and str(two_sided) in err
    assert not os.path.exists(out / "validation.json")


def test_determinism_byte_identical(tmp_path):
    """Two runs with the same config produce identical artifact bytes, and so
    does a run built in stages (cycle or floquet, then validate) that hands
    the later stages its stored artifacts."""
    builds = {
        "a": [["run"]],
        "b": [["run"]],
        "cycle": [["cycle"], ["validate"]],
        "floquet": [["floquet"], ["validate"]],
    }
    for name, commands in builds.items():
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(ORACLE_CFG.format(out=tmp_path / name))
        for command in commands:
            assert main([*command, "--config", str(cfg_path)]) == 0
        assert main([
            "export", "--config", str(cfg_path), "--what", "all", "--format", "csv",
        ]) == 0
    ref = tmp_path / "a"
    exported = sorted(os.listdir(ref / "exports"))
    # the manifest echoes the output directory; every other artifact is the same
    stored = [
        n for n in sorted(os.listdir(ref))
        if n.endswith((".npy", ".csv", ".json")) and n != "manifest.json"
    ]
    assert len([n for n in stored if n.endswith("_coeff.npy")]) == 6
    assert {"cycle.json", "frames.json", "validation.json"} <= set(stored)
    for name in ("b", "cycle", "floquet"):
        out = tmp_path / name
        assert sorted(os.listdir(out / "exports")) == exported, name
        for file in exported:
            assert (out / "exports" / file).read_bytes() == (
                ref / "exports" / file
            ).read_bytes(), (name, file)
        for file in stored:
            assert (out / file).read_bytes() == (ref / file).read_bytes(), (name, file)


def test_resumed_sweep_writes_the_bytes_of_a_cold_run(tmp_path, monkeypatch):
    """The variational sweep is not stored: a run that resumes the spectrum
    and frames stages from a stored cycle recomputes it once, from the stored
    anchor and period, and writes the bytes of a cold run."""
    import slowphase.pipeline as pipeline_mod

    sweeps = []
    sweep = pipeline_mod.variational_sweep

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(pipeline_mod, "variational_sweep", counted)
    cold_cfg, cold = _write_cfg(tmp_path, "cold")
    assert main(["run", "--config", cold_cfg]) == 0
    assert sweeps == []  # the cold run uses find_cycle's pass
    staged_cfg = tmp_path / "staged.cfg"
    staged_cfg.write_text(ORACLE_CFG.format(out=tmp_path / "staged"))
    assert main(["cycle", "--config", str(staged_cfg)]) == 0
    assert main(["response", "--config", str(staged_cfg)]) == 0
    assert len(sweeps) == 1
    files = [n for n in sorted(os.listdir(cold)) if n.endswith("_coeff.npy")]
    assert len(files) == 6
    for name in files + ["spectrum.json", "frames.json"]:
        assert (tmp_path / "staged" / name).read_bytes() == (
            tmp_path / "cold" / name).read_bytes(), name


# the files each stage writes, in stage order: one writer per file
STAGE_FILES = {
    Stage.CYCLE: ["cycle.json"],
    Stage.FLOQUET: ["spectrum.json", "resonance.json"],
    Stage.FRAMES: ["frames.json", "cycle_coeff.npy", "frame_bundle_coeff.npy",
                   "frame_adjoint_coeff.npy"],
    Stage.MANIFOLD: ["manifold.json", "manifold_coeff.npy"],
    Stage.RESPONSE: ["response.json", "response_phase_coeff.npy",
                     "response_amplitude_coeff.npy"],
    Stage.VALIDATE: ["validation.json", "accuracy_domain.csv"],
}


@pytest.fixture(scope="module")
def cold_run_dir(tmp_path_factory):
    """A complete cold oracle run (grid 128, order 4) and its config file."""
    cfg, out = _write_cfg(tmp_path_factory.mktemp("cold_run"))
    assert main(["run", "--config", cfg]) == 0
    stored = sorted(n for n in os.listdir(out) if n != "manifest.json")
    assert stored == sorted(sum(STAGE_FILES.values(), []))
    return cfg, pathlib.Path(out)


def _assert_cold_bytes(out, cold):
    assert sorted(os.listdir(out)) == sorted(os.listdir(cold))
    for name in os.listdir(cold):
        if name != "manifest.json":
            assert (out / name).read_bytes() == (cold / name).read_bytes(), name


@pytest.mark.parametrize("stage", Stage.ORDER[:-1])
def test_resume_from_any_stage_boundary_writes_cold_bytes(cold_run_dir, tmp_path, stage):
    """Deleting the files of ``stage`` and every later stage from a complete
    run and resuming with ``validate`` writes the bytes of the cold run: no
    stage's file is rewritten by another stage."""
    cfg, cold = cold_run_dir
    out = tmp_path / "resumed"
    shutil.copytree(cold, out)
    for later in Stage.ORDER[Stage.ORDER.index(stage):]:
        for name in STAGE_FILES[later]:
            os.remove(out / name)
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    _assert_cold_bytes(out, cold)


def test_aborted_frames_stage_writes_nothing_and_resumes_cold(cold_run_dir, tmp_path,
                                                              monkeypatch):
    """A frames stage that fails after the polish writes none of its files,
    so the resume writes the bytes of a cold run."""
    import slowphase.pipeline as pipeline_mod

    def fail(*args):
        raise FrameError("injected after the polish")

    cfg, cold = cold_run_dir
    out = tmp_path / "aborted"
    with monkeypatch.context() as patch:
        patch.setattr(pipeline_mod, "cross_check_adjoint_frame", fail)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert sorted(os.listdir(out)) == sorted(
        STAGE_FILES[Stage.CYCLE] + STAGE_FILES[Stage.FLOQUET] + ["manifest.json"])
    assert _read_json(out / "manifest.json")["failed_stage"] == Stage.FRAMES
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    _assert_cold_bytes(out, cold)


def _inventory(out):
    """The manifest's file inventory, each digest checked against the disk."""
    files = _read_json(os.path.join(out, "manifest.json"))["files"]
    for name, digest in files.items():
        assert _sha256(os.path.join(out, name)) == digest, name
    return files


def test_resume_lists_only_the_files_it_read_or_wrote(cold_run_dir, tmp_path, capsys):
    """An order-5 resume of an order-4 run's frames leaves that run's
    validation files on disk, but its manifest does not vouch for them, and
    the json export copies only what the resume read or wrote."""
    cfg, cold = cold_run_dir
    out = tmp_path / "resumed"
    shutil.copytree(cold, out)
    for stage in (Stage.MANIFOLD, Stage.RESPONSE):
        for name in STAGE_FILES[stage]:
            os.remove(out / name)
    cfg_5 = tmp_path / "run5.cfg"
    cfg_5.write_text(pathlib.Path(cfg).read_text().replace("manifold.order = 4",
                                                           "manifold.order = 5"))
    assert main(["response", "--config", str(cfg_5), "--out", str(out)]) == 0
    listed = sorted(sum((STAGE_FILES[stage] for stage in Stage.ORDER[:-1]), []))
    assert sorted(_inventory(out)) == listed
    assert len(listed) == 12
    assert (out / "validation.json").exists() and (out / "accuracy_domain.csv").exists()
    capsys.readouterr()
    assert main(["export", "--config", str(cfg_5), "--out", str(out), "--format", "json"]) == 0
    exported = capsys.readouterr().out.split()
    assert sorted(os.listdir(out / "exports")) == sorted(map(os.path.basename, exported))
    assert len(exported) == 7 and "validation.json" not in os.listdir(out / "exports")


def test_refused_run_lists_only_its_own_files(cold_run_dir, tmp_path, capsys):
    """A run refused in the floquet stage lists the three files it wrote, so
    a resume under the first config refuses the earlier run's frames rather
    than loading them."""
    cfg, cold = cold_run_dir
    out = tmp_path / "refused"
    shutil.copytree(cold, out)
    refusing = tmp_path / "refusing.cfg"
    refusing.write_text(pathlib.Path(cfg).read_text() + "solver.small_divisor_tol = 10\n")
    assert main(["run", "--config", str(refusing), "--out", str(out)]) == 3
    assert sorted(_inventory(out)) == ["cycle.json", "resonance.json", "spectrum.json"]
    capsys.readouterr()
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 4
    assert f"{out / 'frames.json'}: not in the file inventory" in capsys.readouterr().err


def test_resume_leaves_the_resumed_result_unchanged(tmp_path):
    """A run resumes into a copy of the result it is given, with digests of
    its own: resuming a loaded result, and a dataclasses.replace copy of it,
    into other directories leaves the loaded result's digests and stages as
    they were."""
    cfg, _ = _write_cfg(tmp_path)
    assert main(["floquet", "--config", cfg]) == 0
    config = load_config(cfg)
    partial = load_result(config)
    digests = dict(partial.digests)
    for name, resumed in (("a", partial), ("b", replace(partial))):
        run_pipeline(replace(config, out_dir=str(tmp_path / name)), resume=resumed,
                     through=Stage.FRAMES)
    assert partial.digests == digests
    assert partial.bundle is None


def test_result_run_into_another_directory_lists_none_of_the_first(cold_run_dir, tmp_path):
    """Resuming a result loaded from one directory into another, which holds
    a complete earlier run, lists only the files written there."""
    cfg, cold = cold_run_dir
    first, other = tmp_path / "first", tmp_path / "other"
    shutil.copytree(cold, first)
    shutil.copytree(cold, other)
    for stage in (Stage.MANIFOLD, Stage.RESPONSE, Stage.VALIDATE):
        for name in STAGE_FILES[stage]:
            os.remove(first / name)
    config = load_config(cfg)
    loaded = load_result(replace(config, out_dir=str(first)))
    run_pipeline(replace(config, out_dir=str(other)), resume=loaded)
    # the divisor tables are recomputed on every run, never loaded
    written = ["resonance.json"] + sum(
        (STAGE_FILES[stage] for stage in (Stage.MANIFOLD, Stage.RESPONSE, Stage.VALIDATE)), [])
    assert sorted(_inventory(other)) == sorted(written)


def test_export_json_copies_manifest_and_stage_metadata(oracle_run, tmp_path):
    """The json export copies the manifest and, in sorted order, every JSON
    file of its inventory: each stage's metadata, byte for byte."""
    files = export_artifacts(oracle_run.result, "all", "json", out_dir=str(tmp_path))
    names = ["manifest.json", "cycle.json", "frames.json", "manifold.json", "resonance.json",
             "response.json", "spectrum.json", "validation.json"]
    assert files == [str(tmp_path / name) for name in names]
    for name in names:
        original = os.path.join(oracle_run.config.out_dir, name)
        with open(original, "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_export_json_refuses_a_changed_file(oracle_run, tmp_path, capsys):
    """A JSON file that differs from the manifest's inventory is not copied:
    the export exits 4 naming it, and writes nothing."""
    out = tmp_path / "out"
    shutil.copytree(oracle_run.config.out_dir, out, ignore=shutil.ignore_patterns("exports"))
    meta = _read_json(out / "validation.json")
    meta["truncation_slope"] = 99.0
    write_json(out / "validation.json", meta)
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(oracle_run.config.echo_text())
    capsys.readouterr()
    assert main(["export", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 4
    assert str(out / "validation.json") in capsys.readouterr().err
    assert not os.listdir(out / "exports")


def test_exit_code_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 4


def test_usage_errors_exit_4(tmp_path, capsys):
    # a command-line usage error is a configuration failure (4), not a
    # validation failure (2); --help still succeeds
    cfg, _ = _write_cfg(tmp_path)
    for argv in (["export", "--config", cfg, "--what", "validation"], ["run"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert "usage: slowphase" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0


def test_exit_code_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cycle.grid_N = 999\n")
    assert main(["run", "--config", str(cfg)]) == 4


@pytest.mark.parametrize(
    "line",
    [
        "frames.representation = real",
        "bundle.scale = 1",
        "resonance.order = 9",
        "manifold.extra_orders = 1",
        "validation.sigma_scan_max = 2.0",
        "validation.horizon_periods = 2.0",
        "resonance.tol = 1e-8",
    ],
    ids=[
        "representation", "bundle_scale", "resonance_order", "extra_orders",
        "sigma_scan_max", "horizon_periods", "resonance_tol",
    ],
)
def test_removed_representation_key_rejected(tmp_path, capsys, line):
    # the real-representation response path and its knob are gone, and so are
    # the keys whose value the code derives or the method fixes; an old config
    # that still sets one fails loudly instead of being ignored
    cfg, out = _write_cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert main(["run", "--config", cfg]) == 4
    key = line.split(" =")[0]
    assert f"unknown config key: {key}" in capsys.readouterr().err
    assert not os.path.exists(out)


def _cfg_setting(tmp_path, line):
    """The oracle config with ``line`` in place of the line that sets its
    key, or appended where none does."""
    cfg, out = _write_cfg(tmp_path)
    key = line.split("=", 1)[0].strip()
    kept = [
        text for text in pathlib.Path(cfg).read_text().splitlines()
        if text.split("=", 1)[0].strip() != key
    ]
    pathlib.Path(cfg).write_text("\n".join(kept + [line]) + "\n")
    return cfg, out


@pytest.mark.parametrize(
    "line, named",
    [
        ("integrator.rtol = -1", "integrator.rtol"),
        ("integrator.rtol = 1e-15", "integrator.rtol"),
        ("integrator.max_steps = 0", "integrator.max_steps"),
        ("model.name = nosuch", "'nosuch'"),
        ("model.params.foo = 1", "model.params.foo"),
        ("validation.samples = 0", "validation.samples"),
        ("cycle.relax_time = nan", "cycle.relax_time"),
        ("cycle.newton_tol = -1", "cycle.newton_tol"),
        ("manifold.gauge = 0", "manifold.gauge"),
        ("manifold.gauge = inf", "manifold.gauge"),
        ("solver.small_divisor_tol = -1", "solver.small_divisor_tol"),
        ("solver.solvability_tol = -1", "solver.solvability_tol"),
        ("validation.tolerances = 1e-6, -1", "validation.tolerances"),
        ("run.seed = -1", "run.seed"),
        ("cycle.guess = 1", "cycle.guess"),
        ("cycle.guess = nan, 0.0", "cycle.guess"),
        ("output.directory =", "output.directory must be a non-empty path"),
        # the validation horizon is now the constant HORIZON_PERIODS, so a
        # bad value of its retired key is refused as an unknown key
        ("validation.horizon_periods = -1",
         "unknown config key: validation.horizon_periods"),
        ("validation.horizon_periods = nan",
         "unknown config key: validation.horizon_periods"),
    ],
    ids=[
        "rtol", "rtol_floor", "max_steps", "model", "param", "samples",
        "relax_time_nan", "newton_tol", "gauge_zero", "gauge_inf", "small_divisor_tol",
        "solvability_tol", "tolerance_entry", "seed", "guess_length", "guess_nan",
        "output_directory_empty", "horizon", "horizon_nan",
    ],
)
def test_bad_config_value_exits_4(tmp_path, capsys, line, named):
    # an invalid value is a configuration failure, not a numerical abort,
    # and the message names what is wrong
    cfg, _ = _cfg_setting(tmp_path, line)
    assert main(["cycle", "--config", cfg]) == 4
    assert named in capsys.readouterr().err


def test_empty_out_option_exits_4(tmp_path, capsys):
    # an empty --out is checked as output.directory is, not ignored
    cfg, out = _write_cfg(tmp_path)
    assert main(["cycle", "--config", cfg, "--out", ""]) == 4
    assert "output.directory must be a non-empty path" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("tolerances, pair", [
    ("1e-8, 1.4e-8, 1.04e-8", ("1.04e-08", "1e-08")),  # validation.json's 1.0e-08
    ("1e-8, 1.4e-8", ("1.4e-08", "1e-08")),  # accuracy_domain.csv's 1e-08
    ("1e-8, 1e-8", ("1e-08 and 1e-08",)),
], ids=["summary_key", "csv_column", "repeated"])
def test_tolerances_sharing_a_report_label_exit_4(tmp_path, capsys, tolerances, pair):
    # the reports key each tolerance by a rounded label, so two tolerances of
    # one label would be merged into one domain width or repeated columns
    cfg, out = _write_cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write(f"validation.tolerances = {tolerances}\n")
    assert main(["cycle", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "validation.tolerances" in err
    assert all(value in err for value in pair), err
    assert not os.path.exists(out)


def test_non_finite_model_parameter_exits_4(tmp_path):
    # a NaN time constant once made the integrator's first step NaN, and the
    # step never returned; a subprocess with a timeout fails instead of hanging
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "model.name = ei\n"
        "model.params.tau_e = nan\n"
        "cycle.grid_N = 128\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    src = os.path.dirname(os.path.dirname(slowphase.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "slowphase.cli", "cycle", "--config", str(cfg)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 4
    assert "model.params.tau_e" in proc.stderr


@pytest.fixture
def planar(monkeypatch):
    """A registered user model: the oracle with its growth rate ``a`` as a
    parameter, which enters the field."""
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))

    def factory(overrides):
        a = overrides.get("a", 1.0)

        def rhs(u):
            x, y = u
            r2 = x * x + y * y
            return (a * x - y - r2 * x, x + a * y - r2 * y)

        def jac_rows(u):
            x, y = u
            return (
                (a - 3.0 * x * x - y * y, -1.0 - 2.0 * x * y),
                (1.0 - 2.0 * x * y, a - x * x - 3.0 * y * y),
            )

        return models.VectorFieldModel(
            name="planar", dim=2, params={"a": a}, state_names=("x", "y"),
            rhs=rhs, jac_rows=jac_rows,
        )

    models.register_model("planar", factory)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_registered_model_non_finite_parameter_is_config_error(planar, value):
    # only the built-in ei model checked its parameters; a NaN of any other
    # model reached find_cycle and ended as a numerical abort (exit 3)
    with pytest.raises(ConfigError, match="model.params.a must be a finite number"):
        RunConfig(model="planar", model_params={"a": value})
    RunConfig(model="planar", model_params={"a": 1.0})


def test_registered_model_non_finite_parameter_exits_4(planar, tmp_path, capsys):
    cfg = tmp_path / "planar.cfg"
    text = (
        "model.name = planar\n"
        "cycle.guess = 1.3, 0.0\n"
        "cycle.relax_time = 20.0\n"
        "cycle.grid_N = 128\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    cfg.write_text(text + "model.params.a = 1.0\n")
    assert main(["cycle", "--config", str(cfg)]) == 0  # the model itself runs
    capsys.readouterr()
    cfg.write_text(text + "model.params.a = nan\n")
    assert main(["cycle", "--config", str(cfg)]) == 4
    assert "model.params.a must be a finite number" in capsys.readouterr().err


def test_exit_code_validation_failure(tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(
        ORACLE_CFG.format(out=tmp_path / "out")
        + "validation.tolerances = 1e-30\n"
    )
    assert main(["run", "--config", cfg.as_posix()]) == 2


def test_exit_code_numerical_abort(tmp_path):
    # a state far outside the basin blows up during relaxation
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(
        "model.name = ei\n"
        "cycle.guess = 0.1, 1000.0, 0.0, 0.0, 0.0, 0.0\n"
        "cycle.relax_time = 100.0\n"
        "cycle.grid_N = 128\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 3


def test_exit_code_unresolved_grid(tmp_path):
    # a grid too coarse for the orbit's spectrum aborts with a clear message
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(
        "model.name = ei\n"
        "cycle.grid_N = 128\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 3


def test_doubled_period_exits_3_naming_the_multiple(tmp_path, capsys, monkeypatch):
    # a return search that skips every other maximum hands Newton twice the
    # period, and shooting converges there; the orbit's even-only spectrum
    # names the multiple before the spectral-tail check would blame the grid
    import slowphase.cycle as cycle_mod

    next_maximum = cycle_mod._next_maximum

    def second_maximum(model, x0, settings, t_max):
        t1, x1 = next_maximum(model, x0, settings, t_max)
        t2, x2 = next_maximum(model, x1, settings, t_max)
        return t1 + t2, x2

    monkeypatch.setattr(cycle_mod, "_next_maximum", second_maximum)
    cfg = tmp_path / "doubled.cfg"
    cfg.write_text(
        "model.name = ei\n"
        "cycle.grid_N = 1024\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    assert main(["cycle", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "converged to 2 times the period" in err
    assert "T/2 = 20.811" in err
    assert "cycle.grid_N" not in err


def test_under_relaxed_start_exits_3_naming_relax_time(tmp_path, capsys):
    # with no relaxation time, Newton starts one return after the first
    # maximum of the default guess on ei, outside its basin, and diverges
    cfg = tmp_path / "short.cfg"
    cfg.write_text(
        "model.name = ei\n"
        "cycle.relax_time = 0\n"
        "cycle.grid_N = 1024\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    assert main(["cycle", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "after 1 return " in err
    assert "raise cycle.relax_time" in err
    assert not os.path.exists(tmp_path / "out" / "cycle.json")


def test_component_without_maximum_exits_3(monkeypatch, tmp_path, capsys):
    """Component 0 of a registered 3-D model decays to 0 (z' = -z) beside an
    attracting circle: it has no maximum, so the cycle has no phase origin."""
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))

    def rhs(u):
        z, x, y = u
        r2 = x * x + y * y
        return (-z, x - y - r2 * x, x + y - r2 * y)

    def jac_rows(u):
        z, x, y = u
        return (
            (-1.0, 0.0, 0.0),
            (0.0, 1.0 - 3 * x * x - y * y, -1.0 - 2 * x * y),
            (0.0, 1.0 - 2 * x * y, 1.0 - x * x - 3 * y * y),
        )

    models.register_model("decaying", lambda overrides: models.VectorFieldModel(
        name="decaying", dim=3, params={}, state_names=("z", "x", "y"),
        rhs=rhs, jac_rows=jac_rows,
    ))
    cfg = tmp_path / "decaying.cfg"
    cfg.write_text(
        "model.name = decaying\n"
        "cycle.guess = 1.0, 1.0, 0.0\n"
        "cycle.grid_N = 128\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    assert main(["cycle", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "component 0 of the orbit has no maximum" in err
    assert "no downward crossing" in err


def _block_cfg(tmp_path, name, a, b, omega):
    """A config file of the ``oracle_block`` family with B = [[a, -omega],
    [omega, b]] at grid 256 and order 5; returns its path and directory."""
    out = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(
        "model.name = oracle_block\n"
        f"model.params.a = {a}\nmodel.params.b = {b}\nmodel.params.omega = {omega}\n"
        f"cycle.guess = {', '.join(map(str, BLOCK_GUESS))}\n"
        "cycle.relax_time = 20.0\ncycle.grid_N = 256\nmanifold.order = 5\n"
        f"validation.samples = 10\noutput.directory = {out}\n"
    )
    return str(cfg), out


def test_resonance_abort_keeps_partial_artifacts(oracle_block, tmp_path, capsys):
    """A resonance of the slow manifold, 2 lam_s = -4 = b (B = diag(-4, -3)),
    stops the run in the floquet stage with exit 3: the manifold divides at
    order 2 by 2 lam_s - lam_3 = 0 (1.9e-13 here) in direction 3, exponent
    -4.  The divisor tables are written before the gate raises, so the run
    keeps them with the cycle and the spectrum."""
    message = (r"manifold divisor of order 2 in direction 3 is \S+, below "
               r"solver\.small_divisor_tol = 1e-08")
    cfg, out = _block_cfg(tmp_path, "api", -4.0, -3.0, 0.0)
    with pytest.raises(ResonanceError, match=message):
        run_pipeline(load_config(cfg))
    manifest = _read_json(out / "manifest.json")
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["failed_stage"] == "floquet"
    assert re.search(message, manifest["error"])
    assert sorted(manifest["files"]) == ["cycle.json", "resonance.json", "spectrum.json"]
    assert _read_json(out / "resonance.json")["manifold_divisor_min"]["2"] < 1e-12
    cfg, out = _block_cfg(tmp_path, "cli", -4.0, -3.0, 0.0)
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 3
    assert re.search(message, capsys.readouterr().err)
    assert _read_json(out / "manifest.json")["failed_stage"] == "floquet"


def test_mixed_resonance_runs_through_validate(oracle_block, tmp_path):
    """lam_s + a = b (a = -2.5, b = -4.5) is a resonance of the full invariant
    manifold, not of the slow one, whose recursions divide by at least 0.5:
    the run goes through validate, with the (p, q) components of K, Z and I
    zero, and validates as its nonresonant neighbour b = -4.3 does (domain
    widths 1.3e-9 apart, relative)."""
    runs = {
        b: run_pipeline(load_config(_block_cfg(tmp_path, str(b), -2.5, b, 0.0)[0]))
        for b in (-4.5, -4.3)
    }
    result = runs[-4.5]
    assert result.manifest["failed_stage"] is None
    minima = [min(result.resonance.minima(name).values()) for name in DIVISOR_TABLES]
    assert minima == pytest.approx([0.5, 2.0, 1.0], rel=1e-9)
    assert max(result.manifold.residuals) < 1e-11
    for coeffs in (result.manifold.coeffs, result.response.phase, result.response.amplitude):
        assert np.max(np.abs(coeffs.coef[..., 2:])) <= 1e-14 * np.max(np.abs(coeffs.coef))
    widths = [r.validation.summary()["domain_min_width"] for r in runs.values()]
    assert widths[0].keys() == widths[1].keys()
    assert all(widths[0][k] == pytest.approx(widths[1][k], rel=1e-6) for k in widths[0])


def test_singular_bundle_in_the_orbit_polish_is_a_frame_error(oracle_block, tmp_path, capsys):
    """A slow-turning pair (a = b = -3, omega = 0.001) is classed as two real
    multipliers with one real eigenvector, so the seeded bundle is singular:
    the orbit polish refuses it with FrameError, exit 3, and the manifest
    records the frames stage, where a raw LinAlgError left no manifest."""
    cfg, out = _block_cfg(tmp_path, "api", -3.0, -3.0, 0.001)
    with pytest.raises(FrameError, match="bundle frame singular in the orbit polish"):
        run_pipeline(load_config(cfg))
    assert _read_json(out / "manifest.json")["failed_stage"] == "frames"
    cfg, out = _block_cfg(tmp_path, "cli", -3.0, -3.0, 0.001)
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 3
    assert "bundle frame singular in the orbit polish" in capsys.readouterr().err
    assert _read_json(out / "manifest.json")["failed_stage"] == "frames"


def test_frames_failure_recorded_as_frames_stage(tmp_path, monkeypatch):
    """A failure after the bundle frame is built is still the frames stage's."""
    import slowphase.pipeline as pipeline_mod
    from slowphase.errors import FrameError

    def failing_cross_check(*args, **kwargs):
        raise FrameError("cross-check failed")

    monkeypatch.setattr(pipeline_mod, "cross_check_adjoint_frame", failing_cross_check)
    config = RunConfig(
        model="oracle", relax_time=20.0, grid_size=128, order=4,
        out_dir=str(tmp_path / "out"),
    )
    with pytest.raises(FrameError):
        run_pipeline(config)
    manifest = _read_json(tmp_path / "out" / "manifest.json")
    assert manifest["failed_stage"] == "frames"
    assert manifest["error"] == "cross-check failed"


def test_export_plotdata_format(oracle_run):
    result = oracle_run.result
    files = export_artifacts(result, "all", "plotdata")
    (path,) = files
    with open(path) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "theta,sigma,component,value"
    assert first[2].startswith(("K.", "Z.", "I."))


def test_export_plotdata_rows_match_per_point_evaluation(response_stage_dir, tmp_path):
    """The plotdata export of an oracle run at grid 128 has one row per
    phase, amplitude (33 each), component and function (K, Z, I), and each
    value lies within 1e-13 of that function's maximum from a per-point
    evaluation at the row's (theta, sigma)."""
    shutil.copytree(response_stage_dir, tmp_path / "out")
    cfg, out = _write_cfg(tmp_path)
    assert main(["export", "--config", cfg, "--format", "plotdata"]) == 0
    result = load_result(load_config(cfg))
    with open(os.path.join(out, "exports", "plotdata_slow_manifold.csv")) as fh:
        rows = list(csv.reader(fh))
    names = result.model.state_names
    phases = result.cycle.grid_size  # at most 128 phases: every grid phase
    assert phases == 128 and len(rows) == 1 + phases * 33 * len(names) * 3
    evaluate = {
        "K": lambda th, sg: evaluate_manifold(result.manifold, th, sg),
        "Z": result.response.phase.evaluate,
        "I": result.response.amplitude.evaluate,
    }
    got = {f: [] for f in evaluate}
    want = {f: [] for f in evaluate}
    points = {}
    for th, sg, label, value in rows[1:]:
        f, name = label.split(".")
        if (th, sg, f) not in points:
            points[th, sg, f] = evaluate[f](float(th), float(sg))
        got[f].append(float(value))
        want[f].append(points[th, sg, f][names.index(name)])
    assert len(points) == phases * 33 * 3
    for f in evaluate:
        peak = np.max(np.abs(want[f]))
        assert np.max(np.abs(np.subtract(got[f], want[f]))) <= 1e-13 * peak, f


def test_export_expansion_file_names(oracle_run, tmp_path):
    """Curves up to the nominal order, coefficient tables for every stored
    order (the manifold keeps one extra order)."""
    result = oracle_run.result
    nominal, total = result.manifold.nominal_order, result.manifold.total_order
    assert (nominal, total, result.response.order) == (5, 6, 5)
    expect = {
        "manifold": [f"curve_manifold_order_{n:02d}.csv" for n in range(nominal + 1)]
        + [f"manifold_order_{n:02d}_coeff.csv" for n in range(total + 1)],
        "response": [
            name
            for label in ("phase", "amplitude")
            for n in range(nominal + 1)
            for name in (
                f"curve_response_{label}_order_{n:02d}.csv",
                f"response_{label}_order_{n:02d}_coeff.csv",
            )
        ],
    }
    for what, names in expect.items():
        out = tmp_path / what
        files = export_artifacts(result, what, "csv", out_dir=str(out))
        assert sorted(os.path.basename(f) for f in files) == sorted(names)
        assert sorted(os.listdir(out)) == sorted(names)


def test_cycle_only_export_writes_the_orbit_of_the_pass(tmp_path):
    """A cycle-only directory holds no coefficients; its export writes the
    orbit of the pass recomputed from the stored anchor and period, which is
    find_cycle's series bit for bit."""
    cfg, out = _write_cfg(tmp_path)
    config = load_config(cfg)
    cold = run_pipeline(config, through=Stage.CYCLE)
    files = export_artifacts(load_result(config), "cycle", "csv", out_dir=str(tmp_path / "x"))
    assert [os.path.basename(f) for f in files] == ["curve_cycle.csv", "cycle_coeff.csv"]
    write_series_csv(tmp_path / "want.csv", cold.cycle.series)
    assert (tmp_path / "x" / "cycle_coeff.csv").read_bytes() == (
        tmp_path / "want.csv").read_bytes()


def test_export_frames_are_real_columns(ei_run, tmp_path):
    # the frame curves are the real frames, period-2 lift included
    files = export_artifacts(ei_run.result, "frames", "csv", out_dir=str(tmp_path))
    assert len(files) == 12 + 2  # six columns per frame, and each frame's table
    path = tmp_path / "curve_bundle_column_4.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    expect = ei_run.bundle_real[:, :, 4]
    assert rows.shape == (2 * ei_run.result.cycle.grid_size, 7)
    assert np.array_equal(rows[:, 0], ei_run.theta_real)
    assert np.array_equal(rows[:, 1:], expect)  # %.17g round-trips exactly


def test_export_selector_validation(oracle_run):
    with pytest.raises(ConfigError):
        export_artifacts(oracle_run.result, "bogus", "csv")
    with pytest.raises(ConfigError):
        export_artifacts(oracle_run.result, "all", "bogus")
    # validation.json and accuracy_domain.csv are already in the run
    # directory; there is no separate export of them
    with pytest.raises(ConfigError, match="unknown export selector"):
        export_artifacts(oracle_run.result, "validation", "csv")
