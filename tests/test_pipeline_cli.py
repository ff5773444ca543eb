import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from slowphase.cli import main
from slowphase.config import KEYS, RunConfig
from slowphase.export import export_artifacts
from slowphase.frames import build_real_frames
from slowphase.pipeline import STAGES, load_result, run_pipeline
from slowphase.series import FourierSeries
from slowphase.store import sha256_file, write_coeffs, write_json, write_series_csv


ORACLE_CFG = """
model.name = oracle
cycle.guess = 1.3, 0.0
cycle.relax_time = 20.0
cycle.grid_N = 128
manifold.order = 4
validation.samples = 10
output.directory = {out}
"""


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_cfg(tmp_path, out_name="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ORACLE_CFG.format(out=tmp_path / out_name))
    return str(cfg), str(tmp_path / out_name)


def test_pipeline_artifacts_and_manifest(oracle_run):
    out = oracle_run.config.out_dir
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert manifest["failed_stage"] is None
    assert manifest["version"]
    assert manifest["period"] == pytest.approx(2 * np.pi, abs=1e-9)
    # every inventoried file exists and its checksum matches
    for name, digest in manifest["files"].items():
        path = os.path.join(out, name)
        assert os.path.exists(path)
        assert sha256_file(path) == digest
    # the manifest multiplier table comes from the refined exponents
    assert manifest["multipliers"][1][0] == pytest.approx(np.exp(-4 * np.pi), rel=1e-8)


def _assert_same_frame(loaded, original):
    assert np.array_equal(loaded.series.coef, original.series.coef)
    assert loaded.period == original.period
    assert np.array_equal(loaded.exponents, original.exponents)


def test_artifact_reload_round_trip(oracle_run, ei_run):
    result = oracle_run.result
    loaded = load_result(oracle_run.config)
    cycle = loaded.cycle
    assert cycle.period == result.cycle.period
    assert np.array_equal(cycle.series.coef, result.cycle.series.coef)
    assert cycle.series.period == result.cycle.series.period
    spectrum = loaded.spectrum
    assert np.array_equal(spectrum.multipliers, result.spectrum.multipliers)
    manifold = loaded.manifold
    assert manifold.nominal_order == result.manifold.nominal_order
    for n in range(manifold.total_order + 1):
        assert np.array_equal(
            manifold.order_series(n).coef, result.manifold.order_series(n).coef
        )
    assert manifold.coeffs.period == result.manifold.coeffs.period
    response = loaded.response
    assert response.order == result.response.order
    assert response.solvability_residual == result.response.solvability_residual
    assert response.normalization_defect == result.response.normalization_defect
    assert np.array_equal(response.phase_residuals, result.response.phase_residuals)
    for label in ("phase", "amplitude"):
        loaded, original = getattr(response, label), getattr(result.response, label)
        assert loaded.period == original.period
        for n in range(response.order + 1):
            assert np.array_equal(
                loaded.order_series(n).coef, original.order_series(n).coef
            )

    # frames: the ei cycle has a negative multiplier, so its real frames
    # carry the period-2 lift; they are neither stored nor loaded, and
    # build_real_frames rebuilds them from the loaded complex frames
    out = ei_run.config.out_dir
    result = ei_run.result
    assert not [n for n in os.listdir(out) if "_real" in n]
    ei_loaded = load_result(ei_run.config)
    frames = {name: getattr(ei_loaded, name) for name in ("bundle", "adjoint")}
    assert ei_loaded.band_cut == result.band_cut
    assert "real_negative" in result.bundle.classes
    assert ei_run.bundle_real.period == 2.0

    def assert_same_frames(frames):
        rebuilt = build_real_frames(frames["bundle"], frames["adjoint"])
        for name in ("bundle", "adjoint"):
            _assert_same_frame(frames[name], getattr(result, name))
        for name, series in zip(("bundle_real", "adjoint_real"), rebuilt):
            assert np.array_equal(series.coef, getattr(ei_run, name).coef)
            assert series.period == getattr(ei_run, name).period

    assert_same_frames(frames)


def test_staged_subcommands_resume(tmp_path):
    cfg, out = _write_cfg(tmp_path)
    assert main(["cycle", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "cycle.json"))
    assert not os.path.exists(os.path.join(out, "spectrum.json"))
    cycle_digest = sha256_file(os.path.join(out, "cycle_coeff.npy"))

    assert main(["floquet", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "spectrum.json"))
    # the cycle stage was reused, not recomputed
    assert sha256_file(os.path.join(out, "cycle_coeff.npy")) == cycle_digest

    assert main(["manifold", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "manifold.json"))
    assert main(["response", "--config", cfg]) == 0
    assert main(["validate", "--config", cfg]) == 0
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert manifest["validation"]["order0_residual"] < 1e-10

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
    # a response at order 4 next to a manifold claiming order 5
    manifold_json = os.path.join(out, "manifold.json")
    meta = _read_json(manifold_json)
    meta["nominal_order"] = 5
    meta["inputs"]["manifold.order"] = "5"
    write_json(manifold_json, meta)
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
    """Keys of later stages, of the resonance check and of the validation, and
    the output directory, leave the stored stages fresh."""
    cfg, out = _write_cfg(tmp_path)
    assert main(["floquet", "--config", cfg]) == 0
    moved = tmp_path / "moved"
    shutil.copytree(out, moved)
    changed = tmp_path / "changed.cfg"
    changed.write_text(
        ORACLE_CFG.replace("manifold.order = 4", "manifold.order = 5").format(out=moved)
        + "run.seed = 7\nresonance.tol = 1e-9\nvalidation.samples = 3\n"
    )
    assert main(["response", "--config", str(changed)]) == 0
    assert _read_json(os.path.join(moved, "response.json"))["order"] == 5


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
        manifest["files"][name] = sha256_file(out / name)
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


def test_manifest_lists_every_artifact(oracle_run):
    out = oracle_run.config.out_dir
    manifest = _read_json(os.path.join(out, "manifest.json"))
    on_disk = {
        n for n in os.listdir(out)
        if n.endswith((".npy", ".csv", ".json")) and n != "manifest.json"
    }
    assert set(manifest["files"]) == on_disk
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
        ("cycle.json", _drop_inputs),
        ("adjoint_crosscheck.json", os.remove),
    ],
    ids=[
        "missing", "truncated", "dtype", "shape", "non_finite", "bit_flip",
        "manifest_missing", "not_inventoried", "digest_differs",
        "earlier_frame_keys", "no_inputs", "crosscheck_missing",
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
                    write_series_csv(table, FourierSeries(order))
            else:
                write_series_csv(out / name.replace(".npy", ".csv"), FourierSeries(coef))
            os.remove(out / name)
    cfg, _ = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert str(out / "cycle_coeff.npy") in err and "missing" in err


def test_determinism_byte_identical(tmp_path):
    """Two runs with the same config produce identical artifact bytes."""
    outs = []
    for name in ("a", "b"):
        cfg, out = _write_cfg(tmp_path / name if False else tmp_path, out_name=name)
        # fresh config file per run directory
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(ORACLE_CFG.format(out=tmp_path / name))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main([
            "export", "--config", str(cfg_path), "--what", "all", "--format", "csv",
        ]) == 0
        outs.append(tmp_path / name)
    a_files = sorted(os.listdir(outs[0] / "exports"))
    b_files = sorted(os.listdir(outs[1] / "exports"))
    assert a_files == b_files
    for name in a_files:
        assert (outs[0] / "exports" / name).read_bytes() == (
            outs[1] / "exports" / name
        ).read_bytes(), name
    # the primary coefficient and CSV artifacts are byte-identical too
    stored = [n for n in sorted(os.listdir(outs[0])) if n.endswith((".npy", ".csv"))]
    assert len([n for n in stored if n.endswith("_coeff.npy")]) == 6
    for name in stored:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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


def test_removed_representation_key_rejected(tmp_path, capsys):
    # the real-representation response path and its knob are gone; an old
    # config that still sets it fails loudly instead of being ignored
    cfg, out = _write_cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("frames.representation = real\n")
    assert main(["run", "--config", cfg]) == 4
    assert "unknown config key: frames.representation" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "line, named",
    [
        ("integrator.rtol = -1", "integrator.rtol"),
        ("integrator.max_steps = 0", "integrator.max_steps"),
        ("model.name = nosuch", "'nosuch'"),
        ("model.params.foo = 1", "model.params.foo"),
        ("validation.samples = 0", "validation.samples"),
        ("resonance.order = 1", "resonance.order"),
        ("validation.horizon_periods = -1", "validation.horizon_periods"),
        ("validation.horizon_periods = nan", "validation.horizon_periods"),
        ("cycle.relax_time = nan", "cycle.relax_time"),
        ("cycle.newton_tol = -1", "cycle.newton_tol"),
        ("manifold.gauge = 0", "manifold.gauge"),
        ("manifold.gauge = inf", "manifold.gauge"),
        ("resonance.tol = -1", "resonance.tol"),
        ("solver.small_divisor_tol = -1", "solver.small_divisor_tol"),
        ("solver.solvability_tol = -1", "solver.solvability_tol"),
        ("validation.tolerances = 1e-6, -1", "validation.tolerances"),
        ("validation.sigma_scan_max = -1", "validation.sigma_scan_max"),
        ("run.seed = -1", "run.seed"),
        ("cycle.guess = 1", "cycle.guess"),
        ("bundle.scale = 1", "bundle.scale"),
    ],
    ids=[
        "rtol", "max_steps", "model", "param", "samples", "resonance_order",
        "horizon", "horizon_nan", "relax_time_nan", "newton_tol", "gauge_zero",
        "gauge_inf", "resonance_tol", "small_divisor_tol", "solvability_tol",
        "tolerance_entry", "sigma_scan_max", "seed", "guess_length",
        "bundle_scale",
    ],
)
def test_bad_config_value_exits_4(tmp_path, capsys, line, named):
    # a valid key with an invalid value is a configuration failure, not a
    # numerical abort, and the message names what is wrong
    cfg, _ = _write_cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert main(["cycle", "--config", cfg]) == 4
    assert named in capsys.readouterr().err


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


def test_resonance_abort_keeps_partial_artifacts(tmp_path, monkeypatch):
    """A flagged resonance halts the pipeline with the offending index."""
    import slowphase.pipeline as pipeline_mod
    from slowphase.cycle import ResonanceReport

    def fake_check(spectrum, order, tol):
        return ResonanceReport(
            order=order, tol=tol,
            checked=1, flagged=[((2,), 0, 0.0)],
            manifold_divisors={}, phase_divisors={}, amplitude_divisors={},
        )

    monkeypatch.setattr(pipeline_mod, "check_resonances", fake_check)
    config = RunConfig(
        model="oracle", guess=(1.3, 0.0), relax_time=20.0, grid_size=128,
        order=3, out_dir=str(tmp_path / "out"),
    )
    from slowphase.errors import ResonanceError

    with pytest.raises(ResonanceError):
        run_pipeline(config)
    manifest = _read_json(tmp_path / "out" / "manifest.json")
    assert manifest["failed_stage"] == "floquet"
    assert "multi-index" in manifest["error"]
    assert os.path.exists(tmp_path / "out" / "cycle.json")


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


def test_export_frames_are_real_columns(ei_run, tmp_path):
    # the frame curves are the real frames, period-2 lift included
    files = export_artifacts(ei_run.result, "frames", "csv", out_dir=str(tmp_path))
    assert len(files) == 12 + 2  # six columns per frame, and each frame's table
    path = tmp_path / "curve_bundle_column_4.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    expect = ei_run.bundle_real.samples().real[:, :, 4]
    assert rows.shape == (2 * ei_run.result.cycle.grid_size, 7)
    assert np.array_equal(rows[:, 0], ei_run.bundle_real.grid())
    assert np.array_equal(rows[:, 1:], expect)  # %.17g round-trips exactly


def test_export_selector_validation(oracle_run):
    from slowphase.errors import ConfigError

    with pytest.raises(ConfigError):
        export_artifacts(oracle_run.result, "bogus", "csv")
    with pytest.raises(ConfigError):
        export_artifacts(oracle_run.result, "all", "bogus")
    # validation.json and accuracy_domain.csv are already in the run
    # directory; there is no separate export of them
    with pytest.raises(ConfigError, match="unknown export selector"):
        export_artifacts(oracle_run.result, "validation", "csv")
