import json
import os
import shutil

import numpy as np
import pytest

from slowphase.cli import main
from slowphase.config import RunConfig
from slowphase.export import export_artifacts
from slowphase.frames import build_real_frames
from slowphase.pipeline import (
    load_cycle,
    load_frames,
    load_manifold,
    load_response,
    load_spectrum,
    run_pipeline,
)
from slowphase.store import sha256_file, write_json, write_series_csv


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
    assert loaded.kind == original.kind
    assert loaded.representation == original.representation
    assert np.array_equal(loaded.series.coef, original.series.coef)
    assert loaded.period == original.period
    assert np.array_equal(loaded.exponents, original.exponents)
    assert loaded.blocks == original.blocks


def test_artifact_reload_round_trip(oracle_run, ei_run, tmp_path):
    out = oracle_run.config.out_dir
    result = oracle_run.result
    cycle = load_cycle(out)
    assert cycle.period == result.cycle.period
    assert np.array_equal(cycle.series.coef, result.cycle.series.coef)
    spectrum = load_spectrum(out)
    assert np.array_equal(spectrum.multipliers, result.spectrum.multipliers)
    manifold = load_manifold(out)
    assert manifold.nominal_order == result.manifold.nominal_order
    for n in range(manifold.total_order + 1):
        assert np.array_equal(
            manifold.order_series(n).coef, result.manifold.order_series(n).coef
        )
    response = load_response(out)
    assert response.order == result.response.order
    assert response.solvability_residual == result.response.solvability_residual

    # a response.json with the keys of the retired real-representation path,
    # as earlier versions wrote it, still loads
    legacy = tmp_path / "legacy_response"
    legacy.mkdir()
    for name in os.listdir(out):
        if name.startswith("response_"):
            shutil.copy(os.path.join(out, name), legacy)
    meta = _read_json(os.path.join(out, "response.json"))
    assert "representation" not in meta and "fold_defect" not in meta
    meta.update(representation="real", fold_defect=3.0e-16)
    write_json(legacy / "response.json", meta)
    response = load_response(str(legacy))
    assert response.order == result.response.order
    assert response.normalization_defect == result.response.normalization_defect
    assert np.array_equal(response.phase_residuals, result.response.phase_residuals)
    for n in range(response.order + 1):
        assert np.array_equal(
            response.amplitude.order_series(n).coef,
            result.response.amplitude.order_series(n).coef,
        )

    # frames: the ei cycle has a negative multiplier, so its real frames
    # carry the period-2 lift; they are neither stored nor loaded, and
    # build_real_frames rebuilds them from the loaded complex frames
    out = ei_run.config.out_dir
    result = ei_run.result
    assert not [n for n in os.listdir(out) if n.endswith("_real_coeff.csv")]
    frames = load_frames(out)
    assert frames["band_cut"] == result.band_cut
    assert "bundle_real" not in frames and "adjoint_real" not in frames
    assert any(b.kind == "negative" for b in ei_run.bundle_real.blocks)

    def assert_same_frames(frames):
        rebuilt = build_real_frames(frames["bundle"], frames["adjoint"])
        for name in ("bundle", "adjoint"):
            _assert_same_frame(frames[name], getattr(result, name))
        for name, frame in zip(("bundle_real", "adjoint_real"), rebuilt):
            _assert_same_frame(frame, getattr(ei_run, name))

    assert_same_frames(frames)

    # a frames.json that also lists the real frames, with their tables,
    # as earlier versions wrote it, still loads
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    meta = _read_json(os.path.join(out, "frames.json"))
    for name in ("bundle", "adjoint"):
        shutil.copy(os.path.join(out, f"frame_{name}_coeff.csv"), legacy)
        frame = getattr(ei_run, f"{name}_real")
        write_series_csv(legacy / f"frame_{name}_real_coeff.csv", frame.series)
        meta[f"{name}_real"] = {
            "kind": frame.kind,
            "representation": frame.representation,
            "exponents": frame.exponents,
            "classes": frame.classes,
            "blocks": [
                {"kind": b.kind, "index": b.index, "alpha": b.alpha, "beta": b.beta}
                for b in frame.blocks
            ],
            "residual": frame.residual,
        }
    write_json(legacy / "frames.json", meta)
    frames = load_frames(str(legacy))
    assert "bundle_real" not in frames and "adjoint_real" not in frames
    assert_same_frames(frames)


def test_staged_subcommands_resume(tmp_path):
    cfg, out = _write_cfg(tmp_path)
    assert main(["cycle", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "cycle.json"))
    assert not os.path.exists(os.path.join(out, "spectrum.json"))
    cycle_digest = sha256_file(os.path.join(out, "cycle_coeff.csv"))

    assert main(["floquet", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "spectrum.json"))
    # the cycle stage was reused, not recomputed
    assert sha256_file(os.path.join(out, "cycle_coeff.csv")) == cycle_digest

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
    assert f"order {first}" in err and f"manifold.order = {second}" in err
    assert not os.path.exists(os.path.join(out, "response.json"))


def test_stale_response_order_rejected(tmp_path, capsys):
    cfg, out = _write_cfg(tmp_path)
    assert main(["response", "--config", cfg]) == 0
    # a response at order 4 next to a manifold claiming order 5
    manifold_json = os.path.join(out, "manifold.json")
    meta = _read_json(manifold_json)
    meta["nominal_order"] = 5
    write_json(manifold_json, meta)
    cfg_5 = tmp_path / "run5.cfg"
    cfg_5.write_text(ORACLE_CFG.replace("manifold.order = 4", "manifold.order = 5").format(out=out))
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg_5)]) == 4
    err = capsys.readouterr().err
    assert "stored response has order 4" in err and "manifold.order = 5" in err


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
    # the primary CSV artifacts are byte-identical too
    for name in sorted(os.listdir(outs[0])):
        if name.endswith(".csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_exit_code_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 4


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
    ],
    ids=["rtol", "max_steps", "model", "param"],
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
            entries=[((2,), 0, 0.0)], flagged=[((2,), 0, 0.0)],
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
    assert len(files) == 12
    path = tmp_path / "curve_bundle_column_4.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    expect = ei_run.bundle_real.grid_values().real[:, :, 4]
    assert rows.shape == (2 * ei_run.result.cycle.grid_size, 7)
    assert np.array_equal(rows[:, 0], ei_run.bundle_real.series.grid())
    assert np.array_equal(rows[:, 1:], expect)  # %.17g round-trips exactly


def test_export_selector_validation(oracle_run):
    from slowphase.errors import ConfigError

    with pytest.raises(ConfigError):
        export_artifacts(oracle_run.result, "bogus", "csv")
    with pytest.raises(ConfigError):
        export_artifacts(oracle_run.result, "all", "bogus")
