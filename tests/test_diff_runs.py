"""``scripts/diff_runs.py`` on two ``oracle`` runs written to one path."""

import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from slowphase.config import RunConfig
from slowphase.pipeline import run_pipeline

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_runs.py"
_spec = importlib.util.spec_from_file_location("diff_runs", _SCRIPT)
diff_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_runs)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two cold ``oracle`` runs (grid 128, order 4), each written to the same
    path, so even ``manifest.json``'s config echo matches, then moved."""
    root = tmp_path_factory.mktemp("diff_runs")
    work = root / "run"
    config = RunConfig(model="oracle", guess=(1.3, 0.0), relax_time=20.0, grid_size=128,
                       order=4, n_samples=8, out_dir=str(work))
    for name in ("a", "b"):
        run_pipeline(config)
        work.rename(root / name)
    return root / "a", root / "b"


def compare(a, b, bound=None):
    out = io.StringIO()
    status = diff_runs.compare(str(a), str(b), bound, out)
    return status, out.getvalue().splitlines()


def test_two_runs_are_byte_identical(runs):
    status, lines = compare(*runs)
    assert status == 0 and lines[-1] == "status: equal"
    assert len(lines) == 16  # 15 artifacts and the status
    assert all(line.endswith("equal") for line in lines)


def test_a_coefficient_change_is_reported_per_order_and_bounded(runs, tmp_path):
    a, b = runs
    c = tmp_path / "c"
    shutil.copytree(b, c)
    coef = np.load(c / "manifold_coeff.npy")
    coef[2, 1, 0] += 1e-12 * np.abs(coef[2]).max()
    np.save(c / "manifold_coeff.npy", coef)

    status, lines = compare(a, c)
    assert status == 1 and lines[-1] == "status: differ"
    start = lines.index(next(line for line in lines if line.startswith("manifold_coeff.npy")))
    assert "differs" in lines[start]
    orders = {line.split()[1]: float(line.split()[2]) for line in lines[start + 1:start + 7]}
    assert orders.keys() == {str(n) for n in range(6)}
    assert orders["2"] == pytest.approx(1e-12, rel=1e-3)
    assert all(orders[n] == 0.0 for n in orders if n != "2")
    assert compare(a, c, bound=1e-10)[0] == 0
    assert compare(a, c, bound=1e-14)[0] == 1


def test_json_fields_keys_and_files(runs, tmp_path):
    a, b = runs
    c = tmp_path / "c"
    shutil.copytree(b, c)
    meta = json.loads((c / "manifold.json").read_text())
    meta["residuals"][1] *= 1.0 + 1e-9
    del meta["conjugation_drift"]
    (c / "manifold.json").write_text(json.dumps(meta))
    (c / "resonance.json").unlink()

    status, lines = compare(a, c, bound=1.0)
    assert status == 1
    assert "resonance.json only in A".split() in [line.split() for line in lines]
    [residual] = [line for line in lines if line.strip().startswith("residuals[1]")]
    assert float(residual.split()[1]) == pytest.approx(1e-9, rel=1e-3)
    assert "  not numeric: only in A: conjugation_drift" in lines


def _nan_in(run, where, change=None):
    """Set one number of ``run``'s manifold files to NaN: residuals[1] of
    manifold.json, or one order-2 coefficient; with ``change``, also move
    another number by that relative amount.  Returns the file's name."""
    if where == "json":
        meta = json.loads((run / "manifold.json").read_text())
        meta["residuals"][1] = math.nan
        if change:
            meta["residuals"][2] *= 1.0 + change
        (run / "manifold.json").write_text(json.dumps(meta))
        return "manifold.json"
    coef = np.load(run / "manifold_coeff.npy")
    coef[2, 1, 0] = math.nan
    if change:
        coef[3, 1, 0] += change * np.abs(coef[3]).max()
    np.save(run / "manifold_coeff.npy", coef)
    return "manifold_coeff.npy"


@pytest.mark.parametrize("where", ["json", "npy"])
def test_nan_on_one_side_is_above_every_bound(runs, tmp_path, where):
    """A NaN against a finite value is a difference above every bound, not a
    "max relative nan" that passes; the same NaN on both sides is equal, so
    a small change elsewhere in the file passes a bound."""
    a, b = runs
    c, d = tmp_path / "c", tmp_path / "d"
    shutil.copytree(b, c)
    name = _nan_in(c, where)
    status, lines = compare(a, c, bound=1e-3)
    assert status == 1 and lines[-1] == "status: differ"
    [line] = [line for line in lines if line.startswith(name)]
    assert line.endswith("differs, max relative inf"), line

    shutil.copytree(b, d)
    _nan_in(d, where, change=1e-9)
    status, lines = compare(c, d, bound=1e-3)
    assert status == 0 and lines[-1] == "status: within bound"
    worst = float(next(line for line in lines if "max relative" in line).split()[-1])
    assert worst == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("case", ["missing", "file", "empty"])
def test_a_bad_argument_is_a_usage_error(runs, tmp_path, capsys, case):
    """A missing path, a file, or a directory with no file is refused with
    exit 2 and named, as A or as B; it is neither "differ" (1) nor equal."""
    bad = tmp_path / case
    if case == "file":
        bad.write_text("")
    elif case == "empty":
        bad.mkdir()
    for args, label in (([str(bad), str(runs[0])], "A"), ([str(runs[0]), str(bad)], "B")):
        with pytest.raises(SystemExit) as exit_:
            diff_runs.main(args)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"{label} = {str(bad)!r}" in err, err
