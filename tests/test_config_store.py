from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowphase.config import (
    RunConfig,
    apply_env_overrides,
    build_run_config,
    parse_config_text,
)
from slowphase.errors import ConfigError
from slowphase.series import FourierSeries
from slowphase.store import (
    format_float,
    read_series_csv,
    sha256_file,
    write_json,
    write_series_csv,
)


def test_parse_basic_grammar():
    text = """
    # a comment
    model.name = ei
    model.params.eta_e = -4.5   # inline comment
    cycle.grid_N = 1024
    cycle.guess = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6
    validation.tolerances = 1e-6, 1e-8
    """
    kv = parse_config_text(text)
    config = build_run_config(kv)
    assert config.model == "ei"
    assert config.model_params == {"eta_e": -4.5}
    assert config.grid_size == 1024
    assert config.guess == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert config.tolerances == (1e-6, 1e-8)


def test_tolerances_sorted_descending():
    config = build_run_config({"validation.tolerances": "1e-9, 1e-5, 1e-7"})
    assert config.tolerances == (1e-5, 1e-7, 1e-9)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        build_run_config({"nonsense.key": "1"})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        build_run_config({"cycle.grid_N": "1000"})  # not a power of two
    with pytest.raises(ConfigError):
        build_run_config({"manifold.order": "0"})
    with pytest.raises(ConfigError):
        build_run_config({"integrator.rtol": "abc"})
    with pytest.raises(ConfigError):
        parse_config_text("just words without equals")


def test_env_override():
    kv = {"integrator.rtol": "1e-12"}
    env = {"SLOWPHASE_integrator__rtol": "1e-10", "UNRELATED": "x"}
    merged = apply_env_overrides(kv, env)
    assert merged["integrator.rtol"] == "1e-10"


def test_default_guess_per_model():
    assert RunConfig(model="oracle").effective_guess() == (1.3, 0.0)
    assert len(RunConfig(model="ei").effective_guess()) == 6


def test_echo_round_trip():
    config = RunConfig(model="ei", order=7, grid_size=512).validate()
    echoed = build_run_config(parse_config_text(config.echo_text()))
    # canonical-form fixed point: echo of the echo is identical
    assert echoed.echo_text() == config.echo_text()
    assert echoed.effective_guess() == config.effective_guess()


def test_float_format_round_trips():
    values = [1.0, np.pi, 1e-300, -2.2250738585072014e-308, 0.1 + 0.2]
    for v in values:
        assert float(format_float(v)) == v


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_series_csv_round_trip(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    series = FourierSeries.from_samples(rng.standard_normal((32, 3)), period=2.0)
    path = str(tmp_path_factory.mktemp("csv") / "series.csv")
    write_series_csv(path, series)
    back = read_series_csv(path)
    assert back.period == series.period
    assert back.value_shape == series.value_shape
    assert np.array_equal(back.coef, series.coef)


def _hand_series(re, im, period):
    """Series from separate real and imaginary parts, keeping signed zeros."""
    coef = np.zeros(np.shape(re), dtype=complex)
    coef.real = re
    coef.imag = im
    return FourierSeries(coef, period)


def test_series_csv_layout(tmp_path):
    # rows in FFT order: k = 0, 1, -2 (Nyquist), -1
    vector = _hand_series(
        re=[[0.1, -0.0], [0.5, 0.0], [3.0, -1.5], [0.5, 0.0]],
        im=[[0.0, 1e-300], [-0.25, 0.0], [0.0, 2.0], [0.25, -0.0]],
        period=1.0,
    )
    path = str(tmp_path / "vector.csv")
    write_series_csv(path, vector)
    assert Path(path).read_bytes() == (
        b"# grid_size=4 period=1 value_shape=2\n"
        b"k,re_c0,im_c0,re_c1,im_c1\n"
        b"-2,3,0,-1.5,2\n"
        b"-1,0.5,0.25,0,-0\n"
        b"0,0.10000000000000001,0,-0,1e-300\n"
        b"1,0.5,-0.25,0,0\n"
    )

    re = np.zeros((4, 2, 2))
    im = np.zeros((4, 2, 2))
    re[0] = [[1.0, -0.0], [0.1, 1e-300]]
    im[0, 1, 0] = -0.0
    re[2, 0, 1] = -2.5
    im[2, 1, 1] = 1.0 / 3.0
    path = str(tmp_path / "matrix.csv")
    write_series_csv(path, _hand_series(re, im, period=2.0))
    assert Path(path).read_bytes() == (
        b"# grid_size=4 period=2 value_shape=2x2\n"
        b"k,re_c0_0,im_c0_0,re_c0_1,im_c0_1,re_c1_0,im_c1_0,re_c1_1,im_c1_1\n"
        b"-2,0,0,-2.5,0,0,0,0,0.33333333333333331\n"
        b"-1,0,0,0,0,0,0,0,0\n"
        b"0,1,0,-0,0,0.10000000000000001,-0,1e-300,0\n"
        b"1,0,0,0,0,0,0,0,0\n"
    )


def test_json_and_checksum_determinism(tmp_path):
    payload = {"b": 1.5, "a": [1, 2, 3], "c": {"nested": True}}
    p1, p2 = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    write_json(p1, payload)
    write_json(p2, payload)
    assert sha256_file(p1) == sha256_file(p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
