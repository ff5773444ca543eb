import hashlib
import io
import tokenize
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib import format as npy

from slowphase.config import (
    DEFAULT_GUESSES,
    KEYS,
    RunConfig,
    apply_env_overrides,
    build_run_config,
    parse_config_text,
)
from slowphase.errors import ConfigError
from slowphase.integrate import RTOL_FLOOR, IntegratorSettings
from slowphase.series import FourierSeries, FourierTaylor
from slowphase.store import (
    format_float,
    read_bytes,
    read_coeffs,
    read_json,
    read_series_csv,
    write_coeffs,
    write_json,
    write_rows_csv,
    write_series_csv,
)
from slowphase.validation import tolerance_labels


def _sha256(path):
    """The sha256 of the bytes on disk, against which the store's recorded
    digests are checked."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def test_key_set_twice_rejected():
    # the second line once won silently; an environment override of a key
    # the file sets is no repeat, and still replaces it
    text = "manifold.order = 4\ncycle.grid_N = 128\nmanifold.order = 7\n"
    with pytest.raises(ConfigError, match="manifold.order is set twice, on lines 1 and 3"):
        parse_config_text(text)
    kv = parse_config_text("manifold.order = 4\n")
    merged = apply_env_overrides(kv, {"SLOWPHASE_manifold__order": "7"})
    assert build_run_config(merged).order == 7


def _readme_config_block() -> str:
    """The fenced block after "A config file is flat dotted keys" in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("A config file is flat dotted keys", 1)[1].split("```\n", 2)[1]


def test_readme_config_block_is_the_key_table():
    # every key once, at its default, so the docs cannot drift from the table
    kv = parse_config_text(_readme_config_block())
    assert set(kv) == {key.name for key in KEYS} | {"model.params.eta_e"}
    default = RunConfig(model="ei", model_params={"eta_e": -5.0})
    assert build_run_config(kv) == replace(default, guess=default.effective_guess())


def test_default_guess_per_model():
    assert RunConfig(model="oracle").effective_guess() == (1.3, 0.0)
    assert len(RunConfig(model="ei").effective_guess()) == 6


def test_every_field_has_one_key():
    # a new RunConfig or IntegratorSettings field cannot be forgotten: it
    # must be declared in the key table, which parses, checks and echoes it
    paths = [f.name for f in fields(RunConfig)]
    paths.remove("model_params")  # the model.params.<name> prefix
    paths.remove("integrator")
    paths += [f"integrator.{f.name}" for f in fields(IntegratorSettings)]
    assert sorted(key.field for key in KEYS) == sorted(paths)
    assert len({key.name for key in KEYS}) == len(KEYS)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)

# each key's value drawn from the domain its check accepts; a key missing
# here fails test_echo_round_trip with a KeyError
_VALUES = {
    "model.name": st.sampled_from(sorted(DEFAULT_GUESSES)),
    "integrator.rtol": st.floats(min_value=RTOL_FLOOR, allow_nan=False),
    "integrator.atol": _POSITIVE,
    "integrator.max_steps": st.integers(min_value=1),
    "cycle.guess": st.none() | st.lists(_FINITE, min_size=1, max_size=6).map(tuple),
    "cycle.relax_time": st.floats(min_value=0.0, allow_infinity=False),
    "cycle.newton_tol": _POSITIVE,
    "cycle.grid_N": st.integers(min_value=1, max_value=40).map(lambda e: 2**e),
    "manifold.order": st.integers(min_value=1),
    "manifold.gauge": _FINITE.filter(lambda v: v != 0),
    # the parser lists tolerances in descending order; no two share a label
    # of the reports (validation.json's 1.0e-08, accuracy_domain.csv's 1e-08)
    "validation.tolerances": st.lists(
        _POSITIVE, min_size=1, max_size=4,
        unique_by=(lambda t: tolerance_labels(t)[0], lambda t: tolerance_labels(t)[1]),
    ).map(lambda v: tuple(sorted(v, reverse=True))),
    "validation.samples": st.integers(min_value=1),
    "run.seed": st.integers(min_value=0),
    "output.directory": st.text(
        alphabet=st.sampled_from("abcXYZ019_-./"), min_size=1, max_size=20
    ).filter(lambda s: s.strip() == s),
    "solver.small_divisor_tol": _POSITIVE,
    "solver.solvability_tol": _POSITIVE,
}


@st.composite
def _configs(draw):
    top, integ = {}, {}
    for key in KEYS:
        owner, _, name = key.field.rpartition(".")
        (integ if owner else top)[name] = draw(_VALUES[key.name])
    params = draw(st.dictionaries(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), _FINITE))
    return RunConfig(
        model_params=params, integrator=IntegratorSettings(**integ), **top
    ).validate()


@settings(max_examples=100, deadline=None)
@given(_configs())
def test_echo_round_trip(config):
    echo = config.echo_text()
    parsed = build_run_config(parse_config_text(echo))
    # the echo names the effective guess, so the model default is resolved
    assert parsed == replace(config, guess=config.effective_guess())
    # canonical-form fixed point: echo of the echo is identical
    assert parsed.echo_text() == echo


def test_echo_round_trip_numpy_scalars():
    # a config built in Python may hold NumPy scalars; the echo shows the
    # Python numbers they hold, so it parses back
    config = RunConfig(
        model="ei",
        relax_time=np.float64(20.0),
        grid_size=np.int64(128),
        tolerances=(np.float64(1e-6),),
        model_params={"eta_e": np.float64(-5.2)},
    )
    echo = config.echo_text()
    assert "cycle.relax_time = 20.0\n" in echo
    assert "model.params.eta_e = -5.2\n" in echo
    parsed = build_run_config(parse_config_text(echo))
    assert parsed == replace(config, guess=config.effective_guess())
    assert parsed.echo_text() == echo


def test_float_format_round_trips():
    values = [1.0, np.pi, 1e-300, -2.2250738585072014e-308, 0.1 + 0.2]
    for v in values:
        assert float(format_float(v)) == v


def test_rows_csv_bytes(tmp_path):
    """All-float rows and rows with a string cell both write '%.17g' floats
    and the strings as they are: -0.0 keeps its sign, 1e-300 its exponent."""
    rows = [
        (0.1, -0.0, 1e-300, np.float64(2.5)),
        [np.float64(1.0) / 3.0, 1, np.float32(0.1), -np.inf],
        (0.5, -0.0, "K.x", 1e-300),
        (np.nan, 0.0, np.str_("I.y"), -1.0),
    ]
    path = write_rows_csv(str(tmp_path / "rows.csv"), ["a", "b", "c", "d"], rows)
    assert Path(path).read_bytes() == (
        b"a,b,c,d\n"
        b"0.10000000000000001,-0,1e-300,2.5\n"
        b"0.33333333333333331,1,0.10000000149011612,-inf\n"
        b"0.5,-0,K.x,1e-300\n"
        b"nan,0,I.y,-1\n"
    )
    # the bytes of formatting cell by cell
    expected = ["a,b,c,d"] + [
        ",".join(c if isinstance(c, str) else format_float(c) for c in row) for row in rows
    ]
    assert Path(path).read_bytes() == ("\n".join(expected) + "\n").encode()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_series_csv_round_trip(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    series = FourierSeries.from_samples(rng.standard_normal((32, 3)))
    path = str(tmp_path_factory.mktemp("csv") / "series.csv")
    write_series_csv(path, series)
    back = read_series_csv(path)
    assert back.real
    assert back.value_shape == series.value_shape
    assert np.array_equal(back.coef, series.coef)


# signed zeros, the smallest subnormal, the largest subnormal, extremes
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-300, -1e300]


@settings(max_examples=40, deadline=None)
@given(
    orders=st.sampled_from([(), (1,), (4,)]),  # one series, or stacked orders
    grid=st.sampled_from([2, 8]),
    value_shape=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_coeffs_round_trip(tmp_path_factory, orders, grid, value_shape, seed):
    rng = np.random.default_rng(seed)
    shape = (*orders, grid, *value_shape)
    parts = rng.standard_normal((2, *shape))
    parts = np.where(rng.random(parts.shape) < 0.5, rng.choice(SPECIAL, parts.shape), parts)
    coef = np.empty(shape, dtype=complex)
    coef.real, coef.imag = parts  # keeps the signs of zeros
    FourierTaylor(coef.reshape(-1, grid, *value_shape))  # a valid expansion
    folder = tmp_path_factory.mktemp("npy")
    path = str(folder / "coeff.npy")
    write_coeffs(path, coef)
    back = read_coeffs(path, shape)
    assert back.dtype == np.dtype("<c16") and back.shape == shape
    assert np.array_equal(back, coef)
    assert np.array_equal(np.signbit(back.real), np.signbit(coef.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(coef.imag))
    # a Fortran-ordered or non-contiguous array writes the bytes of its C copy
    wide = np.zeros((*shape, 2), dtype=complex)
    wide[..., 1] = coef
    for name, layout in (("fortran", np.asfortranarray(coef)), ("strided", wide[..., 1])):
        other = str(folder / f"{name}.npy")
        write_coeffs(other, layout)
        assert Path(other).read_bytes() == Path(path).read_bytes(), name


def _hand_series(re, im, real=False):
    """Series from separate real and imaginary parts, keeping signed zeros."""
    coef = np.zeros(np.shape(re), dtype=complex)
    coef.real = re
    coef.imag = im
    return FourierSeries(coef, real=real)


def test_series_csv_layout(tmp_path):
    # rows in FFT order: k = 0, 1, -2 (Nyquist), -1
    vector = _hand_series(
        re=[[0.1, -0.0], [0.5, 0.0], [3.0, -1.5], [0.5, 0.0]],
        im=[[0.0, 1e-300], [-0.25, 0.0], [0.0, 2.0], [0.25, -0.0]],
    )
    path = str(tmp_path / "vector.csv")
    write_series_csv(path, vector)
    assert Path(path).read_bytes() == (
        b"# grid_size=4 value_shape=2\n"
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
    write_series_csv(path, _hand_series(re, im))
    assert Path(path).read_bytes() == (
        b"# grid_size=4 value_shape=2x2\n"
        b"k,re_c0_0,im_c0_0,re_c0_1,im_c0_1,re_c1_0,im_c1_0,re_c1_1,im_c1_1\n"
        b"-2,0,0,-2.5,0,0,0,0,0.33333333333333331\n"
        b"-1,0,0,0,0,0,0,0,0\n"
        b"0,1,0,-0,0,0.10000000000000001,-0,1e-300,0\n"
        b"1,0,0,0,0,0,0,0,0\n"
    )

    # a real series lists its one-sided rows k = 0..N/2, and reads back so
    one_sided = _hand_series(re=[0.1, 0.5, 3.0], im=[0.0, -0.25, 0.0], real=True)
    path = str(tmp_path / "real.csv")
    write_series_csv(path, one_sided)
    assert Path(path).read_bytes() == (
        b"# grid_size=4 value_shape=\n"
        b"k,re_c,im_c\n"
        b"0,0.10000000000000001,0\n"
        b"1,0.5,-0.25\n"
        b"2,3,0\n"
    )
    back = read_series_csv(path)
    assert back.real and back.coef.tobytes() == one_sided.coef.tobytes()


# a one-sided table as earlier versions wrote it, with a period in its header
OLD_TABLE = b"k,re_c,im_c\n0,0.10000000000000001,0\n1,0.5,-0.25\n2,3,0\n"


def test_series_csv_reads_an_earlier_period_one_header(tmp_path):
    path = tmp_path / "old.csv"
    path.write_bytes(b"# grid_size=4 period=1 value_shape=\n" + OLD_TABLE)
    back = read_series_csv(str(path))
    want = _hand_series(re=[0.1, 0.5, 3.0], im=[0.0, -0.25, 0.0], real=True)
    assert back.real and back.coef.tobytes() == want.coef.tobytes()


def test_series_csv_refuses_a_period_two_header(tmp_path):
    # a period-2 table read as period 1 would halve every derivative
    path = tmp_path / "lift.csv"
    path.write_bytes(b"# grid_size=4 period=2 value_shape=\n" + OLD_TABLE)
    with pytest.raises(ValueError) as err:
        read_series_csv(str(path))
    assert str(err.value).startswith(f"{path}: a period-2 series")


def _series_table(tmp_path, meta, rows):
    """A coefficient table with metadata line ``meta`` and one row per k."""
    path = tmp_path / "table.csv"
    path.write_bytes(meta + b"k,re_c,im_c\n" + b"".join(b"%d,0.5,0\n" % k for k in rows))
    return str(path)


def test_series_csv_reads_only_a_whole_row_set(tmp_path):
    # the rows of a grid-4 table are k = 0..2 (one-sided) or k = -2..1
    # (two-sided); any other set was once read as a two-sided series
    meta = b"# grid_size=4 value_shape=\n"
    assert read_series_csv(_series_table(tmp_path, meta, (0, 1, 2))).real is True
    assert read_series_csv(_series_table(tmp_path, meta, (-2, -1, 0, 1))).real is False
    for rows in ((0, 1), (0, 1, 2, 3), (-1, 0, 1, 2), (0, 2, 1), (-2, -1, 0, 1, 2)):
        path = _series_table(tmp_path, meta, rows)
        with pytest.raises(ValueError) as err:
            read_series_csv(path)
        assert str(err.value).startswith(f"{path}: its {len(rows)} rows are neither"), rows


def test_series_csv_header_needs_grid_size_and_value_shape(tmp_path):
    for meta, missing in (
        (b"# grid_size=4\n", "value_shape"),
        (b"# value_shape=\n", "grid_size"),
        (b"# period=1\n", "grid_size, value_shape"),
    ):
        path = _series_table(tmp_path, meta, (0, 1, 2))
        with pytest.raises(ValueError) as err:
            read_series_csv(path)
        assert str(err.value) == f"{path}: series metadata line lacks {missing}"


def test_json_and_checksum_determinism(tmp_path):
    payload = {"b": 1.5, "a": [1, 2, 3], "c": {"nested": True}}
    p1, p2 = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    write_json(p1, payload)
    write_json(p2, payload)
    assert _sha256(p1) == _sha256(p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


_PART = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)


@settings(max_examples=60, deadline=None)
@given(
    coef=hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=5),
        elements=st.builds(complex, _PART, _PART),
    ),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.integers(min_value=0),
    imaginary=st.booleans(),
)
def test_coeffs_round_trip_any_shape(tmp_path_factory, coef, bad, where, imaginary):
    """Any shape and any finite values, signed zeros and subnormals included,
    come back bit for bit; one non-finite entry makes the file unreadable."""
    folder = tmp_path_factory.mktemp("npy_any")
    path = str(folder / "coeff.npy")
    write_coeffs(path, coef)
    back = read_coeffs(path, coef.shape)
    assert back.shape == coef.shape
    assert back.tobytes() == np.ascontiguousarray(coef).tobytes()
    if coef.size == 0:
        return
    broken = coef.copy()
    flat = broken.reshape(-1)
    if imaginary:
        flat.imag[where % flat.size] = bad
    else:
        flat.real[where % flat.size] = bad
    write_coeffs(path, broken)
    with pytest.raises(ConfigError, match="non-finite"):
        read_coeffs(path, coef.shape)


def _npy_bytes(coef, layout) -> bytes:
    """``.npy`` bytes of ``coef`` in a form np.load reads but write_coeffs
    never writes."""
    buffer = io.BytesIO()
    if layout == "fortran":
        np.save(buffer, np.asfortranarray(coef), allow_pickle=False)
    else:
        npy.write_array(buffer, coef, version={"version_2": (2, 0), "version_3": (3, 0)}[layout])
    return buffer.getvalue()


@pytest.mark.parametrize("layout", ["fortran", "version_2", "version_3"])
def test_coeffs_read_what_np_load_reads(tmp_path, layout):
    """A Fortran-ordered array and a 2.0 or 3.0 header read to the array
    np.load gives, signed zeros included, with the digest of the file."""
    rng = np.random.default_rng(3)
    coef = np.empty((3, 8, 2), dtype=complex)
    coef.real, coef.imag = rng.standard_normal((2, *coef.shape))
    coef.real[0, 0], coef.imag[1, 2] = -0.0, -0.0
    path = tmp_path / "coeff.npy"
    path.write_bytes(_npy_bytes(coef, layout))
    with open(path, "rb") as fh:
        version = npy.read_magic(fh)
        fortran = npy.read_array_header_2_0(fh)[1] if version != (1, 0) else \
            npy.read_array_header_1_0(fh)[1]
    assert (version, fortran) == {"fortran": ((1, 0), True), "version_2": ((2, 0), False),
                                  "version_3": ((3, 0), False)}[layout]
    digests = {}
    back = read_coeffs(str(path), coef.shape, digests)
    want = np.load(path, allow_pickle=False)
    assert back.dtype == want.dtype and back.shape == want.shape
    assert back.flags.f_contiguous == want.flags.f_contiguous
    assert back.tobytes() == want.tobytes() == coef.tobytes()
    assert digests == {str(path): _sha256(str(path))}


def _damaged_npy(kind) -> bytes:
    data = bytearray(_npy_bytes(np.zeros((4, 2), dtype=complex), "version_2"))
    if kind == "magic":
        data[1:6] = b"NOPE!"
    elif kind == "version":
        data[6] = 4
    elif kind == "header":
        # an unbalanced bracket: numpy's header filter raises TokenError
        data[12:20] = b"garbage!"
    elif kind == "truncated":
        del data[-1]
    else:  # an object array, which np.load refuses without pickling
        buffer = io.BytesIO()
        np.save(buffer, np.array([None, 1], dtype=object), allow_pickle=True)
        data = bytearray(buffer.getvalue())
    return bytes(data)


@pytest.mark.parametrize("kind", ["magic", "version", "header", "truncated", "object"])
def test_coeffs_refuse_what_np_load_refuses(tmp_path, kind):
    """Bytes np.load refuses are an unreadable coefficient file naming the
    path, a garbled header too, and record no digest."""
    path = tmp_path / "coeff.npy"
    path.write_bytes(_damaged_npy(kind))
    with pytest.raises((ValueError, tokenize.TokenError)):
        np.load(path, allow_pickle=False)
    digests = {}
    with pytest.raises(ConfigError, match="unreadable coefficient file") as err:
        read_coeffs(str(path), (4, 2), digests)
    assert str(err.value).startswith(f"{path}: ")
    assert digests == {}


@settings(max_examples=30, deadline=None)
@given(
    coef=hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
        elements=st.builds(complex, _PART, _PART),
    ),
    fortran=st.booleans(),
)
def test_coeffs_write_the_bytes_of_np_save_and_record_them(tmp_path_factory, coef, fortran):
    """write_coeffs writes what np.save writes of the C-ordered array and
    records the sha256 of those bytes."""
    path = str(tmp_path_factory.mktemp("npy_save") / "coeff.npy")
    digests = {}
    write_coeffs(path, np.asfortranarray(coef) if fortran else coef, digests)
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(coef), allow_pickle=False)
    assert Path(path).read_bytes() == buffer.getvalue()
    assert digests == {path: _sha256(path)}


def test_json_and_rows_writers_record_their_digests(tmp_path):
    digests = {}
    paths = [
        write_json(str(tmp_path / "meta.json"), {"b": [1.5, -0.0], "a": "x"}, digests),
        write_rows_csv(str(tmp_path / "rows.csv"), ["a", "b"], [(1.0, "x"), (2.5, "y")], digests),
    ]
    assert digests == {path: _sha256(path) for path in paths}
    assert read_json(paths[0], digests) == {"a": "x", "b": [1.5, -0.0]}
    assert digests[paths[0]] == _sha256(paths[0])
    digests = {}
    assert read_bytes(paths[1], digests) == b"a,b\n1,x\n2.5,y\n"
    assert digests == {paths[1]: _sha256(paths[1])}
