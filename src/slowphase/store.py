"""On-disk artifact formats: binary coefficient arrays, CSV and JSON.

Stored coefficients are ``.npy`` files (:func:`write_coeffs`,
:func:`read_coeffs`): one little-endian complex128 array in C order per
series or expansion, written without pickling, in the series' own layout
along the grid axis (:mod:`slowphase.series`): the N/2 + 1 rows k = 0..N/2
of a real function (the cycle, the manifold, the response functions), or N
rows in FFT order for a complex one (the frames).  The bytes are the doubles
themselves, so a coefficient round-trips exactly, signed zeros included, and
identical arrays give identical files.

The readers (:func:`read_coeffs` and :func:`read_json` read through
:func:`read_bytes`) and the pipeline's writers (:func:`write_coeffs`,
:func:`write_json`, :func:`write_rows_csv`) take an optional ``digests``
dict, in which they record the sha256 of the bytes they read or wrote under
the path; a run's manifest inventory is those digests, and no file is
hashed twice (see :mod:`slowphase.pipeline`).

The text formats serve exports and metadata.  Function CSVs carry a header
``theta,<component names>``; coefficient CSVs carry ``k`` followed by
real/imaginary columns per component, with rows ordered by ascending
wavenumber: k = 0..N/2 for a real series, -N/2..N/2-1 for a complex one.
All floats are written with 17 significant digits ('%.17g', which
round-trips doubles exactly), LF line endings, UTF-8, '.' decimal separator,
so identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tokenize

import numpy as np
from numpy.lib import format as npy

from .errors import ConfigError
from .series import FourierSeries

__all__ = [
    "write_coeffs",
    "read_coeffs",
    "format_float",
    "write_rows_csv",
    "write_function_csv",
    "write_series_csv",
    "read_series_csv",
    "write_json",
    "read_json",
    "read_bytes",
]


COEFF_DTYPE = np.dtype("<c16")  # little-endian complex128


def write_coeffs(path, coef, digests: dict | None = None) -> str:
    """Write a coefficient array as ``.npy``: little-endian complex128, C order.

    Any memory layout of ``coef`` (Fortran order, a strided view) writes the
    bytes of its C-ordered copy.  The file holds the bytes ``np.save`` writes:
    the version-1.0 header, which it picks for every numeric array, then the
    array's own memory, written and hashed in place.
    """
    data = np.ascontiguousarray(coef, dtype=COEFF_DTYPE)
    header = io.BytesIO()
    npy.write_array_header_1_0(header, npy.header_data_from_array_1_0(data))
    header = header.getvalue()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
    _record(digests, path, header, data)
    return path


_HEADER_READERS = {
    (1, 0): npy.read_array_header_1_0,
    (2, 0): npy.read_array_header_2_0,
    # a 3.0 header differs from a 2.0 one only in being UTF-8, which the
    # ASCII header of a numeric dtype does not show
    (3, 0): npy.read_array_header_2_0,
}


def _parse_npy(data: bytes) -> np.ndarray:
    """The array of the ``.npy`` bytes ``data``, as ``np.load`` reads it
    without pickling, copied out of ``data`` once."""
    stream = io.BytesIO(data)  # shares the bytes; only the header is read
    version = npy.read_magic(stream)
    if version not in _HEADER_READERS:
        raise ValueError(f"unsupported .npy format version {version}")
    try:
        shape, fortran_order, dtype = _HEADER_READERS[version](stream)
    except tokenize.TokenError as exc:  # numpy's header filter on unbalanced brackets
        raise ValueError(f"Cannot parse header ({exc})") from exc
    count = math.prod(shape)
    offset = stream.tell()
    if len(data) - offset < count * dtype.itemsize:
        raise ValueError(
            f"EOF: reading array data, expected {count * dtype.itemsize} bytes "
            f"got {len(data) - offset}"
        )
    order = "F" if fortran_order else "C"
    flat = np.frombuffer(data, dtype=dtype, count=count, offset=offset)  # refuses objects
    return flat.reshape(shape, order=order).copy(order=order)


def read_coeffs(path, shape: tuple, digests: dict | None = None) -> np.ndarray:
    """The array :func:`write_coeffs` wrote to ``path``, which must have ``shape``.

    Raises :class:`ConfigError` naming the file when it is missing, truncated
    or not an ``.npy`` file, holds another dtype or shape, or holds a
    non-finite value, so a damaged artifact is never resumed.  With
    ``digests``, the sha256 of the bytes read is stored there under ``path``.
    """
    try:
        data = read_bytes(path)
        coef = _parse_npy(data)
    except FileNotFoundError as exc:
        raise ConfigError(
            f"{path}: coefficient file missing (directories written before "
            "coefficients were stored as .npy must be recomputed)"
        ) from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable coefficient file ({exc})") from exc
    if coef.dtype != COEFF_DTYPE or coef.shape != shape:
        raise ConfigError(
            f"{path}: holds {coef.dtype.str} {coef.shape}, expected "
            f"{COEFF_DTYPE.str} {shape}"
        )
    if not np.isfinite(coef).all():
        raise ConfigError(f"{path}: holds non-finite coefficients")
    _record(digests, path, data)
    return coef


def _record(digests, path, *parts) -> None:
    """Store the sha256 of the concatenated ``parts`` in ``digests``, if given."""
    if digests is not None:
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        digests[path] = digest.hexdigest()


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def write_rows_csv(path, header, rows, digests: dict | None = None) -> str:
    """Write rows of str/float cells; floats formatted deterministically.

    Each row is formatted by one template for its cell types, '%s' for a
    string cell and '%.17g' for any other, which gives the bytes of joining
    the strings and :func:`format_float` of the rest.
    """
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "%s" if issubclass(kind, str) else "%.17g" for kind in kinds
            )
        lines.append(template % row)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    _record(digests, path, data)
    return path


def write_function_csv(path, theta, values, names) -> str:
    """Sampled curve: theta plus one column per component."""
    values = np.asarray(values)
    header = ["theta"] + list(names)
    rows = (
        [theta[i]] + [values[i, j] for j in range(values.shape[1])]
        for i in range(len(theta))
    )
    return write_rows_csv(path, header, rows)


def _component_labels(value_shape) -> list:
    if value_shape == ():
        return ["c"]
    if len(value_shape) == 1:
        return [f"c{i}" for i in range(value_shape[0])]
    return [
        f"c{i}_{j}" for i in range(value_shape[0]) for j in range(value_shape[1])
    ]


def write_series_csv(path, series: FourierSeries) -> str:
    """Coefficient table: k, then re/im per component, ascending k; a real
    series lists its rows k = 0..N/2.

    A leading comment line records grid size and value shape so the series
    can be reconstructed exactly.
    """
    n = series.grid_size
    k = series.k
    order = np.argsort(k, kind="stable")
    flat = series.coef.reshape(len(k), -1)[order]
    # re/im interleaved per component, one row per wavenumber
    cells = np.empty((len(k), 2 * flat.shape[1]))
    cells[:, 0::2] = flat.real
    cells[:, 1::2] = flat.imag
    labels = _component_labels(series.value_shape)
    header = ["k"] + [f"{p}_{c}" for c in labels for p in ("re", "im")]
    lines = [
        "# grid_size=%d value_shape=%s" % (n, "x".join(map(str, series.value_shape))),
        ",".join(header),
    ]
    # same '%.17g' as format_float, one template per row
    row_format = "%d" + ",%.17g" * cells.shape[1]
    for wavenumber, row in zip(k[order].tolist(), cells):
        lines.append(row_format % (wavenumber, *row.tolist()))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def read_series_csv(path) -> FourierSeries:
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("#"):
            raise ValueError(f"{path}: missing series metadata line")
        meta = dict(part.split("=") for part in meta_line[1:].split())
        missing = [key for key in ("grid_size", "value_shape") if key not in meta]
        if missing:
            raise ValueError(f"{path}: series metadata line lacks {', '.join(missing)}")
        n = int(meta["grid_size"])
        # tables written before every series had period 1 record it
        if float(meta.get("period", 1.0)) != 1.0:
            raise ValueError(f"{path}: a period-{meta['period']} series; every series has period 1")
        shape_txt = meta["value_shape"]
        value_shape = (
            () if shape_txt == "" else tuple(int(s) for s in shape_txt.split("x"))
        )
        fh.readline()  # header
        raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    k = raw[:, 0].astype(int)
    # rows k = 0..N/2 (one-sided, a real series) or k = -N/2..N/2-1
    if np.array_equal(k, np.arange(n // 2 + 1)):
        real = True
    elif np.array_equal(k, np.arange(-(n // 2), n // 2)):
        real = False
    else:
        raise ValueError(
            f"{path}: its {len(k)} rows are neither the one-sided k = 0..{n // 2} "
            f"nor the two-sided k = {-(n // 2)}..{n // 2 - 1} of grid size {n}"
        )
    comps = (raw.shape[1] - 1) // 2
    coef_sorted = raw[:, 1::2] + 1j * raw[:, 2::2]
    coef = np.zeros((n // 2 + 1 if real else n, comps), dtype=complex)
    coef[k % n] = coef_sorted
    return FourierSeries(coef.reshape((len(coef), *value_shape)), real=real)


class _Encoder(json.JSONEncoder):
    def default(self, obj):
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
            return [obj.real, obj.imag]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def write_json(path, payload, digests: dict | None = None) -> str:
    data = (json.dumps(payload, indent=1, sort_keys=True, cls=_Encoder) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    _record(digests, path, data)
    return path


def read_bytes(path, digests: dict | None = None) -> bytes:
    """The bytes of ``path``; ``digests`` records their sha256 under ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    _record(digests, path, data)
    return data


def read_json(path, digests: dict | None = None):
    """Parsed JSON of ``path``; with ``digests``, as :func:`read_bytes`."""
    return json.loads(read_bytes(path, digests))
