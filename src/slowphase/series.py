"""Trigonometric polynomials and their sigma-jets.

Periodic functions are represented by their discrete Fourier coefficients on
an equispaced grid of ``N`` points (``N`` a power of two).  Every function
has period 1 in theta: it is sampled at ``theta_m = m / N`` and analyzed as

    c_k = (1/N) sum_m f(theta_m) exp(-2 pi i k m / N),

so synthesis at the grid points is exact for bandlimited data.  The complex
Floquet normal form gives a negative multiplier the exponent
log|mu|/T + i pi/T, so its frame column, like every other function the
pipeline solves for, is 1-periodic too.

A real function (the cycle, the manifold, both response functions) has
c_{-k} = conj(c_k), so it keeps the N/2 + 1 rows k = 0..N/2 of the one-sided
``rfft`` layout (``real`` set); a complex one (the frames and their
coordinates) all N rows in FFT order, 0, 1, ..., N/2-1, -N/2, ..., -1.  The
samples' dtype picks the layout, and every operation serves both through the
rows' wavenumbers; point evaluation weighs a one-sided row 0 < k < N/2 twice.

Power series in the amplitude variable sigma are kept as a
:class:`FourierTaylor`: one coefficient array of shape (L+1, rows,
*value_shape), order by order on a shared grid; this is the spectral form,
stored as it is in the ``*_coeff.npy`` files.  Their grid values are what jet
transport (:class:`~slowphase.models.JetTransport`) feeds through model
right-hand sides.

This is the only module that applies a Fourier transform or divides by
Fourier divisors.  Its solver, :func:`solve_diagonal`, is a componentwise
diagonal solve in the complex Floquet normal form and serves every linear
equation of the pipeline: the Newton polish of the frame columns and of the
orbit (:mod:`slowphase.frames`), each order of the manifold recursion
(:mod:`slowphase.manifold`) and each order of both response recursions
(:mod:`slowphase.response`).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import GridError, SmallDivisorError

__all__ = [
    "FourierSeries",
    "FourierTaylor",
    "theta_grid",
    "solve_diagonal",
    "horner",
]


def _require_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise GridError(f"grid size must be a power of two >= 2, got {n}")


def theta_grid(n: int) -> np.ndarray:
    """Equispaced sample points ``m / n`` for ``m = 0 .. n-1``."""
    _require_power_of_two(n)
    return np.arange(n) * (1.0 / n)


@lru_cache(maxsize=None)
def wavenumbers(n: int, real: bool = False) -> np.ndarray:
    """Integer wavenumbers of the coefficient rows of an ``n``-point grid: in
    FFT order, 0, 1, ..., N/2-1, -N/2, ..., -1, or 0, 1, ..., N/2 in the
    one-sided (``real``) layout.  Built once per grid and layout, and
    read-only: callers share the array."""
    freq = np.fft.rfftfreq if real else np.fft.fftfreq
    k = freq(n, d=1.0 / n).astype(np.int64)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=8, typed=True)
def _fourier_divisors(n: int, period_time: float) -> np.ndarray:
    """The Fourier part 2 pi i k / T of :func:`solve_diagonal`'s divisors,
    one column of N rows in FFT order; read-only, built once per grid and
    period (a recursion solves every order at one period), keyed by the
    period's type too, so each caller gets the bytes of its own expression."""
    part = (2j * np.pi / period_time) * wavenumbers(n)[:, None]
    part.flags.writeable = False
    return part


@dataclass(frozen=True)
class _Spectrum:
    """Fourier coefficients along axis ``_axis`` of ``coef``: N rows in FFT
    order, or the N/2 + 1 rows k = 0..N/2 of a ``real`` (keyword-only)
    function."""

    coef: np.ndarray
    _: KW_ONLY
    real: bool = False
    _axis: ClassVar[int] = 0

    def __post_init__(self):
        _require_power_of_two(self.grid_size)

    @classmethod
    def from_samples(cls, values):
        """Analyze grid values (the grid on axis ``_axis``): real values into
        the one-sided layout, complex ones into the two-sided."""
        values = np.asarray(values)
        _require_power_of_two(values.shape[cls._axis])
        real = not np.iscomplexobj(values)
        analyze = np.fft.rfft if real else np.fft.fft
        return cls(analyze(values, axis=cls._axis, norm="forward"), real=real)

    @property
    def grid_size(self) -> int:
        rows = self.coef.shape[self._axis]
        return 2 * (rows - 1) if self.real else rows

    @property
    def value_shape(self) -> tuple:
        return self.coef.shape[self._axis + 1:]

    def samples(self) -> np.ndarray:
        """Grid values, real for a real function; C-contiguous whatever the
        layout of ``coef``, so reductions over them round alike."""
        synthesize = np.fft.irfft if self.real else np.fft.ifft
        values = synthesize(self.coef, n=self.grid_size, axis=self._axis, norm="forward")
        return np.ascontiguousarray(values)

    def differentiate(self):
        """Derivative with respect to theta; the Nyquist row N/2 of either
        layout (k = -N/2 two-sided, k = N/2 one-sided) is zeroed."""
        factor = 2j * np.pi * wavenumbers(self.grid_size, self.real)
        factor[self.grid_size // 2] = 0.0
        shape = (1,) * self._axis + factor.shape + (1,) * (self.coef.ndim - self._axis - 1)
        return replace(self, coef=self.coef * factor.reshape(shape))


@dataclass(frozen=True)
class FourierSeries(_Spectrum):
    """Vector-valued trigonometric polynomial: ``coef`` of shape (rows,
    *value_shape), and ``real`` for the one-sided layout of a real
    function."""

    @property
    def k(self) -> np.ndarray:
        return wavenumbers(self.grid_size, self.real)

    def grid(self) -> np.ndarray:
        return theta_grid(self.grid_size)

    def magnitudes(self) -> np.ndarray:
        """Largest coefficient magnitude of each row, shape (rows,)."""
        return np.abs(self.coef).reshape(len(self.coef), -1).max(axis=1)

    def evaluate(self, theta) -> np.ndarray:
        """Evaluate at arbitrary phases (matches grid synthesis on the grid)."""
        return self.at_phase(self.phase(theta))

    def phase(self, theta) -> np.ndarray:
        """Fourier phase factors of the rows at ``theta``, shape
        ``theta.shape + (rows,)``; a one-sided row 0 < k < N/2 is weighed
        twice, for its conjugate row.

        They depend only on the layout and grid size, so series
        sharing those can share one phase array (see :meth:`at_phase`).
        """
        theta = np.asarray(theta, dtype=float)
        phase = np.exp(2j * np.pi * np.multiply.outer(theta, self.k))
        if self.real:
            phase[..., 1:-1] *= 2.0
        return phase

    def at_phase(self, phase: np.ndarray) -> np.ndarray:
        """Evaluate at the phases whose factors :meth:`phase` returned; a real
        series gives the real part of the sum."""
        value = np.tensordot(phase, self.coef, axes=(phase.ndim - 1, 0))
        return value.real if self.real else value

    def spectral_tail(self) -> float:
        """Relative magnitude of the top-octave coefficients (aliasing guard)."""
        mags = self.magnitudes()
        top = np.abs(self.k) >= self.grid_size // 4
        peak = mags.max()
        return float(mags[top].max() / peak) if peak > 0 else 0.0

    def band_limited(self, k_cut: int) -> "FourierSeries":
        """Zero all modes with |k| >= k_cut."""
        keep = np.abs(self.k) < k_cut
        shape = keep.shape + (1,) * (self.coef.ndim - 1)
        return replace(self, coef=self.coef * keep.reshape(shape))


@dataclass(frozen=True)
class FourierTaylor(_Spectrum):
    """Truncated power series in sigma with Fourier coefficients.

    ``coef[n]`` holds the Fourier coefficients of the sigma**n term, in the
    layout of a :class:`FourierSeries`, so ``coef`` has shape (L+1, rows,
    *value_shape); order 0 must be present.  ``from_samples`` takes grid
    values of shape (L+1, N, *value_shape).
    """

    _axis: ClassVar[int] = 1

    def __post_init__(self):
        if self.coef.ndim < 2 or len(self.coef) == 0:
            raise GridError("FourierTaylor requires the order-0 coefficient")
        super().__post_init__()

    @property
    def order(self) -> int:
        return len(self.coef) - 1

    def order_series(self, n: int) -> FourierSeries:
        """The sigma**n coefficient, a view of ``coef[n]``."""
        return FourierSeries(self.coef[n], real=self.real)

    def truncated(self, max_order: int) -> "FourierTaylor":
        return replace(self, coef=self.coef[: max_order + 1])

    def evaluate(self, theta, sigma, max_order: int | None = None) -> np.ndarray:
        """Horner evaluation in sigma of the series evaluated at theta."""
        last = self.order if max_order is None else min(max_order, self.order)
        theta = np.asarray(theta, dtype=float)
        sigma = np.asarray(sigma)
        # one phase array for all orders; a single stacked product would
        # reorder the sums and change the values
        phase = self.order_series(0).phase(theta)
        vals = [self.order_series(n).at_phase(phase) for n in range(last + 1)]
        return horner(vals, sigma[(...,) + (None,) * len(self.value_shape)])


def horner(values, sigma):
    """``sum_n values[n] * sigma**n`` by Horner's rule, highest order first.

    ``values`` is indexed by order (a list, or an array with orders on axis
    0); ``sigma`` must already broadcast against one order's values.  Two
    callers sum here, so they round alike: :meth:`FourierTaylor.evaluate`,
    the one off-grid evaluator of K, Z and I (the manifold inversion and
    flow checks of :mod:`slowphase.validation`, the plotdata export), and
    the grid invariance residuals of ``validation.ResidualEvaluator``.

    The accumulator is a fresh array of the promoted dtype from the first
    product on, and is updated in place after it; the inputs are never
    written.  Every order must have the shape of the accumulator or
    broadcast to it.
    """
    if len(values) == 1:
        return values[0]
    dtype = np.result_type(sigma, values[-1])
    for value in values[:-1]:
        dtype = np.result_type(dtype, value)
    acc = np.multiply(values[-1], sigma, dtype=dtype)
    acc += values[-2]
    for n in range(len(values) - 3, -1, -1):
        acc *= sigma
        acc += values[n]
    return acc


def solve_diagonal(
    rhs: FourierSeries,
    shifts,
    period_time: float,
    free_modes=(),
    small_divisor_tol: float = 1e-8,
):
    """Solve ``(1/T) u' = -diag(shifts) u + rhs`` for a periodic ``u``.

    In Fourier space the system is diagonal:

        u_k^(j) = rhs_k^(j) / (2 pi i k / T + shifts[j]).

    Modes listed in ``free_modes`` (pairs ``(k, j)`` of integer wavenumber
    and component) are set to zero and their right-hand-side coefficient is
    returned: the frame polish turns it into an exponent or period update,
    the response recursion into a solvability test.  The Nyquist row is set
    to zero too.  Any other divisor below ``small_divisor_tol`` raises
    :class:`SmallDivisorError`.

    Returns
    -------
    (FourierSeries, dict)
        The solution and a map ``(k, j) -> rhs coefficient`` (complex) for
        each free mode.
    """
    if rhs.real:
        raise GridError("solve_diagonal needs a two-sided series: with complex "
                        "shifts a real right-hand side has a complex solution")
    shifts = np.atleast_1d(np.asarray(shifts, dtype=complex))
    coef = np.atleast_2d(rhs.coef.reshape(rhs.grid_size, -1))
    if coef.shape[1] != shifts.size:
        raise GridError(
            f"shift count {shifts.size} does not match components {coef.shape[1]}"
        )
    k = wavenumbers(rhs.grid_size)
    divisors = _fourier_divisors(rhs.grid_size, period_time) + shifts[None, :]

    free = {}
    mask = np.zeros(divisors.shape, dtype=bool)
    mask[rhs.grid_size // 2, :] = True  # Nyquist row lies outside the space
    for kf, jf in free_modes:
        row = int(np.where(k == kf)[0][0])
        mask[row, jf] = True
        free[(int(kf), int(jf))] = complex(coef[row, jf])

    magnitudes = np.abs(divisors)
    small = (magnitudes < small_divisor_tol) & ~mask
    if np.any(small):
        rows, cols = np.nonzero(small)
        kk, jj = int(k[rows[0]]), int(cols[0])
        raise SmallDivisorError(
            f"divisor |2 pi i {kk}/T + shift_{jj}| = "
            f"{magnitudes[rows[0], cols[0]]:.3e} below tolerance "
            f"{small_divisor_tol:.1e}",
            context=(kk, jj),
        )

    out = np.zeros(coef.shape, np.result_type(coef, divisors))
    np.divide(coef, divisors, out=out, where=~mask)
    return FourierSeries(out.reshape(rhs.coef.shape)), free

