"""Trigonometric polynomials and their sigma-jets.

Periodic functions are represented by their discrete Fourier coefficients on
an equispaced grid of ``N`` points (``N`` a power of two), in numpy FFT
ordering.  A function with period ``P`` is sampled at ``theta_m = m P / N``
and analyzed as

    c_k = (1/N) sum_m f(theta_m) exp(-2 pi i k m / N),

so synthesis at the grid points is exact for bandlimited data.  Two periods
occur in practice: 1 for ordinary cycle-periodic functions and 2 for the
antiperiodic bundles attached to negative Floquet multipliers.

Power series in the amplitude variable sigma are kept in two shapes:

* :class:`FourierTaylor` -- a list of coefficient series, one per order, all
  on a shared grid; this is the exported/spectral form.
* :class:`Jet` -- grid values per order, supporting ``+ - * **`` with Taylor
  convolution in sigma and pointwise products in theta; this is the form fed
  through model right-hand sides (jet transport).

The module also hosts the Fourier-space solver used by every recursion of
the pipeline: a componentwise diagonal solve in the complex Floquet normal
form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, SmallDivisorError

__all__ = [
    "FourierSeries",
    "FourierTaylor",
    "Jet",
    "theta_grid",
    "solve_diagonal",
    "horner",
]


def _require_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise GridError(f"grid size must be a power of two >= 2, got {n}")


def theta_grid(n: int, period: float = 1.0) -> np.ndarray:
    """Equispaced sample points ``m * period / n`` for ``m = 0 .. n-1``."""
    _require_power_of_two(n)
    return np.arange(n) * (period / n)


def wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT order: 0, 1, ..., N/2-1, -N/2, ..., -1."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)


@dataclass(frozen=True)
class FourierSeries:
    """Vector-valued trigonometric polynomial.

    Attributes
    ----------
    coef : ndarray, complex, shape (N, *value_shape)
        Fourier coefficients in FFT order along axis 0.
    period : float
        Period of the represented function (1 or 2).
    """

    coef: np.ndarray
    period: float = 1.0

    def __post_init__(self):
        _require_power_of_two(self.coef.shape[0])

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_samples(values: np.ndarray, period: float = 1.0) -> "FourierSeries":
        """Analyze grid samples (axis 0 = theta) into a series."""
        values = np.asarray(values)
        _require_power_of_two(values.shape[0])
        coef = np.fft.fft(values, axis=0) / values.shape[0]
        return FourierSeries(coef, period)

    @staticmethod
    def zeros(n: int, value_shape: tuple = (), period: float = 1.0) -> "FourierSeries":
        return FourierSeries(np.zeros((n, *value_shape), dtype=complex), period)

    # -- structure ------------------------------------------------------

    @property
    def grid_size(self) -> int:
        return self.coef.shape[0]

    @property
    def value_shape(self) -> tuple:
        return self.coef.shape[1:]

    @property
    def k(self) -> np.ndarray:
        return wavenumbers(self.grid_size)

    def grid(self) -> np.ndarray:
        return theta_grid(self.grid_size, self.period)

    # -- evaluation -----------------------------------------------------

    def samples(self) -> np.ndarray:
        """Synthesize the function on its own grid."""
        return np.fft.ifft(self.coef * self.grid_size, axis=0)

    def evaluate(self, theta) -> np.ndarray:
        """Evaluate at arbitrary phases (matches grid synthesis on the grid)."""
        return self.at_phase(self.phase(theta))

    def phase(self, theta) -> np.ndarray:
        """Fourier phase factors at ``theta``, shape ``theta.shape + (N,)``.

        They depend only on the grid size and period, so series sharing
        those can share one phase array (see :meth:`at_phase`).
        """
        theta = np.asarray(theta, dtype=float)
        return np.exp(
            (2j * np.pi / self.period) * np.multiply.outer(theta, self.k)
        )

    def at_phase(self, phase: np.ndarray) -> np.ndarray:
        """Evaluate at the phases whose factors :meth:`phase` returned."""
        return np.tensordot(phase, self.coef, axes=(phase.ndim - 1, 0))

    # -- calculus and algebra -------------------------------------------

    def differentiate(self) -> "FourierSeries":
        """Derivative with respect to theta; the Nyquist mode is zeroed."""
        n = self.grid_size
        factor = (2j * np.pi / self.period) * self.k
        factor[n // 2] = 0.0
        shape = (n,) + (1,) * (self.coef.ndim - 1)
        return FourierSeries(self.coef * factor.reshape(shape), self.period)

    def spectral_tail(self) -> float:
        """Relative magnitude of the top-octave coefficients (aliasing guard)."""
        n = self.grid_size
        mags = np.abs(self.coef).reshape(n, -1).max(axis=1)
        top = np.abs(self.k) >= n // 4
        peak = mags.max()
        return float(mags[top].max() / peak) if peak > 0 else 0.0

    def band_limited(self, k_cut: int) -> "FourierSeries":
        """Zero all modes with |k| >= k_cut."""
        keep = np.abs(self.k) < k_cut
        shape = (self.grid_size,) + (1,) * (self.coef.ndim - 1)
        return FourierSeries(self.coef * keep.reshape(shape), self.period)

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._check_compatible(other)
        return FourierSeries(self.coef + other.coef, self.period)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        self._check_compatible(other)
        return FourierSeries(self.coef - other.coef, self.period)

    def __mul__(self, scalar) -> "FourierSeries":
        return FourierSeries(self.coef * scalar, self.period)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierSeries":
        return FourierSeries(-self.coef, self.period)

    def _check_compatible(self, other: "FourierSeries") -> None:
        if self.coef.shape != other.coef.shape or self.period != other.period:
            raise GridError(
                "incompatible series: "
                f"{self.coef.shape}/P={self.period} vs {other.coef.shape}/P={other.period}"
            )


@dataclass(frozen=True)
class FourierTaylor:
    """Truncated power series in sigma with FourierSeries coefficients.

    ``orders[n]`` is the coefficient of sigma**n; all orders share the grid
    size, period, and value shape, and order 0 must be present.
    """

    orders: tuple

    def __post_init__(self):
        if len(self.orders) == 0:
            raise GridError("FourierTaylor requires the order-0 coefficient")
        first = self.orders[0]
        for s in self.orders[1:]:
            first._check_compatible(s)

    @staticmethod
    def from_order_samples(values: np.ndarray, period: float = 1.0) -> "FourierTaylor":
        """Build from grid values of shape (L+1, N, *value_shape)."""
        return FourierTaylor(
            tuple(FourierSeries.from_samples(v, period) for v in values)
        )

    @property
    def order(self) -> int:
        return len(self.orders) - 1

    @property
    def grid_size(self) -> int:
        return self.orders[0].grid_size

    @property
    def period(self) -> float:
        return self.orders[0].period

    @property
    def value_shape(self) -> tuple:
        return self.orders[0].value_shape

    def order_series(self, n: int) -> FourierSeries:
        return self.orders[n]

    def truncated(self, max_order: int) -> "FourierTaylor":
        return FourierTaylor(self.orders[: max_order + 1])

    def order_samples(self) -> np.ndarray:
        """Grid values of all orders, shape (L+1, N, *value_shape)."""
        return np.stack([s.samples() for s in self.orders])

    def differentiate(self) -> "FourierTaylor":
        return FourierTaylor(tuple(s.differentiate() for s in self.orders))

    def evaluate(self, theta, sigma, max_order: int | None = None) -> np.ndarray:
        """Horner evaluation in sigma of the series evaluated at theta."""
        last = self.order if max_order is None else min(max_order, self.order)
        theta = np.asarray(theta, dtype=float)
        sigma = np.asarray(sigma)
        # one phase array for all orders; a single stacked product would
        # reorder the sums and change the values
        phase = self.orders[0].phase(theta)
        vals = [self.orders[n].at_phase(phase) for n in range(last + 1)]
        return horner(vals, sigma[(...,) + (None,) * len(self.value_shape)])


def horner(values, sigma):
    """``sum_n values[n] * sigma**n`` by Horner's rule, highest order first.

    ``values`` is indexed by order (a list, or an array with orders on axis
    0); ``sigma`` must already broadcast against one order's values.
    :meth:`FourierTaylor.evaluate` and the invariance residuals of
    :mod:`slowphase.validation` all sum here, so they round alike.
    """
    acc = values[-1]
    for n in range(len(values) - 2, -1, -1):
        acc = acc * sigma + values[n]
    return acc


class Jet:
    """Grid values of a sigma-polynomial: array of shape (L+1, *grid_shape).

    Supports addition, subtraction, multiplication (Taylor convolution in
    sigma, pointwise on the grid) and small integer powers, with scalars and
    plain arrays promoted to order-0 terms.  This is all the arithmetic the
    built-in polynomial vector fields need.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values)

    @staticmethod
    def constant(value, order: int, grid_shape: tuple) -> "Jet":
        out = np.zeros((order + 1, *grid_shape), dtype=np.result_type(value, float))
        out[0] = value
        return Jet(out)

    @property
    def order(self) -> int:
        return self.values.shape[0] - 1

    @property
    def grid_shape(self) -> tuple:
        return self.values.shape[1:]

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.order, self.grid_shape)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.values + other.values)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.values - other.values)

    def __rsub__(self, other):
        other = self._coerce(other)
        return Jet(other.values - self.values)

    def __neg__(self):
        return Jet(-self.values)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.values * other)
        if other.values.shape != self.values.shape:
            raise GridError("jet shapes do not match")
        L = self.order
        out = np.zeros_like(self.values)
        for n in range(L + 1):
            for m in range(n + 1):
                out[n] += self.values[m] * other.values[n - m]
        return Jet(out)

    def __rmul__(self, other):
        return Jet(self.values * other)

    def __truediv__(self, scalar):
        return Jet(self.values / scalar)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError("jets support positive integer powers only")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


def solve_diagonal(
    rhs: FourierSeries,
    shifts,
    period_time: float,
    free_modes=(),
    small_divisor_tol: float = 1e-8,
):
    """Solve ``(1/T) u' = -diag(shifts) u + rhs`` for a periodic ``u``.

    In Fourier space the system is diagonal:

        u_k^(j) = rhs_k^(j) / (2 pi i k / (P T) + shifts[j]).

    Modes listed in ``free_modes`` (pairs ``(k, j)`` of integer wavenumber
    and component) are set to zero and their right-hand-side magnitude is
    returned for the caller's solvability test.  Any other divisor below
    ``small_divisor_tol`` raises :class:`SmallDivisorError`.

    Returns
    -------
    (FourierSeries, dict)
        The solution and a map ``(k, j) -> |rhs coefficient|`` for each free
        mode.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=complex))
    coef = np.atleast_2d(rhs.coef.reshape(rhs.grid_size, -1))
    if coef.shape[1] != shifts.size:
        raise GridError(
            f"shift count {shifts.size} does not match components {coef.shape[1]}"
        )
    k = wavenumbers(rhs.grid_size)
    divisors = (2j * np.pi / (rhs.period * period_time)) * k[:, None] + shifts[None, :]

    free = {}
    mask = np.zeros(divisors.shape, dtype=bool)
    mask[rhs.grid_size // 2, :] = True  # Nyquist row lies outside the space
    for kf, jf in free_modes:
        row = int(np.where(k == kf)[0][0])
        mask[row, jf] = True
        free[(int(kf), int(jf))] = float(np.abs(coef[row, jf]))

    small = (np.abs(divisors) < small_divisor_tol) & ~mask
    if np.any(small):
        rows, cols = np.nonzero(small)
        kk, jj = int(k[rows[0]]), int(cols[0])
        raise SmallDivisorError(
            f"divisor |2 pi i {kk}/(P T) + shift_{jj}| = "
            f"{abs(divisors[rows[0], cols[0]]):.3e} below tolerance "
            f"{small_divisor_tol:.1e}",
            context=(kk, jj, None),
        )

    safe = np.where(mask, 1.0, divisors)
    out = np.where(mask, 0.0, coef / safe)
    return FourierSeries(out.reshape(rhs.coef.shape), rhs.period), free

