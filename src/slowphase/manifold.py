"""Fourier-Taylor expansion of the slow attracting submanifold.

Order n of the parameterization solves the homological equation

    (1/T) K_n' + n lam_s K_n = DX(K_0) K_n + B_n,

where B_n is the order-n coefficient of the field composed with the lower
orders.  Writing K_n in bundle-frame coordinates turns the equation into a
constant-coefficient diagonal system per Fourier mode, with divisors
2 pi i k / T + n lam_s - lam_j; non-resonance keeps them away from zero.
The recursion runs in the complex representation and symmetrizes each order
back to a real function, monitoring the conjugation drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycle import CLASS_REAL_POSITIVE, CycleResult
from .errors import ModelError, NumericalError
from .frames import Frame
from .models import VectorFieldModel, jet_compose
from .series import FourierSeries, FourierTaylor, solve_diagonal

__all__ = [
    "ManifoldExpansion",
    "expand_slow_manifold",
    "next_order_coefficient",
    "evaluate_manifold",
]


@dataclass
class ManifoldExpansion:
    """Orders 0..(nominal + extra) of the slow-submanifold parameterization.

    ``nominal_order`` is the truncation used for evaluation and error
    functions; extra orders exist so downstream order-(n+1) identities can be
    checked at the nominal order.
    """

    coeffs: FourierTaylor
    nominal_order: int
    period: float
    slow_exponent: float
    gauge: float
    residuals: np.ndarray
    divisor_minima: dict = field(default_factory=dict)
    conjugation_drift: float = 0.0

    @property
    def grid_size(self) -> int:
        return self.coeffs.grid_size

    @property
    def dim(self) -> int:
        return self.coeffs.value_shape[0]

    @property
    def total_order(self) -> int:
        return self.coeffs.order

    def order_series(self, n: int) -> FourierSeries:
        return self.coeffs.order_series(n)


def _order_inhomogeneity(model, partial: FourierTaylor, n: int) -> np.ndarray:
    """B_n: order-n coefficient of the field composed with orders < n.

    The order-n input slot is zero-padded so the composition's order-n
    output is exactly the polynomial in lower-order terms.
    """
    padded = FourierTaylor(
        partial.orders
        + (FourierSeries.zeros(partial.grid_size, partial.value_shape, partial.period),)
    )
    composed = jet_compose(model, padded, "field")
    return composed.order_series(n).samples().real


def next_order_coefficient(
    model: VectorFieldModel,
    partial: FourierTaylor,
    bundle: Frame,
    adjoint: Frame,
    n: int,
    period: float,
    small_divisor_tol: float = 1e-8,
):
    """Compute order n >= 2 from orders 0..n-1.

    Returns ``(samples, divisor_min)``: the complex grid samples of the new
    order (their imaginary part is the conjugation drift) and the smallest
    Fourier divisor encountered.
    """
    if n < 2:
        raise ModelError("next-order recursion starts at n = 2")
    if partial.order != n - 1:
        raise ModelError(f"expected orders 0..{n-1}, got 0..{partial.order}")
    b_samples = _order_inhomogeneity(model, partial, n)
    lam_s = float(bundle.exponents[1].real)
    return solve_order(
        b_samples, bundle, adjoint, n, lam_s, period, small_divisor_tol
    )


def solve_order(
    b_samples: np.ndarray,
    bundle: Frame,
    adjoint: Frame,
    n: int,
    slow_exponent: float,
    period: float,
    small_divisor_tol: float = 1e-8,
):
    """Frame-reduce B_n, divide per Fourier mode, and transform back."""
    adjoint_grid = adjoint.grid_values()
    bundle_grid = bundle.grid_values()
    reduced = np.einsum("nai,na->ni", adjoint_grid, b_samples.astype(complex))
    rhs_series = FourierSeries.from_samples(reduced, 1.0)
    shifts = n * slow_exponent - bundle.exponents
    solution, _ = solve_diagonal(
        rhs_series, shifts, period, small_divisor_tol=small_divisor_tol
    )
    coords = solution.samples()
    out = np.einsum("nab,nb->na", bundle_grid, coords)
    div_min = float(
        np.min(np.abs((2j * np.pi / period) * rhs_series.k[:, None] + shifts[None, :]))
    )
    return out, div_min


def expand_slow_manifold(
    model: VectorFieldModel,
    cycle: CycleResult,
    bundle: Frame,
    adjoint: Frame,
    order: int,
    extra_orders: int = 1,
    gauge: float = 1.0,
    small_divisor_tol: float = 1e-8,
) -> ManifoldExpansion:
    """Assemble the expansion to ``order`` (+ extra) with residual checks.

    Order 0 is the orbit, order 1 the gauge-scaled slow bundle column; the
    recursion then adds one order at a time.  Per-order residuals of the
    homological equations are measured spectrally at the end from a single
    full-order composition of the field.  The slow direction is frame
    column 1, as in :func:`next_order_coefficient`.
    """
    if order < 1:
        raise ModelError("expansion order must be >= 1")
    if bundle.classes[1] != CLASS_REAL_POSITIVE:
        raise NumericalError(
            "slow direction is not a real positive multiplier; the "
            "2-dimensional slow submanifold expansion does not apply"
        )
    lam_s = float(bundle.exponents[1].real)
    period = cycle.period

    orders = [cycle.samples.astype(float)]
    orders.append(gauge * bundle.grid_values()[:, :, 1].real)

    total = order + extra_orders
    divisor_minima = {}
    drift = 0.0
    for n in range(2, total + 1):
        partial = FourierTaylor.from_order_samples(np.stack(orders), 1.0)
        k_n, div_min = next_order_coefficient(
            model, partial, bundle, adjoint, n, period, small_divisor_tol
        )
        drift = max(drift, float(np.max(np.abs(k_n.imag))))
        orders.append(k_n.real)
        divisor_minima[n] = div_min

    coeffs = FourierTaylor.from_order_samples(np.stack(orders), 1.0)

    # residuals by spectral back-substitution, one full composition
    composed = jet_compose(model, coeffs, "field")
    residuals = np.zeros(total + 1)
    for n in range(total + 1):
        k_series = coeffs.order_series(n)
        lhs = (
            k_series.differentiate().samples() / period
            + n * lam_s * k_series.samples()
            - composed.order_series(n).samples()
        )
        residuals[n] = float(np.max(np.linalg.norm(lhs.real, axis=1)))

    return ManifoldExpansion(
        coeffs=coeffs,
        nominal_order=order,
        period=period,
        slow_exponent=lam_s,
        gauge=gauge,
        residuals=residuals,
        divisor_minima=divisor_minima,
        conjugation_drift=drift,
    )


def evaluate_manifold(expansion: ManifoldExpansion, theta, sigma, max_order=None):
    """Point(s) on the manifold at phase(s) theta and amplitude(s) sigma."""
    if max_order is None:
        max_order = expansion.nominal_order
    return expansion.coeffs.evaluate(theta, sigma, max_order=max_order).real
