"""Fourier-Taylor expansion of the slow attracting submanifold.

Order n of the parameterization solves the homological equation

    (1/T) K_n' + n lam_s K_n = DX(K_0) K_n + B_n,

where B_n is the order-n coefficient of the field composed with the lower
orders.  Writing K_n in bundle-frame coordinates turns the equation into a
constant-coefficient diagonal system per Fourier mode, with divisors
2 pi i k / T + n lam_s - lam_j (:func:`~slowphase.frames.solve_in_frame`);
non-resonance keeps them away from zero.
The recursion runs in the complex representation and symmetrizes each order
back to a real function, monitoring the conjugation drift.

One jet transport of the field (:class:`~slowphase.models.JetTransport`)
runs over the stack of orders for the whole recursion.  Order n is filled
once with K_n = 0, which gives B_n, and once more after K_n is written, so
the composition costs O(L^2) grid products in all; the per-order residuals
are measured against the transport's final state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycle import CLASS_REAL_POSITIVE, CycleResult
from .errors import ModelError, NumericalError
from .frames import Frame, solve_in_frame
from .models import JetTransport, VectorFieldModel
from .series import FourierSeries, FourierTaylor

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


def next_order_coefficient(
    transport: JetTransport,
    bundle: Frame,
    adjoint: Frame,
    n: int,
    period: float,
    small_divisor_tol: float = 1e-8,
):
    """Compute order n >= 2 of the expansion that ``transport`` carries.

    ``transport`` is a field :class:`~slowphase.models.JetTransport` over
    the grid values of the expansion, with orders 0..n-1 filled and the
    order-n values zero.  Filling order n then gives B_n, the order-n
    coefficient of the field composed with the lower orders alone, and the
    homological equation is solved in bundle-frame coordinates.  The caller
    writes the new order into the transport's argument and fills order n
    again.  Returns ``(samples, divisor_min)``: the complex grid samples of
    the new order (their imaginary part is the conjugation drift) and the
    smallest Fourier divisor encountered.
    """
    if n < 2:
        raise ModelError("next-order recursion starts at n = 2")
    if transport.filled != n or n > transport.order:
        raise ModelError(
            f"expected orders 0..{n - 1} of the transport filled, got "
            f"0..{transport.filled - 1} of 0..{transport.order}"
        )
    if np.any(transport.orders[n]):
        raise ModelError(f"order {n} of the transport argument is not zero")
    transport.fill(n)
    shifts = n * float(bundle.exponents[1].real) - bundle.exponents
    out, _, div_min = solve_in_frame(
        transport.out[n], adjoint, bundle, shifts, period,
        small_divisor_tol=small_divisor_tol,
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
    recursion then adds one order at a time, on one jet transport of the
    field over the stack of orders.  Per-order residuals of the homological
    equations are measured spectrally at the end from the transport's final
    state.  The slow direction is frame column 1, as in
    :func:`next_order_coefficient`.
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

    total = order + extra_orders
    # an order not yet solved reads as zero, so filling it gives B_n
    values = np.zeros((total + 1, *cycle.samples.shape))
    values[0] = cycle.samples
    values[1] = gauge * bundle.grid_values()[:, :, 1].real
    transport = JetTransport(model, values, "field")
    transport.fill(0)
    transport.fill(1)

    divisor_minima = {}
    drift = 0.0
    for n in range(2, total + 1):
        k_n, div_min = next_order_coefficient(
            transport, bundle, adjoint, n, period, small_divisor_tol
        )
        drift = max(drift, float(np.max(np.abs(k_n.imag))))
        values[n] = k_n.real
        transport.fill(n)
        divisor_minima[n] = div_min

    coeffs = FourierTaylor.from_samples(values, 1.0)

    # residuals by spectral back-substitution against the composed field
    composed = transport.result()
    derivative = coeffs.differentiate().samples()
    samples = coeffs.samples()
    residuals = np.zeros(total + 1)
    for n in range(total + 1):
        lhs = derivative[n] / period + n * lam_s * samples[n] - composed[n]
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


def evaluate_manifold(expansion: ManifoldExpansion, theta, sigma):
    """Point(s) on the manifold at phase(s) theta and amplitude(s) sigma,
    truncated at the nominal order."""
    return expansion.coeffs.evaluate(theta, sigma, expansion.nominal_order).real
