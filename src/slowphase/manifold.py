"""Fourier-Taylor expansion of the slow attracting submanifold.

Order n of the parameterization K and of both response functions
(:mod:`~slowphase.response`) solves

    (1/T) x_n' + s_n x_n = (A x)_n,    s_n = (n + offset) lam_s,

where (A x)_n is order n of a jet transport
(:class:`~slowphase.models.JetTransport`) of an operator's action.  For K it
is the field, with offset 0: DX(K_0) K_n + B_n, B_n the field composed with
the lower orders.  :func:`solve_orders` fills order n once with x_n = 0 (the
driving term) and once after x_n is written, O(L^2) grid products in all.
In the coordinates of a frame of the operator, with exponents mu, each order
is diagonal per Fourier mode, with divisors 2 pi i k / T + s_n - mu_j
(:func:`~slowphase.frames.solve_in_frame`) that non-resonance keeps from
zero.  Orders are solved complex and kept real, monitoring the conjugation
drift; :func:`order_residuals` measures them against the transport's final
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycle import CLASS_REAL_POSITIVE, CycleResult
from .errors import ModelError, NumericalError
from .frames import Frame, solve_in_frame
from .models import JetTransport, VectorFieldModel
from .series import FourierSeries, FourierTaylor

__all__ = [
    "ManifoldExpansion",
    "expand_slow_manifold",
    "slow_exponent",
    "solve_orders",
    "order_residuals",
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


def solve_orders(transport: JetTransport, first: int, reduce: Frame, expand: Frame,
                 mu, lam_s: float, offset: int, period: float,
                 small_divisor_tol: float, on_free=None):
    """Solve orders ``first``..L of (1/T) x_n' + s_n x_n = (A x)_n in place.

    x is the last d components of ``transport``'s argument (d the model
    dimension); orders below ``first`` are written and filled, the rest read
    zero.  ``expand`` is a frame of A with exponents ``mu``, ``reduce`` its
    dual, and s_n = (n + offset) lam_s.  Where s_n - mu_0 = 0 the (k=0,
    trivial) mode is free: ``on_free(n, x_n, rhs)`` gets the real solution
    with that mode zero and the mode's right-hand side, and returns the x_n
    to write; without ``on_free`` the zero divisor raises.  Returns the
    largest imaginary part discarded.
    """
    x = transport.orders[:, :, -transport.model.dim:]
    drift = 0.0
    for n in range(first, transport.order + 1):
        if np.any(x[n]):
            raise ModelError(f"order {n} of the transport argument is not zero")
        transport.fill(n)
        shifts = (n + offset) * lam_s - mu
        free = ((0, 0),) if on_free is not None and shifts[0] == 0 else ()
        x_n, free_rhs = solve_in_frame(
            transport.out[n], reduce, expand, shifts, period, free,
            small_divisor_tol,
        )
        drift = max(drift, float(np.max(np.abs(x_n.imag))))
        x[n] = on_free(n, x_n.real, free_rhs[(0, 0)]) if free else x_n.real
        transport.fill(n)
    return drift


def order_residuals(coeffs: FourierTaylor, x, composed, lam_s, offset, period):
    """Per order, the grid maximum of |x_n'/T + s_n x_n - (A x)_n|: x_n'
    from ``coeffs``, x_n the grid values ``x`` the transport read, (A x)_n
    its final state ``composed``.  One order is differentiated at a time; a
    derivative of the whole stack holds two complex copies of it."""
    out = np.zeros(len(x))
    for n in range(len(x)):
        lhs = (
            coeffs.order_series(n).differentiate().samples() / period
            + (n + offset) * lam_s * x[n]
            - composed[n]
        )
        out[n] = float(np.max(np.linalg.norm(lhs, axis=1)))
    return out


def slow_exponent(bundle: Frame) -> float:
    """The real exponent of the slow direction, which is frame column 1."""
    if bundle.classes[1] != CLASS_REAL_POSITIVE:
        raise NumericalError(
            "slow direction is not a real positive multiplier; the "
            "2-dimensional slow submanifold expansion does not apply"
        )
    return float(bundle.exponents[1].real)


def expand_slow_manifold(
    model: VectorFieldModel,
    cycle: CycleResult,
    bundle: Frame,
    adjoint: Frame,
    order: int,
    gauge: float = 1.0,
    small_divisor_tol: float = 1e-8,
) -> ManifoldExpansion:
    """Assemble the expansion to ``order`` + 1 with residual checks: the
    normal-family pairing identities of the validation read K_{order+1}.

    Order 0 is the orbit, order 1 the gauge-scaled slow bundle column (see
    :func:`slow_exponent`); :func:`solve_orders` then adds one
    order at a time, on one jet transport of the field over the stack of
    orders, in bundle-frame coordinates.  Per-order residuals of the
    homological equations are measured at the end against the transport's
    final state.
    """
    if order < 1:
        raise ModelError("expansion order must be >= 1")
    lam_s = slow_exponent(bundle)
    period = cycle.period

    # an order not yet solved reads as zero, so filling it gives B_n
    values = np.zeros((order + 2, *cycle.samples.shape))
    values[0] = cycle.samples
    values[1] = gauge * bundle.grid_values()[:, :, 1].real
    transport = JetTransport(model, values, "field")
    transport.fill(0)
    transport.fill(1)

    drift = solve_orders(
        transport, 2, adjoint, bundle, bundle.exponents, lam_s, 0, period,
        small_divisor_tol,
    )
    coeffs = FourierTaylor.from_samples(values)
    residuals = order_residuals(coeffs, values, transport.result(), lam_s, 0, period)

    return ManifoldExpansion(
        coeffs=coeffs,
        nominal_order=order,
        period=period,
        slow_exponent=lam_s,
        gauge=gauge,
        residuals=residuals,
        conjugation_drift=drift,
    )


def evaluate_manifold(expansion: ManifoldExpansion, theta, sigma):
    """Point(s) on the manifold at phase(s) theta and amplitude(s) sigma,
    truncated at the nominal order."""
    return expansion.coeffs.evaluate(theta, sigma, expansion.nominal_order)
