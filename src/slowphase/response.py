"""Phase and amplitude response functions on the slow submanifold.

The gradients of the phase map and of the slow amplitude map, restricted to
the slow submanifold, are expanded in the amplitude variable; each order
solves an adjoint homological equation

    (1/T) Z_n' + DX(K_0)^T Z_n + (n + offset) lam_s Z_n + G_n = 0,

where G_n = sum_{i<n} F_{n-i} Z_i and F_m is the sigma**m coefficient of
DX^T on the manifold.  That equation is the direct problem of the operator
-DX^T, whose frame is the adjoint frame with exponents -lam and whose dual
is the bundle frame, so each order is one
:func:`~slowphase.frames.solve_in_frame` with right-hand side -G: the bundle
reduces it and the adjoint frame expands the solution.  In these coordinates
the equations are diagonal per Fourier mode:

    phase order n:      divisors 2 pi i k / T + lam_j + n lam_s,
    amplitude order n:  divisors 2 pi i k / T + lam_j + (n-1) lam_s.

The amplitude equation at order 1 carries a structural zero divisor at
(k = 0, trivial component): the solve checks the solvability residual there
and the coefficient left free is fixed afterwards by the order-1
normalization identity, enforced at the grid mean and verified pointwise.

Each response function runs as the manifold recursion does, on one jet
transport (:class:`~slowphase.models.JetTransport`) of the adjoint action
(u, z) -> DX(u)^T z over the stack [K | Z].  Order n is filled with Z_n = 0,
which gives G_n, and again after Z_n is written (F_0 Z_n + G_n, for the
residual).  ``next_order`` solves an order of either recursion, in the
complex Floquet normal form, which is diagonal per Fourier mode for every
multiplier class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SolvabilityError
from .frames import Frame, solve_in_frame
from .manifold import ManifoldExpansion
from .models import JetTransport, VectorFieldModel
from .series import FourierTaylor

__all__ = [
    "ResponseExpansion",
    "expand_response_functions",
    "next_order",
]


@dataclass
class ResponseExpansion:
    """Expansions of the phase gradient (Z) and slow-amplitude gradient (I)."""

    phase: FourierTaylor
    amplitude: FourierTaylor
    period: float
    slow_exponent: float
    solvability_residual: float
    free_coefficient: float
    normalization_defect: float
    phase_residuals: np.ndarray
    amplitude_residuals: np.ndarray

    @property
    def order(self) -> int:
        return self.phase.order


def next_order(
    g_n,
    bundle: Frame,
    adjoint: Frame,
    n: int,
    period: float,
    offset: int,
    small_divisor_tol: float = 1e-8,
    solvability_tol: float = 1e-9,
):
    """Solve order n >= 1 of an adjoint response recursion driven by ``g_n``.

    ``g_n`` holds the grid values of G_n, the order-n driving term of the
    lower orders.  ``offset`` 0 gives the phase gradient, -1 the amplitude
    gradient: the divisors are 2 pi i k / T + lam_j + (n + offset) lam_s.
    Where n + offset == 0 the (k=0, trivial) mode is free: its
    right-hand-side magnitude is returned as the solvability residual and
    the mode itself is set to zero, to be fixed by the normalization
    afterwards.  Returns ``(x_n, solvability)``.
    """
    if n < 1:
        raise ModelError("response recursions start at n = 1")
    lam_s = float(bundle.exponents[1].real)
    shifts = bundle.exponents + (n + offset) * lam_s
    free = ((0, 0),) if n + offset == 0 else ()
    x_n, free_info, _ = solve_in_frame(
        -g_n, bundle, adjoint, shifts, period, free, small_divisor_tol
    )
    solvability = float(np.abs(free_info.get((0, 0), 0.0)))
    if solvability > solvability_tol:
        raise SolvabilityError(
            f"order-{n} solvability residual {solvability:.3e} exceeds "
            f"{solvability_tol:.1e}; lower orders are inconsistent"
        )
    return x_n.real, solvability


def _fix_order1_normalization(i1_particular, z0, i0, k1_deriv, x0, period):
    """Pin the free order-1 coefficient from the pairing identity.

    The identity <I_0, dK_1/dtheta> + T <I_1, X(K_0)> = 0 (the order-1 case
    of the tangent-pairing family, using K_0' = T X(K_0)) is constant in
    theta for exact data; enforcing it at the grid mean minimizes
    discretization noise and the pointwise defect is reported.  Adding
    c Z_0 shifts the identity by exactly c because <Z_0, X(K_0)> = 1/T.
    """
    pairing = np.einsum("ni,ni->n", i0, k1_deriv)
    c = -float(np.mean(pairing + period * np.einsum("ni,ni->n", i1_particular, x0)))
    i1 = i1_particular + c * z0
    defect = float(np.max(np.abs(pairing + period * np.einsum("ni,ni->n", i1, x0))))
    return i1, c, defect


def _residuals(expansion, values, composed, lam_s, period, shift_offset):
    """Spectral back-substitution residuals of an adjoint recursion, against
    the transport's final state ``composed`` (order n: F_0 Z_n + G_n)."""
    out = np.zeros(len(values))
    # one order at a time: a derivative of the whole stack holds two complex
    # copies of it at once, and this is when the stage peaks in memory
    for n in range(1, len(values)):
        lhs = (
            expansion.order_series(n).differentiate().samples().real / period
            + (n + shift_offset) * lam_s * values[n]
            + composed[n]
        )
        out[n] = float(np.max(np.linalg.norm(lhs, axis=1)))
    return out


def expand_response_functions(
    model: VectorFieldModel,
    manifold: ManifoldExpansion,
    bundle: Frame,
    adjoint: Frame,
    order: int,
    small_divisor_tol: float = 1e-8,
    solvability_tol: float = 1e-9,
) -> ResponseExpansion:
    """Expand both response functions to ``order``.

    Order 0 is given by the adjoint frame columns: the phase response curve
    and the slow amplitude response curve (the latter rescaled by the
    manifold gauge so the pairing with the order-1 manifold coefficient is
    exactly one).  Each recursion then adds one order at a time on its own
    jet transport of the adjoint action over [K | Z].
    """
    if manifold.total_order < order:
        raise ModelError(
            f"manifold expansion order {manifold.total_order} < requested {order}"
        )

    period = manifold.period
    lam_s = manifold.slow_exponent
    k_orders = manifold.coeffs.truncated(order).samples().real
    d = manifold.dim
    adjoint_grid = adjoint.grid_values()

    z0 = adjoint_grid[:, :, 0].real
    i0 = adjoint_grid[:, :, 1].real / manifold.gauge

    solvability = 0.0
    free_c = 0.0
    norm_defect = 0.0
    expansions, residuals = [], []
    for offset, order0 in ((0, z0), (-1, i0)):
        # an order not yet solved reads as zero, so filling it gives G_n
        stack = np.zeros(k_orders.shape[:2] + (2 * d,))
        stack[:, :, :d] = k_orders
        stack[0, :, d:] = order0
        values = stack[:, :, d:]
        transport = JetTransport(model, stack, "adjoint_action")
        transport.fill(0)
        for n in range(1, order + 1):
            transport.fill(n)
            x_n, solv = next_order(
                transport.out[n], bundle, adjoint, n, period, offset,
                small_divisor_tol, solvability_tol,
            )
            if n + offset == 0:
                # higher orders are driven by the normalized coefficient
                solvability = solv
                k1_deriv = manifold.order_series(1).differentiate().samples().real
                x0 = model.eval(manifold.order_series(0).samples().real)
                x_n, free_c, norm_defect = _fix_order1_normalization(
                    x_n, z0, i0, k1_deriv, x0, period
                )
            values[n] = x_n
            transport.fill(n)
        expansions.append(FourierTaylor.from_samples(values, 1.0))
        residuals.append(_residuals(
            expansions[-1], values, transport.result(), lam_s, period, offset
        ))

    return ResponseExpansion(
        phase=expansions[0],
        amplitude=expansions[1],
        period=period,
        slow_exponent=lam_s,
        solvability_residual=solvability,
        free_coefficient=free_c,
        normalization_defect=norm_defect,
        phase_residuals=residuals[0],
        amplitude_residuals=residuals[1],
    )
