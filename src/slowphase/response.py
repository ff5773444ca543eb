"""Phase and amplitude response functions on the slow submanifold.

The gradients of the phase map and of the slow amplitude map, restricted to
the slow submanifold, are expanded in the amplitude variable; each order
solves an adjoint homological equation driven by the sigma-expansion of the
transposed Jacobian on the manifold.  That equation is the direct problem of
the operator -DX^T, whose frame is the adjoint frame with exponents -lam and
whose dual is the bundle frame, so each order is one
:func:`~slowphase.frames.solve_in_frame` with right-hand side -G: the bundle
reduces it and the adjoint frame expands the solution.  In these coordinates
the equations are diagonal per Fourier mode:

    phase order n:      divisors 2 pi i k / T + lam_j + n lam_s,
    amplitude order n:  divisors 2 pi i k / T + lam_j + (n-1) lam_s.

The amplitude equation at order 1 carries a structural zero divisor at
(k = 0, trivial component): the solve checks the solvability residual there
and the coefficient left free is fixed afterwards by the order-1
normalization identity, enforced at the grid mean and verified pointwise.

Both recursions are one function, ``next_order``, with the order offset as
its argument.  They run in the complex Floquet normal form, where each order
is diagonal per Fourier mode for real, negative and complex-conjugate
multipliers alike, so no real-representation solve is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SolvabilityError
from .frames import Frame, solve_in_frame
from .manifold import ManifoldExpansion
from .models import VectorFieldModel, jet_compose
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


def _jacobian_transpose_orders(model, manifold: ManifoldExpansion, order: int):
    """Grid samples of the sigma-expansion of DX^T on the manifold."""
    arg = manifold.coeffs.truncated(order).samples().real
    return jet_compose(model, arg, "jacobian_transpose")  # (order+1, N, d, d)


def _convolution_term(f_orders, lower, n):
    """sum_{i=0}^{n-1} F_{n-i} Z_i on the grid."""
    out = np.zeros_like(lower[0])
    for i in range(n):
        out += np.einsum("nab,nb->na", f_orders[n - i], lower[i])
    return out


def next_order(
    f_orders,
    lower,
    bundle: Frame,
    adjoint: Frame,
    n: int,
    period: float,
    offset: int,
    small_divisor_tol: float = 1e-8,
    solvability_tol: float = 1e-9,
):
    """Order n >= 1 of an adjoint response recursion.

    ``offset`` 0 gives the phase gradient, -1 the amplitude gradient: the
    divisors are 2 pi i k / T + lam_j + (n + offset) lam_s.  Where
    n + offset == 0 the (k=0, trivial) mode is free: its right-hand-side
    magnitude is returned as the solvability residual and the mode itself is
    set to zero, to be fixed by the normalization afterwards.  Returns
    ``(x_n, g_n, solvability)``.
    """
    if n < 1:
        raise ModelError("response recursions start at n = 1")
    lam_s = float(bundle.exponents[1].real)
    g_n = _convolution_term(f_orders, lower, n)
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
    return x_n.real, g_n, solvability


def _fix_order1_normalization(i1_particular, z0, i0, k1_deriv, x0, period):
    """Pin the free order-1 coefficient from the pairing identity.

    The identity <I_0, dK_1/dtheta> + T <I_1, X(K_0)> = 0 (the order-1 case
    of the tangent-pairing family, using K_0' = T X(K_0)) is constant in
    theta for exact data; enforcing it at the grid mean minimizes
    discretization noise and the pointwise defect is reported.  Adding
    c Z_0 shifts the identity by exactly c because <Z_0, X(K_0)> = 1/T.
    """
    base = np.einsum("ni,ni->n", i0, k1_deriv) + period * np.einsum(
        "ni,ni->n", i1_particular, x0
    )
    c = -float(np.mean(base))
    i1 = i1_particular + c * z0
    defect = float(
        np.max(
            np.abs(
                np.einsum("ni,ni->n", i0, k1_deriv)
                + period * np.einsum("ni,ni->n", i1, x0)
            )
        )
    )
    return i1, c, defect


def _residuals(expansion, orders, g_terms, f0, lam_s, period, shift_offset):
    """Spectral back-substitution residuals of the adjoint recursions."""
    out = np.zeros(len(orders))
    # one order at a time: a derivative of the whole stack holds two complex
    # copies of it at once, and this is when the stage peaks in memory
    for n in range(1, len(orders)):
        lhs = (
            expansion.order_series(n).differentiate().samples().real / period
            + np.einsum("nab,nb->na", f0, orders[n])
            + (n + shift_offset) * lam_s * orders[n]
            + g_terms[n]
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

    The transposed-Jacobian expansion is computed once and shared by the two
    recursions.  Order 0 is given by the adjoint frame columns: the phase
    response curve and the slow amplitude response curve (the latter
    rescaled by the manifold gauge so the pairing with the order-1 manifold
    coefficient is exactly one).
    """
    if manifold.total_order < order:
        raise ModelError(
            f"manifold expansion order {manifold.total_order} < requested {order}"
        )

    period = manifold.period
    lam_s = manifold.slow_exponent
    f_orders = _jacobian_transpose_orders(model, manifold, order)
    adjoint_grid = adjoint.grid_values()

    z0 = adjoint_grid[:, :, 0].real
    i0 = adjoint_grid[:, :, 1].real / manifold.gauge

    solvability = 0.0
    free_c = 0.0
    norm_defect = 0.0
    expansions, residuals = [], []
    for offset, order0 in ((0, z0), (-1, i0)):
        orders = [order0]
        terms = [np.zeros_like(order0)]
        for n in range(1, order + 1):
            x_n, g_n, solv = next_order(
                f_orders, orders, bundle, adjoint, n, period, offset,
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
            orders.append(x_n)
            terms.append(g_n)
        expansions.append(FourierTaylor.from_samples(orders, 1.0))
        residuals.append(_residuals(
            expansions[-1], orders, terms, f_orders[0], lam_s, period, offset
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
