"""Phase and amplitude response functions on the slow submanifold.

The gradients of the phase map (Z, offset 0) and of the slow amplitude map
(I, offset -1), restricted to the slow submanifold, are expanded in the
amplitude variable; each order solves an adjoint homological equation

    (1/T) Z_n' + (n + offset) lam_s Z_n = -DX(K_0)^T Z_n - G_n,

where G_n = sum_{i<n} F_{n-i} Z_i and F_m is the sigma**m coefficient of
DX^T on the manifold.  The right-hand side is order n of the adjoint action
(u, z) -> -DX(u)^T z over [K | Z], so each response function is the
recursion of :func:`~slowphase.manifold.solve_orders` for -DX^T, whose frame
is the adjoint frame (exponents -lam) and whose dual, the bundle frame,
reduces the driving term.  The divisors are 2 pi i k / T + lam_j +
(n + offset) lam_s.  The amplitude equation at order 1 carries a structural
zero divisor at (k = 0, trivial component): its right-hand side there is
the solvability residual, and the coefficient left free is fixed by the
order-1 normalization identity, enforced at the grid mean and verified
pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import workers
from .errors import ModelError, SolvabilityError
from .frames import Frame
from .manifold import ManifoldExpansion, order_residuals, solve_orders
from .models import JetTransport, VectorFieldModel
from .series import FourierTaylor

__all__ = [
    "ResponseExpansion",
    "expand_response_functions",
]


@dataclass
class ResponseExpansion:
    """Expansions of the phase gradient (Z) and slow-amplitude gradient (I)."""

    phase: FourierTaylor
    amplitude: FourierTaylor
    solvability_residual: float
    free_coefficient: float
    normalization_defect: float
    phase_residuals: np.ndarray
    amplitude_residuals: np.ndarray
    conjugation_drift: float

    @property
    def order(self) -> int:
        return self.phase.order


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
    jet transport of the adjoint action over [K | Z].  The residual of
    order 0 is the adjoint frame's, which the frame reports; it reads 0.0
    here.

    Given K, the two recursions are independent.  Where
    :func:`workers.worth_splitting` allows for the (L+1) N d grid values of
    one response function, the phase recursion runs in this process and
    the amplitude recursion, with its order-1 solvability gate and
    normalization, in a forked worker, whose errors come back with their
    type.  Each does the arithmetic of the serial run, so the expansions
    are bit for bit the same.
    """
    if manifold.total_order < order:
        raise ModelError(
            f"manifold expansion order {manifold.total_order} < requested {order}"
        )

    period = manifold.period
    lam_s = manifold.slow_exponent
    k_orders = manifold.coeffs.truncated(order).samples()
    d = manifold.dim
    adjoint_grid = adjoint.grid_values()

    z0 = adjoint_grid[:, :, 0].real
    i0 = adjoint_grid[:, :, 1].real / manifold.gauge

    def recursion(offset, order0, on_free=None):
        """The expansion, per-order residuals and drift of one response
        function: order 0 given, orders 1..``order`` solved."""
        # an order not yet solved reads as zero, so filling it gives -G_n
        stack = np.zeros(k_orders.shape[:2] + (2 * d,))
        stack[:, :, :d] = k_orders
        stack[0, :, d:] = order0
        values = stack[:, :, d:]
        transport = JetTransport(model, stack, "adjoint_action")
        transport.fill(0)
        drift = solve_orders(
            transport, 1, bundle, adjoint, -bundle.exponents, lam_s, offset,
            period, small_divisor_tol, on_free,
        )
        expansion = FourierTaylor.from_samples(values)
        residuals = order_residuals(
            expansion, values, transport.result(), lam_s, offset, period
        )
        residuals[0] = 0.0
        return expansion, residuals, drift

    def amplitude():
        """The amplitude recursion, then its order-1 solvability residual,
        free coefficient and normalization defect (zero below order 1)."""
        fixed = [0.0, 0.0, 0.0]

        def normalize(n, i1, free_rhs):
            """Amplitude order 1: gate the solvability residual, then pin
            the free coefficient; higher orders are driven by the
            normalized one."""
            fixed[0] = float(np.abs(free_rhs))
            if fixed[0] > solvability_tol:
                raise SolvabilityError(
                    f"order-{n} solvability residual {fixed[0]:.3e} exceeds "
                    f"{solvability_tol:.1e}; lower orders are inconsistent"
                )
            k1_deriv = manifold.order_series(1).differentiate().samples()
            x0 = model.eval(manifold.order_series(0).samples())
            i1, fixed[1], fixed[2] = _fix_order1_normalization(
                i1, z0, i0, k1_deriv, x0, period
            )
            return i1

        return (*recursion(-1, i0, normalize), *fixed)

    phase = partial(recursion, 0, z0)
    if workers.worth_splitting((order + 1) * manifold.grid_size * d):
        shares = workers.with_worker(phase, amplitude, "amplitude recursion")
    else:
        shares = phase(), amplitude()
    (z, z_res, z_drift), (i, i_res, i_drift, solvability, free_c, defect) = shares
    return ResponseExpansion(
        phase=z,
        amplitude=i,
        solvability_residual=solvability,
        free_coefficient=free_c,
        normalization_defect=defect,
        phase_residuals=z_res,
        amplitude_residuals=i_res,
        conjugation_drift=max(z_drift, i_drift),
    )
