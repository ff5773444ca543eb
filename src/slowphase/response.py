"""Phase and amplitude response functions on the slow submanifold.

The gradients of the phase map and of the slow amplitude map, restricted to
the slow submanifold, are expanded in the amplitude variable; each order
solves an adjoint homological equation driven by the sigma-expansion of the
transposed Jacobian on the manifold.  In the coordinates of the adjoint
frame these equations are again diagonal per Fourier mode:

    phase order n:      divisors 2 pi i k / T + lam_j + n lam_s,
    amplitude order n:  divisors 2 pi i k / T + lam_j + (n-1) lam_s.

The amplitude equation at order 1 carries a structural zero divisor at
(k = 0, trivial component): the solve checks the solvability residual there
and the coefficient left free is fixed afterwards by the order-1
normalization identity, enforced at the grid mean and verified pointwise.

Both a complex-representation path and a real-representation path (period-2
lift, scalar solves per real direction, 2x2 block solves per conjugate pair)
are implemented; they must agree on the computed orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SolvabilityError
from .frames import Frame
from .manifold import ManifoldExpansion
from .models import VectorFieldModel, jet_compose
from .series import FourierSeries, FourierTaylor, block_solve_2x2, solve_diagonal

__all__ = [
    "ResponseExpansion",
    "expand_response_functions",
    "next_order_phase",
    "next_order_amplitude",
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
    representation: str
    fold_defect: float = 0.0

    @property
    def order(self) -> int:
        return self.phase.order


def _jacobian_transpose_orders(model, manifold: ManifoldExpansion, order: int):
    """Grid samples of the sigma-expansion of DX^T on the manifold."""
    arg = manifold.coeffs.truncated(order)
    jet = jet_compose(model, arg, "jacobian_transpose")
    return jet.order_samples().real  # (order+1, N, d, d)


def _convolution_term(f_orders, lower, n):
    """sum_{i=0}^{n-1} F_{n-i} Z_i on the grid."""
    out = np.zeros_like(lower[0])
    for i in range(n):
        out += np.einsum("nab,nb->na", f_orders[n - i], lower[i])
    return out


def next_order_phase(
    f_orders,
    lower,
    bundle: Frame,
    adjoint: Frame,
    n: int,
    period: float,
    small_divisor_tol: float = 1e-8,
):
    """Order n >= 1 of the phase-gradient expansion (complex path)."""
    if n < 1:
        raise ModelError("phase recursion starts at n = 1")
    lam_s = float(bundle.exponents[1].real)
    g_n = _convolution_term(f_orders, lower, n)
    reduced = -np.einsum(
        "nai,na->ni", bundle.grid_values(), g_n.astype(complex)
    )
    rhs = FourierSeries.from_samples(reduced, 1.0)
    shifts = bundle.exponents + n * lam_s
    sol, _ = solve_diagonal(rhs, shifts, period, small_divisor_tol=small_divisor_tol)
    z_n = np.einsum("nab,nb->na", adjoint.grid_values(), sol.samples())
    return z_n.real, g_n


def next_order_amplitude(
    f_orders,
    lower,
    bundle: Frame,
    adjoint: Frame,
    n: int,
    period: float,
    small_divisor_tol: float = 1e-8,
    solvability_tol: float = 1e-9,
):
    """Order n >= 1 of the amplitude-gradient expansion (complex path).

    For n = 1 the (k=0, trivial) mode is free: its right-hand-side magnitude
    is returned as the solvability residual and the mode itself is set to
    zero, to be fixed by the normalization afterwards.
    """
    if n < 1:
        raise ModelError("amplitude recursion starts at n = 1")
    lam_s = float(bundle.exponents[1].real)
    h_n = _convolution_term(f_orders, lower, n)
    reduced = -np.einsum(
        "nai,na->ni", bundle.grid_values(), h_n.astype(complex)
    )
    rhs = FourierSeries.from_samples(reduced, 1.0)
    shifts = bundle.exponents + (n - 1) * lam_s
    free = ((0, 0),) if n == 1 else ()
    sol, free_info = solve_diagonal(
        rhs, shifts, period, free_modes=free, small_divisor_tol=small_divisor_tol
    )
    solvability = free_info.get((0, 0), 0.0)
    if n == 1 and solvability > solvability_tol:
        raise SolvabilityError(
            f"order-1 amplitude solvability residual {solvability:.3e} exceeds "
            f"{solvability_tol:.1e}; lower orders are inconsistent"
        )
    i_n = np.einsum("nab,nb->na", adjoint.grid_values(), sol.samples())
    return i_n.real, h_n, solvability


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


def _residuals(orders, g_terms, f0, lam_s, period, shift_offset):
    """Spectral back-substitution residuals of the adjoint recursions."""
    out = np.zeros(len(orders))
    for n in range(1, len(orders)):
        series = FourierSeries.from_samples(orders[n].astype(complex), 1.0)
        lhs = (
            series.differentiate().samples().real / period
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
    representation: str = "complex",
    bundle_real: Frame | None = None,
    adjoint_real: Frame | None = None,
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
    if representation not in ("complex", "real"):
        raise ModelError(f"unknown representation '{representation}'")
    if representation == "real" and (bundle_real is None or adjoint_real is None):
        raise ModelError("real representation requires the real frames")

    period = manifold.period
    lam_s = manifold.slow_exponent
    f_orders = _jacobian_transpose_orders(model, manifold, order)
    adjoint_grid = adjoint.grid_values()

    z0 = adjoint_grid[:, :, 0].real
    i0 = adjoint_grid[:, :, 1].real / manifold.gauge

    if representation == "complex":
        z_orders = [z0]
        g_terms = [np.zeros_like(z0)]
        for n in range(1, order + 1):
            z_n, g_n = next_order_phase(
                f_orders, z_orders, bundle, adjoint, n, period, small_divisor_tol
            )
            z_orders.append(z_n)
            g_terms.append(g_n)

        i_orders = [i0]
        h_terms = [np.zeros_like(i0)]
        solvability = 0.0
        free_c = 0.0
        norm_defect = 0.0
        for n in range(1, order + 1):
            i_n, h_n, solv = next_order_amplitude(
                f_orders,
                i_orders,
                bundle,
                adjoint,
                n,
                period,
                small_divisor_tol,
                solvability_tol,
            )
            if n == 1:
                solvability = solv
                k1_deriv = (
                    manifold.order_series(1).differentiate().samples().real
                )
                x0 = model.eval(manifold.order_series(0).samples().real)
                i_n, free_c, norm_defect = _fix_order1_normalization(
                    i_n, z0, i0, k1_deriv, x0, period
                )
            i_orders.append(i_n)
            h_terms.append(h_n)
        fold_defect = 0.0
    else:
        z_orders, g_terms, fold_z, _ = _real_path(
            f_orders, z0, bundle_real, adjoint_real, order, period, lam_s,
            shift_offset=0, small_divisor_tol=small_divisor_tol,
        )
        # the order-1 fix must run inside the recursion: higher orders are
        # driven by the normalized coefficient
        k1_deriv = manifold.order_series(1).differentiate().samples().real
        x0 = model.eval(manifold.order_series(0).samples().real)
        fix_state = {}

        def order1_fix(i1_particular):
            fixed, c, defect = _fix_order1_normalization(
                i1_particular, z0, i0, k1_deriv, x0, period
            )
            fix_state["c"] = c
            fix_state["defect"] = defect
            return fixed

        i_orders, h_terms, fold_i, solvability = _real_path(
            f_orders, i0, bundle_real, adjoint_real, order, period, lam_s,
            shift_offset=-1, small_divisor_tol=small_divisor_tol,
            solvability_tol=solvability_tol, order1_fix=order1_fix,
        )
        free_c = fix_state.get("c", 0.0)
        norm_defect = fix_state.get("defect", 0.0)
        fold_defect = max(fold_z, fold_i)

    f0 = f_orders[0]
    phase_res = _residuals(z_orders, g_terms, f0, lam_s, period, 0)
    amp_res = _residuals(i_orders, h_terms, f0, lam_s, period, -1)

    return ResponseExpansion(
        phase=FourierTaylor.from_order_samples(np.stack(z_orders), 1.0),
        amplitude=FourierTaylor.from_order_samples(np.stack(i_orders), 1.0),
        period=period,
        slow_exponent=lam_s,
        solvability_residual=solvability,
        free_coefficient=free_c,
        normalization_defect=norm_defect,
        phase_residuals=phase_res,
        amplitude_residuals=amp_res,
        representation=representation,
        fold_defect=fold_defect,
    )


def _real_path(
    f_orders,
    order0,
    bundle_real: Frame,
    adjoint_real: Frame,
    order: int,
    period: float,
    lam_s: float,
    shift_offset: int,
    small_divisor_tol: float,
    solvability_tol: float = 1e-9,
    order1_fix=None,
):
    """Real-representation recursion on the (possibly period-2) lifted grid.

    Real directions solve scalar diagonal equations, negative-multiplier
    directions use their contraction rate with antiperiodic coordinate
    functions, and conjugate pairs couple through 2x2 blocks.  Outputs are
    folded back to the base grid; the fold defect measures how far the
    result is from exact base-periodicity.
    """
    n_grid = f_orders.shape[1]
    lift = bundle_real.series.grid_size // n_grid
    blocks = bundle_real.blocks
    bgrid = bundle_real.grid_values().real
    agrid = adjoint_real.grid_values().real
    p = bundle_real.period

    def lift_vec(v):
        return np.tile(v, (lift, 1))

    def lift_mat(m):
        return np.tile(m, (lift, 1, 1))

    orders = [order0]
    terms = [np.zeros_like(order0)]
    fold_defect = 0.0
    solvability = 0.0
    for n in range(1, order + 1):
        g_n = np.zeros_like(order0)
        for i in range(n):
            g_n += np.einsum("nab,nb->na", f_orders[n - i], orders[i])
        g_lift = lift_vec(g_n)
        reduced = -np.einsum("nai,na->ni", bgrid, g_lift)
        rhs = FourierSeries.from_samples(reduced.astype(complex), p)
        shift_n = (n + shift_offset) * lam_s

        coords = np.zeros((rhs.grid_size, reduced.shape[1]), dtype=complex)
        for b in blocks:
            if b.kind == "pair":
                pair_rhs = FourierSeries(rhs.coef[:, b.index : b.index + 2], p)
                sol = block_solve_2x2(
                    pair_rhs, b.alpha, b.beta, shift_n, period
                )
                coords[:, b.index : b.index + 2] = sol.samples()
                continue
            shift = (0.0 if b.kind == "trivial" else b.alpha) + shift_n
            comp = FourierSeries(rhs.coef[:, b.index : b.index + 1], p)
            free = ()
            if b.kind == "trivial" and abs(shift) < small_divisor_tol:
                free = ((0, 0),)
            sol, info = solve_diagonal(
                comp, [shift], period, free_modes=free,
                small_divisor_tol=small_divisor_tol,
            )
            if free:
                solvability = max(solvability, info.get((0, 0), 0.0))
                if solvability > solvability_tol:
                    raise SolvabilityError(
                        f"real-path solvability residual {solvability:.3e} "
                        f"exceeds {solvability_tol:.1e}"
                    )
            coords[:, b.index] = sol.samples()[:, 0]

        full = np.einsum("nab,nb->na", agrid, coords.real)
        if lift == 2:
            fold_defect = max(
                fold_defect, float(np.max(np.abs(full[:n_grid] - full[n_grid:])))
            )
            folded = 0.5 * (full[:n_grid] + full[n_grid:])
        else:
            folded = full
        if n == 1 and order1_fix is not None:
            folded = order1_fix(folded)
        orders.append(folded)
        terms.append(g_n)

    return orders, terms, fold_defect, solvability
