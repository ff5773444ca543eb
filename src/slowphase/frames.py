"""Tangent/normal bundle frames and adjoint (response-curve) frames.

The complex bundle frame has columns [K0', C_1, ..., C_{d-1}] where C_j
solves the order-1 variational equation (1/T) C' + lam_j C = DX(K0) C as a
1-periodic function.  Nothing is integrated here: a bundle seed is
e^{-lam_j (t - t_c)} Phi(t; t_c) C_j(t_c) on chunk c, from the transition
matrices that the cycle stage's pass,
:func:`~slowphase.cycle.variational_sweep`, gives on each chunk of the
period, with C_j(t_c) carried from the monodromy's eigenvector forward or
backward across the period -- the direction is chosen so that contamination
by other Floquet directions is not amplified.  The adjoint frame is seeded
with the pointwise dual inv(B(theta))^T of the polished bundle B, the dual
frame by construction (Perez-Cervera, Seara & Huguet, *Chaos* 30, 083117,
2020), so no formed monodromy is eigen-decomposed here.  The seeds
are polished by a Newton iteration carried out entirely in Fourier space,
which also refines the exponents.  The polish is what reaches spectral
accuracy: a single-shot integration of strongly contracting directions
cannot, in double precision, because errors along slower directions grow
like exp(|Re lam_j| T) across the period.  So the polish owns the accuracy.

Band limits and theta-derivatives of grid values are the series operations
of :class:`~slowphase.series.FourierSeries`: ``from_samples``, then
``band_limited`` and ``differentiate``, then ``samples``.  The Newton
corrections are diagonal per Fourier mode and go through
:func:`~slowphase.series.solve_diagonal`, so this module applies no Fourier
transform and computes no Fourier divisor of its own; a near-resonant
divisor raises :class:`~slowphase.errors.SmallDivisorError` there.  The
frame ODE residual has one definition, ``_frame_residual``, and both frame
builds end in one step, ``_finish_frame``: measure that residual, band-limit
the columns' series and construct the :class:`Frame`.

All of this is written once, for a frame of an operator A with exponents mu:
the bundle frame is the frame of A = DX with mu = lam, and the adjoint
(response-curve) frame is the frame of A = -DX^T with mu = -lam, the dual of
the bundle frame.  The bundle build returns the polished cycle, the frame
and its band cut, which the adjoint frame is polished in.  Each frame is
polished once on the polished orbit; the adjoint columns are then scaled to
pair with the bundle columns at grid mean 1.  The cross-check polishes and
eigen-decomposes nothing: it compares the adjoint frame with its seed, the
bundle's pointwise dual, and the two frames' refined exponents over the
polished period, and checks Psi^T Phi = Id on the pass's chunks.
``solve_in_frame`` is the one homological solve in frame coordinates, for the
manifold orders (DX) and the response orders (-DX^T) alike.

A :class:`Frame` is always the complex representation, of period 1.  Real
frames are exact recombinations of the complex grid values, sampled only for
the curve export: negative-multiplier columns become antiperiodic (period-2)
real functions via a half-harmonic phase factor, sampled over two periods of
the complex frame, and conjugate pairs become their real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cycle import (
    CLASS_PAIR_CONJ,
    CLASS_PAIR_LEAD,
    CLASS_REAL_NEGATIVE,
    CLASS_REAL_POSITIVE,
    CLASS_TRIVIAL,
    CycleResult,
    FloquetSpectrum,
    VariationalSweep,
)
from .errors import FrameError
from .series import FourierSeries, solve_diagonal, theta_grid

__all__ = [
    "Frame",
    "build_bundle_frame",
    "build_adjoint_frame",
    "build_real_frames",
    "cross_check_adjoint_frame",
    "solve_in_frame",
]


# joint orbit/frame polish rounds of build_bundle_frame
MAX_OUTER = 6


@dataclass
class Frame:
    """d x d matrix of 1-periodic functions (bundle or adjoint columns)."""

    series: FourierSeries  # value shape (d, d); columns index the directions
    exponents: np.ndarray  # complex (d,); reduced generator diagonal
    classes: tuple
    residual: float

    @property
    def dim(self) -> int:
        return self.series.value_shape[0]

    def grid_values(self) -> np.ndarray:
        # synthesized on first use, read-only; not a field, so not in the metadata
        if not hasattr(self, "_grid_values"):
            self._grid_values = self.series.samples()
            self._grid_values.flags.writeable = False
        return self._grid_values


def _active_bandwidth(series: FourierSeries, n: int) -> int:
    """Estimate where the true spectral content reaches the eps floor.

    Fits the geometric decay between the 1e-6 and 1e-10 relative levels
    (safely above integration noise) and extrapolates six more decades,
    with a 30% margin.  Grids too small for the fit return n // 3.
    """
    mags = series.magnitudes()
    peak = mags.max()
    k = np.abs(series.k)
    hi = k[mags > 1e-6 * peak]
    lo = k[mags > 1e-10 * peak]
    if len(hi) == 0 or len(lo) == 0:
        return n // 3
    k_hi, k_lo = int(hi.max()), int(lo.max())
    per_decade = max((k_lo - k_hi) / 4.0, 1.0)
    estimate = int(1.3 * (k_lo + 6.0 * per_decade))
    floor = min(64, n // 3)
    return int(min(n // 3, max(floor, estimate)))


def _integration_route(lam: complex, exponents: np.ndarray, period: float) -> str:
    """Pick the one-period integration direction with least error growth.

    Forward integration amplifies the directions slower than ``lam``, up to
    the largest real part of ``exponents``; backward, the faster ones, down
    to the smallest.  Ties go forward.
    """
    re = lam.real
    amp_fwd = (float(np.max(exponents.real)) - re) * period
    amp_bwd = (re - float(np.min(exponents.real))) * period
    return "forward" if amp_fwd <= amp_bwd else "backward"


def _seed_columns(sweep: VariationalSweep, seeds, lams):
    """Bundle seed columns from the sweep: column j at grid time t of chunk c
    is e^{-lam_j (t - t_c)} Phi(t; t_c) C_j(t_c).  ``seeds`` maps j -> C_j at
    t = 0 on the forward route of :func:`_integration_route`, carried across
    chunk c by e^{-lam_j h} Phi_c, or at t = T on the backward route, carried
    back by e^{lam_j h} Phi_c^{-1} = e^{lam_j h} Psi_c^T.  Returns the
    (N, d, d) columns, zero outside ``seeds``."""
    steps, period = np.diff(sweep.edges), sweep.edges[-1]
    edge = np.zeros((len(sweep.edges),) + sweep.ends.shape[2:], dtype=complex)
    for j, w in seeds.items():
        if _integration_route(lams[j], lams, period) == "forward":
            edge[0, :, j] = w
            for c, h in enumerate(steps):
                edge[c + 1, :, j] = np.exp(-lams[j] * h) * (sweep.ends[c, 0] @ edge[c, :, j])
        else:
            edge[-1, :, j] = w
            for c in reversed(range(len(steps))):
                edge[c, :, j] = np.exp(lams[j] * steps[c]) * (
                    sweep.ends[c, 1].T @ edge[c + 1, :, j]
                )
    times = theta_grid(len(sweep.chunk)) * period
    shift = np.exp(-np.multiply.outer(times - sweep.edges[sweep.chunk], lams))
    cols = np.einsum("nab,nbj->naj", sweep.flows, edge[sweep.chunk])
    return cols * shift[:, None, :]


def _symmetrize_columns(cols, lams, classes, theta, period_time):
    """Enforce the per-class reality structure of columns and exponents."""
    d = cols.shape[2]
    phase = np.exp(1j * np.pi * theta)
    j = 0
    while j < d:
        cls = classes[j]
        if cls == CLASS_TRIVIAL:
            cols[:, :, j] = cols[:, :, j].real
            lams[j] = 0.0
            j += 1
        elif cls == CLASS_REAL_POSITIVE:
            cols[:, :, j] = cols[:, :, j].real
            lams[j] = lams[j].real
            j += 1
        elif cls == CLASS_REAL_NEGATIVE:
            # column = (half-harmonic phase)^(-s) x real antiperiodic part,
            # exponent Re lam + s i pi / T, with s the sign of Im lam
            up = lams[j].imag > 0
            p = phase.conj() if up else phase
            real_part = (cols[:, :, j] / p[:, None]).real
            cols[:, :, j] = p[:, None] * real_part
            lams[j] = lams[j].real + (1j if up else -1j) * np.pi / period_time
            j += 1
        elif cls == CLASS_PAIR_LEAD:
            cols[:, :, j + 1] = np.conj(cols[:, :, j])
            lams[j + 1] = np.conj(lams[j])
            j += 2
        else:  # conjugate handled with its lead
            j += 1


def _frame_residual(cols, op_grid, lams, period, k_cut):
    """Grid values of the frame ODE residual, shape (N, d, d).

    The columns of a frame of the operator A (grid samples ``op_grid``) with
    exponents ``lams`` solve (1/T) C' - A C + C diag(lam) = 0; derivatives
    are taken within the band |k| < k_cut.
    """
    dq = (
        FourierSeries.from_samples(cols).band_limited(k_cut)
        .differentiate().samples()
    )
    return dq / period - op_grid @ cols + cols * lams[None, None, :]


def _refine_frame(
    op_grid,
    period,
    cols,
    lams,
    classes,
    theta,
    k_cut,
    fixed_columns=(),
    tol_rel=1e-12,
    max_sweeps=80,
):
    """Fourier-space Newton polish of all frame columns and exponents.

    The frame is one of the operator A with grid samples ``op_grid``.
    Iterates corrections column by column in the coordinates of the current
    frame, where the linearized operator is diagonal per Fourier mode; the
    mode (k=0, component=j) of column j is the scale gauge and funds the
    exponent update.  Converges linearly with rate ~ ||residual|| / gap, so a
    handful of sweeps suffice from integration-quality seeds.  It stops at
    ``tol_rel`` of the operator's scale, or at the first sweep that does not
    halve the best residual: roundoff has ended the convergence there.
    Columns are kept band-limited to |k| < k_cut throughout: integration
    seeds carry step-scale noise near the Nyquist wavenumber, which grid
    products alias and the refinement would re-inject with gain above one.
    The analytic functions handled here decay geometrically, so a cutoff at a
    fraction of the grid removes noise only; derivatives are taken within the
    same band.
    """
    d = cols.shape[2]
    cols[...] = FourierSeries.from_samples(cols).band_limited(k_cut).samples()
    scale = 1.0 + float(np.max(np.abs(op_grid)))
    tol = tol_rel * scale
    history = []
    best = np.inf

    for sweep in range(max_sweeps):
        res = _frame_residual(cols, op_grid, lams, period, k_cut)
        # balance column scales: residuals are judged and solved relative to
        # each column's own magnitude, keeping the pointwise solves
        # well-conditioned when column norms differ by orders of magnitude
        norms = np.max(np.abs(cols), axis=(0, 1))
        balanced = cols / norms[None, None, :]
        res_bal = res / norms[None, None, :]
        active = [j for j in range(d) if j not in fixed_columns]
        res_max = float(np.max(np.abs(res_bal[:, :, active]))) if active else 0.0
        history.append(res_max)
        # stop at the tolerance, or once a sweep no longer halves the best
        # residual: linear convergence has reached the roundoff floor
        if res_max < tol or res_max > 0.5 * best:
            break
        best = res_max
        try:
            rho = np.linalg.solve(balanced, -res_bal)
        except np.linalg.LinAlgError as exc:
            raise FrameError(f"singular frame during refinement: {exc}") from exc

        for j in active:
            if classes[j] == CLASS_PAIR_CONJ:
                continue
            v, free = solve_diagonal(
                FourierSeries.from_samples(rho[:, :, j]), lams[j] - lams, period,
                free_modes=((0, j),), small_divisor_tol=1e-10,
            )
            cols[:, :, j] += norms[j] * np.einsum("nab,nb->na", balanced, v.samples())
            if classes[j] != CLASS_TRIVIAL:
                lams[j] += free[(0, j)]

        cols[...] = FourierSeries.from_samples(cols).band_limited(k_cut).samples()
        _symmetrize_columns(cols, lams, classes, theta, period)

    return history


def solve_in_frame(rhs, reduce: Frame, expand: Frame, shifts, period,
                   free_modes=(), small_divisor_tol=1e-8):
    """Solve (1/T) x' - A x + s x = ``rhs`` for a 1-periodic x.

    ``expand`` is a frame of the operator A with exponents mu and ``reduce``
    its dual (reduce^T expand = Id).  The frame coordinates c = reduce^T x
    solve (1/T) c_j' + shifts_j c_j = (reduce^T rhs)_j with shifts = s - mu,
    which :func:`~slowphase.series.solve_diagonal` divides per Fourier mode
    (with its ``free_modes`` and ``small_divisor_tol``).  ``rhs`` holds real
    grid values of shape (N, d).  Returns ``(x, free)``: the complex grid
    values of x and solve_diagonal's free-mode map.

    The reduction reads the dual frame as pairs of floats, shape (N, d, 2d),
    so a real ``rhs`` is never multiplied by a zero imaginary part; it gives
    the bytes of the complex contraction.
    """
    frame = reduce.grid_values()
    pairs = frame.view(frame.real.dtype)
    reduced = np.einsum("nak,na->nk", pairs, rhs).view(frame.dtype)
    solution, free = solve_diagonal(
        FourierSeries.from_samples(reduced), shifts, period,
        free_modes=free_modes, small_divisor_tol=small_divisor_tol,
    )
    x = np.einsum("nab,nb->na", expand.grid_values(), solution.samples())
    return x, free


def _polish_cycle_step(samples, defect, period, cols, lams, k_cut):
    """One Fourier-space Newton step on the orbit, from its grid values
    ``samples`` and its ``defect`` X(x) - x' / T there, and the period.

    Returns the updated orbit, a real series, and period; the correction is
    expressed in frame coordinates, where the (k=0, flow-direction) mode is
    the time-origin gauge and its right-hand side funds the period update.
    Like the frame columns, the orbit is kept band-limited to |k| < k_cut.
    """
    try:
        rho = np.linalg.solve(cols, defect.astype(complex)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise FrameError(f"bundle frame singular in the orbit polish: {exc}") from exc
    v, free = solve_diagonal(
        FourierSeries.from_samples(rho), -lams, period, free_modes=((0, 0),)
    )
    d_period = -(period**2) * free[(0, 0)].real
    correction = np.einsum("nab,nb->na", cols, v.samples()).real
    orbit = FourierSeries.from_samples(samples + correction).band_limited(k_cut)
    return orbit, period + d_period


def _finish_frame(cols, op_grid, mus, period, k_cut, classes, exponents) -> Frame:
    """The :class:`Frame` of the polished grid columns ``cols`` of the operator
    A (grid samples ``op_grid``) with exponents ``mus``: its series
    band-limited to |k| < k_cut, and its residual the grid maximum of
    :func:`_frame_residual`.  It states ``exponents``: ``mus`` for the bundle,
    ``-mus`` for the adjoint frame of -DX^T."""
    residual = float(np.max(np.abs(_frame_residual(cols, op_grid, mus, period, k_cut))))
    return Frame(series=FourierSeries.from_samples(cols).band_limited(k_cut),
                 exponents=exponents, classes=classes, residual=residual)


def build_bundle_frame(model, cycle: CycleResult, spectrum: FloquetSpectrum):
    """Build the complex bundle frame and jointly polish the orbit.

    The orbit starts as the series of the shooting ``cycle``, the x samples
    of its pass ``cycle.sweep``.  Columns are seeded from that pass and
    gauged to unit grid-max vector norm (this makes the slow column directly
    usable as the order-1 manifold coefficient, scaled by
    ``expand_slow_manifold``'s gauge).  Returns ``(cycle, bundle, band_cut)``:
    the polished cycle, anchored at its theta = 0 sample; the frame, whose
    exponents are the refined ones; and the band |k| < band_cut that both
    are limited to, which the adjoint frame is polished in.  A cycle without
    its pass, as one loaded from the cycle stage holds until
    :func:`slowphase.pipeline.cycle_sweep` recomputes it, raises
    :class:`FrameError`.
    """
    sweep = cycle.sweep
    if sweep is None:
        raise FrameError("the bundle frame is seeded from the cycle's pass, which this "
                         "cycle does not hold: recompute it with pipeline.cycle_sweep")
    d = model.dim
    n = cycle.grid_size
    theta = theta_grid(n)
    period = cycle.period
    lams = spectrum.exponents.astype(complex).copy()
    classes = spectrum.classes

    seeds = {j: spectrum.eigenvectors[:, j] for j in range(1, d)
             if classes[j] != CLASS_PAIR_CONJ}
    cols = _seed_columns(sweep, seeds, lams)
    orbit = cycle.series
    cols[:, :, 0] = orbit.differentiate().samples()

    _symmetrize_columns(cols, lams, classes, theta, period)

    k_cut = _active_bandwidth(orbit, n)
    orbit = orbit.band_limited(k_cut)
    samples = orbit.samples()
    defect = model.eval(samples) - orbit.differentiate().samples() / period
    cycle_defect = np.inf
    for _ in range(MAX_OUTER):
        orbit, period = _polish_cycle_step(samples, defect, period, cols, lams, k_cut)
        samples = orbit.samples()
        deriv = orbit.differentiate().samples()
        jac_grid = model.jacobian(samples)
        cols[:, :, 0] = deriv
        _symmetrize_columns(cols, lams, classes, theta, period)
        _refine_frame(jac_grid, period, cols, lams, classes, theta, fixed_columns=(0,),
                      k_cut=k_cut)
        field_x = model.eval(samples)
        defect = field_x - deriv / period
        previous_defect = cycle_defect
        cycle_defect = float(np.max(np.linalg.norm(defect, axis=1)))
        scale_x = 1.0 + float(np.max(np.abs(field_x)))
        # iterate the joint polish until the orbit defect hits its roundoff
        # floor (stagnation) -- its theta-derivative enters the tangent
        # column's residual, so a loose stop here would dominate everything
        if cycle_defect < 5e-14 * scale_x or cycle_defect > 0.5 * previous_defect:
            break

    # final gauge: unit grid-max vector norm per nontrivial column
    for j in range(1, d):
        if classes[j] == CLASS_PAIR_CONJ:
            cols[:, :, j] = np.conj(cols[:, :, j - 1])
            continue
        norm = float(np.max(np.linalg.norm(cols[:, :, j], axis=1)))
        cols[:, :, j] /= norm

    # the refinement re-band-limits the fixed tangent column at roundoff
    cols[:, :, 0] = deriv

    bundle = _finish_frame(cols, jac_grid, lams, period, k_cut, classes, lams)
    polished = replace(cycle, anchor=samples[0].copy(), period=float(period),
                       series=orbit, sweep=None)
    return polished, bundle, k_cut


def _dual_frame(bundle: Frame) -> np.ndarray:
    """inv(B(theta))^T on the grid, (N, d, d): the pointwise dual of ``bundle``,
    computed on first use and kept read-only on it, as its grid values are.
    A FrameError names the first phase where the bundle is singular."""
    if not hasattr(bundle, "_dual"):
        transposed = np.swapaxes(bundle.grid_values(), 1, 2)
        try:
            bundle._dual = np.linalg.inv(transposed)
        except np.linalg.LinAlgError as exc:
            node = int(np.argmax(np.linalg.det(transposed) == 0))  # inv's zero pivot
            raise FrameError(f"bundle frame singular at theta = "
                             f"{node / len(transposed):g}: {exc}") from exc
        bundle._dual.flags.writeable = False
    return bundle._dual


def build_adjoint_frame(model, cycle: CycleResult, bundle: Frame, k_cut: int) -> Frame:
    """Build the complex adjoint (response-curve) frame, the dual of ``bundle``.

    Every column is seeded at every grid node with the bundle's pointwise
    dual (:func:`_dual_frame`) and polished as a frame of -DX^T with
    exponents -lam on the polished orbit ``cycle``, in the bundle's band
    ``k_cut``; the polish removes the dual's high-k noise, which the frame's
    derivative would amplify.  Each column is then rescaled so that its
    pairing with the bundle column has grid mean 1: column 0 is the phase
    response curve (its pairing with K0' is 1), columns j >= 1 the amplitude
    response curves.  The frame keeps its own refined exponents, stated as
    lam (the negated exponents of -DX^T).
    """
    d, theta, period = model.dim, cycle.theta, cycle.period
    mus, classes = -bundle.exponents, bundle.classes
    bundle_vals = bundle.grid_values()
    cols = _dual_frame(bundle).copy()
    _symmetrize_columns(cols, mus, classes, theta, period)
    op_grid = np.swapaxes(-model.jacobian(cycle.samples), 1, 2)
    # 1e-15 lies below the roundoff floor (the oracle plateaus at 3-5e-15);
    # the polish ends at the first sweep that does not halve the residual
    _refine_frame(op_grid, period, cols, mus, classes, theta, tol_rel=1e-15,
                  k_cut=k_cut)

    # pairing gauge: the pairing with the bundle columns is constant in theta
    # for exact solutions, so one rescale per column sets it
    for j in range(d):
        factor = np.mean(np.einsum("ni,ni->n", cols[:, :, j], bundle_vals[:, :, j]))
        if abs(factor) < 1e-12:
            raise FrameError(f"adjoint column {j} orthogonal to the bundle column")
        cols[:, :, j] /= factor
    return _finish_frame(cols, op_grid, mus, period, k_cut, classes, -mus)


def build_real_frames(bundle: Frame, adjoint: Frame):
    """Real representations of both frames by exact recombination.

    Returns ``(theta, bundle_values, adjoint_values)``: the real frames'
    values, shape (reps N, d, d), at theta = m / N on [0, reps).  If any
    direction carries a negative multiplier, reps is 2: its column becomes a
    real antiperiodic function of period 2, and every column is sampled over
    two periods of the complex frame.  Otherwise reps is 1.  Conjugate pairs
    become (real part, imaginary part) columns.
    """
    classes = bundle.classes
    n = bundle.series.grid_size
    reps = 2 if CLASS_REAL_NEGATIVE in classes else 1
    theta = np.arange(reps * n) * (1.0 / n)
    half = np.exp(1j * np.pi * theta)[:, None]
    out = []
    # per frame: the factor of a negative column, and those of a pair's real
    # and imaginary parts
    for frame, negative, re, im in ((bundle, half, 1.0, 1.0),
                                    (adjoint, np.conj(half), 2.0, -2.0)):
        vals = np.tile(frame.grid_values(), (reps, 1, 1))
        real = vals.real.copy()
        for j, cls in enumerate(classes):
            if cls == CLASS_REAL_NEGATIVE:
                real[:, :, j] = (negative * vals[:, :, j]).real
            elif cls == CLASS_PAIR_LEAD:
                real[:, :, j] = re * vals[:, :, j].real
                real[:, :, j + 1] = im * vals[:, :, j].imag
        out.append(real)
    return theta, out[0], out[1]


def cross_check_adjoint_frame(bundle: Frame, adjoint: Frame, sweep: VariationalSweep,
                              period: float) -> dict:
    """Check the adjoint frame against the bundle frame and the adjoint flow.

    Nothing is integrated, polished or eigen-decomposed: Psi comes from
    ``sweep``, the pass the bundle was seeded from.  The report contains
    the fundamental-solution duality Psi^T Phi = Id on every chunk, the
    duality of the adjoint frame's refined exponents with the bundle's over
    ``period`` (the polished one), and the per-column discrepancy of the
    adjoint frame from its seed, the bundle's pointwise dual: how far the
    adjoint polish moved.
    """
    d = bundle.dim

    # The duality Psi(t)^T Phi(t) = Id holds on every chunk for the
    # transition matrices started there, and the full-period identity
    # follows by telescoping.
    identity_defect = float(np.max(np.abs(
        np.swapaxes(sweep.ends[:, 1], 1, 2) @ sweep.ends[:, 0] - np.eye(d))))

    inv_t = _dual_frame(bundle)
    gap = np.max(np.abs(adjoint.grid_values() - inv_t), axis=(0, 1))
    discrepancies = gap / np.maximum(1.0, np.max(np.abs(inv_t), axis=(0, 1)))

    # eigenvalue duality at unit scale: the adjoint frame's refined exponents
    # come purely from the adjoint machinery, so their agreement with the
    # bundle's is exp((lam_adj - lam) T) = 1, free of a formed product's
    # eps |M| eigenvalue error
    shift = (adjoint.exponents - bundle.exponents) * period
    shift = np.clip(shift.real, -700.0, 700.0) + 1j * shift.imag
    refined_duality = np.abs(np.exp(shift) - 1.0)

    return {
        "eigenvalue_duality_rel_errors": refined_duality,
        "psi_phi_identity_defect": identity_defect,
        "column_discrepancies": discrepancies,
    }
