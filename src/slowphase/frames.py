"""Tangent/normal bundle frames and adjoint (response-curve) frames.

The complex bundle frame has columns [K0', C_1, ..., C_{d-1}] where C_j
solves the order-1 variational equation (1/T) C' + lam_j C = DX(K0) C as a
1-periodic function.  Column seeds come from integrating the exponent-shifted
variational system forward or backward over one period -- the direction is
chosen so that contamination by other Floquet directions is not amplified --
and are then polished by a Newton iteration carried out entirely in Fourier
space, which also refines the exponents.  The polish is what reaches
spectral accuracy: a single-shot integration of strongly contracting
directions cannot, in double precision, because errors along slower
directions grow like exp(|Re lam_j| T) across the period.

Band limits and theta-derivatives of grid values are the series operations
of :class:`~slowphase.series.FourierSeries`: ``from_samples``, then
``band_limited`` and ``differentiate``, then ``samples``.

The same machinery, run on the adjoint operator, provides an independent
construction of the response-curve frame for cross-checking; the production
adjoint frame is simply the pointwise inverse transpose of the bundle frame,
which makes the biorthogonality normalizations exact by construction.

Real frames are exact recombinations of the complex ones: negative-multiplier
columns become antiperiodic (period-2) real functions via a half-harmonic
phase factor, and conjugate pairs become their real and imaginary parts.
The expansions use only the complex frames; the real ones serve the curve
export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycle import (
    CLASS_PAIR_CONJ,
    CLASS_PAIR_LEAD,
    CLASS_REAL_NEGATIVE,
    CLASS_REAL_POSITIVE,
    CLASS_TRIVIAL,
    CycleResult,
    FloquetSpectrum,
)
from .errors import FrameError
from .integrate import DEFAULT_SETTINGS, IntegratorSettings, _integrate
from .series import FourierSeries, theta_grid, wavenumbers

__all__ = [
    "Frame",
    "RealBlock",
    "BundleBuildResult",
    "build_bundle_frame",
    "build_adjoint_frame",
    "build_real_frames",
    "cross_check_adjoint_frame",
    "real_generator_matrix",
]


@dataclass(frozen=True)
class RealBlock:
    """One diagonal block of the real reduced generator."""

    kind: str  # "trivial" | "real" | "negative" | "pair"
    index: int  # first column index
    alpha: float = 0.0  # lam (real), nu (negative), or Re lam (pair)
    beta: float = 0.0  # Im lam for pairs

    @property
    def size(self) -> int:
        return 2 if self.kind == "pair" else 1


@dataclass
class Frame:
    """d x d matrix of periodic functions (bundle or adjoint columns)."""

    kind: str  # "bundle" | "adjoint"
    representation: str  # "complex" | "real"
    series: FourierSeries  # value shape (d, d); columns index the directions
    exponents: np.ndarray  # complex (d,); reduced generator diagonal (complex rep)
    classes: tuple
    blocks: tuple = ()  # RealBlock structure (real representation)
    residual: float = np.nan

    @property
    def dim(self) -> int:
        return self.series.value_shape[0]

    @property
    def period(self) -> float:
        return self.series.period

    def column(self, j: int) -> FourierSeries:
        return FourierSeries(self.series.coef[:, :, j], self.series.period)

    def grid_values(self) -> np.ndarray:
        return self.series.samples()


@dataclass
class BundleBuildResult:
    bundle: Frame
    cycle: CycleResult  # spectrally polished orbit and period
    exponents: np.ndarray  # refined exponents (complex, d)
    diagnostics: dict = field(default_factory=dict)


def _active_bandwidth(series: FourierSeries, n: int) -> int:
    """Estimate where the true spectral content reaches the eps floor.

    Fits the geometric decay between the 1e-6 and 1e-10 relative levels
    (safely above integration noise) and extrapolates six more decades,
    with a 30% margin.  Grids too small for the fit return n // 3.
    """
    mags = np.abs(series.coef).reshape(series.grid_size, -1).max(axis=1)
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


def _integration_route(lam: complex, exponents: np.ndarray, period: float,
                       adjoint: bool = False) -> str:
    """Pick the one-period integration direction with least error growth.

    The adjoint flow runs the spectrum backwards, so its column for ``lam``
    takes the opposite trade-off (ties still go forward).
    """
    re = lam.real
    re_min = float(np.min(exponents.real))
    amp_fwd = -re * period  # contamination from slower directions
    amp_bwd = (re - re_min) * period  # contamination from faster directions
    if adjoint:
        amp_fwd, amp_bwd = amp_bwd, amp_fwd
    return "forward" if amp_fwd <= amp_bwd else "backward"


def _shifted_columns(model, interp, w, lam, period, theta, settings, direction,
                     adjoint=False):
    """Sample e^{-lam_j T theta} Phi(T theta) w_j for the m columns of ``w``.

    ``w`` is d x m and ``lam`` has length m.  The shifted variational
    equations dC_j/dt = (DX(gamma(t)) - lam_j) C_j keep every column O(1)
    across the period; all m columns ride one route and are integrated as
    one real system of dimension 2dm, so the cycle point and the Jacobian
    are evaluated once per stage for all of them.  With ``adjoint`` it
    samples e^{lam_j T theta} Psi(T theta) w_j instead: the same system with
    -DX^T for DX and -lam for lam (negation is exact).  Returns an array of
    shape (len(theta), d, m).
    """
    d, m = w.shape
    size = d * m
    lam = -np.asarray(lam) if adjoint else np.asarray(lam)
    lam_re, lam_im = lam.real, lam.imag

    def rhs(t, y):
        jac = model.jacobian(interp(t))
        if adjoint:
            jac = -jac.T
        a, b = y[:size].reshape(d, m), y[size:].reshape(d, m)
        da = jac @ a - lam_re * a + lam_im * b
        db = jac @ b - lam_re * b - lam_im * a
        return np.concatenate([da.ravel(), db.ravel()])

    y0 = np.concatenate([w.real.ravel(), w.imag.ravel()])
    times = theta * period
    if direction == "forward":
        _, samples = _integrate(rhs, 0.0, y0, period, settings, t_eval=times)
    else:
        _, samples = _integrate(rhs, period, y0, 0.0, settings, t_eval=times)
    return (samples[:, :size] + 1j * samples[:, size:]).reshape(-1, d, m)


def _columns_by_route(model, interp, cols, seeds, lams, classes, period, theta,
                      settings, adjoint=False):
    """Fill ``cols[:, :, j]`` for each column ``j`` in ``seeds`` (j -> seed
    vector) with one shifted integration per route, then each conjugate
    column from its lead; returns j -> route."""
    routes = {
        j: _integration_route(lams[j], lams, period, adjoint) for j in seeds
    }
    for direction in ("forward", "backward"):
        group = [j for j in seeds if routes[j] == direction]
        if group:
            w = np.stack([seeds[j] for j in group], axis=1)
            cols[:, :, group] = _shifted_columns(
                model, interp, w, lams[group], period, theta, settings,
                direction, adjoint,
            )
    for j, cls in enumerate(classes):
        if cls == CLASS_PAIR_CONJ:
            cols[:, :, j] = np.conj(cols[:, :, j - 1])
    return routes


def _symmetrize_columns(cols, lams, classes, theta, period_time, adjoint=False):
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
            # column = (half-harmonic phase)^(-sign) x real antiperiodic part
            p = phase.conj() if not adjoint else phase
            real_part = (cols[:, :, j] / p[:, None]).real
            cols[:, :, j] = p[:, None] * real_part
            lams[j] = lams[j].real + 1j * np.pi / period_time
            j += 1
        elif cls == CLASS_PAIR_LEAD:
            cols[:, :, j + 1] = np.conj(cols[:, :, j])
            lams[j + 1] = np.conj(lams[j])
            j += 2
        else:  # conjugate handled with its lead
            j += 1


def _refine_frame(
    jac_grid,
    period,
    cols,
    lams,
    classes,
    theta,
    adjoint=False,
    fixed_columns=(),
    tol_rel=1e-12,
    max_sweeps=80,
    divisor_floor=1e-10,
    k_cut=None,
):
    """Fourier-space Newton polish of all frame columns and exponents.

    Iterates corrections column by column in the coordinates of the current
    frame, where the linearized operator is diagonal per Fourier mode; the
    mode (k=0, component=j) of column j is the scale gauge and funds the
    exponent update.  Converges linearly with rate ~ ||residual|| / gap, so a
    handful of sweeps suffice from integration-quality seeds.  Columns are
    kept band-limited to |k| < k_cut throughout: integration seeds carry
    step-scale noise near the Nyquist wavenumber, which grid products alias
    and the refinement would re-inject with gain above one.  The analytic
    functions handled here decay geometrically, so a cutoff at a fraction of
    the grid removes noise only; derivatives are taken within the same band.
    """
    n, d = cols.shape[0], cols.shape[2]
    k = wavenumbers(n)
    if k_cut is None:
        k_cut = n // 3
    cols[...] = FourierSeries.from_samples(cols).band_limited(k_cut).samples()
    jac_t = np.swapaxes(jac_grid, 1, 2)
    scale = 1.0 + float(np.max(np.abs(jac_grid)))
    tol = tol_rel * scale
    history = []
    best = np.inf
    worse = 0

    for sweep in range(max_sweeps):
        dq = (
            FourierSeries.from_samples(cols).band_limited(k_cut)
            .differentiate().samples()
        )
        if adjoint:
            res = dq / period + jac_t @ cols - cols * lams[None, None, :]
        else:
            res = dq / period - jac_grid @ cols + cols * lams[None, None, :]
        # balance column scales: residuals are judged and solved relative to
        # each column's own magnitude, keeping the pointwise solves
        # well-conditioned when column norms differ by orders of magnitude
        norms = np.max(np.abs(cols), axis=(0, 1))
        balanced = cols / norms[None, None, :]
        res_bal = res / norms[None, None, :]
        active = [j for j in range(d) if j not in fixed_columns]
        res_max = float(np.max(np.abs(res_bal[:, :, active]))) if active else 0.0
        history.append(res_max)
        if res_max < tol:
            break
        if res_max < best:
            best = res_max
            worse = 0
        else:
            worse += 1
            if worse >= 5:
                break
        try:
            rho = np.linalg.solve(balanced, -res_bal)
        except np.linalg.LinAlgError as exc:
            raise FrameError(f"singular frame during refinement: {exc}") from exc
        rho_hat = np.fft.fft(rho, axis=0) / n

        for j in active:
            if classes[j] == CLASS_PAIR_CONJ:
                continue
            if adjoint:
                div = (2j * np.pi / period) * k[:, None] + (lams[None, :] - lams[j])
            else:
                div = (2j * np.pi / period) * k[:, None] + (lams[j] - lams[None, :])
            div[0, j] = 1.0  # free mode, handled below
            if np.min(np.abs(div)) < divisor_floor:
                raise FrameError(
                    f"near-resonant order-1 divisor while refining column {j}"
                )
            v_hat = rho_hat[:, :, j] / div
            dlam = rho_hat[0, j, j]
            v_hat[0, j] = 0.0
            v = np.fft.ifft(v_hat * n, axis=0)
            cols[:, :, j] += norms[j] * np.einsum("nab,nb->na", balanced, v)
            if classes[j] != CLASS_TRIVIAL:
                lams[j] += -dlam if adjoint else dlam

        cols[...] = FourierSeries.from_samples(cols).band_limited(k_cut).samples()
        _symmetrize_columns(cols, lams, classes, theta, period, adjoint)

    return history


def _polish_cycle_step(model, samples, period, cols, lams, k_cut):
    """One Fourier-space Newton step on the orbit samples and period.

    Returns updated (samples, period); the correction is expressed in frame
    coordinates, where the (k=0, flow-direction) mode is the time-origin
    gauge and its right-hand side funds the period update.  Like the frame
    columns, the samples are kept band-limited to |k| < k_cut.
    """
    n = samples.shape[0]
    k = wavenumbers(n)
    samples = FourierSeries.from_samples(samples).band_limited(k_cut).samples().real
    deriv = (
        FourierSeries.from_samples(samples).band_limited(k_cut)
        .differentiate().samples().real
    )
    defect = model.eval(samples) - deriv / period
    rho = np.linalg.solve(cols, defect.astype(complex)[:, :, None])[:, :, 0]
    rho_hat = np.fft.fft(rho, axis=0) / n
    div = (2j * np.pi / period) * k[:, None] - lams[None, :]
    div[0, 0] = 1.0
    v_hat = rho_hat / div
    d_period = -(period**2) * rho_hat[0, 0].real
    v_hat[0, 0] = 0.0
    v = np.fft.ifft(v_hat * n, axis=0)
    correction = np.einsum("nab,nb->na", cols, v).real
    new_samples = (
        FourierSeries.from_samples(samples + correction).band_limited(k_cut)
        .samples().real
    )
    return new_samples, period + d_period


def build_bundle_frame(
    model,
    cycle: CycleResult,
    spectrum: FloquetSpectrum,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    scales=None,
    refine_tol_rel: float = 1e-12,
    max_sweeps: int = 80,
    max_outer: int = 6,
) -> BundleBuildResult:
    """Build the complex bundle frame and jointly polish the orbit.

    Columns are gauged to unit grid-max vector norm (this makes the slow
    column directly usable as the order-1 manifold coefficient); ``scales``
    optionally multiplies the nontrivial columns by user factors afterwards.
    Returns the frame, the polished cycle, and the refined exponents.
    """
    d = model.dim
    n = cycle.grid_size
    theta = theta_grid(n, 1.0)
    period = cycle.period
    samples = cycle.samples.copy()
    lams = spectrum.exponents.astype(complex).copy()
    classes = spectrum.classes
    interp = cycle.interpolant()

    cols = np.zeros((n, d, d), dtype=complex)
    cols[:, :, 0] = FourierSeries.from_samples(samples).differentiate().samples().real

    seeds = {
        j: spectrum.eigenvectors[:, j]
        for j in range(1, d)
        if classes[j] != CLASS_PAIR_CONJ
    }
    routes = _columns_by_route(
        model, interp, cols, seeds, lams, classes, period, theta, settings
    )

    _symmetrize_columns(cols, lams, classes, theta, period, adjoint=False)

    k_cut = _active_bandwidth(cycle.series, n)
    histories = []
    cycle_defect = np.inf
    for outer in range(max_outer):
        samples, period = _polish_cycle_step(model, samples, period, cols, lams, k_cut)
        jac_grid = model.jacobian(samples)
        deriv = (
            FourierSeries.from_samples(samples).band_limited(k_cut)
            .differentiate().samples().real
        )
        cols[:, :, 0] = deriv
        _symmetrize_columns(cols, lams, classes, theta, period, adjoint=False)
        histories.append(
            _refine_frame(
                jac_grid,
                period,
                cols,
                lams,
                classes,
                theta,
                adjoint=False,
                fixed_columns=(0,),
                tol_rel=refine_tol_rel,
                max_sweeps=max_sweeps,
                k_cut=k_cut,
            )
        )
        field_x = model.eval(samples)
        previous_defect = cycle_defect
        cycle_defect = float(np.max(np.linalg.norm(field_x - deriv / period, axis=1)))
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
        if scales is not None:
            factor = scales if np.isscalar(scales) else scales[j - 1]
            cols[:, :, j] *= factor

    cycle_series = FourierSeries.from_samples(samples, 1.0).band_limited(k_cut)
    samples = cycle_series.samples().real
    jac_grid = model.jacobian(samples)
    cols[:, :, 0] = cycle_series.differentiate().samples().real

    dq = FourierSeries.from_samples(cols).band_limited(k_cut).differentiate().samples()
    res = dq / period - jac_grid @ cols + cols * lams[None, None, :]
    residual = float(np.max(np.abs(res)))

    frame = Frame(
        kind="bundle",
        representation="complex",
        series=FourierSeries.from_samples(cols, 1.0).band_limited(k_cut),
        exponents=lams.copy(),
        classes=classes,
        residual=residual,
    )
    polished = CycleResult(
        anchor=samples[0].copy(),
        period=float(period),
        series=cycle_series,
        samples=samples,
        shooting_residual=cycle.shooting_residual,
        grid_size=n,
    )
    diagnostics = {
        "routes": routes,
        "refine_histories": histories,
        "cycle_defect": cycle_defect,
        "frame_residual": residual,
        "band_cut": k_cut,
        "exponent_shift": float(
            np.max(np.abs(lams - spectrum.exponents))
        ),
    }
    return BundleBuildResult(frame, polished, lams.copy(), diagnostics)


def build_adjoint_frame(
    bundle: Frame,
    jac_grid,
    period,
    refine_tol_rel: float = 1e-15,
    max_sweeps: int = 30,
    k_cut=None,
    residual_target: float = 5e-10,
) -> Frame:
    """Adjoint frame: inverse transpose of the bundle, spectrally polished.

    Column 0 is the phase response curve (its pairing with K0' is exactly 1),
    columns j >= 1 are the amplitude response curves normalized against the
    bundle columns.  The pointwise inverse transpose satisfies the pairing
    identities exactly but inherits the bundle's pointwise error amplified by
    the squared frame condition number, so the columns are polished against
    the adjoint equations on the Jacobian samples ``jac_grid`` and then
    rescaled to restore the pairings at the grid mean.
    """
    vals = bundle.grid_values()
    try:
        inv_t = np.linalg.inv(np.swapaxes(vals, 1, 2))
    except np.linalg.LinAlgError as exc:
        raise FrameError(f"bundle frame singular on the grid: {exc}") from exc

    n = vals.shape[0]
    # the inverse frame has sharper features than the bundle where the
    # condition number peaks; give it its own bandwidth estimate
    seed_band = _active_bandwidth(FourierSeries.from_samples(inv_t, bundle.period), n)
    k_cut = seed_band if k_cut is None else max(k_cut, seed_band)

    def measure(cols):
        dq = (
            FourierSeries.from_samples(cols, bundle.period).band_limited(k_cut)
            .differentiate().samples()
        )
        res = (
            dq / period
            + np.swapaxes(jac_grid, 1, 2) @ cols
            - cols * bundle.exponents[None, None, :]
        )
        return float(np.max(np.abs(res)))

    theta = theta_grid(n, bundle.period)
    # the inverse decays slower than the decay-fit predicts, but a wider band
    # also admits more roundoff: try growing bands and keep the best
    best = None
    while True:
        lams = bundle.exponents.copy()
        trial = inv_t.copy()
        _refine_frame(
            jac_grid,
            period,
            trial,
            lams,
            bundle.classes,
            theta,
            adjoint=True,
            fixed_columns=(),
            tol_rel=refine_tol_rel,
            max_sweeps=max_sweeps,
            k_cut=k_cut,
        )
        residual = measure(trial)
        if best is None or residual < best[0]:
            best = (residual, trial, k_cut)
        if residual < residual_target or k_cut >= n // 3:
            break
        k_cut = min(n // 3, int(1.5 * k_cut))
    _, inv_t, k_cut = best
    # restore the exact pairing gauge against the bundle columns
    for j in range(inv_t.shape[2]):
        factor = np.mean(np.einsum("ni,ni->n", inv_t[:, :, j], vals[:, :, j]))
        inv_t[:, :, j] /= factor
    return Frame(
        kind="adjoint",
        representation=bundle.representation,
        series=FourierSeries.from_samples(inv_t, bundle.period).band_limited(k_cut),
        exponents=bundle.exponents.copy(),
        classes=bundle.classes,
        blocks=bundle.blocks,
        residual=measure(inv_t),
    )


def real_blocks_from_classes(classes, exponents) -> tuple:
    blocks = []
    j = 0
    while j < len(classes):
        cls = classes[j]
        lam = exponents[j]
        if cls == CLASS_TRIVIAL:
            blocks.append(RealBlock("trivial", j))
            j += 1
        elif cls == CLASS_REAL_POSITIVE:
            blocks.append(RealBlock("real", j, alpha=lam.real))
            j += 1
        elif cls == CLASS_REAL_NEGATIVE:
            blocks.append(RealBlock("negative", j, alpha=lam.real))
            j += 1
        else:
            blocks.append(RealBlock("pair", j, alpha=lam.real, beta=lam.imag))
            j += 2
    return tuple(blocks)


def real_generator_matrix(blocks, dim: int, adjoint: bool = False) -> np.ndarray:
    """Real reduced generator: diag of 0, lam, nu, and 2x2 rotation blocks."""
    out = np.zeros((dim, dim))
    for b in blocks:
        if b.kind == "trivial":
            continue
        if b.kind in ("real", "negative"):
            out[b.index, b.index] = b.alpha
        else:
            i = b.index
            out[i, i] = b.alpha
            out[i + 1, i + 1] = b.alpha
            if adjoint:
                out[i, i + 1] = -b.beta
                out[i + 1, i] = b.beta
            else:
                out[i, i + 1] = b.beta
                out[i + 1, i] = -b.beta
    return out


def build_real_frames(bundle: Frame, adjoint: Frame):
    """Real representations of both frames by exact recombination.

    If any direction carries a negative multiplier the whole frame is lifted
    to period 2 (2N samples); negative columns become real antiperiodic
    functions, conjugate pairs become (real part, imaginary part) columns.
    """
    classes = bundle.classes
    has_negative = CLASS_REAL_NEGATIVE in classes
    n = bundle.series.grid_size
    d = bundle.dim
    reps = 2 if has_negative else 1
    period = 2.0 if has_negative else 1.0
    theta = theta_grid(reps * n, period)
    phase = np.exp(1j * np.pi * theta)

    def lift(vals):
        return np.tile(vals, (reps, 1, 1))

    out = {}
    for kind, frame in (("bundle", bundle), ("adjoint", adjoint)):
        vals = lift(frame.grid_values())
        real_vals = np.zeros_like(vals, dtype=float)
        j = 0
        while j < d:
            cls = classes[j]
            if cls in (CLASS_TRIVIAL, CLASS_REAL_POSITIVE):
                real_vals[:, :, j] = vals[:, :, j].real
                j += 1
            elif cls == CLASS_REAL_NEGATIVE:
                p = phase if kind == "bundle" else np.conj(phase)
                real_vals[:, :, j] = (p[:, None] * vals[:, :, j]).real
                j += 1
            else:
                if kind == "bundle":
                    real_vals[:, :, j] = vals[:, :, j].real
                    real_vals[:, :, j + 1] = vals[:, :, j].imag
                else:
                    real_vals[:, :, j] = 2.0 * vals[:, :, j].real
                    real_vals[:, :, j + 1] = -2.0 * vals[:, :, j].imag
                j += 2
        out[kind] = real_vals

    blocks = real_blocks_from_classes(classes, bundle.exponents)
    frames = []
    for kind in ("bundle", "adjoint"):
        frames.append(
            Frame(
                kind=kind,
                representation="real",
                series=FourierSeries.from_samples(out[kind].astype(complex), period),
                exponents=bundle.exponents.copy(),
                classes=classes,
                blocks=blocks,
            )
        )
    return frames[0], frames[1]


def cross_check_adjoint_frame(
    model,
    cycle: CycleResult,
    spectrum: FloquetSpectrum,
    bundle: Frame,
    adjoint: Frame,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    n_identity_samples: int = 17,
    refine_tol_rel: float = 1e-12,
    max_sweeps: int = 80,
) -> dict:
    """Independent reconstruction of the adjoint frame from the adjoint flow.

    Columns are seeded from eigenvectors of the adjoint monodromy matrix,
    transported by the exponent-shifted adjoint system, and polished in
    Fourier space against the adjoint equations alone (the production frame
    never enters the construction).  The report contains the eigenvalue
    duality errors, the fundamental-solution duality Psi^T Phi = Id sampled
    over a period, and the per-column discrepancy after gauge alignment.
    """
    d = model.dim
    n = cycle.grid_size
    theta = theta_grid(n, 1.0)
    period = cycle.period
    interp = cycle.interpolant()
    lams = bundle.exponents.copy()
    classes = bundle.classes

    # The duality Psi(t)^T Phi(t) = Id holds on every subinterval for the
    # transition matrices started there.  Checking it chunkwise keeps the
    # dynamic range of each factor near one (the full-period product carries
    # exp(|Re lam_min| T) ~ 1/|mu_min|, which swamps double precision); the
    # full-period identity follows by telescoping.  The product of the chunk
    # factors Psi is the adjoint monodromy, whose eigenvalues seed the columns.
    chunk_edges = np.linspace(0.0, period, n_identity_samples)
    identity_defect = 0.0
    eye = np.eye(d)

    dd = d * d

    def pair_rhs(t, y):
        # Phi' = DX Phi and Psi' = -DX^T Psi, sharing one Jacobian per stage
        jac = model.jacobian(interp(t))
        phi, psi = y[:dd].reshape(d, d), y[dd:].reshape(d, d)
        return np.concatenate([(jac @ phi).ravel(), (-jac.T @ psi).ravel()])

    y0 = np.concatenate([eye.ravel(), eye.ravel()])
    psi_end = eye
    for t_a, t_b in zip(chunk_edges[:-1], chunk_edges[1:]):
        y_c, _ = _integrate(pair_rhs, t_a, y0, t_b, settings)
        phi_c, psi_c = y_c[:dd].reshape(d, d), y_c[dd:].reshape(d, d)
        defect = np.abs(psi_c.T @ phi_c - eye).max()
        identity_defect = max(identity_defect, float(defect))
        psi_end = psi_c @ psi_end

    psi_eigs, psi_vecs = np.linalg.eig(psi_end)
    expected = np.exp(-np.conj(spectrum.exponents) * period)
    raw_duality_errors = np.zeros(d)
    for j in range(d):
        idx = int(np.argmin(np.abs(psi_eigs - expected[j])))
        raw_duality_errors[j] = float(
            np.abs(psi_eigs[idx] - expected[j]) / np.abs(expected[j])
        )

    cols = np.zeros((n, d, d), dtype=complex)
    seeds = {}
    for j in range(d):
        if classes[j] != CLASS_PAIR_CONJ:
            target = np.exp(-lams[j] * period)
            w = psi_vecs[:, int(np.argmin(np.abs(psi_eigs - target)))]
            seeds[j] = w / np.linalg.norm(w)
    _columns_by_route(
        model, interp, cols, seeds, lams, classes, period, theta, settings,
        adjoint=True,
    )

    _symmetrize_columns(cols, lams.copy(), classes, theta, period, adjoint=True)
    jac_grid = model.jacobian(cycle.samples)
    lams_indep = lams.copy()
    _refine_frame(
        jac_grid,
        period,
        cols,
        lams_indep,
        classes,
        theta,
        adjoint=True,
        fixed_columns=(),
        tol_rel=refine_tol_rel,
        max_sweeps=max_sweeps,
    )

    # gauge alignment: the pairing with the bundle columns is constant in
    # theta for exact solutions, so a single rescale per column aligns gauges
    bundle_vals = bundle.grid_values()
    adjoint_vals = adjoint.grid_values()
    discrepancies = np.zeros(d)
    for j in range(d):
        pairing = np.einsum("ni,ni->n", cols[:, :, j], bundle_vals[:, :, j])
        factor = np.mean(pairing)
        if abs(factor) < 1e-12:
            raise FrameError(f"independent adjoint column {j} orthogonal to bundle")
        aligned = cols[:, :, j] / factor
        ref = adjoint_vals[:, :, j]
        discrepancies[j] = float(
            np.max(np.abs(aligned - ref)) / max(1.0, np.max(np.abs(ref)))
        )

    # well-posed duality measure: the adjoint-side refined exponents come
    # purely from the adjoint machinery; agreement with the forward
    # exponents is the eigenvalue duality stated at unit scale
    shift = (lams_indep - lams) * period
    shift = np.clip(shift.real, -700.0, 700.0) + 1j * shift.imag
    refined_duality = np.abs(np.exp(shift) - 1.0)

    return {
        "eigenvalue_duality_rel_errors": refined_duality,
        "eigenvalue_duality_raw": raw_duality_errors,
        "psi_phi_identity_defect": identity_defect,
        "column_discrepancies": discrepancies,
        "max_column_discrepancy": float(np.max(discrepancies)),
        "exponent_shift": float(np.max(np.abs(lams_indep - lams))),
    }
