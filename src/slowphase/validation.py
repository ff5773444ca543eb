"""Error function, accuracy domains, orthogonality suite, and flow checks.

The invariance residual measures, pointwise in (theta, sigma), how far the
truncated expansion is from satisfying the manifold's defining equation; the
accuracy domain is the sigma-interval per phase where that residual stays
below a tolerance.  Orthogonality relations between the manifold and
response expansions hold order by order analytically and are evaluated here
as an end-to-end cross-check (they are not enforced anywhere upstream beyond
order 1).  Trajectory checks compare the flow of manifold points against the
conjugated linear dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationFailure
from .integrate import DEFAULT_SETTINGS, flow
from .manifold import ManifoldExpansion, evaluate_manifold
from .response import ResponseExpansion
from .series import horner

__all__ = [
    "AccuracyDomain",
    "ValidationReport",
    "ResidualEvaluator",
    "invariance_residual",
    "accuracy_domain",
    "orthogonality_report",
    "trajectory_consistency",
    "invert_manifold",
    "truncation_slope",
    "run_validation",
]


class ResidualEvaluator:
    """Precomputed grid data for fast residual scans over sigma."""

    def __init__(self, manifold: ManifoldExpansion, model, max_order=None):
        self.model = model
        self.L = manifold.nominal_order if max_order is None else max_order
        self.coeffs = manifold.coeffs
        k_samples = []
        lhs_samples = []
        for n in range(self.L + 1):
            series = manifold.order_series(n)
            k_samples.append(series.samples().real)
            lhs_samples.append(
                series.differentiate().samples().real / manifold.period
                + n * manifold.slow_exponent * series.samples().real
            )
        self.k = np.stack(k_samples)  # (L+1, N, d)
        self.lhs = np.stack(lhs_samples)

    def grid_residual(self, sigma) -> np.ndarray:
        """|| sum_n lhs_n sigma^n - X(sum_n K_n sigma^n) ||_2 per grid phase."""
        sig = np.asarray(sigma, dtype=float)[..., None]
        point = horner(self.k, sig)
        return np.linalg.norm(horner(self.lhs, sig) - self.model.eval(point), axis=-1)


def invariance_residual(manifold: ManifoldExpansion, model, theta, sigma, max_order=None):
    """Invariance-equation residual at arbitrary (theta, sigma) points."""
    L = manifold.nominal_order if max_order is None else max_order
    sig = np.asarray(sigma, dtype=float)[..., None]
    phase = manifold.order_series(0).phase(theta)
    k_vals, l_vals = [], []
    for n in range(L + 1):
        series = manifold.order_series(n)
        k_vals.append(series.at_phase(phase).real)
        l_vals.append(
            series.differentiate().at_phase(phase).real / manifold.period
            + n * manifold.slow_exponent * k_vals[n]
        )
    point = horner(k_vals, sig)
    return np.linalg.norm(horner(l_vals, sig) - model.eval(point), axis=-1)


@dataclass
class AccuracyDomain:
    """Per-phase amplitude bounds below which the residual stays under
    each tolerance; negative-side bounds are stored as magnitudes."""

    tolerances: tuple
    theta: np.ndarray
    sigma_pos: np.ndarray  # (n_tol, N)
    sigma_neg: np.ndarray  # (n_tol, N)
    scan_max: float
    open_ended: np.ndarray  # (n_tol, 2) bool: scan window never violated

    def bound(self, tol_index: int, sign: int) -> np.ndarray:
        return self.sigma_pos[tol_index] if sign > 0 else self.sigma_neg[tol_index]

    def min_width(self, tol_index: int) -> float:
        return float(
            min(self.sigma_pos[tol_index].min(), self.sigma_neg[tol_index].min())
        )

    def sample_inside(self, rng, count, tol_index=-1, band=(0.3, 0.7)):
        """Seeded (theta, sigma) samples inside the domain, away from 0."""
        n = len(self.theta)
        idx = rng.integers(0, n, size=count)
        u = rng.uniform(band[0], band[1], size=count)
        sign = np.where(rng.uniform(size=count) < 0.5, 1.0, -1.0)
        bound = np.where(
            sign > 0,
            self.sigma_pos[tol_index][idx],
            self.sigma_neg[tol_index][idx],
        )
        return self.theta[idx], sign * u * bound


def accuracy_domain(
    manifold: ManifoldExpansion,
    model,
    tolerances,
    scan_max: float | None = None,
    coarse_steps: int = 64,
    bisect_iters: int = 46,
    max_order=None,
) -> AccuracyDomain:
    """Scan-then-bisect the residual over sigma, per grid phase and sign.

    The coarse scan finds the first violation per phase; bisection then
    sharpens the boundary.  Phases with no violation inside the scan window
    are reported at the window edge and flagged open-ended.  With
    ``scan_max=None`` the window starts at 1 and doubles until the boundary
    is inside it (the default amplitude gauge can push the domain well past
    1), capped at 64.
    """
    tolerances = tuple(sorted(tolerances, reverse=True))
    ev = ResidualEvaluator(manifold, model, max_order)
    if scan_max is None:
        scan_max = 1.0
        while scan_max < 64.0:
            worst = float(
                min(ev.grid_residual(scan_max).min(), ev.grid_residual(-scan_max).min())
            )
            if worst > max(tolerances):
                break
            scan_max *= 2.0
    n = ev.k.shape[1]
    theta = manifold.order_series(0).grid()
    sigma_pos = np.zeros((len(tolerances), n))
    sigma_neg = np.zeros((len(tolerances), n))
    open_ended = np.zeros((len(tolerances), 2), dtype=bool)

    grid = np.linspace(0.0, scan_max, coarse_steps + 1)[1:]
    for t_i, tol in enumerate(tolerances):
        for s_i, sign in enumerate((1.0, -1.0)):
            lo = np.zeros(n)
            hi = np.full(n, np.nan)
            for s in grid:
                undecided = np.isnan(hi)
                if not undecided.any():
                    break
                res = ev.grid_residual(sign * s * undecided.astype(float))
                bad = (res > tol) & undecided
                hi[bad] = s
                lo[undecided & ~bad] = s
            open_mask = np.isnan(hi)
            hi[open_mask] = scan_max
            open_ended[t_i, s_i] |= bool(open_mask.any())
            active = ~open_mask
            lo_b, hi_b = lo.copy(), hi.copy()
            for _ in range(bisect_iters):
                mid = 0.5 * (lo_b + hi_b)
                res = ev.grid_residual(sign * mid)
                good = res <= tol
                lo_b[good & active] = mid[good & active]
                hi_b[~good & active] = mid[~good & active]
            bound = np.where(open_mask, scan_max, lo_b)
            if sign > 0:
                sigma_pos[t_i] = bound
            else:
                sigma_neg[t_i] = bound
    return AccuracyDomain(
        tolerances=tolerances,
        theta=theta,
        sigma_pos=sigma_pos,
        sigma_neg=sigma_neg,
        scan_max=scan_max,
        open_ended=open_ended,
    )


def orthogonality_report(manifold: ManifoldExpansion, response: ResponseExpansion):
    """Grid-max defects of the order-by-order pairing identities.

    Families: phase/tangent (with the order-0 pairing equal to one),
    phase/normal, amplitude/tangent, and amplitude/normal (order-0 pairing
    one).  The normal-family identities at order n involve the manifold
    order n+1, so their range is capped by the available extra order.
    """
    L = response.order
    L_k = manifold.total_order
    k = np.stack(
        [manifold.order_series(n).samples().real for n in range(L_k + 1)]
    )
    dk = np.stack(
        [
            manifold.order_series(n).differentiate().samples().real
            for n in range(L_k + 1)
        ]
    )
    z = response.phase.order_samples().real
    amp = response.amplitude.order_samples().real

    def pair(a, b):
        return np.einsum("ni,ni->n", a, b)

    n_z1 = np.zeros(L + 1)
    n_i1 = np.zeros(L + 1)
    for n in range(L + 1):
        acc_z = sum(pair(z[i], dk[n - i]) for i in range(n + 1))
        acc_i = sum(pair(amp[i], dk[n - i]) for i in range(n + 1))
        n_z1[n] = np.max(np.abs(acc_z - (1.0 if n == 0 else 0.0)))
        n_i1[n] = np.max(np.abs(acc_i))

    cap = min(L, L_k - 1)
    n_z2 = np.zeros(cap + 1)
    n_i2 = np.zeros(cap + 1)
    for n in range(cap + 1):
        acc_z = sum((n + 1 - i) * pair(z[i], k[n + 1 - i]) for i in range(n + 1))
        acc_i = sum((n + 1 - i) * pair(amp[i], k[n + 1 - i]) for i in range(n + 1))
        n_z2[n] = np.max(np.abs(acc_z))
        n_i2[n] = np.max(np.abs(acc_i - (1.0 if n == 0 else 0.0)))

    return {
        "phase_tangent": n_z1,
        "phase_normal": n_z2,
        "amplitude_tangent": n_i1,
        "amplitude_normal": n_i2,
        "max": float(
            max(n_z1.max(), n_i1.max(), n_z2.max(), n_i2.max())
        ),
    }


def invert_manifold(manifold: ManifoldExpansion, x, theta_seed, sigma_seed, max_order=None):
    """Gauss-Newton inversion of the parameterization near a seed."""
    L = manifold.nominal_order if max_order is None else max_order
    th, sg = float(theta_seed), float(sigma_seed)
    d_series = [manifold.order_series(n) for n in range(L + 1)]
    dth_series = [s.differentiate() for s in d_series]
    for _ in range(40):
        # every order shares the grid and period, hence the phase factors
        phase = d_series[0].phase(th)
        kv = np.stack([s.at_phase(phase).real for s in d_series])
        kt = np.stack([s.at_phase(phase).real for s in dth_series])
        powers = sg ** np.arange(L + 1)
        point = np.einsum("n,ni->i", powers, kv)
        gap = point - x
        j_theta = np.einsum("n,ni->i", powers, kt)
        dpow = np.arange(1, L + 1) * sg ** np.arange(L)
        j_sigma = np.einsum("n,ni->i", dpow, kv[1:])
        jac = np.stack([j_theta, j_sigma], axis=1)
        delta, *_ = np.linalg.lstsq(jac, -gap, rcond=None)
        th += delta[0]
        sg += delta[1]
        if np.linalg.norm(delta) < 1e-14 * (1.0 + abs(th) + abs(sg)):
            break
    phase = d_series[0].phase(th)
    kv = np.stack([s.at_phase(phase).real for s in d_series])
    point = np.einsum("n,ni->i", sg ** np.arange(L + 1), kv)
    return th % 1.0, sg, float(np.linalg.norm(point - x))


def trajectory_consistency(
    manifold: ManifoldExpansion,
    model,
    theta_samples,
    sigma_samples,
    horizons,
    settings=DEFAULT_SETTINGS,
) -> dict:
    """Flow manifold points and compare against the conjugated dynamics.

    Per sample: (a) state gap between the flowed point and the manifold
    point at the advanced phase and contracted amplitude; (b) phase-advance
    defect via local inversion; (c) relative amplitude-decay defect.
    """
    lam = manifold.slow_exponent
    T = manifold.period
    n = len(theta_samples)
    state_gap = np.zeros(n)
    phase_defect = np.zeros(n)
    decay_defect = np.zeros(n)
    inversion_gap = np.zeros(n)
    for i in range(n):
        th, sg, t = float(theta_samples[i]), float(sigma_samples[i]), float(horizons[i])
        x0 = evaluate_manifold(manifold, th, sg)
        x_t = flow(model, x0, t, settings)
        th_push = th + t / T
        sg_push = sg * np.exp(lam * t)
        target = evaluate_manifold(manifold, th_push % 1.0, sg_push)
        state_gap[i] = np.linalg.norm(x_t - target)
        th_hat, sg_hat, gap = invert_manifold(manifold, x_t, th_push, sg_push)
        inversion_gap[i] = gap
        wrap = (th_hat - th_push + 0.5) % 1.0 - 0.5
        phase_defect[i] = abs(wrap)
        decay_defect[i] = abs(sg_hat / sg - np.exp(lam * t)) / np.exp(lam * t)
    return {
        "state_gap": state_gap,
        "phase_defect": phase_defect,
        "decay_defect": decay_defect,
        "inversion_gap": inversion_gap,
        "max_state_gap": float(state_gap.max()),
        "max_phase_defect": float(phase_defect.max()),
        "max_decay_defect": float(decay_defect.max()),
    }


def truncation_slope(
    manifold: ManifoldExpansion, model, domain: AccuracyDomain, n_theta: int = 8
) -> float:
    """Median log-log slope of the residual against sigma near the boundary.

    For an order-L truncation the residual scales like sigma**(L+1), so the
    fitted slope should fall in [L, L+2].
    """
    ev = ResidualEvaluator(manifold, model)
    n = len(domain.theta)
    idx = np.linspace(0, n - 1, n_theta, dtype=int)
    slopes = []
    for i in idx:
        s_hi = 0.8 * domain.sigma_pos[-1][i]
        s_lo = 0.5 * s_hi
        sig_hi = np.zeros(n)
        sig_lo = np.zeros(n)
        sig_hi[i] = s_hi
        sig_lo[i] = s_lo
        e_hi = ev.grid_residual(sig_hi)[i]
        e_lo = ev.grid_residual(sig_lo)[i]
        if e_hi > 0 and e_lo > 1e-15:
            slopes.append(np.log(e_hi / e_lo) / np.log(s_hi / s_lo))
    return float(np.median(slopes)) if slopes else np.nan


@dataclass
class ValidationReport:
    order0_residual: float
    domain: AccuracyDomain
    orthogonality: dict
    trajectory: dict
    slope: float
    manifold_residual_max: float
    response_residual_max: float
    normalization_defect: float
    notes: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "order0_residual": self.order0_residual,
            "domain_min_width": {
                f"{tol:.1e}": self.domain.min_width(i)
                for i, tol in enumerate(self.domain.tolerances)
            },
            "orthogonality_max": self.orthogonality["max"],
            "trajectory_max_state_gap": self.trajectory["max_state_gap"],
            "trajectory_max_decay_defect": self.trajectory["max_decay_defect"],
            "trajectory_max_phase_defect": self.trajectory["max_phase_defect"],
            "truncation_slope": self.slope,
            "manifold_residual_max": self.manifold_residual_max,
            "response_residual_max": self.response_residual_max,
            "normalization_defect": self.normalization_defect,
        }


def run_validation(
    model,
    manifold: ManifoldExpansion,
    response: ResponseExpansion,
    tolerances=(1e-6, 1e-8),
    scan_max: float | None = None,
    n_samples: int = 50,
    horizon_periods: float = 2.0,
    seed: int = 2024,
    sample_band=(0.3, 0.7),
    settings=DEFAULT_SETTINGS,
) -> ValidationReport:
    """Full validation pass; raises ValidationFailure on configured gates."""
    ev = ResidualEvaluator(manifold, model)
    order0 = float(ev.grid_residual(0.0).max())
    domain = accuracy_domain(manifold, model, tolerances, scan_max)
    if domain.min_width(-1) <= 0.0:
        raise ValidationFailure(
            "accuracy domain empty at the strictest tolerance for some phase"
        )
    ortho = orthogonality_report(manifold, response)
    rng = np.random.default_rng(seed)
    theta_s, sigma_s = domain.sample_inside(rng, n_samples, -1, sample_band)
    # cap horizons so the contracted amplitude stays numerically resolvable
    # (decay ratios lose meaning once sigma e^(lam t) nears the inversion
    # noise floor)
    t_cap = min(
        horizon_periods * manifold.period,
        np.log(1e4) / abs(manifold.slow_exponent),
    )
    horizons = rng.uniform(0.1 * manifold.period, t_cap, size=n_samples)
    traj = trajectory_consistency(manifold, model, theta_s, sigma_s, horizons, settings)
    slope = truncation_slope(manifold, model, domain)
    return ValidationReport(
        order0_residual=order0,
        domain=domain,
        orthogonality=ortho,
        trajectory=traj,
        slope=slope,
        manifold_residual_max=float(
            manifold.residuals[: manifold.nominal_order + 1].max()
        ),
        response_residual_max=float(
            max(response.phase_residuals.max(), response.amplitude_residuals.max())
        ),
        normalization_defect=response.normalization_defect,
    )
