"""Error function, accuracy domains, orthogonality suite, and flow checks.

The invariance residual measures, at each grid phase and amplitude, how far
the truncated expansion is from satisfying the manifold's defining equation;
the accuracy domain is the sigma-interval per phase where that residual
stays below a tolerance.  Orthogonality relations between the manifold and
response expansions hold order by order analytically and are evaluated here
as an end-to-end cross-check (they are not enforced anywhere upstream beyond
order 1).  Trajectory checks compare the flow of manifold points against the
conjugated linear dynamics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from . import workers
from .errors import ValidationFailure
from .integrate import DEFAULT_SETTINGS, flow
from .manifold import ManifoldExpansion, evaluate_manifold
from .response import ResponseExpansion
from .series import horner

MAX_INVERSION_STEPS = 40
# Bisection steps of the accuracy domain after its 64-step scan, leaving a
# bracket of 2^-30 of the scan step.  On `ei` (grid 2^10, order 9), four
# seeded perturbations of every manifold coefficient by up to two ulps moved
# the bounds by 1.5e-8 (median) to 2.9e-6 (max) relative, so the 16 further
# steps of a 2^-46 bracket resolved only rounding noise; stopping at 30
# moves the bounds by at most 5.1e-10 relative.
BISECTION_STEPS = 30
# A Gauss-Newton step below this, relative to 1 + |theta| + |sigma|, ends an
# inversion as converged: far above the rounding floor (a threshold of 1e-14
# let two ulps of the coefficients flip labels), far below the defects read.
INVERSION_STEP_TOL = 1e-10
# A flowed state farther than this from the manifold after inversion fails
# validation.  The inversion starts at the conjugated manifold point, whose
# distance from the flowed state is the state gap, and a working inversion
# ends no farther.  On `ei` at order 9, the 50 samples of a 2^12-grid run had
# state gaps below 1e-9; over 6,400 samples on a 2^10 grid they reached 3e-6
# and inversion gaps 3e-7.  A larger gap means the state left the manifold or
# the inversion went astray.
MAX_INVERSION_GAP = 1e-5
# Trajectory samples start at 0.3-0.7 of the accuracy bound and flow for a
# horizon drawn between 0.1 periods and this many, capped at a 1e4 decay.
HORIZON_PERIODS = 2.0
# the accuracy domain's rows of amplitudes +s and -s
_SIGN = np.array([[1.0], [-1.0]])

__all__ = [
    "AccuracyDomain",
    "ValidationReport",
    "ResidualEvaluator",
    "accuracy_domain",
    "orthogonality_report",
    "trajectory_consistency",
    "Inversion",
    "invert_manifold",
    "truncation_slope",
    "run_validation",
]


class ResidualEvaluator:
    """Grid values of the expansion and of the invariance left-hand side,
    built once for every residual scan over sigma.

    ``rows`` has shape (L+1, 2d, N): for order n, rows 0..d-1 hold K_n and
    rows d..2d-1 hold K_n'/T + n lam K_n, with the phases on the contiguous
    axis, so one Horner sum over sigma gives the point and the left-hand side
    together.
    """

    def __init__(self, manifold: ManifoldExpansion, model):
        self.model = model
        d = self.dim = manifold.dim
        self.rows = np.empty((manifold.nominal_order + 1, 2 * d, manifold.grid_size))
        for n, block in enumerate(self.rows):
            series = manifold.order_series(n)
            block[:d] = series.samples().T
            block[d:] = (
                series.differentiate().samples().T / manifold.period
                + n * manifold.slow_exponent * block[:d]
            )

    def columns(self, part) -> ResidualEvaluator:
        """This evaluator on the grid phases ``part`` (a slice or index
        array) alone."""
        view = copy.copy(self)
        view.rows = self.rows[..., part]
        return view

    def grid_residual(self, sigma) -> np.ndarray:
        """|| sum_n lhs_n sigma^n - X(sum_n K_n sigma^n) ||_2 per grid phase.

        ``sigma`` is a scalar or has shape (..., N), one amplitude per grid
        phase; the result has the shape (..., N).  Each entry depends only
        on its own phase and amplitude, so a stack of amplitude rows rounds
        exactly as the rows one at a time.  The squared component
        differences are summed in component order, as ``np.linalg.norm``
        sums them over a leading axis, without stacking the field.
        """
        sig = np.asarray(sigma, dtype=float)
        sums = horner(self.rows, sig[..., None, :] if sig.ndim else sig)
        d = self.dim
        # the model's closures take components, so rows pass as they are
        field = self.model.rhs(tuple(sums[..., i, :] for i in range(d)))
        total = np.zeros(sums.shape[:-2] + sums.shape[-1:])
        for i, component in enumerate(field):
            diff = sums[..., d + i, :] - component
            diff *= diff
            total += diff
        return np.sqrt(total, out=total)


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

    def min_width(self, tol_index: int) -> float:
        return float(
            min(self.sigma_pos[tol_index].min(), self.sigma_neg[tol_index].min())
        )

    def sample_inside(self, rng, count):
        """Seeded (theta, sigma) samples inside the domain at the strictest
        tolerance, between 0.3 and 0.7 of the bound, so away from 0."""
        n = len(self.theta)
        idx = rng.integers(0, n, size=count)
        u = rng.uniform(0.3, 0.7, size=count)
        sign = np.where(rng.uniform(size=count) < 0.5, 1.0, -1.0)
        bound = np.where(sign > 0, self.sigma_pos[-1][idx], self.sigma_neg[-1][idx])
        return self.theta[idx], sign * u * bound


def accuracy_domain(
    manifold: ManifoldExpansion,
    model,
    tolerances,
    evaluator: ResidualEvaluator | None = None,
) -> AccuracyDomain:
    """Scan-then-bisect the residual over sigma, per grid phase and sign.

    The coarse scan (64 steps) finds the first violation of every
    (tolerance, sign) pair per phase.  The tolerances of one sign share
    sigma = +-s, so each scan step is one (2, N)
    :meth:`ResidualEvaluator.grid_residual` call, at +-s wherever a
    tolerance of that sign is still undecided, and every pair compares its
    tolerance against that call's row.  A residual that is not finite
    counts as a violation, in the scan as in the bisection.
    ``BISECTION_STEPS`` (30) steps then bisect all pairs at once, as rows
    of one (n_tol, 2, N) amplitude batch, down to 2^-30 of the scan step,
    finer than two ulps of the coefficients move the bounds.  A
    residual entry depends only on its own phase and amplitude, so the
    batch gives bit for bit the bounds of scanning each pair alone.
    Phases with no violation inside the scan window are reported at the
    window edge and flagged open-ended.  The window starts at 1 and doubles
    until the boundary is inside it (the default amplitude gauge can push
    the domain well past 1), capped at 64, and is recorded as ``scan_max``;
    the scan reuses the rows of each doubling probe, whose amplitude is a
    scan point of the power-of-two window.  ``evaluator`` reuses grid data
    already built for this manifold.

    The doubling probes run on the whole grid.  Where
    :func:`workers.worth_splitting` allows for the (L+1) N d grid values of
    the expansion, the scan and bisection of phase columns [0, N/2) run in
    this process and those of [N/2, N) in a forked worker; each bound
    depends only on its own phase, so the bounds are bit for bit those of
    the whole grid.
    """
    tolerances = tuple(sorted(tolerances, reverse=True))
    ev = evaluator or ResidualEvaluator(manifold, model)
    probed = {}  # window edge s -> residual rows at +s and -s
    scan_max = 1.0
    while scan_max < 64.0:
        rows = probed[scan_max] = ev.grid_residual(_SIGN * scan_max)
        if float(rows.min()) > max(tolerances):
            break
        scan_max *= 2.0
    # entry [t, s] holds tolerance t and sign (+1, -1)[s]
    tol = np.array(tolerances)[:, None, None]

    def bracket(part):
        probes = {s: rows[:, part] for s, rows in probed.items()}
        return _bracket(ev.columns(part), tol, scan_max, probes)

    n = ev.rows.shape[-1]
    # rows holds 2 (L+1) N d values: each order's K_n and left-hand side
    if workers.worth_splitting(ev.rows.size // 2):
        halves = workers.with_worker(
            lambda: bracket(slice(0, n // 2)), lambda: bracket(slice(n // 2, n)),
            "accuracy domain",
        )
        bound, open_mask = (np.concatenate(pair, axis=-1) for pair in zip(*halves))
    else:
        bound, open_mask = bracket(slice(None))
    return AccuracyDomain(
        tolerances=tolerances,
        theta=manifold.order_series(0).grid(),
        sigma_pos=bound[:, 0],
        sigma_neg=bound[:, 1],
        scan_max=scan_max,
        open_ended=open_mask.any(axis=-1),
    )


def _bracket(ev: ResidualEvaluator, tol, scan_max, probed):
    """Bounds (n_tol, 2, n) on the n phases of ``ev``, and the mask of the
    open-ended ones, reported at ``scan_max``: the scan and bisection of
    :func:`accuracy_domain`, with ``probed`` the doubling probes' rows."""
    lo = np.zeros(tol.shape[:1] + (2, ev.rows.shape[-1]))
    hi = np.full_like(lo, np.nan)
    for s in np.linspace(0.0, scan_max, 65)[1:]:
        undecided = np.isnan(hi)
        if not undecided.any():
            break
        res = probed.get(s)
        if res is None:
            res = ev.grid_residual(_SIGN * s * undecided.any(axis=0))
        bad = ~(res <= tol) & undecided
        hi[bad] = s
        lo[undecided & ~bad] = s
    open_mask = np.isnan(hi)
    hi[open_mask] = scan_max
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        good = ev.grid_residual(_SIGN * mid) <= tol
        lo = np.where(good & ~open_mask, mid, lo)
        hi = np.where(good | open_mask, hi, mid)
    return np.where(open_mask, scan_max, lo), open_mask


def orthogonality_report(manifold: ManifoldExpansion, response: ResponseExpansion):
    """Grid-max defects of the order-by-order pairing identities.

    Families: phase/tangent (with the order-0 pairing equal to one),
    phase/normal, amplitude/tangent, and amplitude/normal (order-0 pairing
    one).  The normal-family identities at order n involve the manifold
    order n+1, so their range is capped by the available extra order.
    """
    L = response.order
    L_k = manifold.total_order
    k = np.empty((L_k + 1, manifold.grid_size, manifold.dim))
    dk = np.empty_like(k)
    for n in range(L_k + 1):
        series = manifold.order_series(n)
        k[n] = series.samples()
        dk[n] = series.differentiate().samples()
    z = response.phase.samples()
    amp = response.amplitude.samples()

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


@dataclass(frozen=True)
class Inversion:
    """Gauss-Newton inversions of the parameterization, one entry per state."""

    theta: np.ndarray  # phase in [0, 1)
    sigma: np.ndarray
    gap: np.ndarray  # || K(theta, sigma) - x ||_2
    step: np.ndarray  # || (d theta, d sigma) ||_2 of the last step
    iterations: np.ndarray  # Gauss-Newton steps taken
    stop: np.ndarray  # "converged", "stagnated" or "cap"


def invert_manifold(manifold: ManifoldExpansion, x, theta_seed, sigma_seed) -> Inversion:
    """Gauss-Newton inversion of the parameterization near seeds, all at once.

    ``x`` is one state (d,) or a batch (S, d); the seeds broadcast to the
    batch.  K at the nominal order, dK/dtheta and dK/dsigma (order n holds
    (n+1) K_{n+1}) form one FourierTaylor with values of shape (d, 3), built
    once, so an iteration is one ``FourierTaylor.evaluate`` of the active
    samples: their points and Jacobians.  Each sample takes its step, then
    stops when the step is below ``INVERSION_STEP_TOL`` (1 + |theta| +
    |sigma|) (``"converged"``), when it is no smaller than half the
    previous step, so rounding noise has stalled it above that
    (``"stagnated"``), or after ``MAX_INVERSION_STEPS`` steps (``"cap"``).
    """
    L = manifold.nominal_order
    d = manifold.dim
    coeffs = manifold.coeffs.truncated(L)
    parts = np.zeros(coeffs.coef.shape + (3,), dtype=complex)
    parts[..., 0] = coeffs.coef
    parts[..., 1] = coeffs.differentiate().coef
    parts[:-1, ..., 2] = np.arange(1, L + 1)[:, None, None] * coeffs.coef[1:]
    parts = replace(coeffs, coef=parts)
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]
    x = x.reshape(-1, d)
    th = np.broadcast_to(np.asarray(theta_seed, dtype=float), batch).flatten()
    sg = np.broadcast_to(np.asarray(sigma_seed, dtype=float), batch).flatten()

    iterations = np.zeros(len(x), dtype=int)
    stop = np.full(len(x), "cap", dtype="U9")
    previous = np.full(len(x), np.inf)
    active = np.arange(len(x))
    for step in range(1, MAX_INVERSION_STEPS + 1):
        value = parts.evaluate(th[active], sg[active])  # (A, d, 3)
        gap = value[..., :1] - x[active, :, None]
        delta = -(np.linalg.pinv(value[..., 1:]) @ gap)[..., 0]
        th[active] += delta[:, 0]
        sg[active] += delta[:, 1]
        iterations[active] = step
        size = np.linalg.norm(delta, axis=1)
        converged = size < INVERSION_STEP_TOL * (1.0 + np.abs(th[active]) + np.abs(sg[active]))
        stagnated = ~converged & (size >= 0.5 * previous[active])
        stop[active[converged]] = "converged"
        stop[active[stagnated]] = "stagnated"
        previous[active] = size
        active = active[~(converged | stagnated)]
        if not active.size:
            break
    return Inversion(
        theta=(th % 1.0).reshape(batch),
        sigma=sg.reshape(batch),
        gap=np.linalg.norm(evaluate_manifold(manifold, th, sg) - x, axis=1).reshape(batch),
        step=previous.reshape(batch),
        iterations=iterations.reshape(batch),
        stop=stop.reshape(batch),
    )


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
    defect and (c) relative amplitude-decay defect of the flowed point's
    (theta, sigma), found by one batched :func:`invert_manifold` of all
    flowed points seeded at the conjugated values.  Each inversion's gap,
    last step size, step count and stop reason are returned too.
    """
    theta = np.asarray(theta_samples, dtype=float)
    sigma = np.asarray(sigma_samples, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    x0 = evaluate_manifold(manifold, theta, sigma)
    x_t = _flows(model, x0, horizons, settings)
    th_push = theta + horizons / manifold.period
    contraction = np.exp(manifold.slow_exponent * horizons)
    sg_push = sigma * contraction
    target = evaluate_manifold(manifold, th_push % 1.0, sg_push)
    state_gap = np.linalg.norm(x_t - target, axis=1)
    inv = invert_manifold(manifold, x_t, th_push, sg_push)
    phase_defect = np.abs((inv.theta - th_push + 0.5) % 1.0 - 0.5)
    decay_defect = np.abs(inv.sigma / sigma - contraction) / contraction
    return {
        "state_gap": state_gap,
        "phase_defect": phase_defect,
        "decay_defect": decay_defect,
        "inversion_gap": inv.gap,
        "inversion_step": inv.step,
        "inversion_iterations": inv.iterations,
        "inversion_stop": inv.stop,
        "max_state_gap": float(state_gap.max()),
        "max_phase_defect": float(phase_defect.max()),
        "max_decay_defect": float(decay_defect.max()),
    }


def _flows(model, x0, horizons, settings) -> np.ndarray:
    """Row i is ``flow(model, x0[i], horizons[i], settings)``.

    Where there are at least two flows and :func:`workers.can_split`
    allows, this process and one forked worker share them, balanced by
    horizon: longest first, each to the share with the smaller total
    |horizon|.  A flow does the same arithmetic in either process, so the
    rows are bit for bit those of the serial loop.
    """

    def run(share):
        return [flow(model, x0[i], horizons[i], settings) for i in share]

    if len(horizons) < 2 or not workers.can_split():
        return np.array(run(range(len(horizons))))
    shares, totals = ([], []), [0.0, 0.0]
    for i in np.argsort(-np.abs(horizons), kind="stable"):
        # fewer flows breaks a tie, so neither share is empty
        side = int((totals[1], len(shares[1])) < (totals[0], len(shares[0])))
        shares[side].append(i)
        totals[side] += abs(horizons[i])
    x_t = np.empty_like(x0)
    x_t[shares[0]], x_t[shares[1]] = workers.with_worker(
        lambda: run(shares[0]), lambda: run(shares[1]), "trajectory flow"
    )
    return x_t


def _check_inversions(trajectory: dict) -> None:
    """Raise ValidationFailure naming the first trajectory sample whose
    inversion hit the step cap or ended farther than ``MAX_INVERSION_GAP``
    from its flowed state (a NaN gap included)."""
    for i, (stop, gap) in enumerate(
        zip(trajectory["inversion_stop"], trajectory["inversion_gap"])
    ):
        if stop == "cap":
            raise ValidationFailure(
                f"trajectory sample {i}: manifold inversion did not converge "
                f"in {MAX_INVERSION_STEPS} Gauss-Newton steps"
            )
        if not gap <= MAX_INVERSION_GAP:
            raise ValidationFailure(
                f"trajectory sample {i}: flowed state lies {gap:.3e} from the "
                f"manifold after inversion (bound {MAX_INVERSION_GAP:.0e})"
            )


def truncation_slope(
    manifold: ManifoldExpansion,
    model,
    domain: AccuracyDomain,
    evaluator: ResidualEvaluator | None = None,
) -> float:
    """Median log-log slope of the residual against sigma near the boundary
    of the loosest tolerance, at 8 phases spread over the grid.

    For an order-L truncation the residual scales like sigma**(L+1), so the
    fitted slope should fall in [L, L+2].  The probes sit at 0.8 and 0.4 of
    the positive bound at the loosest tolerance, where the residual is far
    above its sigma = 0 rounding floor: on `ei` (grid 2^10, order 9) the low
    probe read at least 416 times that floor there, and as little as 5 times
    at the strictest tolerance's bound.  Both probe
    amplitudes of all 8 phases go into one (2, N) residual evaluation (zero
    amplitude elsewhere); each entry depends only on its own phase.
    """
    ev = evaluator or ResidualEvaluator(manifold, model)
    n = len(domain.theta)
    idx = np.linspace(0, n - 1, 8, dtype=int)
    s_hi = 0.8 * domain.sigma_pos[0][idx]
    s_lo = 0.5 * s_hi
    probes = np.zeros((2, n))
    probes[0, idx] = s_hi
    probes[1, idx] = s_lo
    e_hi, e_lo = ev.grid_residual(probes)[:, idx]
    slopes = [
        np.log(e_hi[j] / e_lo[j]) / np.log(s_hi[j] / s_lo[j])
        for j in range(len(idx))
        if e_hi[j] > 0 and e_lo[j] > 1e-15
    ]
    return float(np.median(slopes)) if slopes else np.nan


def tolerance_labels(tol) -> tuple:
    """The labels of tolerance ``tol`` in the reports: its ``domain_min_width``
    key in validation.json and its column suffix in accuracy_domain.csv."""
    return f"{tol:.1e}", f"{tol:.0e}"


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

    def summary(self) -> dict:
        return {
            "order0_residual": self.order0_residual,
            "domain_min_width": {
                tolerance_labels(tol)[0]: self.domain.min_width(i)
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
    n_samples: int = 50,
    seed: int = 2024,
    settings=DEFAULT_SETTINGS,
) -> ValidationReport:
    """Full validation pass, with ``n_samples`` trajectories of up to
    ``HORIZON_PERIODS`` periods; raises ValidationFailure on its gates: an
    empty accuracy domain at the strictest tolerance, and a trajectory sample
    whose manifold inversion hit the step cap or ended more than
    ``MAX_INVERSION_GAP`` from its flowed state (the message names it)."""
    ev = ResidualEvaluator(manifold, model)
    order0 = float(ev.grid_residual(0.0).max())
    domain = accuracy_domain(manifold, model, tolerances, evaluator=ev)
    if domain.min_width(-1) <= 0.0:
        raise ValidationFailure(
            "accuracy domain empty at the strictest tolerance for some phase"
        )
    ortho = orthogonality_report(manifold, response)
    rng = np.random.default_rng(seed)
    theta_s, sigma_s = domain.sample_inside(rng, n_samples)
    # cap horizons so the contracted amplitude stays numerically resolvable
    # (decay ratios lose meaning once sigma e^(lam t) nears the inversion
    # noise floor)
    t_cap = min(
        HORIZON_PERIODS * manifold.period,
        np.log(1e4) / abs(manifold.slow_exponent),
    )
    horizons = rng.uniform(0.1 * manifold.period, t_cap, size=n_samples)
    traj = trajectory_consistency(manifold, model, theta_s, sigma_s, horizons, settings)
    _check_inversions(traj)
    slope = truncation_slope(manifold, model, domain, evaluator=ev)
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
