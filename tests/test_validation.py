import inspect
import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slowphase.errors as errors
import slowphase.validation as validation
from child import run_child
from slowphase import workers
from slowphase.errors import ValidationFailure
from slowphase.manifold import evaluate_manifold
from slowphase.series import FourierSeries, horner
from slowphase.validation import (
    ResidualEvaluator,
    accuracy_domain,
    invert_manifold,
    orthogonality_report,
    run_validation,
    trajectory_consistency,
    truncation_slope,
)


def test_order0_residual_is_cycle_defect(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        ev = ResidualEvaluator(ns.result.manifold, ns.result.model)
        assert ev.grid_residual(0.0).max() < 1e-10


def test_pointwise_residual_matches_grid(oracle_run):
    """The grid residual equals the invariance residual built point by point
    from FourierTaylor.evaluate of K and of K'/T + n lam K, and the model."""
    man, model = oracle_run.result.manifold, oracle_run.result.model
    ev = ResidualEvaluator(man, model)
    theta = man.order_series(0).grid()[::16]
    sigma = 0.07
    coeffs = man.coeffs.truncated(man.nominal_order)
    n = np.arange(man.nominal_order + 1)[:, None, None]
    lhs = replace(coeffs, coef=coeffs.differentiate().coef / man.period
                  + n * man.slow_exponent * coeffs.coef)
    direct = np.linalg.norm(
        lhs.evaluate(theta, sigma) - model.eval(coeffs.evaluate(theta, sigma)), axis=-1
    )
    assert np.max(np.abs(direct - ev.grid_residual(sigma)[::16])) < 1e-12


def test_domain_nestedness(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        domain = ns.result.validation.domain
        for t_i in range(len(domain.tolerances) - 1):
            assert np.all(domain.sigma_pos[t_i + 1] <= domain.sigma_pos[t_i] + 1e-12)
            assert np.all(domain.sigma_neg[t_i + 1] <= domain.sigma_neg[t_i] + 1e-12)


def test_domain_nonempty_two_sided(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        domain = ns.result.validation.domain
        assert domain.min_width(-1) > 0.0


def test_oracle_domain_matches_closed_form_within_factor_two():
    """The truncated radial series has a closed-form error; the measured
    boundary should sit within a factor two of where it crosses the
    tolerance."""
    from math import comb

    import slowphase as sp
    from slowphase.config import RunConfig
    from slowphase.pipeline import run_pipeline

    # independent short run to keep this test self-contained
    config = RunConfig(
        model="oracle", guess=(1.3, 0.0), relax_time=20.0, grid_size=128,
        order=5, out_dir="/tmp/slowphase_domain_check",
    )
    result = run_pipeline(config, through="manifold")
    man = result.manifold
    tol = 1e-8
    domain = accuracy_domain(man, result.model, (tol,))
    measured = float(np.median(domain.sigma_pos[0]))
    # residual ~ d/dsigma-term of the first dropped order: the dominant
    # contribution scales like (L+1) |lam_s| c_{L+1} sigma^{L+1}
    L = man.nominal_order
    c_next = comb(2 * (L + 1), L + 1) / 2.0 ** (L + 1)
    predicted = (tol / (2.0 * (L + 1) * c_next)) ** (1.0 / (L + 1))
    assert predicted / 2 < measured < predicted * 2


def test_truncation_slope_bracket(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        L = ns.result.manifold.nominal_order
        slope = ns.result.validation.slope
        assert L <= slope <= L + 2


def test_orthogonality_suite(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        report = orthogonality_report(ns.result.manifold, ns.result.response)
        assert report["max"] < 1e-8
        L = ns.result.response.order
        assert len(report["phase_tangent"]) == L + 1
        # the extra stored order lets the normal-family identities reach L
        assert len(report["phase_normal"]) == L + 1


def test_order_zero_orthogonality_values(ei_run):
    report = orthogonality_report(ei_run.result.manifold, ei_run.result.response)
    # <Z_0, K_0'> = 1 and <I_0, K_1> = 1 at every grid point
    assert report["phase_tangent"][0] < 1e-10
    assert report["amplitude_normal"][0] < 1e-10


def test_manifold_inversion_roundtrip(oracle_run):
    man = oracle_run.result.manifold
    th, sg = 0.37, 0.04
    from slowphase.manifold import evaluate_manifold

    x = evaluate_manifold(man, th, sg)
    inv = invert_manifold(man, x, th + 0.01, sg + 0.01)
    assert abs(inv.theta - th) < 1e-10
    assert abs(inv.sigma - sg) < 1e-10
    assert inv.gap < 1e-10
    assert inv.stop in ("converged", "stagnated") and 1 <= inv.iterations < 40


def test_trajectory_consistency_zero_horizon(oracle_run):
    result = oracle_run.result
    report = trajectory_consistency(
        result.manifold, result.model,
        theta_samples=[0.2, 0.6], sigma_samples=[0.03, -0.02], horizons=[0.0, 0.0],
    )
    assert report["max_state_gap"] < 1e-12
    assert report["max_phase_defect"] < 1e-10
    assert report["max_decay_defect"] < 1e-9


def test_trajectory_consistency_oracle(oracle_run):
    traj = oracle_run.result.validation.trajectory
    assert traj["max_state_gap"] < 1e-8
    assert traj["max_phase_defect"] < 1e-8
    assert traj["max_decay_defect"] < 1e-6


def test_validation_failure_on_unreachable_tolerance(oracle_run):
    from slowphase.errors import ValidationFailure
    from slowphase.validation import run_validation

    result = oracle_run.result
    with pytest.raises(ValidationFailure):
        run_validation(
            result.model, result.manifold, result.response,
            tolerances=(1e-30,), n_samples=2,
        )


def test_stacked_residual_rows_match_single_rows(oracle_run):
    """A (rows, N) amplitude batch rounds exactly as each row alone, which
    keeps the batched accuracy scan bit-identical to one scan per pair."""
    result = oracle_run.result
    ev = ResidualEvaluator(result.manifold, result.model)
    n = ev.rows.shape[-1]
    rng = np.random.default_rng(3)
    sigma = rng.uniform(-0.3, 0.3, (3, n))
    batch = ev.grid_residual(sigma)
    assert batch.shape == (3, n)
    for row, sig in zip(batch, sigma):
        assert row.tobytes() == ev.grid_residual(sig).tobytes()
    assert ev.grid_residual(0.05).tobytes() == ev.grid_residual(np.full(n, 0.05)).tobytes()


def test_stacked_slope_probes_match_one_probe_at_a_time(oracle_run):
    result = oracle_run.result
    man, model, domain = result.manifold, result.model, result.validation.domain
    ev = ResidualEvaluator(man, model)
    n = len(domain.theta)
    slopes = []
    for i in np.linspace(0, n - 1, 8, dtype=int):
        s_hi = 0.8 * domain.sigma_pos[0][i]
        s_lo = 0.5 * s_hi
        e = []
        for s in (s_hi, s_lo):
            sig = np.zeros(n)
            sig[i] = s
            e.append(ev.grid_residual(sig)[i])
        if e[0] > 0 and e[1] > 1e-15:
            slopes.append(np.log(e[0] / e[1]) / np.log(s_hi / s_lo))
    reference = float(np.median(slopes))
    assert truncation_slope(man, model, domain, evaluator=ev) == reference
    assert truncation_slope(man, model, domain) == reference == result.validation.slope


def test_batched_inversion_recovers_oracle_points(oracle_run):
    man = oracle_run.result.manifold
    theta = np.array([0.05, 0.37, 0.61, 0.93, 0.5])
    sigma = np.array([0.04, -0.03, 0.02, -0.05, 0.0])
    x = evaluate_manifold(man, theta, sigma)
    inv = invert_manifold(man, x, theta + 0.01, sigma - 0.01)
    assert inv.theta.shape == inv.stop.shape == (5,)
    assert np.all(np.abs((inv.theta - theta + 0.5) % 1.0 - 0.5) < 1e-10)
    assert np.all(np.abs(inv.sigma - sigma) < 1e-10)
    assert np.all(inv.gap < 1e-10)
    assert set(inv.stop) <= {"converged", "stagnated"}
    assert np.all((inv.iterations >= 1) & (inv.iterations < validation.MAX_INVERSION_STEPS))
    # each sample inverts as it would alone
    for i in range(5):
        alone = invert_manifold(man, x[i], theta[i] + 0.01, sigma[i] - 0.01)
        assert abs(alone.theta - inv.theta[i]) < 1e-12
        assert abs(alone.sigma - inv.sigma[i]) < 1e-12


def test_inversion_record_in_validation_json(oracle_run):
    path = os.path.join(oracle_run.config.out_dir, "validation.json")
    with open(path, encoding="utf-8") as fh:
        trajectory = json.load(fh)["trajectory"]
    n = oracle_run.config.n_samples
    assert len(trajectory["inversion_iterations"]) == n
    assert len(trajectory["inversion_stop"]) == n
    assert set(trajectory["inversion_stop"]) <= {"converged", "stagnated"}
    assert all(1 <= k < validation.MAX_INVERSION_STEPS for k in trajectory["inversion_iterations"])
    assert len(trajectory["inversion_step"]) == n
    assert max(trajectory["inversion_step"]) < 10 * validation.INVERSION_STEP_TOL


@pytest.fixture(scope="module")
def ei_1024_samples(tmp_path_factory):
    """An `ei` manifold at grid 2^10, order 9, and 32 trajectory samples
    drawn inside its accuracy domain as run_validation draws them."""
    from slowphase.config import RunConfig
    from slowphase.pipeline import Stage, run_pipeline

    out = tmp_path_factory.mktemp("ei_1024")
    config = RunConfig(model="ei", grid_size=1024, order=9, out_dir=str(out))
    result = run_pipeline(config, through=Stage.MANIFOLD)
    man, model = result.manifold, result.model
    rng = np.random.default_rng(2024)
    theta, sigma = accuracy_domain(man, model, config.tolerances).sample_inside(rng, 32)
    t_cap = min(2.0 * man.period, np.log(1e4) / abs(man.slow_exponent))
    horizons = rng.uniform(0.1 * man.period, t_cap, size=32)
    return man, model, theta, sigma, horizons


def _within_two_ulps(man, seed):
    """``man`` with every coefficient's real and imaginary part moved by a
    seeded whole number of ulps in [-2, 2]."""
    rng = np.random.default_rng(seed)
    coef = man.coeffs.coef
    parts = [part + rng.integers(-2, 3, coef.shape) * np.spacing(np.abs(part))
             for part in (coef.real, coef.imag)]
    return replace(man, coeffs=replace(man.coeffs, coef=parts[0] + 1j * parts[1]))


def test_inversion_labels_survive_two_ulps_of_the_coefficients(ei_1024_samples, monkeypatch):
    """Every manifold coefficient moved by up to 2 ulps (Monte Carlo
    arithmetic: Parker, Pierce & Eggert, 2000) leaves every inversion's stop
    label as it was.  At the rounding floor, the old 1e-14 step threshold,
    the same perturbation flips labels."""
    man, model, theta, sigma, horizons = ei_1024_samples
    perturbed = _within_two_ulps(man, 11)
    assert not np.array_equal(perturbed.coeffs.coef, man.coeffs.coef)

    def labels(manifold):
        return trajectory_consistency(manifold, model, theta, sigma, horizons)["inversion_stop"]

    base = labels(man)
    assert set(base) <= {"converged", "stagnated"}
    assert list(labels(perturbed)) == list(base)
    monkeypatch.setattr(validation, "INVERSION_STEP_TOL", 1e-14)
    assert list(labels(perturbed)) != list(labels(man))


def _validate_ei(ei_run):
    result = ei_run.result
    return run_validation(
        result.model, result.manifold, result.response,
        tolerances=ei_run.config.tolerances, n_samples=4, seed=7,
    )


def test_state_off_the_manifold_fails_by_name(ei_run, monkeypatch):
    """Fault injection: the flow of sample 2 lands 1e-3 off the manifold
    (the slow manifold is 2-dimensional in the 6-dimensional state space),
    so its inversion cannot close the gap and validation names it.  Sample 2
    is picked by its horizon, as the flows may run in any order and split
    between two processes."""
    flow, consistency = validation.flow, validation.trajectory_consistency
    horizons = []

    def recorded(manifold, model, theta, sigma, t, *args):
        horizons.extend(t)
        return consistency(manifold, model, theta, sigma, t, *args)

    def pushed(model, x0, t, settings):
        x_t = flow(model, x0, t, settings)
        return x_t + 1e-3 if t == horizons[2] else x_t

    monkeypatch.setattr(validation, "trajectory_consistency", recorded)
    monkeypatch.setattr(validation, "flow", pushed)
    with pytest.raises(ValidationFailure, match=r"trajectory sample 2: .* from the manifold"):
        _validate_ei(ei_run)


def test_inversion_at_the_step_cap_fails_by_name(ei_run, monkeypatch):
    # seeds at the conjugated values can converge in one step, so no step
    # counts as converged here
    monkeypatch.setattr(validation, "MAX_INVERSION_STEPS", 1)
    monkeypatch.setattr(validation, "INVERSION_STEP_TOL", 0.0)
    with pytest.raises(ValidationFailure, match=r"trajectory sample 0: .* did not converge in 1 "):
        _validate_ei(ei_run)


def _domain_one_pair_at_a_time(ev, tolerances, scan_max):
    """Reference: the scan and bisection of one (tolerance, sign) pair at a
    time, each step one full-grid residual call."""
    n = ev.rows.shape[-1]
    bounds = np.zeros((len(tolerances), 2, n))
    for t_i, tol in enumerate(tolerances):
        for s_i, sign in enumerate((1.0, -1.0)):
            lo, hi = np.zeros(n), np.full(n, np.nan)
            for s in np.linspace(0.0, scan_max, 65)[1:]:
                undecided = np.isnan(hi)
                if not undecided.any():
                    break
                bad = (ev.grid_residual(sign * s * undecided.astype(float)) > tol) & undecided
                hi[bad] = s
                lo[undecided & ~bad] = s
            open_mask = np.isnan(hi)
            hi[open_mask] = scan_max
            for _ in range(validation.BISECTION_STEPS):
                mid = 0.5 * (lo + hi)
                good = ev.grid_residual(sign * mid) <= tol
                lo[good & ~open_mask] = mid[good & ~open_mask]
                hi[~good & ~open_mask] = mid[~good & ~open_mask]
            bounds[t_i, s_i] = np.where(open_mask, scan_max, lo)
    return bounds


def test_batched_domain_matches_one_pair_at_a_time(oracle_run):
    result = oracle_run.result
    ev = ResidualEvaluator(result.manifold, result.model)
    tolerances = (1e-4, 1e-6, 1e-8)
    domain = accuracy_domain(result.manifold, result.model, tolerances, evaluator=ev)
    reference = _domain_one_pair_at_a_time(ev, tolerances, domain.scan_max)
    assert domain.sigma_pos.tobytes() == np.ascontiguousarray(reference[:, 0]).tobytes()
    assert domain.sigma_neg.tobytes() == np.ascontiguousarray(reference[:, 1]).tobytes()


def test_truncation_slope_survives_two_ulps_of_the_coefficients(ei_1024_samples):
    """Four 2-ulp perturbations of every manifold coefficient move the
    slope by under 2.5e-4.  Its probes sit at the loosest tolerance's
    bound, far above the sigma = 0 residual; at the strictest tolerance's
    bound the low probe read about 5 times that floor, and the same
    perturbations moved the slope by up to 7.1e-4."""
    man, model = ei_1024_samples[:2]

    def slope(manifold):
        ev = ResidualEvaluator(manifold, model)
        domain = accuracy_domain(manifold, model, (1e-6, 1e-8), evaluator=ev)
        return truncation_slope(manifold, model, domain, evaluator=ev)

    base = slope(man)
    assert 9.0 <= base <= 11.0
    shifts = [abs(slope(_within_two_ulps(man, seed)) - base) for seed in (11, 12, 13, 14)]
    assert max(shifts) < 2.5e-4, shifts


def _stacked_norm_residual(ev, sigma):
    """The residual as a stack of the field components and one
    ``np.linalg.norm`` over them."""
    sig = np.asarray(sigma, dtype=float)
    sums = horner(ev.rows, sig[..., None, :] if sig.ndim else sig)
    d = ev.dim
    field = ev.model.rhs(tuple(sums[..., i, :] for i in range(d)))
    field = np.stack(np.broadcast_arrays(*field), axis=-2)
    return np.linalg.norm(sums[..., d:, :] - field, axis=-2)


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["oracle", "ei"]),
    rows=st.sampled_from([None, 0, 1, 3]),
    scale=st.sampled_from([0.05, 1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_residual_equals_stacked_norm(oracle_run, ei_run, which, rows, scale, seed):
    """Summing the squared component differences one component at a time
    rounds as the stacked norm does, for sigma of shape (), (N,) and (k, N)."""
    result = (oracle_run if which == "oracle" else ei_run).result
    ev = ResidualEvaluator(result.manifold, result.model)
    n = ev.rows.shape[-1]
    shape = () if rows is None else (n,) if rows == 0 else (rows, n)
    sigma = np.random.default_rng(seed).uniform(-scale, scale, shape)
    got = ev.grid_residual(sigma)
    assert got.shape == np.broadcast_shapes(shape, (n,))
    assert got.tobytes() == _stacked_norm_residual(ev, sigma).tobytes()


def test_scan_shares_one_row_per_sign_and_reuses_the_probes(ei_run, monkeypatch):
    """Each scan step is one (2, N) call, at +s in row 0 and -s in row 1
    wherever a tolerance of that sign is undecided.  No (sign, s) is
    evaluated twice: a scan point that a doubling probe already evaluated
    at every phase takes the probe's rows.  Then each bisection step is one
    call for every (tolerance, sign) pair."""
    result = ei_run.result
    tolerances = ei_run.config.tolerances
    ev = ResidualEvaluator(result.manifold, result.model)
    grid_residual = ev.grid_residual
    calls = []

    def spy(sigma):
        calls.append(np.array(sigma, dtype=float))
        return grid_residual(sigma)

    monkeypatch.setattr(ev, "grid_residual", spy)
    # the whole grid in this process, where the spy sees every call
    monkeypatch.setattr(workers, "worth_splitting", lambda size: False)
    domain = accuracy_domain(result.manifold, result.model, tolerances, evaluator=ev)
    assert domain.sigma_pos.tobytes() == result.validation.domain.sigma_pos.tobytes()
    n = len(domain.theta)
    probes = [c for c in calls if c.shape == (2, 1)]
    scans = [c for c in calls if c.shape == (2, n)]
    assert [c.shape for c in calls] == (
        [(2, 1)] * len(probes)
        + [(2, n)] * len(scans)
        + [(len(tolerances), 2, n)] * validation.BISECTION_STEPS
    )

    probed = [float(c[0, 0]) for c in probes]
    assert probed == [2.0**j for j in range(len(probes))]
    assert all(np.array_equal(c, [[s], [-s]]) for c, s in zip(probes, probed))
    scanned = []
    for c in scans:
        s = float(np.abs(c).max())
        assert np.all((c[0] == s) | (c[0] == 0.0))
        assert np.all((c[1] == -s) | (c[1] == 0.0))
        scanned.append(s)
    assert scanned == sorted(set(scanned))
    assert not set(scanned) & set(probed)
    # every scan point up to the last one called is either called or probed
    points = np.linspace(0.0, domain.scan_max, 65)[1:]
    reached = [float(s) for s in points if s <= scanned[-1]]
    assert sorted(scanned + [s for s in probed if s <= scanned[-1]]) == reached
    assert sum(s < scanned[-1] for s in probed) >= 1


def test_bisection_ends_within_its_bracket_of_46_steps(oracle_run, ei_run, monkeypatch):
    """The bounds sit within 2^-30 of the scan step of a 46-step bisection's."""
    for ns in (oracle_run, ei_run):
        result = ns.result
        ev = ResidualEvaluator(result.manifold, result.model)
        domain = accuracy_domain(result.manifold, result.model, ns.config.tolerances, evaluator=ev)
        with monkeypatch.context() as m:
            m.setattr(validation, "BISECTION_STEPS", 46)
            fine = accuracy_domain(result.manifold, result.model, ns.config.tolerances, evaluator=ev)
        bracket = 2.0**-validation.BISECTION_STEPS * domain.scan_max / 64
        for got, ref in ((domain.sigma_pos, fine.sigma_pos), (domain.sigma_neg, fine.sigma_neg)):
            assert np.all(got <= ref)
            assert np.max(ref - got) <= bracket


def test_nan_residual_is_a_violation_in_the_scan(ei_run, monkeypatch):
    """Fault injection: at one phase the residual is NaN above sigma = 3.
    The scan counts NaN as a violation, as the bisection does, so that
    phase's positive bounds stop at 3 instead of an open-ended window at
    the scan edge; every other bound keeps its bits."""
    result = ei_run.result
    tolerances = ei_run.config.tolerances
    clean = result.validation.domain
    phase = int(np.argmax(clean.sigma_pos[-1]))
    assert clean.sigma_pos[-1, phase] > 3.0
    ev = ResidualEvaluator(result.manifold, result.model)
    grid_residual = ev.grid_residual

    def nan_above_3(sigma):
        res = grid_residual(sigma)
        sig = np.broadcast_to(sigma, res.shape)
        res[..., phase][sig[..., phase] > 3.0] = np.nan
        return res

    monkeypatch.setattr(ev, "grid_residual", nan_above_3)
    # the whole grid in this process, where the injection indexes its phase
    monkeypatch.setattr(workers, "worth_splitting", lambda size: False)
    domain = accuracy_domain(result.manifold, result.model, tolerances, evaluator=ev)
    assert np.all(domain.sigma_pos[:, phase] <= 3.0)
    assert np.all(domain.sigma_pos[:, phase] > 3.0 - domain.scan_max / 64)
    assert not domain.open_ended.any()
    others = np.arange(len(domain.theta)) != phase
    assert domain.sigma_pos[:, others].tobytes() == clean.sigma_pos[:, others].tobytes()
    assert domain.sigma_neg.tobytes() == clean.sigma_neg.tobytes()


# Injected defects, one per trajectory and orthogonality reporter that a
# report of 0 would hide: each must read at least 0.9 and at most 1.1 of the
# defect it is handed.  At these samples the oracle's own decay defects are
# below 4e-9 and its phase defects below 1e-14, 1e-3 and 1e-7 of the
# injected ones.
_THETA, _SIGMA, _HORIZONS = [0.2, 0.6, 0.85], [0.01, -0.008, 0.012], [0.5, 1.0, 2.0]


def test_trajectory_decay_defect_reports_a_wrong_slow_exponent(oracle_run):
    """With the slow exponent off by 1e-6, the conjugated amplitude contracts
    by e^{(lam + 1e-6) t} while the flow contracts by e^{lam t}: each sample's
    decay defect reads |e^{-1e-6 t} - 1|."""
    result = oracle_run.result
    shift = 1e-6
    wrong = replace(result.manifold, slow_exponent=result.manifold.slow_exponent + shift)
    report = trajectory_consistency(wrong, result.model, _THETA, _SIGMA, _HORIZONS)
    expected = np.abs(np.expm1(-shift * np.array(_HORIZONS)))
    assert np.all((report["decay_defect"] >= 0.9 * expected)
                  & (report["decay_defect"] <= 1.1 * expected)), report["decay_defect"]


def test_trajectory_phase_defect_reports_a_wrong_period(oracle_run):
    """With the period off by a factor 1 + 1e-7, the conjugated phase
    advances by t / T' while the flow advances by t / T: each sample's phase
    defect reads t (1/T - 1/T')."""
    result = oracle_run.result
    period = result.manifold.period
    wrong = replace(result.manifold, period=period * (1.0 + 1e-7))
    report = trajectory_consistency(wrong, result.model, _THETA, _SIGMA, _HORIZONS)
    expected = np.array(_HORIZONS) * (1.0 / period - 1.0 / wrong.period)
    assert np.all((report["phase_defect"] >= 0.9 * expected)
                  & (report["phase_defect"] <= 1.1 * expected)), report["phase_defect"]


def test_phase_normal_family_reports_a_normal_component_of_z0(oracle_run):
    """Z_0 plus eps K_1 / |K_1|^2, a component along the normal direction,
    pairs with K_1 to eps at every phase: order 0 of the phase/normal family
    reads eps."""
    result = oracle_run.result
    eps = 1e-9
    k1 = result.manifold.order_series(1).samples()
    normal = FourierSeries.from_samples(eps * k1 / np.sum(k1 * k1, axis=1)[:, None])
    coef = result.response.phase.coef.copy()
    coef[0] += normal.coef
    response = replace(result.response, phase=replace(result.response.phase, coef=coef))
    report = orthogonality_report(result.manifold, response)
    assert 0.9 * eps <= report["phase_normal"][0] <= 1.1 * eps, report["phase_normal"]


def _with_response_order_0(result, phase=None, amplitude=None):
    """``result.response`` with order 0 of its phase and amplitude series
    replaced by the given coefficient arrays (None keeps one)."""
    response = result.response
    for name, coef0 in (("phase", phase), ("amplitude", amplitude)):
        if coef0 is not None:
            series = getattr(response, name)
            coef = series.coef.copy()
            coef[0] = coef0
            response = replace(response, **{name: replace(series, coef=coef)})
    return response


def test_phase_tangent_family_reports_a_scaled_z0(oracle_run):
    """(1 + eps) Z_0 pairs with K_0' to 1 + eps at every phase: order 0 of
    the phase/tangent family reads eps."""
    result = oracle_run.result
    eps = 1e-9
    z0 = result.response.phase.coef[0]
    response = _with_response_order_0(result, phase=(1.0 + eps) * z0)
    report = orthogonality_report(result.manifold, response)
    assert 0.9 * eps <= report["phase_tangent"][0] <= 1.1 * eps, report["phase_tangent"]


def test_amplitude_tangent_family_reports_a_tangential_component_of_i0(oracle_run):
    """I_0 + eps Z_0, a component along the phase response curve, pairs with
    K_0' to eps at every phase: order 0 of the amplitude/tangent family
    reads eps."""
    result = oracle_run.result
    eps = 1e-9
    i0, z0 = result.response.amplitude.coef[0], result.response.phase.coef[0]
    response = _with_response_order_0(result, amplitude=i0 + eps * z0)
    report = orthogonality_report(result.manifold, response)
    assert 0.9 * eps <= report["amplitude_tangent"][0] <= 1.1 * eps, \
        report["amplitude_tangent"]


def test_amplitude_normal_family_reports_a_scaled_i0(oracle_run):
    """(1 + eps) I_0 pairs with K_1 to 1 + eps at every phase: order 0 of
    the amplitude/normal family reads eps."""
    result = oracle_run.result
    eps = 1e-9
    i0 = result.response.amplitude.coef[0]
    response = _with_response_order_0(result, amplitude=(1.0 + eps) * i0)
    report = orthogonality_report(result.manifold, response)
    assert 0.9 * eps <= report["amplitude_normal"][0] <= 1.1 * eps, report["amplitude_normal"]


def test_trajectory_state_gap_reports_an_offset_flow(oracle_run, monkeypatch):
    """Each flowed state moved by a fixed offset of norm eps lies eps from
    the manifold point it should reach: each sample's state gap reads eps."""
    result = oracle_run.result
    eps = 1e-7
    offset = eps * np.array([0.6, -0.8])
    flow = validation.flow
    monkeypatch.setattr(validation, "flow", lambda *args: flow(*args) + offset)
    report = trajectory_consistency(result.manifold, result.model, _THETA, _SIGMA, _HORIZONS)
    assert np.all((report["state_gap"] >= 0.9 * eps)
                  & (report["state_gap"] <= 1.1 * eps)), report["state_gap"]


ERROR_ATTRIBUTES = {
    errors.IntegrationError: {"time": 2.5},
    errors.SmallDivisorError: {"context": (0, 1)},
}


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if inspect.isclass(c) and issubclass(c, errors.SlowphaseError)],
    ids=lambda c: c.__name__,
)
def test_errors_survive_a_pickle_round_trip(cls):
    # a forked worker sends its exception back pickled
    exc = cls("boom", **ERROR_ATTRIBUTES.get(cls, {}))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == "boom"
    assert vars(back) == vars(exc) == ERROR_ATTRIBUTES.get(cls, {})


SPLIT_AND_SERIAL = """
import json, os, shutil, sys
from slowphase import workers
from slowphase.config import RunConfig
from slowphase.pipeline import Stage, load_result, run_pipeline

out, copies = sys.argv[1:]
config = RunConfig(model="ei", grid_size=1024, order=9, n_samples=8, seed=901, out_dir=out)
oracle = RunConfig(model="oracle", grid_size=128, order=4, relax_time=20.0,
                   out_dir=os.path.join(copies, "oracle"))
frames = os.path.join(copies, "frames")
run_pipeline(config, through=Stage.FRAMES)
shutil.copytree(out, frames)
report = {"can_split": workers.can_split()}
sites = []
fork = os.fork
def counted_fork():
    sites.append(sys._getframe(2).f_code.co_name)  # the caller of with_worker
    return fork()
os.fork = counted_fork
for name, gate in (("split", True), ("serial", False)):
    workers.can_split = lambda gate=gate: gate
    shutil.rmtree(out)
    shutil.copytree(frames, out)
    sites.clear()
    run_pipeline(config, resume=load_result(config), through=Stage.RESPONSE)
    run_pipeline(config, resume=load_result(config))
    report[name] = sorted(sites)
    for file in os.listdir(out):
        shutil.copy(os.path.join(out, file), os.path.join(copies, f"{name}-{file}"))
    sites.clear()
    run_pipeline(oracle)
    report[f"oracle {name}"] = sorted(sites)
print(json.dumps(report))
"""


def test_split_flows_write_the_serial_bytes(tmp_path):
    """Resuming a stored `ei` frames stage (grid 2^10, order 9) through the
    response stage, then validating it, writes the same bytes with the
    shared gate forced to split as forced serial: every coefficient file,
    stage JSON, `validation.json`, `accuracy_domain.csv` and
    `manifest.json`.  Split, each of the three sites forks once (the
    amplitude recursion, the upper half of the accuracy domain's phase
    columns and half the trajectory flows); at `oracle`, grid 128, order
    4, only the flows fork, as the other two sites are below the size
    gate.  The real gate splits wherever two CPUs are usable."""
    out, copies = tmp_path / "run", tmp_path / "copies"
    copies.mkdir()
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    assert run_child(SPLIT_AND_SERIAL, out, copies) == {
        "can_split": two_cpus,
        "split": ["_flows", "accuracy_domain", "expand_response_functions"],
        "serial": [],
        "oracle split": ["_flows"],
        "oracle serial": [],
    }
    files = sorted(p.name.split("-", 1)[1] for p in copies.glob("split-*"))
    assert files == sorted(p.name.split("-", 1)[1] for p in copies.glob("serial-*"))
    assert {"validation.json", "accuracy_domain.csv", "manifest.json", "response.json",
            "response_amplitude_coeff.npy", "manifold_coeff.npy"} <= set(files)
    for file in files:
        split, serial = ((copies / f"{name}-{file}").read_bytes() for name in ("split", "serial"))
        assert split == serial, file


def test_domain_bounds_of_any_column_split_are_the_whole_grid_bounds(ei_run, monkeypatch):
    """Each accuracy-domain bound depends only on its own phase: the scan
    and bisection of the two parts of a column split, contiguous at an odd
    cut or a random subset, give the whole grid's bounds bit for bit, and
    so does :func:`accuracy_domain` through its split path (the worker's
    share run in this process)."""
    result, tolerances = ei_run.result, ei_run.config.tolerances
    ev = ResidualEvaluator(result.manifold, result.model)
    whole = accuracy_domain(result.manifold, result.model, tolerances, evaluator=ev)
    n = len(whole.theta)
    monkeypatch.setattr(workers, "worth_splitting", lambda size: True)
    monkeypatch.setattr(workers, "with_worker", lambda mine, theirs, task: (mine(), theirs()))
    split = accuracy_domain(result.manifold, result.model, tolerances, evaluator=ev)
    assert split.scan_max == whole.scan_max
    for name in ("sigma_pos", "sigma_neg", "open_ended"):
        assert np.array_equal(getattr(split, name), getattr(whole, name)), name

    tol = np.array(whole.tolerances)[:, None, None]
    chosen = np.random.default_rng(5).uniform(size=n) < 0.3
    for part in (np.arange(n) < 2 * (n // 5) + 1, chosen):
        bound = np.empty((len(tol), 2, n))
        for cols in (np.flatnonzero(part), np.flatnonzero(~part)):
            bound[..., cols] = validation._bracket(ev.columns(cols), tol, whole.scan_max, {})[0]
        assert np.array_equal(bound[:, 0], whole.sigma_pos)
        assert np.array_equal(bound[:, 1], whole.sigma_neg)
