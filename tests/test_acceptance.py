"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Criteria 1-2 and 4-8 run on the production network configuration (grid 2^12,
order 9); criterion 3 on the closed-form oscillator; criterion 9 checks byte
determinism of exports.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import os
from math import comb

import numpy as np
import pytest

from slowphase.cli import main
from slowphase.validation import orthogonality_report


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_floquet_table(ei_run):
    """Multiplier/exponent table of the network model at default tolerances:
    the polished Floquet frame's exponents, spectrally accurate unlike raw
    eigenvalues of the monodromy for strongly contracting directions, and
    their multipliers over the polished period."""
    result = ei_run.result
    T = result.cycle.period
    lam = result.bundle.exponents
    mu = np.array([np.exp(z * T) for z in lam])

    checks = [
        abs(mu[1].real - 0.0537) <= 0.01 * 0.0537,
        abs(mu[2].real - 2.3e-4) <= 0.02 * 2.3e-4,
        abs(mu[2].imag - 3.13e-4) <= 0.02 * 3.13e-4,
        abs(mu[3].real - 2.3e-4) <= 0.02 * 2.3e-4,
        abs(mu[3].imag + 3.13e-4) <= 0.02 * 3.13e-4,
        abs(mu[4].real + 3.99e-10) <= 0.05 * 3.99e-10,
        abs(mu[5].real + 1.57e-10) <= 0.05 * 1.57e-10,
        abs(lam[1].real + 0.1405) <= 0.01 * 0.1405,
        abs(lam[2].real + 0.377) <= 0.01 * 0.377,
        abs(lam[2].imag - 0.045) <= 0.01 * 0.045,
        abs(lam[4].real + 1.040) <= 0.01 * 1.040,
        abs(lam[5].real + 1.0845) <= 0.01 * 1.0845,
        lam[4].imag == np.pi / T,
        lam[5].imag == np.pi / T,
        ei_run.floquet_elapsed < 60.0,
    ]
    _line(
        1,
        all(checks),
        f"multiplier table reproduced; cycle+spectrum in "
        f"{ei_run.floquet_elapsed:.1f} s (< 60 s)",
    )


def test_criterion_2_invariance_residual(ei_run):
    result = ei_run.result
    domain = result.validation.domain
    strict = list(domain.tolerances).index(1e-8)
    width_pos = float(domain.sigma_pos[strict].min())
    width_neg = float(domain.sigma_neg[strict].min())
    residuals = result.manifold.residuals
    checks = [
        width_pos > 0.0,
        width_neg > 0.0,
        bool(np.all(residuals < 1e-9)),
        ei_run.expansion_elapsed < 600.0,
    ]
    _line(
        2,
        all(checks),
        f"residual < 1e-8 on sigma in [-{width_neg:.3g}, {width_pos:.3g}] for "
        f"every phase; per-order residual max {residuals.max():.2e}; "
        f"expansions+validation in {ei_run.expansion_elapsed:.0f} s (< 600 s)",
    )


def test_criterion_3_oracle_exactness(oracle_run):
    result = oracle_run.result
    T = result.cycle.period
    lam_s = result.manifold.slow_exponent
    iprc = result.adjoint.grid_values()[:, :, 0].real
    expect_iprc = oracle_run.tangent / (2.0 * np.pi)
    iprc_err = float(np.max(np.abs(iprc - expect_iprc)))
    b = oracle_run.gauge_sign
    k_err = 0.0
    for n in range(6):
        if n == 0:
            expected = result.cycle.samples
        else:
            expected = (b**n) * (comb(2 * n, n) / 2.0**n) * oracle_run.radial
        got = result.manifold.order_series(n).samples().real
        k_err = max(k_err, float(np.max(np.abs(got - expected))))
    checks = [
        abs(T - 2.0 * np.pi) < 1e-9,
        abs(lam_s + 2.0) < 1e-8,
        iprc_err < 1e-8,
        k_err < 1e-8,
        oracle_run.elapsed < 10.0,
    ]
    _line(
        3,
        all(checks),
        f"T - 2pi = {T - 2*np.pi:+.2e}, lam_s + 2 = {lam_s + 2:+.2e}, "
        f"iPRC err {iprc_err:.2e}, orders err {k_err:.2e}, "
        f"{oracle_run.elapsed:.1f} s (< 10 s)",
    )


def test_criterion_4_eigenvalue_duality(ei_run):
    rep = ei_run.result.crosscheck
    duality = float(np.max(rep["eigenvalue_duality_rel_errors"]))
    identity = float(rep["psi_phi_identity_defect"])
    checks = [duality < 1e-8, identity < 1e-8]
    _line(
        4,
        all(checks),
        f"adjoint eigenvalue duality {duality:.2e} (< 1e-8); "
        f"fundamental-solution duality {identity:.2e} (< 1e-8)",
    )


def test_criterion_5_orthogonality_suite(ei_run):
    result = ei_run.result
    report = orthogonality_report(result.manifold, result.response)
    families = ("phase_tangent", "phase_normal", "amplitude_tangent", "amplitude_normal")
    worst = max(float(np.max(report[f])) for f in families)
    lengths_ok = all(len(report[f]) >= 10 for f in families)
    norm_defect = result.response.normalization_defect
    checks = [worst < 1e-8, lengths_ok, norm_defect < 1e-9]
    _line(
        5,
        all(checks),
        f"pairing identities to order 9: worst defect {worst:.2e} (< 1e-8); "
        f"order-1 normalization re-verified pointwise at {norm_defect:.2e}",
    )


def test_criterion_6_two_periodicity(ei_run):
    result = ei_run.result
    n = result.cycle.grid_size
    worst = 0.0
    for vals in (ei_run.bundle_real, ei_run.adjoint_real):
        for j in (4, 5):
            worst = max(worst, float(np.max(np.abs(vals[:n, :, j] + vals[n:, :, j]))))
    _line(
        6,
        worst < 1e-9,
        f"negative-multiplier columns antiperiodic to {worst:.2e} (< 1e-9)",
    )


def test_criterion_7_flow_conjugacy(ei_run):
    traj = ei_run.result.validation.trajectory
    state_gap = float(traj["state_gap"].max())
    decay = float(traj["decay_defect"].max())
    n_samples = len(traj["state_gap"])
    checks = [state_gap < 1e-6, decay < 1e-6, n_samples == 50]
    _line(
        7,
        all(checks),
        f"{n_samples} samples, horizons to 2T: state gap {state_gap:.2e} "
        f"(< 1e-6), amplitude-decay ratio defect {decay:.2e} (< 1e-6)",
    )


def test_criterion_8_directional_derivatives(ei_run):
    result = ei_run.result
    man, resp = result.manifold, result.response
    domain = result.validation.domain
    rng = np.random.default_rng(ei_run.config.seed + 1)
    theta_s, sigma_s = domain.sample_inside(rng, 40)
    from slowphase.manifold import evaluate_manifold

    worst_phase = 0.0
    worst_amp = 0.0
    for th, sg in zip(theta_s, sigma_s):
        point = evaluate_manifold(man, th, sg)
        speed = result.model.eval(point)
        z = resp.phase.evaluate(th, sg).real
        a = resp.amplitude.evaluate(th, sg).real
        worst_phase = max(worst_phase, abs(np.dot(z, speed) - 1.0 / man.period))
        worst_amp = max(
            worst_amp, abs(np.dot(a, speed) - man.slow_exponent * sg)
        )
    checks = [worst_phase < 1e-7, worst_amp < 1e-7]
    _line(
        8,
        all(checks),
        f"phase rate defect {worst_phase:.2e}, amplitude rate defect "
        f"{worst_amp:.2e} (both < 1e-7)",
    )


def test_criterion_9_determinism(tmp_path):
    cfg_text = (
        "model.name = oracle\n"
        "cycle.guess = 1.3, 0.0\n"
        "cycle.relax_time = 20.0\n"
        "cycle.grid_N = 128\n"
        "manifold.order = 4\n"
        "validation.samples = 8\n"
    )
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text + f"output.directory = {out}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(
            ["export", "--config", str(cfg), "--what", "all", "--format", "csv"]
        ) == 0
        bundle = {}
        for fname in sorted(os.listdir(out / "exports")):
            bundle[fname] = (out / "exports" / fname).read_bytes()
        for fname in sorted(os.listdir(out)):
            if fname.endswith((".npy", ".csv")):
                bundle[fname] = (out / fname).read_bytes()
        digests.append(bundle)
    identical = digests[0] == digests[1]
    stored = sum(name.endswith("_coeff.npy") for name in digests[0])
    _line(
        9,
        identical and stored == 6,
        f"{len(digests[0])} exported/artifact CSV and .npy files ({stored} "
        "coefficient arrays) byte-identical across repeated runs",
    )
