from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slowphase.frames as frames_mod
import slowphase.integrate as integrate_mod
from slowphase.config import RunConfig
from slowphase.frames import (
    IDENTITY_CHUNKS,
    _integration_route,
    _shifted_columns,
    build_adjoint_frame,
    build_bundle_frame,
    cross_check_adjoint_frame,
    real_generator_matrix,
)
from slowphase.integrate import DEFAULT_SETTINGS, SEED_RTOL, IntegratorSettings
from slowphase.pipeline import Stage, run_pipeline
from slowphase.series import FourierSeries, theta_grid


def test_oracle_bundle_columns_closed_form(oracle_run):
    result = oracle_run.result
    cols = result.bundle.grid_values().real
    # tangent column: K0' = 2 pi (-sin, cos) for the unit-speed angular motion
    expect0 = 2.0 * np.pi * oracle_run.tangent
    assert np.max(np.abs(cols[:, :, 0] - expect0)) < 1e-10
    # slow column: the radial direction, up to the sign gauge
    expect1 = oracle_run.gauge_sign * oracle_run.radial
    assert np.max(np.abs(cols[:, :, 1] - expect1)) < 1e-10


def test_oracle_adjoint_columns_closed_form(oracle_run):
    result = oracle_run.result
    acols = result.adjoint.grid_values().real
    # phase gradient on the cycle: tangent / (2 pi)
    expect0 = oracle_run.tangent / (2.0 * np.pi)
    assert np.max(np.abs(acols[:, :, 0] - expect0)) < 1e-10
    expect1 = oracle_run.gauge_sign * oracle_run.radial
    assert np.max(np.abs(acols[:, :, 1] - expect1)) < 1e-10


def test_frame_residuals_below_spec(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        assert ns.result.bundle.residual < 1e-9
        assert ns.result.adjoint.residual < 1e-9


def test_biorthogonality_pointwise(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        result = ns.result
        q = result.adjoint.grid_values()
        b = result.bundle.grid_values()
        gram = np.einsum("nij,nik->njk", q, b)
        eye = np.eye(result.model.dim)
        assert np.max(np.abs(gram - eye)) < 1e-9


def test_phase_normalization_pointwise(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        result = ns.result
        iprc = result.adjoint.grid_values()[:, :, 0].real
        speed = result.model.eval(result.cycle.samples)
        pairing = np.einsum("ni,ni->n", iprc, speed)
        assert np.max(np.abs(pairing - 1.0 / result.cycle.period)) < 1e-10


def test_amplitude_normalization_pointwise(ei_run):
    result = ei_run.result
    q = result.adjoint.grid_values()
    b = result.bundle.grid_values()
    for j in range(1, result.model.dim):
        pairing = np.einsum("ni,ni->n", q[:, :, j], b[:, :, j])
        assert np.max(np.abs(pairing - 1.0)) < 1e-9


def test_frame_ode_residuals_per_class(ei_run):
    # every column satisfies its order-1 equation with its own exponent
    result = ei_run.result
    cols = result.bundle.grid_values()
    lams = result.bundle.exponents
    jac = result.model.jacobian(result.cycle.samples)
    dq = (
        FourierSeries.from_samples(cols, 1.0).band_limited(result.band_cut)
        .differentiate().samples()
    )
    res = dq / result.cycle.period - jac @ cols + cols * lams[None, None, :]
    for j in range(result.model.dim):
        assert np.max(np.abs(res[:, :, j])) < 1e-9


def test_real_bundle_antiperiodicity(ei_run):
    result = ei_run.result
    n = result.cycle.grid_size
    assert ei_run.bundle_real.period == 2.0
    vals = ei_run.bundle_real.samples().real
    avals = ei_run.adjoint_real.samples().real
    for j in (4, 5):
        assert np.max(np.abs(vals[:n, :, j] + vals[n:, :, j])) < 1e-9
        assert np.max(np.abs(avals[:n, :, j] + avals[n:, :, j])) < 1e-9
    # 1-periodic columns repeat across the lift
    for j in (0, 1, 2, 3):
        assert np.max(np.abs(vals[:n, :, j] - vals[n:, :, j])) < 1e-12


def test_negative_columns_relate_to_complex_by_half_harmonic(ei_run):
    # complex column = e^{-i pi theta} x real antiperiodic column
    result = ei_run.result
    n = result.cycle.grid_size
    theta2 = ei_run.bundle_real.grid()
    phase = np.exp(-1j * np.pi * theta2[:n])
    complex_cols = result.bundle.grid_values()
    real_cols = ei_run.bundle_real.samples().real
    for j in (4, 5):
        reconstructed = phase[:, None] * real_cols[:n, :, j]
        assert np.max(np.abs(reconstructed - complex_cols[:, :, j])) < 1e-10


def test_real_pair_columns_are_real_and_imaginary_parts(ei_run):
    result = ei_run.result
    n = result.cycle.grid_size
    complex_cols = result.bundle.grid_values()
    real_cols = ei_run.bundle_real.samples().real
    assert np.max(np.abs(real_cols[:n, :, 2] - complex_cols[:, :, 2].real)) < 1e-12
    assert np.max(np.abs(real_cols[:n, :, 3] - complex_cols[:, :, 2].imag)) < 1e-12


def test_real_frames_biorthogonal(ei_run):
    result = ei_run.result
    q = ei_run.adjoint_real.samples().real
    b = ei_run.bundle_real.samples().real
    gram = np.einsum("nij,nik->njk", q, b)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-9


def test_real_frame_odes(ei_run):
    # (1/T) Q~' = DX Q~ - Q~ R for the bundle; adjoint with transposed blocks
    result = ei_run.result
    T = result.cycle.period
    n = result.cycle.grid_size
    jac = result.model.jacobian(result.cycle.samples)
    jac2 = np.tile(jac, (2, 1, 1))
    classes, exponents = result.bundle.classes, result.bundle.exponents
    gen = real_generator_matrix(classes, exponents)
    vals = ei_run.bundle_real.samples().real
    dq = (
        FourierSeries.from_samples(vals, 2.0).band_limited(2 * result.band_cut)
        .differentiate().samples()
    )
    res = dq.real / T - jac2 @ vals + vals @ gen
    assert np.max(np.abs(res)) < 5e-9
    gen_adj = real_generator_matrix(classes, exponents).T
    avals = ei_run.adjoint_real.samples().real
    da = (
        FourierSeries.from_samples(avals, 2.0).band_limited(2 * result.band_cut)
        .differentiate().samples()
    )
    res_a = da.real / T + np.swapaxes(jac2, 1, 2) @ avals - avals @ gen_adj
    assert np.max(np.abs(res_a)) < 5e-9


def test_real_generator_blocks():
    classes = (
        "trivial", "real_positive", "complex_pair_lead", "complex_pair_conjugate",
        "real_negative",
    )
    exponents = np.array([0.0, -0.5, -0.3 + 0.7j, -0.3 - 0.7j, -1.1 + np.pi * 1j])
    gen = real_generator_matrix(classes, exponents)
    expected = np.zeros((5, 5))
    expected[1, 1] = -0.5
    expected[2:4, 2:4] = [[-0.3, 0.7], [-0.7, -0.3]]
    expected[4, 4] = -1.1
    assert np.array_equal(gen, expected)
    adj = real_generator_matrix(classes, exponents).T
    expected[2:4, 2:4] = [[-0.3, -0.7], [0.7, -0.3]]
    assert np.array_equal(adj, expected)


def test_oracle_adjoint_polish_stops_at_roundoff(oracle_run, monkeypatch):
    """The adjoint polish aims at a residual that roundoff lets it reach: on
    the oracle it stops within 3 sweeps, not after sweeps of noise."""
    result = oracle_run.result
    refine = frames_mod._refine_frame
    sweeps = []

    def counting(*args, **kwargs):
        history = refine(*args, **kwargs)
        sweeps.append(len(history))
        return history

    monkeypatch.setattr(frames_mod, "_refine_frame", counting)
    build_adjoint_frame(
        result.bundle, result.model.jacobian(result.cycle.samples),
        result.cycle.period, k_cut=result.band_cut,
    )
    assert sweeps and max(sweeps) <= 3, sweeps


def test_cross_check_oracle(oracle_run):
    result = oracle_run.result
    rep = cross_check_adjoint_frame(
        result.model, result.cycle, result.spectrum, result.bundle, result.adjoint
    )
    assert rep["max_column_discrepancy"] < 1e-8
    assert np.max(rep["eigenvalue_duality_rel_errors"]) < 1e-8
    assert rep["psi_phi_identity_defect"] < 1e-8


def test_cross_check_ei(ei_run):
    rep = ei_run.result.crosscheck
    assert rep["max_column_discrepancy"] < 1e-8
    assert np.max(rep["eigenvalue_duality_rel_errors"]) < 1e-8
    assert rep["psi_phi_identity_defect"] < 1e-8


def test_shifted_columns_batch_matches_single_columns(ei_run):
    """Columns sharing a route integrate together as they would alone."""
    result = ei_run.result
    spectrum = result.spectrum
    lams = spectrum.exponents
    period = result.cycle.period
    interp = result.cycle.interpolant()
    jacobian = result.model.point_jacobian()
    theta = theta_grid(64)
    for pair in ((1, 2), (4, 5)):
        routes = {_integration_route(lams[j], lams, period) for j in pair}
        assert len(routes) == 1
        route = routes.pop()
        w = spectrum.eigenvectors[:, list(pair)]
        batch = _shifted_columns(
            jacobian, interp, w, lams[list(pair)], period, theta,
            DEFAULT_SETTINGS, route,
        )
        assert batch.shape == (64, result.model.dim, 2)
        for i, j in enumerate(pair):
            single = _shifted_columns(
                jacobian, interp, w[:, i : i + 1], lams[j : j + 1],
                period, theta, DEFAULT_SETTINGS, route,
            )
            assert np.max(np.abs(batch[:, :, i] - single[:, :, 0])) < 1e-9


def _peak_relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("config", [
    RunConfig(model="ei", grid_size=1024, order=9),
    RunConfig(model="oracle", guess=(1.3, 0.0), relax_time=20.0, grid_size=256,
              order=5),
], ids=["ei", "oracle"])
def test_seeds_at_floor_give_the_frames_of_seeds_at_user_settings(
        config, tmp_path, monkeypatch):
    """The polish owns the frames' accuracy: seeds integrated at SEED_RTOL and
    at the user's (tighter) settings give the same frames and expansions."""
    partial = run_pipeline(replace(config, out_dir=str(tmp_path / "floor")),
                           through=Stage.FLOQUET)
    floor = run_pipeline(partial.config, through=Stage.RESPONSE,
                         resume=replace(partial))
    monkeypatch.setattr(integrate_mod, "SEED_RTOL", DEFAULT_SETTINGS.rtol)
    user = run_pipeline(replace(config, out_dir=str(tmp_path / "user")),
                        through=Stage.RESPONSE, resume=replace(partial))

    assert _peak_relative(floor.bundle.grid_values(), user.bundle.grid_values()) < 1e-13
    assert _peak_relative(floor.adjoint.grid_values(), user.adjoint.grid_values()) < 1e-11
    k_floor, k_user = floor.manifold.coeffs.samples(), user.manifold.coeffs.samples()
    for n in range(len(k_user)):
        assert _peak_relative(k_floor[n], k_user[n]) < 1e-12, n
    # orders 5 and up sit at the noise floor of the response recursion: on
    # ei, order 5 of the phase moves by 9.2e-11 of its peak between these
    # two runs, so a bound there would gate roundoff
    for floor_fn, user_fn in ((floor.response.phase, user.response.phase),
                              (floor.response.amplitude, user.response.amplitude)):
        z_floor, z_user = floor_fn.samples(), user_fn.samples()
        for n in range(5):
            assert _peak_relative(z_floor[n], z_user[n]) < 1e-10, n


@pytest.mark.parametrize("user, seed_rtol", [
    (DEFAULT_SETTINGS, SEED_RTOL),
    (IntegratorSettings(rtol=1e-8, atol=1e-9), 1e-8),
    (IntegratorSettings(rtol=SEED_RTOL, atol=1e-10, max_steps=50_000), SEED_RTOL),
], ids=["tighter", "looser", "at_floor"])
def test_seeds_integrate_at_the_floor_and_chunks_at_user_settings(
        oracle_run, monkeypatch, user, seed_rtol):
    """The shifted-column seeds run at SEED_RTOL unless the user's rtol is
    looser, which is used as given; atol scales with rtol.  The cross-check's
    IDENTITY_CHUNKS chunks of Psi^T Phi keep the user's settings."""
    result = oracle_run.result
    seen = []
    integrate = frames_mod._integrate

    def spy(fun, t0, y0, t1, settings, **kwargs):
        seen.append((kwargs.get("t_eval") is not None, settings))
        return integrate(fun, t0, y0, t1, settings, **kwargs)

    monkeypatch.setattr(frames_mod, "_integrate", spy)
    build_bundle_frame(result.model, result.cycle, result.spectrum, settings=user)
    cross_check_adjoint_frame(
        result.model, result.cycle, result.spectrum, result.bundle, result.adjoint,
        settings=user,
    )
    seeds = [s for sampled, s in seen if sampled]
    chunks = [s for sampled, s in seen if not sampled]
    assert seeds and len(chunks) == IDENTITY_CHUNKS == 16
    for s in seeds:
        assert s.rtol == seed_rtol and s.max_steps == user.max_steps
        assert s.atol == pytest.approx(user.atol * seed_rtol / user.rtol, rel=1e-15)
        if seed_rtol == user.rtol:
            assert s is user
    assert all(s is user for s in chunks)


# negative real parts: dyadic values make ties between the two routes exact
_negative = st.one_of(
    st.integers(-64, -1).map(lambda k: k / 8.0),
    st.floats(min_value=-1e3, max_value=-1e-6),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_negative, st.floats(-10.0, 10.0)), min_size=1, max_size=7),
    st.one_of(st.sampled_from([0.5, 1.0, 8.0]), st.floats(0.1, 100.0)),
)
def test_route_of_negated_spectrum_is_the_adjoint_rule(parts, period):
    """The adjoint frame's columns take the route of the direct rule on the
    negated spectrum: forward iff (Re lam_j - min Re lam) T <= -Re lam_j T."""
    lam = np.array([0.0] + [complex(re, im) for re, im in parts])
    re_min = float(np.min(lam.real))
    for lam_j in lam:
        forward = (lam_j.real - re_min) * period <= -lam_j.real * period
        expected = "forward" if forward else "backward"
        assert _integration_route(-lam_j, -lam, period) == expected
