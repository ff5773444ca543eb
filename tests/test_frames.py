import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slowphase.frames import (
    _integration_route,
    _shifted_columns,
    cross_check_adjoint_frame,
    real_generator_matrix,
)
from slowphase.integrate import DEFAULT_SETTINGS
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
