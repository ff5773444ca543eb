import numpy as np
import pytest
from scipy.integrate import DOP853

from slowphase.errors import ConfigError, IntegrationError
from slowphase.integrate import (
    CycleInterpolant,
    IntegratorSettings,
    _integrate,
    adjoint_flow,
    flow,
    flow_samples,
    flow_with_variational,
)
from slowphase.models import VectorFieldModel, make_oracle_model
from slowphase.series import FourierSeries, theta_grid


def test_settings_validation():
    with pytest.raises(ConfigError, match="integrator.rtol"):
        IntegratorSettings(rtol=-1.0)
    with pytest.raises(ConfigError, match="integrator.atol"):
        IntegratorSettings(atol=0.0)
    with pytest.raises(ConfigError, match="integrator.rtol"):
        IntegratorSettings(rtol=float("nan"))  # DOP853 would never finish
    with pytest.raises(ConfigError, match="integrator.max_steps"):
        IntegratorSettings(max_steps=0)


def test_flow_time_zero_is_identity():
    model = make_oracle_model()
    x0 = np.array([0.3, -0.7])
    assert np.array_equal(flow(model, x0, 0.0), x0)


def test_flow_full_turn_returns_to_start():
    model = make_oracle_model()
    out = flow(model, np.array([1.0, 0.0]), 2.0 * np.pi)
    assert np.linalg.norm(out - [1.0, 0.0]) < 1e-10


def test_flow_semigroup_property():
    model = make_oracle_model()
    rng = np.random.default_rng(0)
    x0 = np.array([1.2, 0.4])
    for _ in range(5):
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        once = flow(model, flow(model, x0, t1), t2)
        direct = flow(model, x0, t1 + t2)
        assert np.linalg.norm(once - direct) < 1e-9


def test_flow_backward_inverts_forward():
    model = make_oracle_model()
    x0 = np.array([0.9, 0.1])
    there = flow(model, x0, 1.3)
    back = flow(model, there, -1.3)
    assert np.linalg.norm(back - x0) < 1e-9


def test_variational_identity_at_time_zero():
    model = make_oracle_model()
    _, phi = flow_with_variational(model, np.array([1.0, 0.0]), 0.0)
    assert np.array_equal(phi, np.eye(2))


def test_variational_monodromy_eigenvalues():
    model = make_oracle_model()
    _, phi = flow_with_variational(model, np.array([1.0, 0.0]), 2.0 * np.pi)
    eigs = np.sort(np.abs(np.linalg.eigvals(phi)))
    expected = np.sort([1.0, np.exp(-4.0 * np.pi)])
    assert np.max(np.abs(eigs - expected) / expected) < 1e-8


def test_liouville_determinant_identity():
    model = make_oracle_model()
    x0 = np.array([1.1, -0.2])
    for t in (0.7, 2.0, 5.0):
        _, phi, quad = flow_with_variational(model, x0, t, return_trace=True)
        det = np.linalg.det(phi)
        assert det == pytest.approx(np.exp(quad), rel=1e-8)


def test_blowup_reports_failure_time():
    model = VectorFieldModel(
        name="quadratic",
        dim=1,
        params={},
        state_names=("x",),
        rhs=lambda u: (u[0] * u[0],),
        jac_rows=lambda u: ((2.0 * u[0],),),
    )
    # dx/dt = x^2 from x=1 blows up at t=1
    with pytest.raises(IntegrationError) as err:
        flow(model, np.array([1.0]), 2.0)
    assert err.value.time is not None
    assert 0.9 < err.value.time <= 1.1


def test_step_budget_exhaustion():
    model = make_oracle_model()
    tiny = IntegratorSettings(max_steps=3)
    with pytest.raises(IntegrationError):
        flow(model, np.array([1.0, 0.0]), 50.0, tiny)


def test_flow_samples_along_trajectory():
    model = make_oracle_model()
    times = np.linspace(0.0, np.pi, 9)
    samples = flow_samples(model, np.array([1.0, 0.0]), times)
    expected = np.stack([np.cos(times), np.sin(times)], axis=1)
    assert np.max(np.abs(samples - expected)) < 1e-9


def _unit_circle_interpolant(n=64):
    theta = theta_grid(n)
    samples = np.stack([np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)], axis=1)
    series = FourierSeries.from_samples(samples)
    return CycleInterpolant(series, period=2.0 * np.pi)


def test_adjoint_identity_at_time_zero():
    model = make_oracle_model()
    interp = _unit_circle_interpolant()
    psi = adjoint_flow(model, interp, 0.0)
    assert np.array_equal(psi, np.eye(2))


def test_adjoint_duality_with_variational():
    """Psi(t)^T Phi(t) stays the identity (transposed-inverse duality)."""
    model = make_oracle_model()
    interp = _unit_circle_interpolant()
    for t in (0.4, 1.5):
        psi = adjoint_flow(model, interp, t)
        _, phi = flow_with_variational(model, np.array([1.0, 0.0]), t)
        assert np.max(np.abs(psi.T @ phi - np.eye(2))) < 1e-8


def test_adjoint_monodromy_eigenvalue_duality():
    model = make_oracle_model()
    interp = _unit_circle_interpolant()
    psi_T = adjoint_flow(model, interp, 2.0 * np.pi)
    eigs = np.sort(np.abs(np.linalg.eigvals(psi_T)))
    expected = np.sort([1.0, np.exp(4.0 * np.pi)])
    assert np.max(np.abs(eigs - expected) / expected) < 1e-8


def test_interpolant_span_rejection():
    model = make_oracle_model()
    theta = theta_grid(32)
    samples = np.stack([np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)], axis=1)
    series = FourierSeries.from_samples(samples)
    bounded = CycleInterpolant(series, period=2.0 * np.pi, span=1.0)
    with pytest.raises(IntegrationError):
        adjoint_flow(model, bounded, 2.0)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_interpolant_matches_two_sided_sum(n):
    """The folded half spectrum reproduces the full sum, Nyquist row included."""
    rng = np.random.default_rng(n)
    series = FourierSeries.from_samples(rng.standard_normal((n, 2, 3)))
    assert np.max(np.abs(series.coef[n // 2])) > 1e-3  # nonzero Nyquist row
    period = 3.7
    interp = CycleInterpolant(series, period)
    for t in rng.uniform(-2.0 * period, 3.0 * period, 25):
        phase = np.exp((2j * np.pi / series.period) * series.k * (t / period))
        full = np.tensordot(phase, series.coef, axes=(0, 0)).real
        value = interp(t)
        assert value.shape == (2, 3)
        assert np.max(np.abs(value - full)) < 1e-13


@pytest.mark.parametrize("t0, t1", [(0.0, 5.0), (5.0, 0.0)])
def test_integrate_samples_equal_scalar_dense_loop(t0, t1):
    """Batched dense-output sampling is bitwise the one-time-at-a-time loop."""
    settings = IntegratorSettings()
    y0 = np.array([1.4, -0.2])
    times = np.random.default_rng(1).permutation(np.linspace(0.0, 5.0, 101))
    damped_rotation = np.array([[-0.1, 1.0], [-1.0, -0.1]])

    def fun(t, y):
        return damped_rotation @ y + np.sin(t)

    _, samples = _integrate(fun, t0, y0, t1, settings, t_eval=times)

    expected = np.full((len(times), 2), np.nan)
    expected[times == t0] = y0
    solver = DOP853(fun, t0, y0, t_bound=t1, rtol=settings.rtol, atol=settings.atol)
    while solver.status == "running":
        solver.step()
        dense = solver.dense_output()
        lo, hi = sorted((dense.t_min, dense.t_max))
        for i, t in enumerate(times):
            if np.isnan(expected[i, 0]) and lo <= t <= hi:
                expected[i] = dense(t)
    assert not np.isnan(expected).any()
    assert samples.tobytes() == expected.tobytes()
