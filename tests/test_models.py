import math

import numpy as np
import pytest

from slowphase import models
from slowphase.errors import ConfigError, ModelError
from slowphase.models import (
    EIParameters,
    VectorFieldModel,
    get_model,
    jet_compose,
    make_ei_model,
    make_oracle_model,
    register_model,
)
from slowphase.series import FourierSeries, FourierTaylor, theta_grid


def random_bandlimited_expansion(rng, n, d, order, modes=4, period=1.0):
    """Random real expansion with a few low harmonics per order."""
    orders = []
    theta = theta_grid(n, period)
    for _ in range(order + 1):
        vals = np.zeros((n, d))
        for k in range(modes):
            vals += rng.standard_normal(d) * np.cos(
                2 * np.pi * k * theta / period
            )[:, None]
            vals += rng.standard_normal(d) * np.sin(
                2 * np.pi * k * theta / period
            )[:, None]
        orders.append(FourierSeries.from_samples(vals, period))
    return FourierTaylor(tuple(orders))


def ei_jacobian_transpose_orders(params: EIParameters, k_orders):
    """Analytic transposed-Jacobian expansion for the network model.

    Independent oracle: every entry is linear in the state, so order n is
    assembled directly from the order-n coefficient of the expansion (the
    constant entries appear only at order 0).
    """
    p = params
    pi = math.pi
    L = len(k_orders) - 1
    n_grid = k_orders[0].shape[0]
    out = np.zeros((L + 1, n_grid, 6, 6))
    for n in range(L + 1):
        re, ve, sei, ri, vi, sie = (k_orders[n][:, i] for i in range(6))
        delta = 1.0 if n == 0 else 0.0
        f = np.zeros((n_grid, 6, 6))
        f[:, 0, 0] = 2.0 / p.tau_e * ve
        f[:, 0, 1] = -2.0 * p.tau_e * pi**2 * re
        f[:, 0, 5] = delta * p.j_ie / p.tau_se
        f[:, 1, 0] = 2.0 / p.tau_e * re
        f[:, 1, 1] = 2.0 / p.tau_e * ve
        f[:, 2, 1] = -delta
        f[:, 2, 2] = delta * (-1.0 / p.tau_si)
        f[:, 3, 2] = delta * p.j_ei / p.tau_si
        f[:, 3, 3] = 2.0 / p.tau_i * vi
        f[:, 3, 4] = -2.0 * p.tau_i * pi**2 * ri
        f[:, 4, 3] = 2.0 / p.tau_i * ri
        f[:, 4, 4] = 2.0 / p.tau_i * vi
        f[:, 5, 4] = delta
        f[:, 5, 5] = delta * (-1.0 / p.tau_se)
        out[n] = f
    return out


def test_ei_field_at_origin():
    model = make_ei_model()
    x = model.eval(np.zeros(6))
    assert x[0] == pytest.approx(1.0 / (100.0 * math.pi))
    assert x[3] == pytest.approx(1.0 / (100.0 * math.pi))


def test_ei_jacobian_coupling_entries():
    # the synapse coupling enters the voltage equation with coefficient -1:
    # the time constant multiplying the synaptic term cancels against the
    # equation's own time constant
    model = make_ei_model()
    jac = model.jacobian(np.zeros(6))
    assert jac[1, 2] == pytest.approx(-1.0)
    assert jac[4, 5] == pytest.approx(1.0)
    assert jac[2, 3] == pytest.approx(15.0)  # j_ei / tau_si
    assert jac[5, 0] == pytest.approx(15.0)


def test_ei_parameter_validation():
    with pytest.raises(ConfigError, match="model.params.tau_e"):
        make_ei_model(EIParameters(tau_e=0.0))
    with pytest.raises(ConfigError, match="model.params.delta_i"):
        make_ei_model(EIParameters(delta_i=-1.0))
    with pytest.raises(ConfigError, match="model.params.no_such_param"):
        get_model("ei", {"no_such_param": 1.0})
    with pytest.raises(ConfigError, match="model.params.x"):
        get_model("oracle", {"x": 1.0})
    with pytest.raises(ConfigError, match="'bogus'"):
        get_model("bogus")


def test_oracle_on_cycle_values():
    model = make_oracle_model()
    assert np.allclose(model.eval(np.array([1.0, 0.0])), [0.0, 1.0])
    # radial contraction rate at the cycle: d/dr [r - r^3] at r=1 is -2
    jac = model.jacobian(np.array([1.0, 0.0]))
    assert jac[0, 0] == pytest.approx(-2.0)


@pytest.mark.parametrize("name", ["ei", "oracle"])
def test_finite_difference_jacobian_agreement(name):
    """Analytic Jacobian vs finite differences, with quadratic remainders."""
    model = get_model(name)
    rng = np.random.default_rng(42)
    worst_ratio = 0.0
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, size=model.dim)
        # entrywise central-difference comparison at relative 1e-6
        jac = model.jacobian(x)
        fd = np.zeros_like(jac)
        eps = 1e-6
        for b in range(model.dim):
            e = np.zeros(model.dim)
            e[b] = eps
            fd[:, b] = (model.eval(x + e) - model.eval(x - e)) / (2 * eps)
        scale = np.maximum(np.abs(jac), 1.0)
        assert np.max(np.abs(fd - jac) / scale) < 1e-6
        # one-sided remainder scales quadratically in the step
        h = rng.standard_normal(model.dim)
        h /= np.linalg.norm(h)
        errs = []
        for step in (1e-3, 5e-4, 2.5e-4):
            diff = model.eval(x + step * h) - model.eval(x)
            errs.append(np.linalg.norm(diff - step * (jac @ h)))
        if errs[0] > 1e-12:  # above roundoff, halving should quarter it
            worst_ratio = max(worst_ratio, errs[1] / errs[0], errs[2] / errs[1])
    assert worst_ratio < 0.3


def make_pendulum_model():
    """Damped pendulum: a user model whose closures call np.sin / np.cos."""

    def rhs(u):
        x, y = u
        return (y, -np.sin(x) - 0.5 * y)

    def jac_rows(u):
        x, y = u
        return ((0.0, 1.0), (-np.cos(x), -0.5))

    return VectorFieldModel(
        name="pendulum",
        dim=2,
        params={},
        state_names=("x", "y"),
        rhs=rhs,
        jac_rows=jac_rows,
    )


@pytest.fixture
def pendulum(monkeypatch):
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    register_model("pendulum", lambda overrides: make_pendulum_model())
    return get_model("pendulum")


@pytest.mark.parametrize("name", ["ei", "oracle", "pendulum"])
def test_single_state_matches_batch_of_one(name, pendulum):
    model = get_model(name)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=model.dim)
        field, jac = model.eval(x), model.jacobian(x)
        assert field.dtype == np.float64 and field.shape == (model.dim,)
        assert jac.dtype == np.float64 and jac.shape == (model.dim, model.dim)
        # bitwise: the single-state path does the same IEEE operations
        assert np.array_equal(field, model.eval(x[None])[0])
        assert np.array_equal(jac, model.jacobian(x[None])[0])
    for wrong in (np.zeros(model.dim + 1), 1.0):
        with pytest.raises(ModelError):
            model.eval(wrong)
        with pytest.raises(ModelError):
            model.jacobian(wrong)


def test_jet_compose_unsupported_operation_is_model_error(pendulum):
    rng = np.random.default_rng(4)
    arg = random_bandlimited_expansion(rng, 32, 2, order=2)
    # the message names the model and, through numpy's, the ufunc
    for mode, ufunc in (("field", "sin"), ("jacobian_transpose", "cos")):
        with pytest.raises(ModelError, match=f"'pendulum'.*{ufunc} method"):
            jet_compose(pendulum, arg, mode)


def test_batched_evaluation_shapes():
    model = make_ei_model()
    batch = np.random.default_rng(0).standard_normal((7, 6))
    assert model.eval(batch).shape == (7, 6)
    assert model.jacobian(batch).shape == (7, 6, 6)


def test_jet_compose_order0_is_bitwise_pointwise_eval():
    # the composed grid values go through the same arithmetic as pointwise
    # evaluation; compare through an identical analysis/synthesis round trip
    model = make_ei_model()
    rng = np.random.default_rng(1)
    arg = random_bandlimited_expansion(rng, 64, 6, order=0)
    jet = jet_compose(model, arg, "field")
    direct = model.eval(arg.order_series(0).samples().real)
    direct_round = FourierSeries.from_samples(direct).samples()
    assert np.array_equal(jet.order_series(0).samples(), direct_round)


def test_jet_compose_rejects_mismatched_dimension():
    model = make_ei_model()
    rng = np.random.default_rng(2)
    arg = random_bandlimited_expansion(rng, 32, 2, order=1)
    with pytest.raises(ModelError):
        jet_compose(model, arg, "field")
    with pytest.raises(ModelError):
        jet_compose(model, random_bandlimited_expansion(rng, 32, 6, 1), "bogus")


def test_ei_jacobian_transpose_jet_matches_analytic():
    params = EIParameters()
    model = make_ei_model(params)
    rng = np.random.default_rng(3)
    arg = random_bandlimited_expansion(rng, 64, 6, order=5)
    jet = jet_compose(model, arg, "jacobian_transpose")
    k_orders = arg.order_samples().real
    analytic = ei_jacobian_transpose_orders(params, k_orders)
    computed = jet.order_samples().real
    assert np.max(np.abs(computed - analytic)) < 1e-12
    # coupling entry (synapse row, voltage column) vanishes beyond order 0
    assert np.max(np.abs(computed[1:, :, 2, 1])) == 0.0
    assert np.max(np.abs(computed[0, :, 2, 1] + 1.0)) < 1e-15


def test_oracle_field_jet_matches_hand_expansion():
    """X((1+s) cos, (1+s) sin): expand the cubic terms by hand."""
    model = make_oracle_model()
    n = 64
    theta = theta_grid(n)
    c, s = np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)
    orders = np.zeros((3, n, 2))
    orders[0] = np.stack([c, s], axis=1)
    orders[1] = np.stack([c, s], axis=1)
    arg = FourierTaylor.from_order_samples(orders)
    jet = jet_compose(model, arg, "field")
    # r^2 = (1+s)^2, X = ((1+s)c - (1+s)s_ - (1+s)^3 c, ...): order-1 coefficient
    # of x-component: c - s_ - 3c; y-component: c + s_ - 3s_
    expect1 = np.stack([c - s - 3.0 * c, c + s - 3.0 * s], axis=1)
    got1 = jet.order_series(1).samples().real
    assert np.max(np.abs(got1 - expect1)) < 1e-13
    # order-2 coefficient comes only from the cubic: -3 (c, s)
    expect2 = np.stack([-3.0 * c, -3.0 * s], axis=1)
    got2 = jet.order_series(2).samples().real
    assert np.max(np.abs(got2 - expect2)) < 1e-13
