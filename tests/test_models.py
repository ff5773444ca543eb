import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle_block import make_oracle_block
from slowphase import models
from slowphase.cli import main
from slowphase.config import RunConfig
from slowphase.errors import ConfigError, ModelError
from slowphase.integrate import CycleInterpolant
from slowphase.models import (
    EIParameters,
    VectorFieldModel,
    get_model,
    jet_compose,
    make_ei_model,
    make_oracle_model,
    register_model,
)
from slowphase.pipeline import Stage, run_pipeline
from slowphase.series import FourierSeries, theta_grid
from zoo import make_flat_model, make_reversed_oracle, make_twomax_model, make_van_der_pol


def random_bandlimited_expansion(rng, n, d, order, modes=4):
    """Grid values, shape (order+1, n, d), of a random real expansion with a
    few low harmonics per order."""
    orders = []
    theta = theta_grid(n)
    for _ in range(order + 1):
        vals = np.zeros((n, d))
        for k in range(modes):
            vals += rng.standard_normal(d) * np.cos(2 * np.pi * k * theta)[:, None]
            vals += rng.standard_normal(d) * np.sin(2 * np.pi * k * theta)[:, None]
        orders.append(vals)
    return np.stack(orders)


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


def ei_hand_jacobian(params: EIParameters):
    """The hand-written Jacobian rows of the network model, the reference
    for the rows the model derives from its field."""
    p = params
    pi = math.pi
    te, ti, tse, tsi = p.tau_e, p.tau_i, p.tau_se, p.tau_si
    ke = (pi * te) ** 2
    ki = (pi * ti) ** 2

    def rows(u):
        re, ve, sei, ri, vi, sie = u
        return (
            ((2.0 / te) * ve, (2.0 / te) * re, 0.0, 0.0, 0.0, 0.0),
            ((-2.0 * ke / te) * re, (2.0 / te) * ve, -1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, -1.0 / tsi, p.j_ei / tsi, 0.0, 0.0),
            (0.0, 0.0, 0.0, (2.0 / ti) * vi, (2.0 / ti) * ri, 0.0),
            (0.0, 0.0, 0.0, (-2.0 * ki / ti) * ri, (2.0 / ti) * vi, 1.0),
            (p.j_ie / tse, 0.0, 0.0, 0.0, 0.0, -1.0 / tse),
        )

    return rows


def oracle_hand_jacobian(u):
    """The hand-written Jacobian rows of the oracle."""
    x, y = u
    xx, yy, xy = x * x, y * y, x * y
    return (
        (1.0 - 3.0 * xx - yy, -1.0 - 2.0 * xy),
        (1.0 - 2.0 * xy, 1.0 - xx - 3.0 * yy),
    )


@pytest.mark.parametrize("name, reference", [
    ("ei", ei_hand_jacobian(EIParameters())), ("oracle", oracle_hand_jacobian),
], ids=["ei", "oracle"])
def test_derived_jacobian_matches_the_hand_reference(name, reference):
    """On 20,000 seeded states the derived Jacobian is the hand-written one
    to roundoff: each entry lies within two units in the last place of its
    matrix's peak |entry|, so within 4.5e-16 of the peak.  ``ei``'s entries
    are equal; the oracle sums 1 - 3 x^2 - y^2 in another order, and about
    a fifth of its entries differ."""
    model = get_model(name)
    x = np.random.default_rng(20).uniform(-2.0, 2.0, (20_000, model.dim))
    derived = model.jacobian(x)
    rows = reference(tuple(x[:, i] for i in range(model.dim)))
    hand = np.stack([np.stack(np.broadcast_arrays(*row, x[:, 0])[:-1], axis=-1)
                     for row in rows], axis=-2)
    peak = np.abs(hand).max(axis=(1, 2))
    gap = np.abs(derived - hand).max(axis=(1, 2))
    assert np.all(gap <= 2 * np.spacing(peak))
    assert np.all(gap <= 4.5e-16 * peak)


def test_a_model_states_its_field_alone():
    """The Jacobian is derived, so a second description cannot be written."""
    rhs = make_oracle_model().rhs
    with pytest.raises(TypeError):
        VectorFieldModel("oracle", 2, {}, ("x", "y"), rhs, oracle_hand_jacobian)
    with pytest.raises(TypeError):
        VectorFieldModel(name="oracle", dim=2, params={}, state_names=("x", "y"),
                         rhs=rhs, jac_rows=oracle_hand_jacobian)


def _sine_oracle(overrides):
    """The oracle plus 0 sin(x): the same field, in an operation tapes lack."""
    rhs = make_oracle_model().rhs

    def sine(u):
        x, y = rhs(u)
        return (x + 0.0 * np.sin(u[0]), y)

    return VectorFieldModel("sine_oracle", 2, {}, ("x", "y"), sine)


def _root_field(overrides):
    return VectorFieldModel("root", 2, {}, ("x", "y"), lambda u: (u[0] ** 0.5, -u[1]))


def _quotient_field(overrides):
    return VectorFieldModel("quotient", 2, {}, ("x", "y"), lambda u: (u[0] / u[1], -u[1]))


@pytest.mark.parametrize("name, factory, operation", [
    ("sine_oracle", _sine_oracle, "sin method"),
    ("root", _root_field, "integer"),
    ("quotient", _quotient_field, "divide only by a constant"),
], ids=["sine", "root", "quotient"])
def test_field_tapes_cannot_carry_is_refused_when_built(monkeypatch, name, factory, operation):
    """get_model refuses a field whose tape cannot be recorded, naming the
    model and the operation, before anything is integrated."""
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    register_model(name, factory)
    with pytest.raises(ModelError, match=f"'{name}' cannot be composed with a jet.*{operation}"):
        get_model(name)


def test_field_tapes_cannot_carry_exits_3_before_writing(monkeypatch, tmp_path, capsys):
    """``slowphase run`` on the oracle plus 0 sin(x) is refused when the
    model is built: exit 3, and no output directory is made."""
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    register_model("sine_oracle", _sine_oracle)
    out = tmp_path / "out"
    cfg = tmp_path / "sine.cfg"
    cfg.write_text(
        "model.name = sine_oracle\n"
        "cycle.guess = 1.3, 0.0\n"
        "cycle.grid_N = 128\n"
        f"output.directory = {out}\n"
    )
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 3
    assert "'sine_oracle' cannot be composed with a jet" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "name, value",
    [("tau_e", math.nan), ("eta_e", math.nan), ("tau_e", math.inf),
     ("delta_e", math.inf), ("j_ei", -math.inf)],
)
def test_ei_non_finite_parameter_rejected(name, value):
    # NaN passes a `<= 0` test; a non-finite parameter makes a NaN field
    with pytest.raises(ConfigError, match=f"model.params.{name}"):
        make_ei_model(EIParameters(**{name: value}))


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


ZOO = {
    "ei": make_ei_model,
    "oracle": make_oracle_model,
    "vdp": lambda: make_van_der_pol({}),
    "twomax": make_twomax_model,
    "oracle_block": lambda: make_oracle_block({}),
    "flat": make_flat_model,
    "reversed": make_reversed_oracle,
}


@pytest.mark.parametrize("name", list(ZOO))
def test_finite_difference_jacobian_agreement(name):
    """Derived Jacobian vs finite differences, with quadratic remainders."""
    model = ZOO[name]()
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


@pytest.fixture
def vdp(monkeypatch):
    """The van der Pol oscillator, registered as a user model."""
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    register_model("vdp", make_van_der_pol)


@pytest.mark.parametrize("name", ["ei", "oracle", "vdp"])
def test_single_state_matches_batch_of_one(name, vdp):
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


def _layout(values, layout):
    """One float64 state of ``values`` in the memory layout ``layout``."""
    values = np.asarray(values, dtype=float)
    if layout == "contiguous":
        return values.copy()
    if layout == "complex_real":  # stride 16, a view of a complex array
        return (values + 1j).real
    if layout == "every_other":
        return np.repeat(values, 2)[::2]
    # a cycle point as CycleInterpolant returns it, a new contiguous array
    rng = np.random.default_rng(len(values))
    samples = values + 1e-3 * rng.standard_normal((8, len(values)))
    return CycleInterpolant(FourierSeries.from_samples(samples), 1.0)(0.37)


# the function-scoped fixture only registers a model; no example changes it
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(["ei", "oracle", "vdp"]),
    values=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    layout=st.sampled_from(["contiguous", "complex_real", "every_other", "interpolant"]),
)
def test_point_closures_equal_eval_bitwise(vdp, name, values, layout):
    """The integrators' point closures are bitwise ``eval`` and ``jacobian``
    on every layout, strided views included, and each call returns a new
    array."""
    model = get_model(name)
    x = _layout(values[: model.dim], layout)
    assert x.shape == (model.dim,) and x.dtype == np.float64
    # the strided layouts are views; the interpolant's point is contiguous
    assert x.flags.c_contiguous == (layout in ("contiguous", "interpolant"))
    contiguous = np.ascontiguousarray(x)
    for closure, method in ((model.point_field(), model.eval),
                            (model.point_jacobian(), model.jacobian)):
        first = closure(x)
        assert first.dtype == np.float64
        assert first.tobytes() == method(x).tobytes()
        assert first.tobytes() == method(contiguous).tobytes()
        assert first.tobytes() == method(contiguous[None])[0].tobytes()
        second = closure(x)
        assert second is not first and not np.shares_memory(first, second)
        assert not np.shares_memory(first, x)
        expected = first.copy()
        first[...] = np.nan
        assert closure(x).tobytes() == expected.tobytes()


def test_batched_evaluation_shapes():
    model = make_ei_model()
    batch = np.random.default_rng(0).standard_normal((7, 6))
    assert model.eval(batch).shape == (7, 6)
    assert model.jacobian(batch).shape == (7, 6, 6)


def test_jet_compose_order0_is_bitwise_pointwise_eval():
    # the composed grid values go through the same arithmetic as pointwise
    # evaluation
    model = make_ei_model()
    rng = np.random.default_rng(1)
    arg = random_bandlimited_expansion(rng, 64, 6, order=0)
    jet = jet_compose(model, arg, "field")
    direct = model.eval(arg[0])
    assert np.array_equal(jet[0], direct)


def test_jet_compose_rejects_mismatched_dimension():
    model = make_ei_model()
    rng = np.random.default_rng(2)
    arg = random_bandlimited_expansion(rng, 32, 2, order=1)
    with pytest.raises(ModelError):
        jet_compose(model, arg, "field")
    with pytest.raises(ModelError):
        jet_compose(model, random_bandlimited_expansion(rng, 32, 6, 1), "bogus")


def jacobian_transpose_jet(model, k_orders):
    """The jet of DX^T along ``k_orders``, shape (L+1, N, d, d), read off the
    adjoint action: with z = e_b at order 0 alone, order n of -DX^T z is
    minus column b of the order-n coefficient."""
    order, n_grid, d = k_orders.shape
    out = np.empty((order, n_grid, d, d))
    for b in range(d):
        stack = np.zeros((order, n_grid, 2 * d))
        stack[:, :, :d] = k_orders
        stack[0, :, d + b] = 1.0
        out[..., b] = -jet_compose(model, stack, "adjoint_action")
    return out


def test_ei_jacobian_transpose_jet_matches_analytic():
    params = EIParameters()
    model = make_ei_model(params)
    rng = np.random.default_rng(3)
    k_orders = random_bandlimited_expansion(rng, 64, 6, order=5)
    computed = jacobian_transpose_jet(model, k_orders)
    analytic = ei_jacobian_transpose_orders(params, k_orders)
    assert np.max(np.abs(computed - analytic)) < 1e-12
    # coupling entry (synapse row, voltage column) vanishes beyond order 0
    assert np.max(np.abs(computed[1:, :, 2, 1])) == 0.0
    assert np.max(np.abs(computed[0, :, 2, 1] + 1.0)) < 1e-15


def oracle_jacobian_transpose_orders(k_orders):
    """The oracle's DX^T jet: its hand-written rows on the dense reference
    jets of ``Jet``."""
    rows = oracle_hand_jacobian(tuple(Jet(k_orders[:, :, i]) for i in range(2)))
    out = np.zeros(k_orders.shape + (2,))
    for a in range(2):
        for b in range(2):
            entry = rows[b][a]
            out[:, :, a, b] = entry.values if isinstance(entry, Jet) else 0.0
    return out


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["ei", "oracle"]),
    order=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_action_is_the_convolution_with_the_jacobian_jet(name, order, seed):
    """Order n of the adjoint-action transport is -sum_m F_m z_(n-m), and
    filling order n with z_n = 0 gives minus the driving term
    G_n = sum_(i<n) F_(n-i) z_i."""
    rng = np.random.default_rng(seed)
    model = get_model(name)
    d = model.dim
    k_orders = random_bandlimited_expansion(rng, 32, d, order)
    z = random_bandlimited_expansion(rng, 32, d, order)
    if name == "ei":
        f = ei_jacobian_transpose_orders(EIParameters(), k_orders)
    else:
        f = oracle_jacobian_transpose_orders(k_orders)

    def convolution(n, last):
        """sum_(i <= last) F_(n-i) z_i"""
        total = np.zeros((32, d))
        for i in range(last + 1):
            total += np.einsum("nab,nb->na", f[n - i], z[i])
        return total

    stack = np.concatenate([k_orders, z], axis=2)
    got = jet_compose(model, stack, "adjoint_action")
    transport = models.JetTransport(model, stack.copy(), "adjoint_action")
    for n in range(order + 1):
        peak = np.max(np.abs(convolution(n, n)))
        assert np.max(np.abs(got[n] + convolution(n, n))) <= 1e-12 * peak, f"order {n}"
        # order n with z_n = 0, then with z_n written
        transport.orders[n, :, d:] = 0.0
        transport.fill(n)
        g_n = convolution(n, n - 1)
        assert np.max(np.abs(transport.out[n] + g_n)) <= 1e-12 * peak, f"G_{n}"
        transport.orders[n, :, d:] = z[n]
        transport.fill(n)
    assert transport.result().tobytes() == got.tobytes()


def _shared_scaling_model():
    """A planar field whose Jacobian reads one node, d(x * x)/dx, in two
    entries."""

    def rhs(u):
        x, y = u
        return (x * x + y, x * x - 1.5 * (y * y))

    return VectorFieldModel(name="shared", dim=2, params={}, state_names=("x", "y"),
                            rhs=rhs)


@pytest.mark.parametrize("model, negations", [
    (make_ei_model(), 6), (make_oracle_model(), 2), (_shared_scaling_model(), 2),
], ids=["ei", "oracle", "shared"])
def test_adjoint_action_folds_its_sign_exactly(model, negations):
    """The sign of -DX^T is one negation node per entry, applied to the
    entry's sum, so it is exact; the Jacobian's constants and scalings keep
    their signs.  Order 0 is bitwise -(sum_b z_b dX_b/dx_a), summed in
    increasing b over the nonzero entries."""
    d = model.dim
    rng = np.random.default_rng(11)
    stack = random_bandlimited_expansion(rng, 16, 2 * d, 2)
    transport = models.JetTransport(model, stack, "adjoint_action")
    assert sum(kind == models._NEG for kind, _, _ in transport._ops) == negations
    transport.fill(0)
    u, z = stack[0, :, :d], stack[0, :, d:]
    jac = model.jacobian(u)
    expected = np.empty_like(u)
    for a in range(d):
        total = z[:, 0] * jac[:, 0, a]
        for b in range(1, d):
            if np.any(jac[:, b, a] != 0):
                total = total + z[:, b] * jac[:, b, a]
        expected[:, a] = -total
    assert transport.out[0].tobytes() == expected.tobytes()


def test_oracle_field_jet_matches_hand_expansion():
    """X((1+s) cos, (1+s) sin): expand the cubic terms by hand."""
    model = make_oracle_model()
    n = 64
    theta = theta_grid(n)
    c, s = np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)
    orders = np.zeros((3, n, 2))
    orders[0] = np.stack([c, s], axis=1)
    orders[1] = np.stack([c, s], axis=1)
    jet = jet_compose(model, orders, "field")
    # r^2 = (1+s)^2, X = ((1+s)c - (1+s)s_ - (1+s)^3 c, ...): order-1 coefficient
    # of x-component: c - s_ - 3c; y-component: c + s_ - 3s_
    expect1 = np.stack([c - s - 3.0 * c, c + s - 3.0 * s], axis=1)
    got1 = jet[1]
    assert np.max(np.abs(got1 - expect1)) < 1e-13
    # order-2 coefficient comes only from the cubic: -3 (c, s)
    expect2 = np.stack([-3.0 * c, -3.0 * s], axis=1)
    got2 = jet[2]
    assert np.max(np.abs(got2 - expect2)) < 1e-13


class Jet:
    """Reference jet: all orders at once, products by the dense double loop.

    ``values`` has shape (L+1, *grid_shape); scalars and arrays are order-0
    terms.  Jet transport must equal this arithmetic bit for bit.
    """

    def __init__(self, values):
        self.values = np.asarray(values)

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        out = np.zeros(self.values.shape, dtype=np.result_type(other, float))
        out[0] = other
        return Jet(out)

    def __add__(self, other):
        return Jet(self.values + self._coerce(other).values)

    __radd__ = __add__

    def __sub__(self, other):
        return Jet(self.values - self._coerce(other).values)

    def __rsub__(self, other):
        return Jet(self._coerce(other).values - self.values)

    def __neg__(self):
        return Jet(-self.values)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.values * other)
        out = np.zeros_like(self.values)
        for n in range(len(out)):
            for m in range(n + 1):
                out[n] += self.values[m] * other.values[n - m]
        return Jet(out)

    def __rmul__(self, other):
        return Jet(self.values * other)

    def __truediv__(self, scalar):
        return Jet(self.values / scalar)

    def __pow__(self, exponent):
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


def run_program(program, n_outputs, constant_output):
    """A polynomial closure: each instruction appends one register to the
    state components; the last ``n_outputs`` registers are returned."""

    def closure(u):
        regs = list(u)
        for op, i, j, c, p in program:
            x, y = regs[i % len(regs)], regs[j % len(regs)]
            if op == "add":
                r = x + y
            elif op == "sub":
                r = x - y
            elif op == "neg":
                r = -x
            elif op == "add_c":
                r = x + c
            elif op == "c_add":
                r = c + x
            elif op == "sub_c":
                r = x - c
            elif op == "c_sub":
                r = c - x
            elif op == "scale_c":
                r = x * c
            elif op == "c_scale":
                r = c * x
            elif op == "div_c":
                r = x / (c if c != 0 else 3.0)
            elif op == "mul":
                r = x * y  # i == j repeats the operand
            else:
                r = x**p
            regs.append(r)
        out = tuple(regs[-n_outputs:])
        return out + (constant_output,) if constant_output is not None else out

    return closure


OPS = ("add", "sub", "neg", "add_c", "c_add", "sub_c", "c_sub",
       "scale_c", "c_scale", "div_c", "mul", "pow")
SCALARS = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0), st.sampled_from([0.0, -0.0, 2])
)


@settings(max_examples=150, deadline=None)
@given(
    program=st.lists(
        st.tuples(
            st.sampled_from(OPS), st.integers(0, 40), st.integers(0, 40),
            SCALARS, st.integers(1, 4),
        ),
        min_size=1, max_size=12,
    ),
    dim=st.integers(1, 3),
    order=st.integers(0, 6),
    grid=st.sampled_from([1, 2, 8]),
    n_outputs=st.integers(1, 3),
    constant_output=st.one_of(st.none(), SCALARS),
    seed=st.integers(0, 2**32 - 1),
)
def test_tape_equals_dense_cauchy_products(
    program, dim, order, grid, n_outputs, constant_output, seed
):
    rng = np.random.default_rng(seed)
    orders = rng.uniform(-2.0, 2.0, (order + 1, grid, dim))
    # signed zeros: sums from 0.0 must keep the reference's zero signs
    orders[rng.random(orders.shape) < 0.2] = 0.0
    orders[rng.random(orders.shape) < 0.2] = -0.0
    closure = run_program(program, n_outputs, constant_output)
    model = VectorFieldModel(
        name="program", dim=dim, params={},
        state_names=tuple(f"x{i}" for i in range(dim)),
        rhs=closure,
    )
    with np.errstate(all="ignore"):  # deep powers may overflow alike
        outputs = closure(tuple(Jet(orders[:, :, i]) for i in range(dim)))
        got = jet_compose(model, orders, "field")
    expected = []
    for entry in outputs:
        if isinstance(entry, Jet):
            expected.append(entry.values)
        else:
            column = np.zeros((order + 1, grid), dtype=orders.dtype)
            column[0] = entry
            expected.append(column)
    expected = np.stack(expected, axis=-1)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    for n in range(order + 1):
        assert got[n].tobytes() == expected[n].tobytes(), f"order {n}"


def _same_bits(x, y):
    """Same dtype and value bits; longdouble compares its values and zero
    signs, since its padding bytes are not part of the number."""
    if x.dtype != y.dtype:
        return False
    if x.dtype != np.longdouble:
        return x.tobytes() == y.tobytes()
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@settings(max_examples=200, deadline=None)
@given(
    # one-point and short grids are where a reduction may change its order
    grid=st.sampled_from([1, 2, 3]) | st.integers(1, 64),
    order=st.sampled_from([0, 7, 8, 24]) | st.integers(0, 24),
    dtype=st.sampled_from([np.float64, np.complex128, np.longdouble]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_cauchy_sum_is_the_ordered_loop(grid, order, dtype, seed):
    """Order n of a jet product is ``0.0 + a_0 b_n + a_1 b_(n-1) + ...``,
    added left to right, bit for bit: on every grid length, the one-point
    grid included, and for double, complex and extended precision, with
    signed zeros and subnormals among the values."""
    rng = np.random.default_rng(seed)
    shape = (order + 1, grid)

    def draw():
        values = rng.uniform(-2.0, 2.0, shape)
        special = rng.choice([0.0, -0.0, 5e-324, -5e-324], shape)
        return np.where(rng.random(shape) < 0.4, special, values)

    a, b = np.empty(shape, dtype), np.empty(shape, dtype)
    for x in (a, b):
        x.real = draw()  # part by part, so the zeros keep their signs
        if dtype is np.complex128:
            x.imag = draw()
    model = VectorFieldModel(
        name="product", dim=2, params={}, state_names=("a", "b"),
        rhs=lambda u: (u[0] * u[1],),
    )
    got = jet_compose(model, np.stack([a, b], axis=-1), "field")[..., 0]
    for n in range(order + 1):
        expected = 0.0 + a[0] * b[n]
        for m in range(1, n + 1):
            expected += a[m] * b[n - m]
        assert _same_bits(got[n], expected), f"order {n}"


def make_int64_power_oracle(overrides):
    """The oracle written with numpy-integer powers."""
    two = np.int64(2)

    def rhs(u):
        x, y = u
        r2 = x**two + y**two
        return (x - y - r2 * x, x + y - r2 * y)

    return VectorFieldModel(
        name="int64_oracle", dim=2, params={}, state_names=("x", "y"), rhs=rhs,
    )


def test_numpy_integer_power_composes(monkeypatch, tmp_path):
    # an int-like exponent that model.eval accepts was refused by jet
    # transport, so the manifold stage of such a model failed
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    register_model("int64_oracle", make_int64_power_oracle)
    model = get_model("int64_oracle")
    arg = random_bandlimited_expansion(np.random.default_rng(8), 64, 2, order=3)
    for mode, a in (("field", arg), ("adjoint_action", np.concatenate([arg, arg], axis=2))):
        jet = jet_compose(model, a, mode)
        assert jet.shape == (4, 64, 2)
    field = jet_compose(model, arg, "field")
    assert np.array_equal(field[0], model.eval(arg[0]))
    # x ** 2 is the product x * x, as in the oracle
    assert field.tobytes() == jet_compose(make_oracle_model(), arg, "field").tobytes()
    config = RunConfig(
        model="int64_oracle", guess=(1.3, 0.0), relax_time=20.0, grid_size=128,
        order=4, out_dir=str(tmp_path),
    )
    result = run_pipeline(config, through=Stage.MANIFOLD)
    assert np.all(result.manifold.residuals < 1e-9)


@pytest.mark.parametrize("exponent", [2.0, np.float64(2.0), 0.5, 0, -1])
def test_non_integral_or_non_positive_power_is_model_error(exponent):
    # refused when the model is built, as every field tapes cannot carry
    with pytest.raises(ModelError, match="'power' cannot be composed with a jet"):
        VectorFieldModel(
            name="power", dim=1, params={}, state_names=("x",),
            rhs=lambda u: (u[0] ** exponent,),
        )
