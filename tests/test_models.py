import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowphase import models
from slowphase.config import RunConfig
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
from slowphase.pipeline import Stage, run_pipeline
from slowphase.series import theta_grid


def random_bandlimited_expansion(rng, n, d, order, modes=4, period=1.0):
    """Grid values, shape (order+1, n, d), of a random real expansion with a
    few low harmonics per order."""
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


def test_ei_jacobian_transpose_jet_matches_analytic():
    params = EIParameters()
    model = make_ei_model(params)
    rng = np.random.default_rng(3)
    k_orders = random_bandlimited_expansion(rng, 64, 6, order=5)
    computed = jet_compose(model, k_orders, "jacobian_transpose")
    analytic = ei_jacobian_transpose_orders(params, k_orders)
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
        rhs=closure, jac_rows=None,
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


def make_int64_power_oracle(overrides):
    """The oracle written with numpy-integer powers."""
    two = np.int64(2)

    def rhs(u):
        x, y = u
        r2 = x**two + y**two
        return (x - y - r2 * x, x + y - r2 * y)

    def jac_rows(u):
        x, y = u
        return (
            (1.0 - 3.0 * x**two - y**two, -1.0 - 2.0 * x * y),
            (1.0 - 2.0 * x * y, 1.0 - x**two - 3.0 * y**two),
        )

    return VectorFieldModel(
        name="int64_oracle", dim=2, params={}, state_names=("x", "y"),
        rhs=rhs, jac_rows=jac_rows,
    )


def test_numpy_integer_power_composes(monkeypatch, tmp_path):
    # an int-like exponent that model.eval accepts was refused by jet
    # transport, so the manifold stage of such a model failed
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    register_model("int64_oracle", make_int64_power_oracle)
    model = get_model("int64_oracle")
    arg = random_bandlimited_expansion(np.random.default_rng(8), 64, 2, order=3)
    for mode in ("field", "jacobian_transpose"):
        jet = jet_compose(model, arg, mode)
        assert jet.shape[:2] == (4, 64)
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
    model = VectorFieldModel(
        name="power", dim=1, params={}, state_names=("x",),
        rhs=lambda u: (u[0] ** exponent,), jac_rows=None,
    )
    arg = np.ones((2, 8, 1))
    with pytest.raises(ModelError, match="'power' cannot be composed with a jet"):
        jet_compose(model, arg, "field")
