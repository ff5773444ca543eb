"""Analytic vector fields: evaluation, Jacobians, and jet composition.

A model is defined by two closures written in plain arithmetic on the state
components, so the same code serves every kind of component it is given:
Python floats for one state, numpy arrays for a batch of states, and
symbolic components for Taylor transport in the amplitude variable.  Called
once on symbolic components, a closure records its operations on a tape;
:class:`JetTransport` evaluates the tape on grid values one sigma-order at a
time, so a recursion that needs order n of the composed field pays for
order n alone, and :func:`jet_compose` fills every order.  Both built-in
models are polynomial, hence add/multiply/integer powers are the only
operations required; user models registered through :func:`register_model`
may use the same protocol.  Jet transport supports only ``+``, ``-``, ``*``,
division by a constant and positive integral powers (any ``int``-like
exponent, ``np.int64`` included); anything else (a numpy ufunc such as
``np.sin``, a fractional or float power) makes :func:`jet_compose` raise
:class:`~slowphase.errors.ModelError`.

Built-ins:

* ``"ei"`` -- the 6-dimensional excitatory/inhibitory mean-field network
  with state order (r_e, V_e, S_ei, r_i, V_i, S_ie).
* ``"oracle"`` -- a 2-dimensional radial oscillator with closed-form cycle,
  isochrons, and amplitude map, used as an independent test oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ModelError

__all__ = [
    "VectorFieldModel",
    "EIParameters",
    "make_ei_model",
    "make_oracle_model",
    "get_model",
    "register_model",
    "JetTransport",
    "jet_compose",
]


@dataclass(frozen=True)
class VectorFieldModel:
    """Immutable autonomous vector field with analytic Jacobian.

    ``rhs`` maps a sequence of d state components to d components of the
    field; ``jac_rows`` returns the d x d nested rows of the Jacobian
    (entry [a][b] = d X_a / d x_b).  Entries may be scalars for constant
    terms; they are broadcast as needed.
    """

    name: str
    dim: int
    params: dict
    state_names: tuple
    rhs: callable
    jac_rows: callable

    def eval(self, x) -> np.ndarray:
        """Evaluate X(x); supports batches with the state on the last axis.

        One real state (shape (d,), float64) is passed to the closures as
        Python floats, which skips numpy's per-component dispatch; the
        arithmetic, hence every bit of the result, is the same.
        """
        x = np.asarray(x)
        if x.shape[-1:] != (self.dim,):
            raise ModelError(f"state shape {x.shape} does not end in model dim {self.dim}")
        if x.ndim == 1 and x.dtype == np.float64:
            return np.array(self.rhs(tuple(x.tolist())), dtype=float)
        comps = tuple(x[..., i] for i in range(self.dim))
        out = self.rhs(comps)
        return np.stack(np.broadcast_arrays(*out), axis=-1)

    def jacobian(self, x) -> np.ndarray:
        """Evaluate DX(x); shape (..., d, d)."""
        x = np.asarray(x)
        if x.shape[-1:] != (self.dim,):
            raise ModelError(f"state shape {x.shape} does not end in model dim {self.dim}")
        if x.ndim == 1 and x.dtype == np.float64:
            return np.array(self.jac_rows(tuple(x.tolist())), dtype=float)
        comps = tuple(x[..., i] for i in range(self.dim))
        rows = self.jac_rows(comps)
        base = x[..., 0]
        flat = [np.broadcast_to(np.asarray(e, dtype=float), base.shape)
                for row in rows for e in row]
        stacked = np.stack(flat, axis=-1)
        return stacked.reshape(*base.shape, self.dim, self.dim)


@dataclass(frozen=True)
class EIParameters:
    """Parameters of the excitatory/inhibitory mean-field network.

    Defaults are the reference operating point at which the network has a
    hyperbolic attracting limit cycle.
    """

    tau_e: float = 10.0
    tau_i: float = 10.0
    tau_se: float = 1.0
    tau_si: float = 1.0
    delta_e: float = 1.0
    delta_i: float = 1.0
    eta_e: float = -5.0
    eta_i: float = -5.0
    j_ei: float = 15.0
    j_ie: float = 15.0
    i_e_ext: float = 10.0
    i_i_ext: float = 0.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"model.params.{f.name} must be a finite number, got {value!r}"
                )
        for name in ("tau_e", "tau_i", "tau_se", "tau_si"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"model.params.{name}: time constant must be positive"
                )
        for name in ("delta_e", "delta_i"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"model.params.{name}: spread parameter must be positive"
                )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def make_ei_model(params: EIParameters | None = None) -> VectorFieldModel:
    """Build the 6D mean-field network model.

    State order is (r_e, V_e, S_ei, r_i, V_i, S_ie).  All right-hand sides
    are polynomial in the state, so the analytic Jacobian rows are linear in
    the state and jet composition is exact.
    """
    p = params or EIParameters()
    p.validate()
    pi = math.pi
    te, ti, tse, tsi = p.tau_e, p.tau_i, p.tau_se, p.tau_si
    ce = p.delta_e / (pi * te * te)
    ci = p.delta_i / (pi * ti * ti)
    ke = (pi * te) ** 2
    ki = (pi * ti) ** 2

    def rhs(u):
        re, ve, sei, ri, vi, sie = u
        d_re = ce + (2.0 / te) * (re * ve)
        d_ve = (ve * ve + p.eta_e - ke * (re * re) - te * sei + p.i_e_ext) * (1.0 / te)
        d_sei = (-1.0 / tsi) * sei + (p.j_ei / tsi) * ri
        d_ri = ci + (2.0 / ti) * (ri * vi)
        d_vi = (vi * vi + p.eta_i - ki * (ri * ri) + ti * sie + p.i_i_ext) * (1.0 / ti)
        d_sie = (-1.0 / tse) * sie + (p.j_ie / tse) * re
        return (d_re, d_ve, d_sei, d_ri, d_vi, d_sie)

    def jac_rows(u):
        re, ve, sei, ri, vi, sie = u
        return (
            ((2.0 / te) * ve, (2.0 / te) * re, 0.0, 0.0, 0.0, 0.0),
            ((-2.0 * ke / te) * re, (2.0 / te) * ve, -1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, -1.0 / tsi, p.j_ei / tsi, 0.0, 0.0),
            (0.0, 0.0, 0.0, (2.0 / ti) * vi, (2.0 / ti) * ri, 0.0),
            (0.0, 0.0, 0.0, (-2.0 * ki / ti) * ri, (2.0 / ti) * vi, 1.0),
            (p.j_ie / tse, 0.0, 0.0, 0.0, 0.0, -1.0 / tse),
        )

    return VectorFieldModel(
        name="ei",
        dim=6,
        params=p.as_dict(),
        state_names=("r_e", "V_e", "S_ei", "r_i", "V_i", "S_ie"),
        rhs=rhs,
        jac_rows=jac_rows,
    )


def make_oracle_model() -> VectorFieldModel:
    """Build the 2D radial oscillator used as an independent test oracle.

    The unit circle is an attracting limit cycle with period 2 pi and
    nontrivial exponent -2; isochrons are radial and the amplitude map is
    (r^2 - 1) / (2 r^2), so every downstream quantity has a closed form.
    """

    def rhs(u):
        x, y = u
        r2 = x * x + y * y
        return (x - y - r2 * x, x + y - r2 * y)

    def jac_rows(u):
        x, y = u
        xx, yy, xy = x * x, y * y, x * y
        return (
            (1.0 - 3.0 * xx - yy, -1.0 - 2.0 * xy),
            (1.0 - 2.0 * xy, 1.0 - xx - 3.0 * yy),
        )

    return VectorFieldModel(
        name="oracle",
        dim=2,
        params={},
        state_names=("x", "y"),
        rhs=rhs,
        jac_rows=jac_rows,
    )


_REGISTRY = {}


def register_model(name: str, factory) -> None:
    """Register a model factory ``(param_overrides: dict) -> VectorFieldModel``."""
    _REGISTRY[name] = factory


def _ei_factory(overrides: dict) -> VectorFieldModel:
    known = {f.name for f in fields(EIParameters)}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(
            "unknown ei parameters: "
            + ", ".join(f"model.params.{name}" for name in sorted(unknown))
        )
    return make_ei_model(EIParameters(**overrides))


def _oracle_factory(overrides: dict) -> VectorFieldModel:
    if overrides:
        raise ConfigError(
            "the oracle model takes no parameters: "
            + ", ".join(f"model.params.{name}" for name in sorted(overrides))
        )
    return make_oracle_model()


register_model("ei", _ei_factory)
register_model("oracle", _oracle_factory)


def get_model(name: str, param_overrides: dict | None = None) -> VectorFieldModel:
    if name not in _REGISTRY:
        raise ConfigError(
            f"model.name: unknown model '{name}'; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name](dict(param_overrides or {}))


# -- jet transport -------------------------------------------------------

# node kinds of a recorded closure
_INPUT, _CONST, _ADD, _SUB, _NEG, _SCALE, _DIV, _PRODUCT = range(8)


class _Tape:
    """The operations of one closure call, as ``(kind, a, b)`` in call order.

    ``a`` and ``b`` are operand node indices, except: an input holds its
    state component in ``a``, a constant its value in ``b``, and a scaling
    or division its scalar in ``b``.
    """

    def __init__(self):
        self.ops = []

    def push(self, kind, a=None, b=None) -> "_Var":
        self.ops.append((kind, a, b))
        return _Var(self, len(self.ops) - 1)


class _Var:
    """A symbolic state component: arithmetic on it records tape nodes.

    It supports what jets support: ``+``, ``-`` and negation (a scalar
    operand becomes a constant node), ``*`` (a jet x jet product, or a
    scaling by a scalar on either side), division by a scalar and positive
    integral powers, which expand to repeated products ``(x * x) * x``.
    Anything else, a numpy ufunc such as ``np.sin`` included, raises
    ``TypeError`` or ``ValueError``.
    """

    __slots__ = ("tape", "index")

    def __init__(self, tape: _Tape, index: int):
        self.tape = tape
        self.index = index

    def _operand(self, other) -> int:
        if isinstance(other, _Var):
            return other.index
        return self.tape.push(_CONST, b=other).index

    def __add__(self, other):
        return self.tape.push(_ADD, self.index, self._operand(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.tape.push(_SUB, self.index, self._operand(other))

    def __rsub__(self, other):
        return self.tape.push(_SUB, self._operand(other), self.index)

    def __neg__(self):
        return self.tape.push(_NEG, self.index)

    def __mul__(self, other):
        if isinstance(other, _Var):
            return self.tape.push(_PRODUCT, self.index, other.index)
        return self.tape.push(_SCALE, self.index, other)

    def __rmul__(self, other):
        return self.tape.push(_SCALE, self.index, other)

    def __truediv__(self, scalar):
        if isinstance(scalar, _Var):
            raise TypeError("jets divide only by a constant")
        return self.tape.push(_DIV, self.index, scalar)

    def __pow__(self, exponent):
        exponent = operator.index(exponent)
        if exponent < 1:
            raise ValueError("jets support positive integer powers only")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


def _jet_error(model: VectorFieldModel, exc: Exception) -> ModelError:
    return ModelError(
        f"model '{model.name}' cannot be composed with a jet (jets support "
        f"+, -, *, division by a constant and positive integer powers): {exc}"
    )


class JetTransport:
    """Jet transport of one model closure, evaluated one order at a time.

    ``orders`` holds the grid values of orders 0..L of the argument, shape
    (L+1, N, d); it is read in place, so a caller may write order n before
    filling it.  The closure (``model.rhs`` for ``mode="field"``,
    ``model.jac_rows`` for ``mode="jacobian_transpose"``) is called once, on
    symbolic components, to record a tape.  :meth:`fill` then evaluates
    order n of every node from orders 0..n of its operands: order n of a
    product is ``sum_m a_m b_(n-m)``, added to 0.0 in increasing m, and every
    other node is pointwise in the order.  Only product operands keep their
    history of orders; the outputs are written into :attr:`out`, shape
    (L+1, N, d) for the field and (L+1, N, d, d) for the Jacobian transpose
    (entry (a, b) is dX_b / dx_a), which is allocated by the first fill.

    Orders are filled in sequence: ``fill(n)`` needs orders 0..n-1 filled,
    and filling order n again (after its input changed) leaves orders above
    it unfilled.  ``fills[n]`` counts the passes over order n; each pass
    fills every node once.
    """

    def __init__(self, model: VectorFieldModel, orders: np.ndarray, mode: str):
        if mode not in ("field", "jacobian_transpose"):
            raise ModelError(f"unknown jet composition mode '{mode}'")
        orders = np.asarray(orders)
        if orders.ndim != 3 or orders.shape[2] != model.dim:
            raise ModelError(
                f"expansion of shape {orders.shape} is not (orders, grid, {model.dim})"
            )
        self.model = model
        self.orders = orders
        self.order = orders.shape[0] - 1
        tape = _Tape()
        components = tuple(tape.push(_INPUT, i) for i in range(model.dim))
        try:
            if mode == "field":
                entries = list(model.rhs(components))
                shape = (len(entries),)
            else:
                rows = model.jac_rows(components)
                # transpose: output entry (a, b) carries dX_b / dx_a
                entries = [rows[b][a] for a in range(model.dim) for b in range(model.dim)]
                shape = (model.dim, model.dim)
        except (TypeError, ValueError) as exc:
            raise _jet_error(model, exc) from exc
        self._ops = tape.ops
        self._outputs = [
            (k, entry.index) for k, entry in enumerate(entries) if isinstance(entry, _Var)
        ]
        self._constants = [
            (k, entry) for k, entry in enumerate(entries) if not isinstance(entry, _Var)
        ]
        self._shape = shape
        # a product reads all orders of its operands; inputs are their own
        # history, and other nodes keep only the order being filled
        self._keep = [False] * len(self._ops)
        for kind, a, b in self._ops:
            if kind == _PRODUCT:
                self._keep[a] = self._keep[b] = True
        self._history = [
            orders[:, :, a] if kind == _INPUT else None for kind, a, _ in self._ops
        ]
        self._current = [None] * len(self._ops)
        self.out = self._columns = None
        self.filled = 0
        self.fills = [0] * (self.order + 1)

    def fill(self, n: int) -> None:
        """Evaluate order n of every node from orders 0..n of the argument."""
        if not 0 <= n <= min(self.filled, self.order):
            raise ModelError(
                f"cannot fill order {n}: orders 0..{self.filled - 1} of "
                f"0..{self.order} are filled"
            )
        history, current, keep = self._history, self._current, self._keep
        try:
            for i, (kind, a, b) in enumerate(self._ops):
                if kind == _PRODUCT:
                    ha, hb = history[a], history[b]
                    value = 0.0 + ha[0] * hb[n]
                    for m in range(1, n + 1):
                        value += ha[m] * hb[n - m]
                elif kind == _INPUT:
                    current[i] = self.orders[n, :, a]
                    continue
                elif kind == _ADD:
                    value = current[a] + current[b]
                elif kind == _SUB:
                    value = current[a] - current[b]
                elif kind == _SCALE:
                    value = current[a] * b
                elif kind == _CONST:
                    value = b if n == 0 else 0.0
                elif kind == _NEG:
                    value = -current[a]
                else:  # _DIV
                    value = current[a] / b
                current[i] = value
                if keep[i]:
                    if history[i] is None:
                        history[i] = np.empty((self.order + 1, *value.shape), value.dtype)
                    history[i][n] = value
            if self.out is None:
                self._allocate_out()
            for k, i in self._outputs:
                self._columns[n, :, k] = current[i]
        except (TypeError, ValueError) as exc:
            raise _jet_error(self.model, exc) from exc
        self.fills[n] += 1
        self.filled = n + 1

    def _allocate_out(self) -> None:
        # order 0 fixes the dtype; constant outputs occupy order 0 only
        values = (self._current[i] for _, i in self._outputs)
        dtype = np.result_type(self.orders.dtype, *values)
        self.out = np.zeros(self.orders.shape[:2] + self._shape, dtype)
        # one column per output entry, a view of out
        self._columns = self.out.reshape(self.orders.shape[:2] + (-1,))
        for k, value in self._constants:
            self._columns[0, :, k] = value

    def result(self) -> np.ndarray:
        """All orders of the output, once every order is filled."""
        if self.filled != self.order + 1:
            raise ModelError(f"orders {self.filled}..{self.order} are not filled")
        return self.out


def jet_compose(model: VectorFieldModel, orders: np.ndarray, mode: str) -> np.ndarray:
    """Compose the field or its Jacobian transpose with a sigma-expansion.

    ``orders`` holds the grid values of orders 0..L, shape (L+1, N, d).
    ``mode="field"`` returns the grid values of the jet of X(orders), shape
    (L+1, N, d): order n is the coefficient of sigma**n of the composed
    field.  ``mode="jacobian_transpose"`` returns the matrix-valued jet of
    DX^T(orders), shape (L+1, N, d, d).  Both fill a :class:`JetTransport`
    through every order.

    The order-0 values of a field composition are bitwise equal to the
    pointwise evaluation of the model on the order-0 grid, because both go
    through the same arithmetic.
    """
    transport = JetTransport(model, orders, mode)
    for n in range(transport.order + 1):
        transport.fill(n)
    return transport.result()
