"""Analytic vector fields: evaluation, Jacobians, and jet composition.

A model is one closure, its field ``u -> X(u)``, written in plain
arithmetic on the state components, so the same code serves every kind of
component it is given: Python floats for one state, numpy arrays for a
batch of states, and symbolic components for Taylor transport in the
amplitude variable.  Called once on symbolic components, the closure records
its operations on a tape.  Everything else is derived from that tape:

* the Jacobian rows, once, when the model is built: forward mode over the
  tape gives the entries dX_a/dx_b as straight-line arithmetic, compiled to
  a closure that also serves floats, arrays and symbolic components;
* the adjoint action ``(u, z) -> -DX(u)^T z``, recorded from those rows.

:class:`JetTransport` evaluates a tape on grid values one sigma-order at a
time, so a recursion that needs order n of the composed field pays for
order n alone, and :func:`jet_compose` fills every order.  The field's jet
drives the manifold recursion and the adjoint action's jet the response
recursions.  The adjoint action carries the sign of the operator -DX^T, so
both recursions solve the same equation
(:func:`~slowphase.manifold.solve_orders`).

Tapes, hence models, support only ``+``, ``-``, ``*``, division by a
constant and positive integral powers (any ``int``-like exponent,
``np.int64`` included): the operations of polynomial fields, which both
built-in models and every model registered through :func:`register_model`
must be.  Anything else (a numpy ufunc such as ``np.sin``, a fractional or
float power, a division by a state component) raises
:class:`~slowphase.errors.ModelError` when the model is built, before any
integration.

Built-ins:

* ``"ei"`` -- the 6-dimensional excitatory/inhibitory mean-field network
  with state order (r_e, V_e, S_ei, r_i, V_i, S_ie).
* ``"oracle"`` -- a 2-dimensional radial oscillator with closed-form cycle,
  isochrons, and amplitude map, used as an independent test oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

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
    """Immutable autonomous vector field, described by its field alone.

    ``rhs`` maps a sequence of d state components to d components of the
    field, in the arithmetic tapes support (see the module docstring).
    ``jac_rows`` is derived from it when the model is built, and is no
    argument: it returns the d x d nested rows of the Jacobian (entry
    [a][b] = d X_a / d x_b) for components of any of the kinds ``rhs``
    takes.  Constant entries are scalars; they are broadcast as needed.
    A field that tapes cannot carry raises :class:`ModelError` here.
    """

    name: str
    dim: int
    params: dict
    state_names: tuple
    rhs: callable
    jac_rows: callable = field(init=False, repr=False, compare=False)
    _point_jacobian: callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        jac_rows, point = _derive_jacobian(self)
        object.__setattr__(self, "jac_rows", jac_rows)
        object.__setattr__(self, "_point_jacobian", point)

    def eval(self, x) -> np.ndarray:
        """Evaluate X(x); supports batches with the state on the last axis."""
        x = np.asarray(x)
        if x.shape[-1:] != (self.dim,):
            raise ModelError(f"state shape {x.shape} does not end in model dim {self.dim}")
        comps = tuple(x[..., i] for i in range(self.dim))
        out = self.rhs(comps)
        return np.stack(np.broadcast_arrays(*out), axis=-1)

    def jacobian(self, x) -> np.ndarray:
        """Evaluate DX(x); shape (..., d, d)."""
        x = np.asarray(x)
        if x.shape[-1:] != (self.dim,):
            raise ModelError(f"state shape {x.shape} does not end in model dim {self.dim}")
        comps = tuple(x[..., i] for i in range(self.dim))
        rows = self.jac_rows(comps)
        base = x[..., 0]
        flat = [np.broadcast_to(np.asarray(e, dtype=float), base.shape)
                for row in rows for e in row]
        stacked = np.stack(flat, axis=-1)
        return stacked.reshape(*base.shape, self.dim, self.dim)

    def point_field(self):
        """The closure ``x -> X(x)`` for one real state, without checks.

        ``x`` must be a float64 array of shape (d,), strided views included;
        each call returns a new array, bitwise :meth:`eval`'s.  Integrators
        check the state once and then call this at every stage.
        """
        return partial(_point_value, self.rhs)

    def point_jacobian(self):
        """The closure ``x -> DX(x)`` for one real state, without checks; the
        counterpart of :meth:`point_field` for :meth:`jacobian`, compiled
        with ``jac_rows`` from the same lines."""
        return self._point_jacobian


def _point_value(closure, x) -> np.ndarray:
    """``closure`` on the components of one float64 state, as Python floats."""
    return np.array(closure(tuple(x.tolist())), dtype=float)


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
    are polynomial in the state, so the derived Jacobian rows are linear in
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

    return VectorFieldModel(
        name="ei",
        dim=6,
        params=p.as_dict(),
        state_names=("r_e", "V_e", "S_ei", "r_i", "V_i", "S_ie"),
        rhs=rhs,
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

    return VectorFieldModel(
        name="oracle",
        dim=2,
        params={},
        state_names=("x", "y"),
        rhs=rhs,
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


# -- derived Jacobian ----------------------------------------------------


def _derive_jacobian(model: VectorFieldModel) -> tuple:
    """The Jacobian of ``model.rhs``, compiled from its tape: the closure
    ``jac_rows`` and the point closure of :meth:`VectorFieldModel.point_jacobian`.

    The field is recorded on a tape, differentiated there in forward mode
    (:func:`_jacobian_entries`), and the live nodes of the result are
    emitted as straight-line Python (:func:`_emit`).  A field that tapes
    cannot carry raises :class:`ModelError`.
    """
    tape = _Tape()
    inputs = tuple(tape.push(_INPUT, i) for i in range(model.dim))
    try:
        derived, rows = _jacobian_entries(tape.ops, model.dim, list(model.rhs(inputs)))
    except (TypeError, ValueError) as exc:
        raise _jet_error(model, exc) from exc
    source, constants = _emit(derived, rows, model.dim)
    return _compile_factory(source)(np.array, *constants)


def _times(x, y):
    """``x * y`` of tape values (a ``_Var`` or a constant each): constants
    fold, a scaling's scalar included, and a zero or unit constant factor
    drops.  So a negation is a scaling by -1.0, folded like any other, and
    no negation node is recorded."""
    if not isinstance(x, _Var):
        x, y = y, x
    if not isinstance(x, _Var) or isinstance(y, _Var):
        return x * y
    if y == 0:
        return 0.0
    if y == 1:
        return x
    kind, a, scale = x.tape.ops[x.index]
    if kind == _SCALE:
        return _times(_Var(x.tape, a), scale * y)
    return x * y


def _plus(x, y):
    """``x + y`` of tape values; a node added to itself is its scaling by
    2.0, which is exact, so a later constant factor folds into it."""
    if isinstance(x, _Var) and isinstance(y, _Var) and x.index == y.index:
        return _times(x, 2.0)
    return x + y


def _jacobian_entries(ops, dim: int, outputs) -> tuple:
    """A new tape and the rows of d(outputs)/dx on it, by forward mode over
    the tape ``ops``.

    The tape is replayed on the new one, and each node carries its sparse
    tangent, a dict from input index to a nonzero entry: a ``_Var`` of the
    new tape or a constant.  The product rule is da * b + a * db; exact
    zeros drop, and constants fold (:func:`_times`, :func:`_plus`).  The
    rows' entries are those of the new tape, or constants (0.0 where no
    tangent reaches).
    """
    tape = _Tape()
    value, tangent = [], []
    for kind, a, b in ops:
        if kind == _INPUT:
            v, t = tape.push(_INPUT, a), {a: 1.0}
        elif kind == _CONST:
            v, t = b, {}
        elif kind in (_ADD, _SUB):
            combine, sign = (_plus, 1.0) if kind == _ADD else (operator.sub, -1.0)
            v, t = combine(value[a], value[b]), dict(tangent[a])
            for key, entry in tangent[b].items():
                t[key] = combine(t[key], entry) if key in t else _times(entry, sign)
        elif kind == _NEG:
            v, t = _times(value[a], -1.0), {k: _times(e, -1.0) for k, e in tangent[a].items()}
        elif kind == _SCALE:
            v, t = _times(value[a], b), {k: _times(e, b) for k, e in tangent[a].items()}
        elif kind == _DIV:
            v, t = value[a] / b, {k: e / b for k, e in tangent[a].items()}
        else:  # _PRODUCT
            v, t = _times(value[a], value[b]), {}
            da, db = tangent[a], tangent[b]
            for key in sorted(da.keys() | db.keys()):
                terms = [_times(da[key], value[b])] if key in da else []
                if key in db:
                    terms.append(_times(value[a], db[key]))
                t[key] = _plus(*terms) if len(terms) == 2 else terms[0]
        value.append(v)
        tangent.append({k: e for k, e in t.items() if isinstance(e, _Var) or e != 0})
    return tape, [
        [tangent[entry.index].get(b, 0.0) if isinstance(entry, _Var) else 0.0
         for b in range(dim)]
        for entry in outputs
    ]


_SYMBOLS = {_ADD: "+", _SUB: "-", _SCALE: "*", _DIV: "/", _PRODUCT: "*"}


def _emit(tape: _Tape, rows, dim: int) -> tuple:
    """Python source of a factory of the closures ``u -> rows`` and ``x ->
    array of rows``, and the constants it takes after ``array``.

    Only the nodes the rows read are emitted, one assignment each, in tape
    order; both closures run these lines.  The point closure reads the
    components of a float64 array ``x`` and returns a new (d, d) array.
    Every constant, of the tape or of a row, is bound by reference as an
    argument of the factory, so the source depends on the tape's structure
    alone.
    """
    live = [False] * len(tape.ops)
    for row in rows:
        for entry in row:
            if isinstance(entry, _Var):
                live[entry.index] = True
    for i in reversed(range(len(tape.ops))):
        kind, a, b = tape.ops[i]
        if live[i] and kind not in (_INPUT, _CONST):
            live[a] = True
            if kind in (_ADD, _SUB, _PRODUCT):
                live[b] = True
    constants, names, lines = [], {}, []

    def bind(constant) -> str:
        constants.append(constant)
        return f"c{len(constants) - 1}"

    for i, (kind, a, b) in enumerate(tape.ops):
        if not live[i]:
            continue
        if kind == _INPUT:
            names[i] = f"x{a}"
        elif kind == _CONST:
            names[i] = bind(b)
        else:
            right = names[b] if kind in (_ADD, _SUB, _PRODUCT) else bind(b)
            names[i] = f"v{i}"
            lines.append(f"        v{i} = {names[a]} {_SYMBOLS[kind]} {right}\n")
    entries = [[names[e.index] if isinstance(e, _Var) else bind(e) for e in row] for row in rows]
    inputs = "".join(f"x{i}, " for i in range(dim))
    body = "".join(lines)
    nested = "".join("(" + "".join(f"{e}, " for e in row) + "), " for row in entries)
    flat = "".join(f"{e}, " for row in entries for e in row)
    source = (
        f"def factory(array, {''.join(f'c{j}, ' for j in range(len(constants)))}):\n"
        "    def jac_rows(u):\n"
        f"        {inputs}= u\n{body}"
        f"        return ({nested})\n"
        "    def point(x):\n"
        f"        {inputs}= x.tolist()\n{body}"
        f"        return array(({flat}), float).reshape({len(rows)}, {dim})\n"
        "    return jac_rows, point\n"
    )
    return source, constants


@lru_cache(maxsize=64)
def _compile_factory(source: str):
    """The factory that ``source`` defines, compiled once per source text:
    every model of one structure (``ei`` at any parameters) shares it."""
    namespace = {}
    exec(compile(source, "<derived jacobian>", "exec"), namespace)
    return namespace["factory"]


def _adjoint_action(model: VectorFieldModel, components) -> list:
    """Entries of -DX(u)^T z on symbolic components (u, z): entry a negates
    the sum of ``z_b * dX_b/dx_a`` over b in increasing order, skipping
    constant zeros."""
    rows = model.jac_rows(components[: model.dim])
    z = components[model.dim:]
    entries = []
    for a in range(model.dim):
        terms = [z[b] * row[a] for b, row in enumerate(rows)
                 if isinstance(row[a], _Var) or row[a] != 0]
        entries.append(-sum(terms[1:], terms[0]) if terms else 0.0)
    return entries


class JetTransport:
    """Jet transport of one model closure, evaluated one order at a time.

    ``orders`` holds the grid values of orders 0..L of the argument, shape
    (L+1, N, d) for ``mode="field"`` (the closure ``model.rhs``) and
    (L+1, N, 2d) for ``mode="adjoint_action"`` (the closure
    ``(u, z) -> -DX(u)^T z`` recorded from ``model.jac_rows``, argument
    ``[u | z]``); it is read in place, so a caller may write order n before
    filling it.  The closure is called once, on symbolic components, to
    record a tape.  :meth:`fill` then evaluates order n of every node from
    orders 0..n of its operands: order n of a product is
    ``sum_m a_m b_(n-m)``, added to 0.0 in increasing m, and every other
    node is pointwise in the order.  The n + 1 terms are one stacked
    product, reduced across orders from the initial value 0.0: numpy adds
    the rows of that reduction one after another, elementwise over the
    grid, which keeps the order of the sum.  A one-point grid would be
    summed pairwise, so there the terms are added in a loop.  Only product
    operands keep their history of orders; the outputs are written into
    :attr:`out`, shape (L+1, N, d), which is allocated by the first fill.

    Orders are filled in sequence: ``fill(n)`` needs orders 0..n-1 filled,
    and filling order n again (after its input changed) leaves orders above
    it unfilled.  ``fills[n]`` counts the passes over order n; each pass
    fills every node once.
    """

    def __init__(self, model: VectorFieldModel, orders: np.ndarray, mode: str):
        widths = {"field": model.dim, "adjoint_action": 2 * model.dim}
        if mode not in widths:
            raise ModelError(f"unknown jet composition mode '{mode}'")
        orders = np.asarray(orders)
        if orders.ndim != 3 or orders.shape[2] != widths[mode]:
            raise ModelError(
                f"expansion of shape {orders.shape} is not (orders, grid, {widths[mode]})"
            )
        self.model = model
        self.orders = orders
        self.order = orders.shape[0] - 1
        # the model was built from this tape, so recording cannot fail
        tape = _Tape()
        components = tuple(tape.push(_INPUT, i) for i in range(widths[mode]))
        if mode == "field":
            entries = list(model.rhs(components))
        else:
            entries = _adjoint_action(model, components)
        self._ops = tape.ops
        self._outputs = [
            (k, entry.index) for k, entry in enumerate(entries) if isinstance(entry, _Var)
        ]
        self._constants = [
            (k, entry) for k, entry in enumerate(entries) if not isinstance(entry, _Var)
        ]
        self._width = len(entries)
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
        self.out = None
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
        # summed across orders (axis 0), a grid of two or more points is added
        # row by row in order; a one-point grid would be summed pairwise
        ordered = self.orders.shape[1] > 1
        try:
            for i, (kind, a, b) in enumerate(self._ops):
                if kind == _PRODUCT:
                    terms = history[a][: n + 1] * history[b][n::-1]
                    if ordered:
                        value = np.add.reduce(terms, axis=0, initial=0.0)
                    else:
                        value = 0.0 + terms[0]
                        for term in terms[1:]:
                            value += term
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
                self.out[n, :, k] = current[i]
        except (TypeError, ValueError) as exc:
            raise _jet_error(self.model, exc) from exc
        self.fills[n] += 1
        self.filled = n + 1

    def _allocate_out(self) -> None:
        # order 0 fixes the dtype; constant outputs occupy order 0 only
        values = (self._current[i] for _, i in self._outputs)
        dtype = np.result_type(self.orders.dtype, *values)
        self.out = np.zeros(self.orders.shape[:2] + (self._width,), dtype)
        for k, value in self._constants:
            self.out[0, :, k] = value

    def result(self) -> np.ndarray:
        """All orders of the output, once every order is filled."""
        if self.filled != self.order + 1:
            raise ModelError(f"orders {self.filled}..{self.order} are not filled")
        return self.out


def jet_compose(model: VectorFieldModel, orders: np.ndarray, mode: str) -> np.ndarray:
    """Compose the field or its adjoint action with a sigma-expansion.

    ``mode="field"`` takes the grid values of orders 0..L of u, shape
    (L+1, N, d), and returns those of the jet of X(u), shape (L+1, N, d):
    order n is the coefficient of sigma**n of the composed field.
    ``mode="adjoint_action"`` takes orders of ``[u | z]``, shape
    (L+1, N, 2d), and returns the jet of -DX(u)^T z, shape (L+1, N, d).  Both
    fill a :class:`JetTransport` through every order.

    The order-0 values of a field composition are bitwise equal to the
    pointwise evaluation of the model on the order-0 grid, because both go
    through the same arithmetic.
    """
    transport = JetTransport(model, orders, mode)
    for n in range(transport.order + 1):
        transport.fill(n)
    return transport.result()
