"""Analytic vector fields: evaluation, Jacobians, and jet composition.

A model is defined by two closures written in plain arithmetic on the state
components, so the same code serves every kind of component it is given:
Python floats for one state, numpy arrays for a batch of states, and
:class:`~slowphase.series.Jet` objects for Taylor transport in the amplitude
variable.  Both built-in models are polynomial, hence add/multiply/integer
powers are the only operations required; user models registered through
:func:`register_model` may use the same protocol.  Jets support only ``+``,
``-``, ``*``, division by a constant and positive integer powers; anything
else (a numpy ufunc such as ``np.sin``, a fractional power) makes
:func:`jet_compose` raise :class:`~slowphase.errors.ModelError`.

Built-ins:

* ``"ei"`` -- the 6-dimensional excitatory/inhibitory mean-field network
  with state order (r_e, V_e, S_ei, r_i, V_i, S_ie).
* ``"oracle"`` -- a 2-dimensional radial oscillator with closed-form cycle,
  isochrons, and amplitude map, used as an independent test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ModelError
from .series import FourierTaylor, Jet

__all__ = [
    "VectorFieldModel",
    "EIParameters",
    "make_ei_model",
    "make_oracle_model",
    "get_model",
    "register_model",
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


def jet_compose(model: VectorFieldModel, arg: FourierTaylor, mode: str) -> FourierTaylor:
    """Compose the field or its Jacobian transpose with a sigma-expansion.

    ``mode="field"`` returns the jet of X(arg): order n is the coefficient of
    sigma**n of the composed field, computed by jet transport through the
    model's elementary operations (grid-pointwise products, Taylor
    convolution in sigma).  ``mode="jacobian_transpose"`` returns the
    matrix-valued jet of DX^T(arg).

    The order-0 coefficient of a field composition is bitwise equal to the
    pointwise evaluation of the model on the order-0 grid, because both go
    through the same arithmetic.
    """
    if mode not in ("field", "jacobian_transpose"):
        raise ModelError(f"unknown jet composition mode '{mode}'")
    if arg.value_shape != (model.dim,):
        raise ModelError(
            f"expansion arity {arg.value_shape} does not match model dim {model.dim}"
        )
    L = arg.order
    n_grid = arg.grid_size
    samples = arg.order_samples()  # (L+1, N, d)
    if np.max(np.abs(samples.imag)) < 1e-13 * max(1.0, np.max(np.abs(samples.real))):
        samples = samples.real
    jets = tuple(Jet(samples[:, :, i]) for i in range(model.dim))

    def transport(closure):
        try:
            return closure(jets)
        except (TypeError, ValueError) as exc:
            # e.g. a numpy ufunc Jet lacks (np.sin) or a fractional power
            raise ModelError(
                f"model '{model.name}' cannot be composed with a jet (jets "
                f"support +, -, *, division by a constant and positive integer "
                f"powers): {exc}"
            ) from exc

    def as_array(entry):
        if isinstance(entry, Jet):
            return entry.values
        out = np.zeros((L + 1, n_grid), dtype=samples.dtype)
        out[0] = entry
        return out

    if mode == "field":
        comps = transport(model.rhs)
        stacked = np.stack([as_array(c) for c in comps], axis=-1)  # (L+1, N, d)
        return FourierTaylor.from_order_samples(stacked, arg.period)

    rows = transport(model.jac_rows)
    d = model.dim
    out = np.zeros((L + 1, n_grid, d, d), dtype=samples.dtype)
    for a in range(d):
        for b in range(d):
            # transpose: output entry (a, b) carries dX_b / dx_a
            out[:, :, a, b] = as_array(rows[b][a])
    return FourierTaylor.from_order_samples(out, arg.period)
