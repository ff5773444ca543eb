"""High-accuracy initial-value integration.

Every integration of the package runs through one driver, :func:`_integrate`,
built on the in-house DOP853 stepper of :mod:`slowphase.dop853` (explicit
embedded Runge-Kutta pair of order 8(5,3) with dense output).  The driver
bounds the step count, reports a non-finite state with the time of failure,
and returns the end state; a caller that watches the steps does so through
one hook, ``on_step``.  The return-time search of the cycle stage brackets
its crossings there, and the variational pass keeps its steps there for
dense output.  Backward integration is supported by passing ``t1 < t0``;
both times must be finite.  The package needs no scipy: the stepper does
scipy's DOP853 arithmetic operation for operation, so flows are bitwise
scipy's.  The cycle's relaxation, a seed that the shooting Newton refines,
runs no tighter than the floor ``SEED_RTOL`` (:func:`_seed_settings`); the
rest run at the user's settings.  The variational system has one
integrator, the pass along the orbit that each Newton step runs,
:func:`slowphase.cycle.variational_sweep`.

Right-hand sides call the model through its point closures
(:meth:`~slowphase.models.VectorFieldModel.point_field` and
``point_jacobian``), which skip ``eval``'s per-call checks: the initial state
is checked once per integration (:func:`_model_state`), and the driver
checks the state for finiteness once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dop853 import DOP853
from .errors import ConfigError, IntegrationError, ModelError
from .series import FourierSeries

__all__ = [
    "IntegratorSettings",
    "flow",
    "CycleInterpolant",
]


# DOP853's error control cannot hold a relative tolerance closer to the
# rounding unit
RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class IntegratorSettings:
    rtol: float = 1e-12
    atol: float = 1e-13
    max_steps: int = 1_000_000

    def __post_init__(self):
        for key in ("rtol", "atol"):
            if not getattr(self, key) > 0:  # NaN fails too
                raise ConfigError(
                    f"integrator.{key} must be positive, got {getattr(self, key)}"
                )
        if self.rtol < RTOL_FLOOR:
            raise ConfigError(
                f"integrator.rtol must be >= 100 eps ({RTOL_FLOOR:.3g}), "
                f"got {self.rtol}"
            )
        if self.max_steps < 1:
            raise ConfigError(
                f"integrator.max_steps must be >= 1, got {self.max_steps}"
            )


DEFAULT_SETTINGS = IntegratorSettings()

# relative tolerance floor of the cycle's relaxation, whose end state the
# shooting Newton refines to the user's accuracy; every other integration,
# cycle.variational_sweep included, runs at the user's settings
SEED_RTOL = 1e-10


def _seed_settings(settings: IntegratorSettings) -> IntegratorSettings:
    """``settings`` loosened to the seed floor ``SEED_RTOL``: rtol and atol
    scaled by one factor, and a looser rtol used as given."""
    if settings.rtol >= SEED_RTOL:
        return settings
    factor = SEED_RTOL / settings.rtol
    return replace(settings, rtol=SEED_RTOL, atol=settings.atol * factor)


def _integrate(fun, t0, y0, t1, settings, on_step=None):
    """Drive DOP853 from t0 to t1 and return the end state.

    ``on_step(solver)`` runs after every accepted, finite step, with the
    :class:`~slowphase.dop853.DOP853` stepper (``.t``, ``.y``, ``.t_old``,
    ``.dense_output()``, ``.keep()``); a true return value ends the
    integration at that step.  A non-finite start or end time, initial state
    or initial field raises :class:`IntegrationError` before the first step:
    the step-size control cannot converge on a NaN and would never return.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise IntegrationError(
            f"integration times must be finite, got t0 = {t0}, t1 = {t1}"
        )
    t0, t1 = float(t0), float(t1)
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise IntegrationError(f"non-finite initial state at t = {t0:.6g}", time=t0)
    if t1 == t0:
        return y0.copy()
    solver = DOP853(fun, t0, y0, t1, settings.rtol, settings.atol)
    if not np.all(np.isfinite(solver.f)):
        # the initial step is then NaN, and step() would never return
        raise IntegrationError(f"non-finite field at t = {t0:.6g}", time=t0)

    steps = 0
    while not solver.finished:
        if steps >= settings.max_steps:
            raise IntegrationError(
                f"step budget {settings.max_steps} exhausted at t = {solver.t:.6g}",
                time=solver.t,
            )
        if not solver.step():
            raise IntegrationError(
                f"integrator failed at t = {solver.t:.6g}: step size below "
                f"the spacing of floating-point numbers",
                time=solver.t,
            )
        steps += 1
        if not np.isfinite(solver.y).all():
            raise IntegrationError(
                f"non-finite state at t = {solver.t:.6g}", time=solver.t
            )
        if on_step is not None and on_step(solver):
            break
    return solver.y


def _model_state(model, x0) -> np.ndarray:
    """``x0`` as a float state of ``model``; a wrong shape is a ModelError."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ModelError(
            f"initial state must have shape ({model.dim},), got {x0.shape}"
        )
    return x0


def _field_rhs(model):
    """The flow's right-hand side ``(t, y) -> X(y)`` on the point closure."""
    field = model.point_field()
    return lambda t, y: field(y)


def flow(model, x0, t, settings: IntegratorSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Advance the state by time ``t`` along the model flow."""
    x0 = _model_state(model, x0)
    return _integrate(_field_rhs(model), 0.0, x0, t, settings)


class CycleInterpolant:
    """Real cycle samples interpolated in time by a table of Taylor polynomials.

    The value is the real part of the trigonometric sum of ``series``, in
    either layout, Nyquist row included: what ``FourierSeries.evaluate``
    sums.  It is evaluated as a Taylor polynomial in the offset s (|s| <= 1/2,
    in grid cells) from the nearest grid node m: row m of the table holds
    ``h^p f^(p)(theta_m) / p!`` for p = 0..P, with h the grid spacing, from
    ``FourierSeries.differentiate().samples()``.  differentiate() zeroes the
    Nyquist row, whose term ``c e^{z pi (m+s)}`` (z = -i two-sided, at
    k = -N/2, and z = i one-sided, at k = N/2) adds ``Re(c (z pi)^p) (-1)^m /
    p!`` to entry p of row m.

    The order P follows from the highest kept harmonic k (magnitudes above
    1e-15 of the peak; the rest cost nothing at double precision): it is the
    least P for which the Taylor remainder of that harmonic over half a cell,
    ``(pi k / N)^(P+1) / (P+1)!``, is below the rounding unit.  A call is one
    row lookup, one power vector and one small matrix product, and returns a
    new C-contiguous array.  The interpolant is periodic in time.
    """

    def __init__(self, series: FourierSeries, period: float):
        self.period = float(period)
        n = series.grid_size
        mags = series.magnitudes()
        kept = mags > 1e-15 * mags.max()
        kept[0] = True
        k_max = int(np.abs(series.k)[kept].max())
        step = math.pi * k_max / n  # phase advance of that harmonic over half a cell
        order, remainder = 0, step
        while remainder > 2.0 ** -53:
            order += 1
            remainder *= step / (order + 1)

        nyquist = series.coef[n // 2]
        z_pi = (1j if series.real else -1j) * math.pi
        alternating = (-1.0) ** np.arange(n)
        rows = [series.samples().real]
        deriv = series
        for p in range(1, order + 1):
            deriv = deriv.differentiate()
            scale = (1.0 / n) ** p / math.factorial(p)
            nyquist_term = (nyquist * z_pi**p).real / math.factorial(p)
            rows.append(
                deriv.samples().real * scale
                + np.multiply.outer(alternating, nyquist_term)
            )
        self._table = np.stack(rows, axis=1).reshape(n, order + 1, -1)
        self._n = n
        self._cells_per_time = n / self.period
        self._powers = np.arange(order + 1.0)
        self._shape = series.value_shape

    def __call__(self, t: float) -> np.ndarray:
        x = t * self._cells_per_time
        m = math.floor(x + 0.5)
        powers = np.power(x - m, self._powers)
        return (powers @ self._table[m % self._n]).reshape(self._shape)
