"""High-accuracy initial-value integration.

Every integration of the package, the return-time search of the cycle stage
included, runs through one driver built on scipy's DOP853 stepper (explicit
embedded Runge-Kutta pair of order 8(5) with dense output), looped manually
so that step counts are bounded, non-finite states are reported with the
time of failure, and sample times are filled from the per-step dense
interpolants.  Backward integration is supported by passing ``t1 < t0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from .errors import ConfigError, IntegrationError, ModelError
from .series import FourierSeries

__all__ = [
    "IntegratorSettings",
    "flow",
    "flow_samples",
    "flow_with_variational",
    "adjoint_flow",
    "CycleInterpolant",
]


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
        if self.max_steps < 1:
            raise ConfigError(
                f"integrator.max_steps must be >= 1, got {self.max_steps}"
            )


DEFAULT_SETTINGS = IntegratorSettings()


def _integrate(fun, t0, y0, t1, settings, t_eval=None, on_step=None):
    """Drive DOP853 from t0 to t1; return (y_end, samples at t_eval).

    ``on_step(solver)`` runs after every accepted, finite step; a true return
    value ends the integration at that step.
    """
    y0 = np.asarray(y0, dtype=float)
    if t1 == t0:
        if t_eval is not None:
            return y0.copy(), np.broadcast_to(y0, (len(t_eval), y0.size)).copy()
        return y0.copy(), None

    solver = DOP853(fun, t0, y0, t_bound=t1, rtol=settings.rtol, atol=settings.atol)
    want = None
    out = None
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        order = np.argsort(t_eval if t1 > t0 else -t_eval, kind="stable")
        want = t_eval[order]
        out = np.empty((len(t_eval), y0.size))
        cursor = 0
        # samples at the initial time need no interpolant
        while cursor < len(want) and want[cursor] == t0:
            out[order[cursor]] = y0
            cursor += 1

    steps = 0
    while solver.status == "running":
        if steps >= settings.max_steps:
            raise IntegrationError(
                f"step budget {settings.max_steps} exhausted at t = {solver.t:.6g}",
                time=solver.t,
            )
        msg = solver.step()
        steps += 1
        if solver.status == "failed":
            raise IntegrationError(
                f"integrator failed at t = {solver.t:.6g}: {msg}", time=solver.t
            )
        if not np.all(np.isfinite(solver.y)):
            raise IntegrationError(
                f"non-finite state at t = {solver.t:.6g}", time=solver.t
            )
        if want is not None and cursor < len(want):
            dense = solver.dense_output()
            lo, hi = sorted((dense.t_min, dense.t_max))
            stop = cursor
            while stop < len(want) and lo <= want[stop] <= hi:
                stop += 1
            if stop > cursor:
                # one call for the whole batch: DOP853's dense output applies
                # the same elementwise operations to an array as to a scalar
                out[order[cursor:stop]] = dense(want[cursor:stop]).T
                cursor = stop
        if on_step is not None and on_step(solver):
            break

    if want is not None and cursor < len(want):
        # t_bound itself: the final state is exact
        while cursor < len(want) and np.isclose(want[cursor], solver.t):
            out[order[cursor]] = solver.y
            cursor += 1
        if cursor < len(want):
            raise IntegrationError("sample times outside the integration span")
    return solver.y, out


def flow(model, x0, t, settings: IntegratorSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Advance the state by time ``t`` along the model flow."""
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(t):
        raise IntegrationError("flow time must be finite")
    if x0.shape != (model.dim,):
        raise ModelError(f"initial state must have shape ({model.dim},)")
    y, _ = _integrate(lambda s, y: model.eval(y), 0.0, x0, float(t), settings)
    return y


def flow_samples(model, x0, times, settings: IntegratorSettings = DEFAULT_SETTINGS):
    """States along one trajectory at the given (sorted or not) times >= 0."""
    times = np.asarray(times, dtype=float)
    _, samples = _integrate(
        lambda s, y: model.eval(y), 0.0, np.asarray(x0, float),
        float(np.max(times)), settings, t_eval=times,
    )
    return samples


def _variational_rhs(model, d):
    def rhs(t, y):
        x = y[:d]
        phi = y[d : d + d * d].reshape(d, d)
        jac = model.jacobian(x)
        out = np.empty_like(y)
        out[:d] = model.eval(x)
        out[d : d + d * d] = (jac @ phi).ravel()
        out[-1] = np.trace(jac)
        return out

    return rhs


def flow_with_variational(
    model,
    x0,
    t,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    t_eval=None,
    return_trace: bool = False,
):
    """Integrate the coupled state + first-variational system.

    Returns ``(x(t), Phi(t))`` where Phi solves Phi' = DX(x(s)) Phi from the
    identity; with ``return_trace=True`` also returns the accumulated
    integral of trace DX (Liouville quadrature).  If ``t_eval`` is given,
    additionally returns arrays of sampled states and matrices.
    """
    d = model.dim
    x0 = np.asarray(x0, dtype=float)
    y0 = np.concatenate([x0, np.eye(d).ravel(), [0.0]])
    y, samples = _integrate(_variational_rhs(model, d), 0.0, y0, float(t), settings, t_eval)
    x_end = y[:d]
    phi_end = y[d : d + d * d].reshape(d, d)
    result = [x_end, phi_end]
    if return_trace:
        result.append(y[-1])
    if t_eval is not None:
        result.append(samples[:, :d])
        result.append(samples[:, d : d + d * d].reshape(len(samples), d, d))
    return tuple(result)


class CycleInterpolant:
    """Trigonometric interpolation of real cycle samples, in time units.

    The samples are real, so the two-sided sum equals the real part of a
    one-sided one: each row -k is folded onto +k as ``c_k + conj(c_-k)``
    (exactly ``2 c_k`` for conjugate-symmetric coefficients), k = 0 stays as
    it is and the Nyquist row k = -N/2, which has no partner, keeps weight
    one.  This halves the work per call.  Negligible folded harmonics
    (relative threshold 1e-15) are dropped for speed; this costs nothing at
    double precision.  ``span`` limits the time range accepted by consumers;
    ``None`` means the interpolation is used periodically for all times.
    """

    def __init__(self, series: FourierSeries, period: float, span: float | None = None):
        self.period = float(period)
        self.span = span
        n = series.grid_size
        coef = series.coef.reshape(n, -1)
        pos = np.arange(1, n // 2)
        folded = np.concatenate(
            [coef[:1], coef[pos] + np.conj(coef[n - pos]), coef[n // 2 : n // 2 + 1]]
        )
        k = np.concatenate([[0], pos, [-(n // 2)]])
        mags = np.abs(folded).max(axis=1)
        keep = mags > 1e-15 * mags.max()
        keep[0] = True
        self._coef = np.ascontiguousarray(folded[keep])
        self._freq = (2j * np.pi / series.period) * k[keep].astype(float)
        self._shape = series.value_shape

    def __call__(self, t: float) -> np.ndarray:
        phase = np.exp(self._freq * (t / self.period))
        return (phase @ self._coef).real.reshape(self._shape)


def adjoint_flow(
    model,
    cycle: CycleInterpolant,
    t,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    t_eval=None,
):
    """Fundamental solution of the adjoint variational system along the cycle.

    Integrates Y' = -DX^T(gamma(s)) Y from the identity; Y(T) is the adjoint
    monodromy matrix, whose eigenvalues are the reciprocal conjugates of the
    Floquet multipliers.
    """
    if cycle.span is not None and t > cycle.span:
        raise IntegrationError(
            f"time {t} exceeds the interpolant span {cycle.span}"
        )
    d = model.dim

    def rhs(s, y):
        jac_t = model.jacobian(cycle(s)).T
        return (-jac_t @ y.reshape(d, d)).ravel()

    y, samples = _integrate(rhs, 0.0, np.eye(d).ravel(), float(t), settings, t_eval)
    if t_eval is not None:
        return y.reshape(d, d), samples.reshape(len(samples), d, d)
    return y.reshape(d, d)
