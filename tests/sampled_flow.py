"""A reference flow sampled through the driver's step hook, for the tests."""

import numpy as np

from slowphase.dop853 import dense_samples
from slowphase.integrate import DEFAULT_SETTINGS, _integrate


def sampled_flow(fun, t0, y0, t1, times, settings=DEFAULT_SETTINGS):
    """The end state of ``_integrate`` from ``t0`` to ``t1`` and the states
    at ``times``: a time at exactly ``t0`` is ``y0``, and any other one comes
    from the dense output of the first step whose closed interval holds it,
    every step kept through ``on_step``, forward or backward."""
    steps, spans = [], []

    def keep(solver):
        steps.append(solver.keep())
        spans.append(sorted((solver.t_old, solver.t)))

    end = _integrate(fun, t0, y0, t1, settings, on_step=keep)
    times, y0 = np.asarray(times, dtype=float), np.asarray(y0, dtype=float)
    out = np.empty((len(times), y0.size))
    at_start = times == t0
    out[at_start] = y0
    inner = times[~at_start]
    if len(inner):
        lo, hi = np.array(spans).T
        holds = (lo[:, None] <= inner) & (inner <= hi[:, None])
        assert holds.any(axis=0).all(), "a sample time outside the integrated span"
        out[~at_start] = dense_samples(fun, steps, holds.argmax(axis=0), inner)
    return end, out
