"""Periodic orbit, its variational sweep, Floquet spectrum, recursion divisors.

The phase origin is canonical: theta = 0 is a maximum of component 0 of the
orbit, the section X_0(x) = 0 crossed downward (X_0 is component 0 of the
vector field).  So the anchor, and with it every artifact's phase, depends on
the model and not on ``cycle.guess``, which is only where the search starts
(Nakao, *Contemp. Phys.* 57(2), 2016, on fixing the phase origin by an event
on the orbit).  The cycle is found by relaxing onto the attractor from
maximum to maximum, each located by a crossing test run after every step of
the shared integration loop of :mod:`slowphase.integrate`, until successive
maxima agree to within Newton's basin, and then Newton-polishing the pair
(anchor, period) on the bordered shooting system whose last row is the
section, each step on one pass of the variational system,
:func:`variational_sweep`.  The pass of the last step, measured but not
applied, samples the orbit and gives the monodromy, whose eigenvectors are
gauged at that canonical anchor, which fixes the sign of sigma, and the
bundle frame's seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .dop853 import dense_samples
from .errors import (
    DefectiveSpectrumError,
    GridError,
    HyperbolicityError,
    IntegrationError,
    MultiplierUnderflowError,
    NewtonError,
    SectionError,
)
from .integrate import (
    DEFAULT_SETTINGS,
    IntegratorSettings,
    _field_rhs,
    _integrate,
    _model_state,
    _seed_settings,
)
from .series import FourierSeries, _require_power_of_two, theta_grid

__all__ = [
    "CycleResult",
    "VariationalSweep",
    "variational_sweep",
    "FloquetSpectrum",
    "ResonanceReport",
    "find_cycle",
    "floquet_spectrum",
    "check_resonances",
]

CLASS_TRIVIAL = "trivial"
CLASS_REAL_POSITIVE = "real_positive"
CLASS_REAL_NEGATIVE = "real_negative"
CLASS_PAIR_LEAD = "complex_pair_lead"
CLASS_PAIR_CONJ = "complex_pair_conjugate"

MAX_NEWTON = 30  # shooting Newton steps before NewtonError
RETURN_SEARCH_TIME = 2000.0  # horizon of each search for the next maximum
SECTION_TOL = 1e-8  # least |d X_0 / dt| at a maximum, relative to |DX| |X|
HYPERBOLICITY_TOL = 1e-6  # admissible |mu_0 - 1| of the trivial multiplier
CONDITION_LIMIT = 1e10  # largest admissible eigenvector condition number
IMAG_CLASS_TOL = 1e-2  # relative imaginary part below which mu is real
# |mu| <= UNDERFLOW_FACTOR eps |M|_2 is the formed monodromy's roundoff floor.
# |mu_min| / (eps |M|_2) reads 9.2e3 on ei, 1.6e10 on oracle, 1.3e12 on van der
# Pol mu = 1, and at most 0.65 on van der Pol mu = 3, 4, 6 and the stiff
# oracle: 100 sits 92x under ei and 150x above the worst refused case.
UNDERFLOW_FACTOR = 100
HARMONIC_LEVEL = 1e-10  # relative level above which a harmonic counts as present
# chunks of one period of the variational sweep: each starts Phi and Psi at
# the identity, and the cross-check tests Psi^T Phi = Id on each
IDENTITY_CHUNKS = 16


@dataclass
class VariationalSweep:
    """One period of x' = X(x), Phi' = DX(x) Phi and Psi' = -DX(x)^T Psi
    from the anchor, chunk by chunk between ``edges`` (0 to the period): on
    each, Phi and Psi start at the identity and x at the previous chunk's end.

    ``samples`` holds (x, Phi) at the grid times, raveled in rows of d + d^2.
    :func:`variational_sweep` gives it as a callable over every step of
    every chunk, each kept as it was taken; the first read of ``states`` or
    ``flows`` evaluates it, stores the array in its place and so frees the
    steps.  A pass that is never read, as each applied Newton step's, builds
    no interpolant."""

    edges: np.ndarray
    chunk: np.ndarray  # (N,): the chunk of each grid time
    ends: np.ndarray  # (chunks, 2, d, d): (Phi, Psi) across each chunk
    end_state: np.ndarray  # x at t = T
    samples: np.ndarray | Callable[[], np.ndarray] = field(repr=False, compare=False)

    def _sampled(self) -> np.ndarray:
        if callable(self.samples):
            self.samples = self.samples()
        return self.samples

    @cached_property
    def states(self) -> np.ndarray:
        """(N, d): x at the grid times."""
        return self._sampled()[:, : len(self.end_state)]

    @cached_property
    def flows(self) -> np.ndarray:
        """(N, d, d): Phi at the grid times from the chunk's start."""
        return self._sampled()[:, len(self.end_state):].reshape(-1, *self.ends.shape[2:])

    def product(self) -> np.ndarray:
        """The monodromy at the anchor: Phi's chunk ends multiplied, last chunk leftmost."""
        return reduce(lambda m, end: end @ m, self.ends[:, 0])


@dataclass
class CycleResult:
    """Periodic orbit: anchor (theta = 0), period, grid size and, where held,
    the orbit as a real series of period 1.  The shooting cycle of
    :func:`find_cycle` holds the series of its pass; one loaded from the cycle
    stage, which stores no coefficients, holds none until its pass is
    recomputed.  The frames stage's polished cycle is anchored at the theta = 0
    sample of its series."""

    anchor: np.ndarray
    period: float
    grid_size: int
    shooting_residual: float
    # how find_cycle got there: relax_returns, relaxed_time, return_gap and
    # newton_steps (the step norms)
    search: dict
    series: FourierSeries | None = None
    # find_cycle's pass; not stored, so a loaded cycle has none
    sweep: VariationalSweep | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _require_power_of_two(self.grid_size)

    @property
    def samples(self) -> np.ndarray:
        # (N, d) real grid values, synthesized on first use, read-only
        if not hasattr(self, "_samples"):
            self._samples = self.series.samples()
            self._samples.flags.writeable = False
        return self._samples

    @property
    def theta(self) -> np.ndarray:
        return theta_grid(self.grid_size)


def _brent_root(f, xa, xb, xtol, rtol, maxiter=100):
    """Root of ``f`` in the bracket [xa, xb] by Brent's method.

    Inverse quadratic interpolation or secant steps, falling back to
    bisection (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4).  The iteration is scipy's ``brentq`` (its C loop) operation
    for operation, so the root is bitwise the same; ``f`` gets Python
    floats.  The bracket must change sign; convergence means half the
    bracket is below ``(xtol + rtol |x|) / 2``.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x = {x!r} is NaN")
        return fx

    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _descent(model, x):
    """``(X(x), rate)``: the field at ``x`` and the time derivative of its
    component 0 along the flow, ``DX(x)[0, :] . X(x)``, relative to
    ``|DX(x)| |X(x)|`` (0 where that vanishes).  A maximum of component 0
    is simple when the rate is below ``-SECTION_TOL``."""
    x_dot = model.eval(x)
    jac = model.jacobian(x)
    scale = float(np.linalg.norm(jac) * np.linalg.norm(x_dot))
    return x_dot, (float(jac[0] @ x_dot) / scale if scale > 0 else 0.0)


def _next_maximum(model, x0, settings, t_max):
    """Time and state of the first maximum of component 0 after t = 0 on the
    flow from ``x0``.

    Each integration step is tested for a downward crossing of X_0, read
    from the stepper's field at the step's end; a crossing is located by
    :func:`_brent_root` on that step's dense output.  The start itself is
    never a crossing.  :class:`SectionError` names the reason when there is
    no crossing before ``t_max`` or the maximum found is not simple.
    """
    field = model.point_field()
    g_prev, t_prev, found = 0.0, 0.0, None

    def on_step(solver):
        nonlocal g_prev, t_prev, found
        g_now = solver.f[0]
        if g_prev > 0.0 >= g_now:
            dense = solver.dense_output()
            try:
                t_cross = _brent_root(
                    lambda s: field(dense(s))[0], t_prev, solver.t, xtol=1e-13,
                    rtol=1e-15,
                )
            except RuntimeError as exc:  # slow convergence: a multiple zero
                raise SectionError(
                    f"component 0 of the orbit has no simple maximum: the "
                    f"crossing of X_0 = 0 near t = {solver.t:.6g} was not "
                    f"located ({exc})"
                ) from exc
            found = (t_cross, dense(t_cross))
        g_prev, t_prev = g_now, solver.t
        return found is not None

    _integrate(_field_rhs(model), 0.0, x0, t_max, settings, on_step=on_step)
    if found is None:
        raise SectionError(
            f"component 0 of the orbit has no maximum: X_0 has no downward "
            f"crossing within t = {t_max:g} of the search's start"
        )
    _, rate = _descent(model, found[1])
    if rate > -SECTION_TOL:
        raise SectionError(
            f"component 0 of the orbit has no simple maximum: at the crossing "
            f"of X_0 = 0, d X_0 / dt = DX[0, :] . X is {rate:.2e} of |DX| |X|, "
            f"not below -{SECTION_TOL:.0e}"
        )
    return found


def _relax(model, guess, settings, relax_time, gap_tol, on_section_tol):
    """Relax ``guess`` onto the cycle, from maximum to maximum of component 0.

    A guess already on the section (``|X_0| <= on_section_tol |X|``) at a
    simple maximum is the first maximum; otherwise the flow runs to the first
    one.  Returns then step from maximum to maximum until the gap between
    successive maxima, ``|x_k+1 - x_k| / (1 + |x_k+1|)``, is below
    ``gap_tol`` or the time since the guess reaches ``relax_time``; at least
    one return is taken, since its interval is the period guess.  Returns
    the last maximum, that interval and the record of the relaxation.
    """
    x_dot, rate = _descent(model, guess)
    if abs(x_dot[0]) <= on_section_tol * np.linalg.norm(x_dot) and rate < -SECTION_TOL:
        # starting a search here would skip this maximum: on a repelling
        # cycle every extra period grows the roundoff Newton starts from
        t, x = 0.0, guess
    else:
        t, x = _next_maximum(model, guess, settings, RETURN_SEARCH_TIME)
    returns = 0
    while True:
        interval, following = _next_maximum(model, x, settings, RETURN_SEARCH_TIME)
        returns += 1
        t += interval
        gap = float(np.linalg.norm(following - x) / (1.0 + np.linalg.norm(following)))
        x = following
        if gap < gap_tol or t >= relax_time:
            record = {"relax_returns": returns, "relaxed_time": t, "return_gap": gap}
            return x, interval, record


def _period_multiple(series: FourierSeries) -> int:
    """The gcd of the wavenumbers whose coefficients exceed ``HARMONIC_LEVEL``
    of the peak: m > 1 when the sampled span holds m periods of the orbit."""
    mags = series.magnitudes()
    present = np.abs(series.k)[mags > HARMONIC_LEVEL * mags.max()]
    return int(np.gcd.reduce(present))


def _variational_rhs(model):
    """The right-hand side of x' = X(x), Phi' = DX(x) Phi and
    Psi' = -DX(x)^T Psi on y = (x, Phi, Psi), the matrices raveled."""
    d, field, jacobian = model.dim, model.point_field(), model.point_jacobian()

    def rhs(t, y):  # one Jacobian per stage serves Phi and Psi
        jac = jacobian(y[:d])
        return np.concatenate([field(y[:d]), (jac @ y[d:d + d * d].reshape(d, d)).ravel(),
                               (-jac.T @ y[d + d * d:].reshape(d, d)).ravel()])

    return rhs


def variational_sweep(model, anchor, period: float, grid_size: int,
                      settings: IntegratorSettings = DEFAULT_SETTINGS) -> VariationalSweep:
    """The :class:`VariationalSweep` from ``anchor``: one integration per
    chunk at ``settings``, each keeping its steps through the driver's
    ``on_step`` hook.  The samples of x and Phi are taken on first read
    (which does not move the steps): a grid time at a chunk's start is the
    chunk's initial state, and any other one comes from the dense output of
    the first step whose closed interval holds it, a step ending where the
    next begins and the last at the chunk's end.  Chunks keep each factor's
    dynamic range near one; over the period Phi carries 1/|mu_min|, which
    swamps double precision.  A non-finite ``period`` raises
    :class:`IntegrationError`."""
    if not math.isfinite(period):
        raise IntegrationError(f"variational sweep: period must be finite, got {period}")
    d, rhs = model.dim, _variational_rhs(model)
    size = d + d * d
    edges = np.linspace(0.0, period, IDENTITY_CHUNKS + 1)
    times = theta_grid(grid_size) * period
    chunk = np.searchsorted(edges, times, side="right") - 1
    identity = np.tile(np.eye(d).ravel(), 2)
    kept, ends = [], np.empty((IDENTITY_CHUNKS, 2 * d * d))
    x = _model_state(model, anchor)
    for c in range(IDENTITY_CHUNKS):
        y0, steps = np.concatenate([x, identity]), []
        y = _integrate(rhs, edges[c], y0, edges[c + 1], settings,
                       on_step=lambda solver: steps.append(solver.keep()))
        kept.append((y0[:size], steps))
        x, ends[c] = y[:d], y[d:]

    def samples():
        out = np.empty((grid_size, size))
        for c, (start, steps) in enumerate(kept):
            rows = np.flatnonzero(chunk == c)
            at_start = times[rows] == edges[c]
            out[rows[at_start]] = start
            rows = rows[~at_start]
            if len(rows):
                step_ends = np.array([step[1] for step in steps[1:]] + [edges[c + 1]])
                which = np.searchsorted(step_ends, times[rows])
                out[rows] = dense_samples(rhs, steps, which, times[rows], size)
        return out

    return VariationalSweep(edges, chunk, ends.reshape(-1, 2, d, d), x, samples)


def find_cycle(
    model,
    guess,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    grid_size: int = 4096,
    relax_time: float = 500.0,
    newton_tol: float = 1e-12,
) -> CycleResult:
    """Locate the cycle near ``guess`` and sample it spectrally.

    The anchor (theta = 0) is the canonical one: a maximum of component 0 of
    the orbit, where X_0 = 0 is crossed downward.  From ``guess`` the flow
    relaxes onto the attractor from maximum to maximum (:func:`_relax`, at
    the seed floor of ``settings``) until the gap between successive maxima
    is below ``sqrt(newton_tol)``, where Newton's quadratic convergence takes
    over; ``relax_time`` caps the relaxed time and is not a fixed horizon.
    The last return interval is the period guess.  Newton iteration on the
    bordered system (return-map residual plus the section row X_0(x) = 0,
    whose gradient is ``DX(x)[0, :]``) then solves for the anchor and period
    at ``settings``, in at most ``MAX_NEWTON`` steps; a divergence names
    ``cycle.relax_time``.  Each step runs :func:`variational_sweep` from the
    current anchor and period: its end state gives the residual, its Phi
    chunk product the Jacobian; neither reads its samples, so the pass of
    an applied step builds no interpolant.  The first step below
    ``newton_tol`` is recorded but not applied, so the anchor and period
    recompute its pass (returned as ``sweep``) bitwise.  That pass gives
    the shooting residual and the orbit at ``grid_size`` equispaced phases,
    analyzed into the cycle's series; :func:`floquet_spectrum` decides from
    its monodromy whether the cycle attracts.  A series whose present
    harmonics share a factor m > 1 spans m periods: :class:`NewtonError`
    names m.  A series not resolved by the grid raises :class:`GridError`.
    A model whose component 0 has no simple maximum on the orbit, or an
    anchor where X_0 is not crossed downward, raises :class:`SectionError`.
    """
    guess = np.asarray(guess, dtype=float)
    gap_tol = math.sqrt(newton_tol)
    x, period, search = _relax(
        model, guess, _seed_settings(settings), relax_time, gap_tol, newton_tol
    )
    returns = search["relax_returns"]

    def diverged(reason):
        return NewtonError(
            f"{reason}; Newton started from the maximum reached after "
            f"{returns} return{'s' if returns > 1 else ''} "
            f"({search['relaxed_time']:.6g} time units), where the gap between "
            f"successive maxima was {search['return_gap']:.2e} (relaxed means "
            f"below {gap_tol:.0e}); raise cycle.relax_time or change cycle.guess"
        )

    d = model.dim
    steps = []
    for _ in range(MAX_NEWTON):
        sweep = variational_sweep(model, x, period, grid_size, settings)
        big = np.zeros((d + 1, d + 1))
        big[:d, :d] = sweep.product() - np.eye(d)
        big[:d, d] = model.eval(sweep.end_state)
        big[d, :d] = model.jacobian(x)[0]
        rhs = -np.concatenate([sweep.end_state - x, model.eval(x)[:1]])
        try:
            delta = np.linalg.solve(big, rhs)
        except np.linalg.LinAlgError as exc:
            raise diverged(f"singular shooting system: {exc}") from exc
        x_next, period_next = x + delta[:d], period + delta[d]
        if period_next <= 0:
            raise diverged("period became non-positive during Newton")
        size = np.linalg.norm(delta[:d]) / (1.0 + np.linalg.norm(x_next)) + abs(
            delta[d]
        ) / period_next
        steps.append(float(size))
        if size < newton_tol:
            break
        x, period = x_next, period_next
    else:
        raise diverged(f"shooting Newton did not converge in {MAX_NEWTON} iterations")
    search["newton_steps"] = steps

    series = FourierSeries.from_samples(sweep.states)
    # m periods need m times the harmonics of one, so the tail check below
    # would blame the grid for a multiple; name the multiple first
    multiple = _period_multiple(series)
    if multiple > 1:
        raise NewtonError(
            f"shooting converged to {multiple} times the period: every harmonic "
            f"of the orbit above {HARMONIC_LEVEL:.0e} of the peak is a multiple "
            f"of {multiple}, so it repeats every T/{multiple} = "
            f"{period / multiple:.10g} (T = {period:.10g}); lengthen "
            f"cycle.relax_time or change cycle.guess"
        )
    tail = series.spectral_tail()
    if tail > 1e-8:
        raise GridError(
            f"orbit is not spectrally resolved: top-octave coefficient level "
            f"{tail:.2e} of the peak; increase cycle.grid_N"
        )
    _, rate = _descent(model, x)  # the section row holds at a minimum too
    if rate > -SECTION_TOL:
        raise SectionError(f"the anchor is not a maximum of component 0: d X_0 / dt is "
                           f"{rate:.2e} of |DX| |X| there, not below -{SECTION_TOL:.0e}")
    residual = float(np.linalg.norm(sweep.end_state - x))
    return CycleResult(anchor=x, period=float(period), grid_size=grid_size,
                       shooting_residual=residual, search=search, series=series, sweep=sweep)


@dataclass
class FloquetSpectrum:
    """Classified eigenstructure of the monodromy matrix.

    Indices are sorted with the trivial multiplier first and then by
    descending real part of the exponent; each nontrivial index carries a
    class tag.  Exponents of negative real multipliers take the branch
    ``log|mu|/T + i pi/T``.
    """

    period: float
    multipliers: np.ndarray  # complex (d,)
    exponents: np.ndarray  # complex (d,)
    eigenvectors: np.ndarray  # complex (d, d), columns
    classes: tuple
    monodromy: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.multipliers)


def _gauge_vector(w: np.ndarray) -> np.ndarray:
    """``w`` at unit norm, rotated so that its first component above 1e-8 of
    its largest is real positive.

    This is the one rule for the sign (and phase) of every eigenvector, the
    slow one included, and so for the sign of sigma: it reads the eigenvector
    at the anchor, which is canonical (a maximum of component 0 of the
    orbit), so the sign follows from the model alone.
    """
    w = w / np.linalg.norm(w)
    mags = np.abs(w)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    w = w * np.exp(-1j * np.angle(w[idx]))
    if w[idx].real < 0:
        w = -w
    return w


def floquet_spectrum(monodromy: np.ndarray, period: float) -> FloquetSpectrum:
    """Eigendecomposition of the ``monodromy`` of a cycle of ``period``,
    sorted, classified, and gauged; every field is a function of the two.

    A multiplier whose imaginary part is below ``IMAG_CLASS_TOL`` of its
    modulus is treated as real; the bound is generous because the weakest
    multipliers sit near the integration noise floor.  Each eigenvector is
    gauged by :func:`_gauge_vector`; from :func:`find_cycle`'s canonical
    anchor that fixes the sign of the slow column, hence of sigma, from the
    model alone.  This is the only hyperbolicity check: a trivial multiplier
    more than ``HYPERBOLICITY_TOL`` from 1, or a nontrivial one on or outside
    the unit circle (a cycle that does not attract), raises
    :class:`HyperbolicityError`.  A multiplier at the roundoff floor of the
    monodromy M, ``|mu| <= UNDERFLOW_FACTOR eps |M|_2``, is rounding noise,
    so it raises :class:`MultiplierUnderflowError` naming it and the floor.
    """
    period = float(period)
    mu, vecs = np.linalg.eig(monodromy)

    cond = float(np.linalg.cond(vecs))
    if cond > CONDITION_LIMIT:
        raise DefectiveSpectrumError(
            f"monodromy eigenvector condition number {cond:.2e} exceeds limit"
        )

    i_triv = int(np.argmin(np.abs(mu - 1.0)))
    defect = float(np.abs(mu[i_triv] - 1.0))
    if defect > HYPERBOLICITY_TOL:
        raise HyperbolicityError(
            f"|mu_0 - 1| = {defect:.2e}: inaccurate cycle or integration"
        )
    rest = [i for i in range(len(mu)) if i != i_triv]
    if any(np.abs(mu[i]) >= 1.0 for i in rest):
        raise HyperbolicityError("nontrivial multiplier on or outside the unit circle")

    # sort by decaying order: descending |mu|; complex leads (Im > 0) first
    rest.sort(key=lambda i: (-np.abs(mu[i]), -np.sign(mu[i].imag)))

    order = [i_triv] + rest
    mu_sorted = mu[order].astype(complex)  # eig gives a real array if all are real
    vec_sorted = vecs[:, order]
    floor = UNDERFLOW_FACTOR * np.finfo(float).eps * np.linalg.norm(monodromy, 2)
    j = int(np.argmin(np.abs(mu_sorted)))
    if abs(mu_sorted[j]) <= floor:
        raise MultiplierUnderflowError(
            f"multiplier mu_{j} = {mu_sorted[j]:.3g} lies at the roundoff floor of the "
            f"monodromy: |mu_{j}| = {abs(mu_sorted[j]):.3g} <= {UNDERFLOW_FACTOR} eps "
            f"|M|_2 = {floor:.3g}; it contracts below double precision in one period"
        )
    d = len(mu)
    classes = [CLASS_TRIVIAL]
    exponents = np.zeros(d, dtype=complex)
    gauged = np.zeros((d, d), dtype=complex)
    gauged[:, 0] = _gauge_vector(vec_sorted[:, 0]).real.astype(complex)

    j = 1
    while j < d:
        m = mu_sorted[j]
        if abs(m.imag) <= IMAG_CLASS_TOL * abs(m):
            re = m.real
            w = _gauge_vector(vec_sorted[:, j]).real
            gauged[:, j] = (w / np.linalg.norm(w)).astype(complex)
            if re > 0:
                classes.append(CLASS_REAL_POSITIVE)
                exponents[j] = np.log(abs(m)) / period
            else:
                classes.append(CLASS_REAL_NEGATIVE)
                exponents[j] = np.log(abs(m)) / period + 1j * np.pi / period
            j += 1
        else:
            if j + 1 >= d:
                raise DefectiveSpectrumError("unpaired complex multiplier")
            lead = j if mu_sorted[j].imag > 0 else j + 1
            w = _gauge_vector(vec_sorted[:, lead])
            m_lead = mu_sorted[lead]
            mu_sorted[j] = m_lead
            mu_sorted[j + 1] = np.conj(m_lead)
            gauged[:, j] = w
            gauged[:, j + 1] = np.conj(w)
            lam = (np.log(abs(m_lead)) + 1j * np.angle(m_lead)) / period
            exponents[j] = lam
            exponents[j + 1] = np.conj(lam)
            classes.extend([CLASS_PAIR_LEAD, CLASS_PAIR_CONJ])
            j += 2

    return FloquetSpectrum(
        period=period,
        multipliers=mu_sorted,
        exponents=exponents,
        eigenvectors=gauged,
        classes=tuple(classes),
        monodromy=monodromy,
    )


def _lattice_distance(value: np.ndarray, period: float) -> np.ndarray:
    """Elementwise distance from ``value`` to the nearest point of
    i * (2 pi / T) Z."""
    step = 2.0 * np.pi / period
    im = value.imag - step * np.round(value.imag / step)
    return np.hypot(value.real, im)


# the recursions' divisor tables; of equal entries, the first table's is named
DIVISOR_TABLES = ("manifold", "phase", "amplitude")


@dataclass
class ResonanceReport:
    """Per table, each order n its recursion solves maps to the divisors over
    frame directions j, minimized in closed form over all wavenumbers k; the
    orders are the tables' keys."""

    tables: dict  # name -> {n: row over j}

    def minima(self, name: str) -> dict:
        return {n: row.min().item() for n, row in self.tables[name].items()}

    def smallest(self) -> tuple:
        """``(table, n, j, divisor)`` of the smallest entry of all three."""
        name, n, row = min(((name, n, row) for name in DIVISOR_TABLES
                            for n, row in self.tables[name].items()),
                           key=lambda entry: entry[2].min())
        j = int(np.argmin(row))
        return name, n, j, row[j].item()

    def summary(self) -> dict:
        return {
            f"{name}_divisor_min": {str(n): v for n, v in self.minima(name).items()}
            for name in DIVISOR_TABLES
        }


def check_resonances(spectrum: FloquetSpectrum, order: int) -> ResonanceReport:
    """The divisors |2 pi i k/T + s| an expansion to ``order`` divides by,
    lam_s = lam_1 the slow exponent: s = n lam_s - lam_j at manifold orders
    n = 2..order + 1, lam_j + n lam_s and lam_j + (n - 1) lam_s at phase and
    amplitude orders 1..order.  At amplitude order 1 the trivial direction
    (lam_0 = 0) divides by 2 pi |k| / T: only its k = 0 mode is a structural
    free mode, so its entry is 2 pi / T.  So the slow manifold's
    non-resonance conditions are n lam_s != lam_j (Cabre, Fontich & de la
    Llave, Indiana Univ. Math. J. 52, 2003); mixed combinations of exponents
    are not divisors here."""
    n = np.arange(order + 2)[:, None]
    lam_s, lam, T = spectrum.exponents[1], spectrum.exponents, spectrum.period
    manifold = _lattice_distance(n * lam_s - lam, T)
    phase = _lattice_distance(lam + n * lam_s, T)
    amplitude = _lattice_distance(lam + (n - 1) * lam_s, T)
    amplitude[1, 0] = 2.0 * np.pi / T  # k = 0 is free; k != 0 divide by 2 pi |k| / T
    solved = range(1, order + 1)
    return ResonanceReport(tables={
        "manifold": {k: manifold[k] for k in range(2, order + 2)},
        "phase": {k: phase[k] for k in solved},
        "amplitude": {k: amplitude[k] for k in solved},
    })
