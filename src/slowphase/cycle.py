"""Periodic orbit location, Floquet spectrum, and resonance screening.

The cycle is found by relaxing onto the attractor, bracketing the first
return to a Poincare section through the relaxed point (normal along the
vector field) with a crossing test run after every step of the shared
integration loop of :mod:`slowphase.integrate`, and Newton-polishing the
pair (anchor, period) on the bordered shooting system.  The spectrum comes from
an eigendecomposition of the monodromy matrix of the first-variational
system over one period.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DefectiveSpectrumError,
    GridError,
    HyperbolicityError,
    NewtonError,
    SectionError,
)
from .integrate import (
    DEFAULT_SETTINGS,
    CycleInterpolant,
    IntegratorSettings,
    _integrate,
    flow,
    flow_samples,
    flow_with_variational,
)
from .series import FourierSeries, theta_grid

__all__ = [
    "CycleResult",
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


@dataclass
class CycleResult:
    """Converged periodic orbit with spectral samples."""

    anchor: np.ndarray
    period: float
    series: FourierSeries  # order-0 coefficient function, period 1
    samples: np.ndarray  # (N, d) real grid samples
    shooting_residual: float
    grid_size: int

    @property
    def theta(self) -> np.ndarray:
        return theta_grid(self.grid_size, 1.0)

    def interpolant(self, span: float | None = None) -> CycleInterpolant:
        return CycleInterpolant(self.series, self.period, span)


def _first_return(model, x0, settings, t_max, distance_frac=1e-3):
    """First positive-direction return time to the section through x0.

    Each integration step is tested for an upward crossing of the section;
    a crossing is located by ``brentq`` on that step's dense output.  The
    first crossing closer to x0 than ``distance_frac`` of the orbit diameter
    so far ends the search; otherwise the closest one found before ``t_max``
    is returned.
    """
    speed = model.eval(x0)
    norm = np.linalg.norm(speed)
    if norm < 1e-12:
        raise SectionError(f"vector field too small at anchor (|X| = {norm:.2e})")
    normal = speed / norm

    def g(y):
        return float(np.dot(y - x0, normal))

    diameter = 0.0
    best = None  # (t_cross, distance) of the closest crossing so far
    g_prev = 0.0
    t_prev = 0.0

    def on_step(solver):
        nonlocal diameter, best, g_prev, t_prev
        diameter = max(diameter, float(np.linalg.norm(solver.y - x0)))
        g_now = g(solver.y)
        done = False
        if g_prev < 0.0 <= g_now and solver.t > 1e-8:
            dense = solver.dense_output()
            t_cross = brentq(
                lambda s: g(dense(s)), t_prev, solver.t, xtol=1e-13, rtol=1e-15
            )
            dist = float(np.linalg.norm(dense(t_cross) - x0))
            done = dist < distance_frac * max(diameter, 1e-12)
            if done or best is None or dist < best[1]:
                best = (t_cross, dist)
        g_prev = g_now
        t_prev = solver.t
        return done

    _integrate(lambda t, y: model.eval(y), 0.0, x0, t_max, settings, on_step=on_step)
    if best is not None:
        return best[0]
    raise NewtonError(f"no return to the section found within t = {t_max}")


def find_cycle(
    model,
    guess,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    grid_size: int = 4096,
    relax_time: float = 500.0,
    newton_tol: float = 1e-12,
    max_newton: int = 30,
    return_search_time: float = 2000.0,
) -> CycleResult:
    """Locate the attracting cycle near ``guess`` and sample it spectrally.

    A relaxation integration brings the state onto the attractor, the first
    return to the section fixes an initial period, and Newton iteration on
    the bordered system (return-map residual plus section constraint) solves
    for the anchor and period simultaneously.  The orbit is then sampled at
    ``grid_size`` equispaced phases through the integrator's dense output.
    """
    guess = np.asarray(guess, dtype=float)
    x_ref = flow(model, guess, relax_time, settings) if relax_time > 0 else guess
    normal = model.eval(x_ref)
    nrm = np.linalg.norm(normal)
    if nrm < 1e-12:
        raise SectionError("degenerate section: |X(anchor)| below threshold")
    normal = normal / nrm

    period = _first_return(model, x_ref, settings, return_search_time)

    x = x_ref.copy()
    d = model.dim
    phi = None
    for iteration in range(max_newton):
        x_t, phi = flow_with_variational(model, x, period, settings)
        residual = x_t - x
        section = float(np.dot(x - x_ref, normal))
        big = np.zeros((d + 1, d + 1))
        big[:d, :d] = phi - np.eye(d)
        big[:d, d] = model.eval(x_t)
        big[d, :d] = normal
        rhs = -np.concatenate([residual, [section]])
        try:
            delta = np.linalg.solve(big, rhs)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular shooting system: {exc}") from exc
        x = x + delta[:d]
        period = period + delta[d]
        if period <= 0:
            raise NewtonError("period became non-positive during Newton")
        size = np.linalg.norm(delta[:d]) / (1.0 + np.linalg.norm(x)) + abs(
            delta[d]
        ) / period
        if size < newton_tol:
            break
    else:
        raise NewtonError(
            f"shooting Newton did not converge in {max_newton} iterations"
        )

    mu = np.linalg.eigvals(phi)
    nontrivial = np.delete(mu, np.argmin(np.abs(mu - 1.0)))
    if np.any(np.abs(nontrivial) >= 1.0):
        raise HyperbolicityError(
            "cycle is not attracting: some nontrivial multiplier has |mu| >= 1"
        )

    shooting_residual = float(np.linalg.norm(flow(model, x, period, settings) - x))
    times = theta_grid(grid_size, 1.0) * period
    samples = flow_samples(model, x, times, settings)
    series = FourierSeries.from_samples(samples, 1.0)
    tail = series.spectral_tail()
    if tail > 1e-8:
        raise GridError(
            f"orbit is not spectrally resolved: top-octave coefficient level "
            f"{tail:.2e} of the peak; increase cycle.grid_N"
        )
    return CycleResult(
        anchor=x,
        period=float(period),
        series=series,
        samples=samples,
        shooting_residual=shooting_residual,
        grid_size=grid_size,
    )


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
    lyapunov: np.ndarray  # real (d,)
    eigenvectors: np.ndarray  # complex (d, d), columns
    classes: tuple
    monodromy: np.ndarray
    hyperbolicity_defect: float
    eigenvector_condition: float
    slow_index: int = 1

    @property
    def dim(self) -> int:
        return len(self.multipliers)

    @property
    def slow_exponent(self) -> complex:
        return self.exponents[self.slow_index]


def _gauge_vector(w: np.ndarray) -> np.ndarray:
    w = w / np.linalg.norm(w)
    mags = np.abs(w)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    w = w * np.exp(-1j * np.angle(w[idx]))
    if w[idx].real < 0:
        w = -w
    return w


def floquet_spectrum(
    model,
    anchor,
    period: float,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    hyperbolicity_tol: float = 1e-6,
    condition_limit: float = 1e10,
    imag_class_tol: float = 1e-2,
) -> FloquetSpectrum:
    """Monodromy eigendecomposition, sorted, classified, and gauged.

    ``imag_class_tol`` is the relative imaginary part below which a
    multiplier is treated as real; it is generous because the weakest
    multipliers sit near the integration noise floor.
    """
    anchor = np.asarray(anchor, dtype=float)
    _, monodromy = flow_with_variational(model, anchor, period, settings)
    mu, vecs = np.linalg.eig(monodromy)

    cond = float(np.linalg.cond(vecs))
    if cond > condition_limit:
        raise DefectiveSpectrumError(
            f"monodromy eigenvector condition number {cond:.2e} exceeds limit"
        )

    i_triv = int(np.argmin(np.abs(mu - 1.0)))
    defect = float(np.abs(mu[i_triv] - 1.0))
    if defect > hyperbolicity_tol:
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

    d = len(mu)
    classes = [CLASS_TRIVIAL]
    exponents = np.zeros(d, dtype=complex)
    gauged = np.zeros((d, d), dtype=complex)
    gauged[:, 0] = _gauge_vector(vec_sorted[:, 0]).real.astype(complex)

    j = 1
    while j < d:
        m = mu_sorted[j]
        if abs(m.imag) <= imag_class_tol * abs(m):
            re = m.real
            w = _gauge_vector(vec_sorted[:, j])
            w = (w.real / np.linalg.norm(w.real)).astype(complex)
            gauged[:, j] = w
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
            conj = j + 1 if lead == j else j
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

    lyapunov = np.log(np.abs(mu_sorted)) / period
    lyapunov[0] = 0.0
    return FloquetSpectrum(
        period=float(period),
        multipliers=mu_sorted,
        exponents=exponents,
        lyapunov=lyapunov,
        eigenvectors=gauged,
        classes=tuple(classes),
        monodromy=monodromy,
        hyperbolicity_defect=defect,
        eigenvector_condition=cond,
    )


def _lattice_distance(value, period: float):
    """Distance from ``value`` to the nearest point of i * (2 pi / T) Z.

    Elementwise for arrays; a Python float for a scalar.
    """
    step = 2.0 * np.pi / period
    value = np.asarray(value)
    im = value.imag - step * np.round(value.imag / step)
    dist = np.hypot(value.real, im)
    return float(dist) if dist.ndim == 0 else dist


@dataclass
class ResonanceReport:
    """Exhaustive low-order resonance scan plus recursion divisor minima."""

    order: int
    tol: float
    entries: list  # (multi_index tuple, target index k, residual)
    flagged: list
    manifold_divisors: dict  # n -> min |2 pi i k/T + n lam_s - lam_j|
    phase_divisors: dict  # n -> min |2 pi i k/T + lam_j + n lam_s|
    amplitude_divisors: dict  # n -> min, excluding the structural free mode

    @property
    def is_resonant(self) -> bool:
        return len(self.flagged) > 0

    def summary(self) -> dict:
        return {
            "order": self.order,
            "tol": self.tol,
            "checked": len(self.entries),
            "flagged": [
                {"multi_index": list(a), "target": k, "residual": r}
                for a, k, r in self.flagged
            ],
            "manifold_divisor_min": {
                str(n): v for n, v in self.manifold_divisors.items()
            },
            "phase_divisor_min": {str(n): v for n, v in self.phase_divisors.items()},
            "amplitude_divisor_min": {
                str(n): v for n, v in self.amplitude_divisors.items()
            },
        }


def check_resonances(
    spectrum: FloquetSpectrum, max_order: int, tol: float = 1e-8
) -> ResonanceReport:
    """Scan all multi-indices |a| <= max_order for exponent resonances.

    A combination ``sum_i a_i lam_i - lam_k`` counts as resonant when it is
    within ``tol`` of the lattice ``i (2 pi / T) Z`` (exponents are defined
    modulo that lattice).  The report also tabulates the smallest divisors
    appearing in the manifold and response recursions, minimized in closed
    form over all integer wavenumbers.
    """
    if max_order < 2:
        raise ValueError("resonance order must be >= 2")
    lam = spectrum.exponents[1:]
    T = spectrum.period
    n_dir = len(lam)

    indices = []
    for total in range(2, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(n_dir), total):
            a = [0] * n_dir
            for c in combo:
                a[c] += 1
            indices.append(tuple(a))
    # value = sum_i a_i lam_i, accumulated left to right as sum() does, so
    # every residual is the one a scalar loop would compute
    counts = np.array(indices, dtype=np.int64).reshape(len(indices), n_dir)
    value = np.zeros(len(indices), dtype=complex)
    for i in range(n_dir):
        value = value + counts[:, i] * lam[i]
    residuals = _lattice_distance(value[:, None] - lam[None, :], T).tolist()
    entries = [
        (a, k, r) for a, row in zip(indices, residuals) for k, r in enumerate(row)
    ]
    flagged = [entry for entry in entries if entry[2] < tol]

    lam_s = spectrum.exponents[spectrum.slow_index]
    all_lam = spectrum.exponents
    manifold = {}
    for n in range(2, max_order + 1):
        manifold[n] = min(
            _lattice_distance(n * lam_s - lj, T) for lj in all_lam
        )
    phase = {}
    amplitude = {}
    for n in range(1, max_order + 1):
        phase[n] = min(_lattice_distance(lj + n * lam_s, T) for lj in all_lam)
        amp_vals = [
            _lattice_distance(lj + (n - 1) * lam_s, T)
            for j, lj in enumerate(all_lam)
            if not (n == 1 and j == 0)  # structural free mode
        ]
        amplitude[n] = min(amp_vals)

    return ResonanceReport(
        order=max_order,
        tol=tol,
        entries=entries,
        flagged=flagged,
        manifold_divisors=manifold,
        phase_divisors=phase,
        amplitude_divisors=amplitude,
    )
