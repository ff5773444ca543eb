import itertools

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.optimize import brentq

from slowphase.cycle import (
    CLASS_PAIR_CONJ,
    CLASS_PAIR_LEAD,
    CLASS_REAL_POSITIVE,
    CLASS_TRIVIAL,
    FloquetSpectrum,
    _first_return,
    check_resonances,
    find_cycle,
    floquet_spectrum,
)
from slowphase.errors import HyperbolicityError, IntegrationError, SectionError
from slowphase.integrate import IntegratorSettings
from slowphase.models import make_oracle_model


@pytest.fixture(scope="module")
def oracle_cycle():
    model = make_oracle_model()
    cycle = find_cycle(model, [1.3, 0.0], grid_size=256, relax_time=20.0)
    spectrum = floquet_spectrum(model, cycle.anchor, cycle.period)
    return model, cycle, spectrum


def test_oracle_period_and_radius(oracle_cycle):
    _, cycle, _ = oracle_cycle
    assert abs(cycle.period - 2.0 * np.pi) < 1e-10
    radii = np.linalg.norm(cycle.samples, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-10
    assert cycle.shooting_residual < 1e-10


def test_anchor_independence_of_period():
    model = make_oracle_model()
    t1 = find_cycle(model, [1.3, 0.0], grid_size=64, relax_time=20.0).period
    t2 = find_cycle(model, [0.2, -0.8], grid_size=64, relax_time=25.0).period
    assert abs(t1 - t2) < 1e-10


def test_degenerate_section_rejected():
    model = make_oracle_model()
    # the origin is an equilibrium: |X| = 0 there
    with pytest.raises(SectionError):
        find_cycle(model, [0.0, 0.0], relax_time=0.0, grid_size=64)


def test_return_search_honours_step_budget():
    model = make_oracle_model()
    with pytest.raises(IntegrationError, match="step budget 3 exhausted"):
        _first_return(
            model, np.array([1.0, 0.0]), IntegratorSettings(max_steps=3), 20.0
        )


@pytest.mark.parametrize(
    "x0, n_crossings",
    [
        ((1.0, 0.0), 1),  # on the cycle: the first crossing returns to x0
        ((1.3, 0.2), 4),  # off the cycle: none comes close, the nearest wins
    ],
    ids=["on_cycle", "off_cycle"],
)
def test_return_time_equals_standalone_crossing_loop(x0, n_crossings):
    """The return search run through _integrate is bitwise a DOP853 + brentq loop."""
    model = make_oracle_model()
    settings = IntegratorSettings()
    x0 = np.array(x0)
    t_max = 30.0
    t_return = _first_return(model, x0, settings, t_max)

    normal = model.eval(x0) / np.linalg.norm(model.eval(x0))

    def g(y):
        return float(np.dot(y - x0, normal))

    solver = DOP853(
        lambda t, y: model.eval(y), 0.0, x0, t_bound=t_max,
        rtol=settings.rtol, atol=settings.atol,
    )
    diameter, g_prev, t_prev = 0.0, 0.0, 0.0
    crossings = []  # (time, distance to x0)
    while solver.status == "running":
        solver.step()
        diameter = max(diameter, float(np.linalg.norm(solver.y - x0)))
        g_now = g(solver.y)
        if g_prev < 0.0 <= g_now and solver.t > 1e-8:
            dense = solver.dense_output()
            t_cross = brentq(
                lambda s: g(dense(s)), t_prev, solver.t, xtol=1e-13, rtol=1e-15
            )
            crossings.append((t_cross, float(np.linalg.norm(dense(t_cross) - x0))))
            if crossings[-1][1] < 1e-3 * diameter:
                expected = t_cross
                break
        g_prev, t_prev = g_now, solver.t
    else:
        expected = min(crossings, key=lambda c: c[1])[0]
    assert len(crossings) == n_crossings
    assert t_return == expected


def test_oracle_spectrum_values(oracle_cycle):
    _, _, spectrum = oracle_cycle
    assert spectrum.classes == (CLASS_TRIVIAL, CLASS_REAL_POSITIVE)
    assert spectrum.multipliers[0] == pytest.approx(1.0, abs=1e-9)
    assert spectrum.exponents[0] == 0.0
    assert spectrum.exponents[1].real == pytest.approx(-2.0, abs=1e-8)
    assert spectrum.multipliers[1].real == pytest.approx(
        np.exp(-4.0 * np.pi), rel=1e-8
    )
    assert spectrum.lyapunov[1] == pytest.approx(-2.0, abs=1e-8)


def test_spectrum_determinant_and_trace_identities(oracle_cycle):
    model, cycle, spectrum = oracle_cycle
    det = np.linalg.det(spectrum.monodromy)
    prod = np.prod(spectrum.multipliers)
    assert det == pytest.approx(prod.real, rel=1e-8)
    # sum of exponents equals the orbit average of the divergence
    jac = model.jacobian(cycle.samples)
    divergence = np.trace(jac, axis1=1, axis2=2).mean()
    assert np.sum(spectrum.exponents).real == pytest.approx(divergence, rel=1e-8)


def test_ei_spectrum_matches_published_table(ei_run):
    """Multipliers and exponents of the network model, printed to 3 digits."""
    spectrum = ei_run.result.spectrum
    T = spectrum.period
    assert spectrum.classes == (
        CLASS_TRIVIAL,
        CLASS_REAL_POSITIVE,
        CLASS_PAIR_LEAD,
        CLASS_PAIR_CONJ,
        "real_negative",
        "real_negative",
    )
    mu = spectrum.multipliers
    assert mu[1].real == pytest.approx(0.0537, rel=0.01)
    assert mu[2].real == pytest.approx(2.3e-4, rel=0.02)
    assert mu[2].imag == pytest.approx(3.13e-4, rel=0.02)
    assert mu[4].real == pytest.approx(-3.99e-10, rel=0.05)
    assert mu[5].real == pytest.approx(-1.57e-10, rel=0.05)
    lam = spectrum.exponents
    assert lam[1].real == pytest.approx(-0.1405, rel=0.01)
    assert lam[2].real == pytest.approx(-0.377, rel=0.01)
    assert lam[2].imag == pytest.approx(0.045, rel=0.01)
    assert lam[4].real == pytest.approx(-1.040, rel=0.01)
    assert lam[5].real == pytest.approx(-1.0845, rel=0.01)
    assert lam[4].imag == np.pi / T
    assert lam[5].imag == np.pi / T


def test_sorting_invariant(ei_run):
    lam = ei_run.result.spectrum.exponents
    real_parts = lam.real
    assert all(real_parts[j + 1] <= real_parts[j] + 1e-12 for j in range(1, len(lam) - 1))


def test_conjugation_consistency(ei_run):
    spectrum = ei_run.result.spectrum
    for j, cls in enumerate(spectrum.classes):
        if cls == CLASS_PAIR_LEAD:
            assert spectrum.multipliers[j + 1] == np.conj(spectrum.multipliers[j])
            assert np.array_equal(
                spectrum.eigenvectors[:, j + 1], np.conj(spectrum.eigenvectors[:, j])
            )


def test_eigenvector_gauge(ei_run):
    vecs = ei_run.result.spectrum.eigenvectors
    for j in range(vecs.shape[1]):
        w = vecs[:, j]
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        mags = np.abs(w)
        first = int(np.argmax(mags > 1e-8 * mags.max()))
        assert abs(w[first].imag) < 1e-10
        assert w[first].real > 0


def test_non_attracting_cycle_reported():
    # reversed oracle: the unit circle repels
    from slowphase.models import VectorFieldModel

    def rhs(u):
        x, y = u
        r2 = x * x + y * y
        return (-(x - y - r2 * x), -(x + y - r2 * y))

    def jac_rows(u):
        x, y = u
        return (
            (-(1.0 - 3 * x * x - y * y), -(-1.0 - 2 * x * y)),
            (-(1.0 - 2 * x * y), -(1.0 - x * x - 3 * y * y)),
        )

    model = VectorFieldModel("reversed", 2, {}, ("x", "y"), rhs, jac_rows)
    with pytest.raises(HyperbolicityError):
        # start exactly on the (now repelling) cycle so the return map exists
        find_cycle(model, [1.0, 0.0], relax_time=0.0, grid_size=64)


def test_resonance_report_oracle_empty(oracle_cycle):
    _, _, spectrum = oracle_cycle
    report = check_resonances(spectrum, max_order=9)
    assert not report.is_resonant
    assert len(report.entries) == 8  # |a| = 2..9, one direction, one target
    # n lam_s - lam_s = (n-1) lam_s: minimal residual at order 2 is |lam_s|
    assert min(r for _, _, r in report.entries) == pytest.approx(2.0, abs=1e-6)


def test_resonance_synthetic_flag():
    spectrum = FloquetSpectrum(
        period=2.0 * np.pi,
        multipliers=np.array([1.0, np.exp(-0.5 * 2 * np.pi), np.exp(-1.0 * 2 * np.pi)]),
        exponents=np.array([0.0, -0.5, -1.0], dtype=complex),
        lyapunov=np.array([0.0, -0.5, -1.0]),
        eigenvectors=np.eye(3, dtype=complex),
        classes=(CLASS_TRIVIAL, CLASS_REAL_POSITIVE, CLASS_REAL_POSITIVE),
        monodromy=np.eye(3),
        hyperbolicity_defect=0.0,
        eigenvector_condition=1.0,
    )
    report = check_resonances(spectrum, max_order=3)
    # lam_2 = 2 lam_1 exactly: multi-index (2, 0) against direction 2
    assert report.is_resonant
    assert ((2, 0), 1, pytest.approx(0.0, abs=1e-14)) in [
        (a, k, r) for a, k, r in report.flagged
    ]


def test_resonance_lattice_reduction():
    # residuals are measured modulo 2 pi i / T: a combination differing by
    # exactly one lattice step counts as resonant
    T = 5.0
    lam = -0.3 + 1j * np.pi / T
    spectrum = FloquetSpectrum(
        period=T,
        multipliers=np.array([1.0, np.exp(lam * T), np.exp(2 * lam.real * T)]),
        exponents=np.array([0.0, lam, 2 * lam.real], dtype=complex),
        lyapunov=np.array([0.0, lam.real, 2 * lam.real]),
        eigenvectors=np.eye(3, dtype=complex),
        classes=(CLASS_TRIVIAL, "real_negative", CLASS_REAL_POSITIVE),
        monodromy=np.eye(3),
        hyperbolicity_defect=0.0,
        eigenvector_condition=1.0,
    )
    report = check_resonances(spectrum, max_order=2)
    # 2 lam_1 - lam_2 = 2 i pi / T, on the lattice
    assert report.is_resonant


def test_ei_no_resonances(ei_run):
    assert not ei_run.result.resonance.is_resonant
    # every recursion divisor stays safely away from zero
    assert min(ei_run.result.resonance.manifold_divisors.values()) > 1e-3
    assert min(ei_run.result.resonance.phase_divisors.values()) > 1e-3
    assert min(ei_run.result.resonance.amplitude_divisors.values()) > 1e-3


def test_resonance_scan_matches_scalar_loop():
    """The vectorised scan gives every residual of a scalar loop, bitwise."""
    T = 20.8
    nu = np.pi / T
    exponents = np.array(
        [0.0, -0.1405, -0.3774 + 0.045j, -0.3774 - 0.045j, -1.04 + nu * 1j,
         -1.0846 + nu * 1j],
        dtype=complex,
    )
    spectrum = FloquetSpectrum(
        period=T,
        multipliers=np.exp(exponents * T),
        exponents=exponents,
        lyapunov=exponents.real,
        eigenvectors=np.eye(6, dtype=complex),
        classes=(CLASS_TRIVIAL, CLASS_REAL_POSITIVE, CLASS_PAIR_LEAD,
                 CLASS_PAIR_CONJ, "real_negative", "real_negative"),
        monodromy=np.eye(6),
        hyperbolicity_defect=0.0,
        eigenvector_condition=1.0,
    )
    report = check_resonances(spectrum, max_order=6)
    lam = exponents[1:]
    step = 2.0 * np.pi / T
    expected = []
    for total in range(2, 7):
        for combo in itertools.combinations_with_replacement(range(5), total):
            a = tuple(combo.count(i) for i in range(5))
            value = sum(ai * li for ai, li in zip(a, lam))
            for k in range(5):
                v = value - lam[k]
                im = v.imag - step * np.round(v.imag / step)
                expected.append((a, k, float(np.hypot(v.real, im))))
    assert len(report.entries) == len(expected)
    assert all(
        got[:2] == want[:2] and got[2].hex() == want[2].hex()
        for got, want in zip(report.entries, expected)
    )
