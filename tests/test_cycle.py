import json
import math
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DOP853
from scipy.optimize import brentq

from slowphase import models
from slowphase.cli import main
from slowphase.cycle import (
    CLASS_PAIR_CONJ,
    CLASS_PAIR_LEAD,
    CLASS_REAL_POSITIVE,
    CLASS_TRIVIAL,
    DIVISOR_TABLES,
    IDENTITY_CHUNKS,
    FloquetSpectrum,
    _brent_root,
    _next_maximum,
    _period_multiple,
    check_resonances,
    find_cycle,
    floquet_spectrum,
)
from slowphase.config import DEFAULT_GUESSES, RunConfig
from slowphase.errors import (
    HyperbolicityError,
    IntegrationError,
    MultiplierUnderflowError,
    ResonanceError,
    SectionError,
)
from slowphase.integrate import (
    DEFAULT_SETTINGS,
    IntegratorSettings,
    _field_rhs,
    _integrate,
)
from slowphase.models import make_oracle_model
from slowphase.pipeline import PipelineResult, Stage, _run_resonance, load_result, run_pipeline
from slowphase.series import FourierSeries
from slowphase.store import read_json

from sampled_flow import sampled_flow


@pytest.fixture(scope="module")
def oracle_cycle():
    model = make_oracle_model()
    cycle = find_cycle(model, [1.3, 0.0], grid_size=256, relax_time=20.0)
    spectrum = floquet_spectrum(cycle.sweep.product(), cycle.period)
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


def test_converged_orbits_span_one_period(oracle_run, ei_run):
    # the harmonics present in a one-period orbit have gcd 1; a doubled
    # period would leave only the even ones (see the CLI test of exit 3)
    for series in (oracle_run.result.cycle.series, ei_run.result.cycle.series):
        assert _period_multiple(series) == 1
    # the ei orbit at every other node, twice: N samples over two periods
    samples = ei_run.result.cycle.samples
    doubled = FourierSeries.from_samples(np.tile(samples[::2], (2, 1)))
    assert _period_multiple(doubled) == 2


def test_degenerate_section_rejected():
    model = make_oracle_model()
    # the origin is an equilibrium: |X| = 0 there, so X_0 never crosses zero
    with pytest.raises(SectionError, match="no maximum"):
        find_cycle(model, [0.0, 0.0], relax_time=0.0, grid_size=64)


def test_flat_maximum_rejected():
    """A crossing of X_0 = 0 at which d X_0 / dt vanishes is no simple
    maximum: component 0 of x0' = -y^3 on the unit circle peaks flat."""
    from slowphase.models import VectorFieldModel

    def rhs(u):
        x0, x, y = u
        r2 = x * x + y * y
        return (-(y * y * y), x - y - r2 * x, x + y - r2 * y)

    def jac_rows(u):
        x0, x, y = u
        return (
            (0.0, 0.0, -3.0 * y * y),
            (0.0, 1.0 - 3 * x * x - y * y, -1.0 - 2 * x * y),
            (0.0, 1.0 - 2 * x * y, 1.0 - x * x - 3 * y * y),
        )

    model = VectorFieldModel("flat", 3, {}, ("x0", "x", "y"), rhs, jac_rows)
    with pytest.raises(SectionError, match="no simple maximum"):
        find_cycle(model, [0.0, 1.0, 0.0], relax_time=0.0, grid_size=64)


def make_twomax_model(b=0.3):
    """State (w, x, y): w' = -3 (w - 2 x y - b x) driven by the oracle circle
    in (x, y), so w has two unequal maxima per period (b = 0: two equal ones,
    a half-period symmetry)."""
    from slowphase.models import VectorFieldModel

    def rhs(u):
        w, x, y = u
        r2 = x * x + y * y
        return (-3.0 * (w - 2.0 * x * y - b * x), x - y - r2 * x, x + y - r2 * y)

    def jac_rows(u):
        w, x, y = u
        return (
            (-3.0, 6.0 * y + 3.0 * b, 6.0 * x),
            (0.0, 1.0 - 3.0 * x * x - y * y, -1.0 - 2.0 * x * y),
            (0.0, 1.0 - 2.0 * x * y, 1.0 - x * x - 3.0 * y * y),
        )

    return VectorFieldModel("twomax", 3, {"b": b}, ("w", "x", "y"), rhs, jac_rows)


@pytest.mark.parametrize("guess", [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
def test_anchor_at_a_minimum_rejected(guess):
    """Newton's section row X_0 = 0 holds at a minimum of component 0 too:
    from these guesses shooting converges to w = -1.0337, the orbit's
    minimum (its maximum is 1.044), where X_0 is crossed upward."""
    with pytest.raises(SectionError, match=r"anchor is not a maximum of component 0: "
                                           r"d X_0 / dt is 4\.68e-01 of \|DX\| \|X\|"):
        find_cycle(make_twomax_model(), guess, grid_size=256, relax_time=40.0)


def test_return_search_honours_step_budget():
    model = make_oracle_model()
    with pytest.raises(IntegrationError, match="step budget 3 exhausted"):
        _next_maximum(
            model, np.array([1.0, 0.0]), IntegratorSettings(max_steps=3), 20.0
        )


@pytest.mark.parametrize(
    "x0",
    [(1.0, 0.0), (1.3, 0.2)],  # at a maximum of x, and off the cycle
    ids=["on_cycle", "off_cycle"],
)
def test_return_time_equals_standalone_crossing_loop(x0):
    """The search for the next maximum, run through _integrate, is bitwise a
    DOP853 + brentq loop over the downward crossings of X_0."""
    model = make_oracle_model()
    settings = IntegratorSettings()
    x0 = np.array(x0)
    t_return, x_return = _next_maximum(model, x0, settings, 30.0)

    def g(y):
        return float(model.eval(y)[0])

    solver = DOP853(
        lambda t, y: model.eval(y), 0.0, x0, t_bound=30.0,
        rtol=settings.rtol, atol=settings.atol,
    )
    g_prev, t_prev = 0.0, 0.0  # the start is never a crossing
    while solver.status == "running":
        solver.step()
        g_now = g(solver.y)
        if g_prev > 0.0 >= g_now:
            dense = solver.dense_output()
            expected = brentq(
                lambda s: g(dense(s)), t_prev, solver.t, xtol=1e-13, rtol=1e-15
            )
            break
        g_prev, t_prev = g_now, solver.t
    assert t_return == expected
    assert np.array_equal(x_return, dense(expected))
    if x0[1] == 0.0:  # one period of the unit circle, from its maximum of x
        assert t_return == pytest.approx(2.0 * np.pi, abs=1e-10)
    assert abs(g(x_return)) < 1e-12


def _expansions(config, out):
    """Grid values of K, Z and I, each of shape (orders, N, d)."""
    result = run_pipeline(replace(config, out_dir=str(out)), through=Stage.RESPONSE)
    return (result.manifold.coeffs.samples(), result.response.phase.samples(),
            result.response.amplitude.samples())


def _peak_relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_ei_expansions_do_not_depend_on_the_guess(tmp_path):
    """The anchor and the sign of sigma come from the model: two guesses give
    the same expansions, order by order, and not merely the same period."""
    config = RunConfig(model="ei", grid_size=1024, order=6)
    scaled = tuple(1.05 * np.array(DEFAULT_GUESSES["ei"]))
    k_a, z_a, i_a = _expansions(config, tmp_path / "default")
    k_b, z_b, i_b = _expansions(replace(config, guess=scaled), tmp_path / "scaled")
    for n in range(len(k_a)):
        assert _peak_relative(k_b[n], k_a[n]) < 1e-11, n
    # orders 5 and up of the response sit at its roundoff floor (about 5e-10
    # of the peak at order 6), so a bound there would gate roundoff
    for n in range(5):
        assert _peak_relative(z_b[n], z_a[n]) < 1e-9, n
        assert _peak_relative(i_b[n], i_a[n]) < 1e-9, n


def test_oracle_expansions_do_not_depend_on_the_guess(oracle_run, tmp_path):
    result = oracle_run.result
    assert oracle_run.config.guess == (1.3, 0.0)
    other = _expansions(replace(oracle_run.config, guess=(0.2, -0.8)), tmp_path)
    ours = (result.manifold.coeffs.samples(), result.response.phase.samples(),
            result.response.amplitude.samples())
    for a, b in zip(ours, other):
        for n in range(len(a)):
            assert _peak_relative(b[n], a[n]) < 1e-13, n


def test_ei_expansions_are_continuous_in_a_parameter(tmp_path):
    """K_1, Z_0 and I_0 at tau_e = 10 +- h and 10 +- h/2: the difference
    halves with h.  A jump of the phase origin or a flip of the sign of sigma
    between neighbouring parameters would leave it of order one."""
    config = RunConfig(model="ei", grid_size=1024, order=1)
    h = 0.04
    parts = {}
    for tau in (10 - h, 10 + h, 10 - h / 2, 10 + h / 2):
        k, z, i = _expansions(replace(config, model_params={"tau_e": tau}),
                              tmp_path / f"tau_{tau}")
        parts[tau] = (k[1], z[0], i[0])
    for j, name in enumerate(("K_1", "Z_0", "I_0")):
        wide = _peak_relative(parts[10 + h][j], parts[10 - h][j])
        narrow = _peak_relative(parts[10 + h / 2][j], parts[10 - h / 2][j])
        assert 1.6 <= wide / narrow <= 2.4, (name, wide, narrow)


def test_cycle_and_spectrum_record_the_search_and_the_sign(ei_run, oracle_run):
    """cycle.json records the relaxation, which stops at the gap Newton needs
    and well before the cap, and the Newton steps; its anchor lies on the
    section X_0 = 0.  The spectrum records the component whose sign each
    gauge fixed."""
    for run in (ei_run, oracle_run):
        config, spectrum = run.config, run.result.spectrum
        stored = read_json(os.path.join(config.out_dir, "cycle.json"))
        search = stored["search"]
        assert search == run.result.cycle.search
        assert search["return_gap"] < math.sqrt(config.newton_tol)
        assert search["relax_returns"] >= 1
        assert search["relaxed_time"] < config.relax_time
        assert search["newton_steps"][-1] < config.newton_tol
        assert abs(run.result.model.eval(np.asarray(stored["anchor"]))[0]) < 1e-12
        for j, idx in enumerate(spectrum.gauge_components):
            mags = np.abs(spectrum.eigenvectors[:, j])
            assert idx == int(np.argmax(mags > 1e-8 * mags.max()))
            assert spectrum.eigenvectors[idx, j].real > 0


def _recorded(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


@settings(max_examples=200, deadline=None)
@given(
    slope=st.floats(0.1, 3.0),
    cubic=st.floats(0.0, 3.0),
    wiggle=st.floats(0.0, 0.99),
    freq=st.floats(0.1, 30.0),
    flip=st.booleans(),
    lo=st.floats(-5.0, 5.0),
    width=st.floats(1e-9, 10.0),
    at=st.floats(0.0, 1.0),
    xtol=st.sampled_from([1e-13, 2e-12, 1e-8, 1e-3]),
    rtol=st.sampled_from([4 * np.finfo(float).eps, 1e-15, 1e-10]),
)
# a bracket on the subnormals, where f(lo) rounds to the sign of f(hi) and
# brentq refuses the bracket
@example(slope=0.6527909251716528, cubic=0.0, wiggle=0.5587686929093881,
         freq=14.586518376152885, flip=False, lo=5e-324, width=1.0, at=5e-324,
         xtol=1e-13, rtol=4 * np.finfo(float).eps)
def test_brent_root_equals_scipy_brentq(
    slope, cubic, wiggle, freq, flip, lo, width, at, xtol, rtol
):
    """Same root, bitwise, after the same sequence of evaluations, on a
    monotone function with its root at a random point of the bracket; where
    brentq refuses the bracket, the same refusal after the same
    evaluations."""
    hi = lo + width
    root_at = lo + at * width
    amp = (1.0 if flip else -1.0) * wiggle * slope / freq  # |amp * freq| < slope

    def base(x):
        return slope * x + cubic * x**3 + amp * math.sin(freq * x)

    offset = base(root_at)

    def f(x):
        return base(x) - offset

    ours, theirs = [], []
    try:
        expected = brentq(_recorded(f, theirs), lo, hi, xtol=xtol, rtol=rtol)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _brent_root(_recorded(f, ours), lo, hi, xtol=xtol, rtol=rtol)
    else:
        root = _brent_root(_recorded(f, ours), lo, hi, xtol=xtol, rtol=rtol)
        assert type(root) is float
        assert root.hex() == float(expected).hex()
    assert [x.hex() for x in ours] == [float(x).hex() for x in theirs]


def test_brent_root_refuses_what_brentq_refuses():
    for fn in (brentq, _brent_root):
        with pytest.raises(ValueError, match="different signs"):
            fn(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13, rtol=1e-15)
        with pytest.raises(ValueError, match="NaN"):
            fn(lambda x: math.nan, -1.0, 1.0, xtol=1e-13, rtol=1e-15)


def test_oracle_spectrum_values(oracle_cycle):
    _, _, spectrum = oracle_cycle
    assert spectrum.classes == (CLASS_TRIVIAL, CLASS_REAL_POSITIVE)
    assert spectrum.multipliers[0] == pytest.approx(1.0, abs=1e-9)
    assert spectrum.exponents[0] == 0.0
    assert spectrum.exponents[1].real == pytest.approx(-2.0, abs=1e-8)
    assert spectrum.multipliers[1].real == pytest.approx(
        np.exp(-4.0 * np.pi), rel=1e-8
    )


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


def test_relaxation_at_the_seed_floor_newton_and_sampling_at_user_settings(
        monkeypatch):
    """The relaxation is a seed for Newton: its searches run at SEED_RTOL
    (atol scaled alike), while Newton's passes, one integration of the
    variational system per chunk and Newton step, keep the user's settings
    and follow the last search; find_cycle integrates nothing else."""
    import slowphase.cycle as cycle_mod
    from slowphase.integrate import SEED_RTOL

    user = IntegratorSettings(rtol=1e-12, atol=1e-13)
    seen = []
    integrate = cycle_mod._integrate

    def spy_integrate(fun, t0, y0, t1, settings, **kwargs):
        kind = "pass" if len(y0) > 2 else "search"  # the oracle's state has 2 components
        seen.append((kind, settings))
        return integrate(fun, t0, y0, t1, settings, **kwargs)

    monkeypatch.setattr(cycle_mod, "_integrate", spy_integrate)
    cycle = find_cycle(make_oracle_model(), [1.3, 0.0], settings=user, grid_size=64,
                       relax_time=20.0)
    kinds = [kind for kind, _ in seen]
    passes = IDENTITY_CHUNKS * len(cycle.search["newton_steps"])
    assert len(cycle.search["newton_steps"]) >= 2
    assert kinds.count("search") >= 2
    assert kinds == ["search"] * (len(kinds) - passes) + ["pass"] * passes
    for kind, settings in seen:
        if kind == "search":
            assert settings.rtol == SEED_RTOL
            assert settings.atol == pytest.approx(user.atol * SEED_RTOL / user.rtol)
        else:
            assert settings is user


@pytest.fixture(scope="module")
def floquet_runs(tmp_path_factory):
    """Cold runs through the Floquet stage, whose cycles carry their pass."""
    configs = {"ei": RunConfig(model="ei", grid_size=1024),
               "oracle": RunConfig(model="oracle", relax_time=20.0, grid_size=128)}
    return {name: run_pipeline(replace(config, out_dir=str(tmp_path_factory.mktemp(name))),
                               through=Stage.FLOQUET)
            for name, config in configs.items()}


@pytest.mark.parametrize("name", ["ei", "oracle"])
def test_loaded_spectrum_is_the_cold_runs_bit_for_bit(floquet_runs, name):
    """spectrum.json stores the monodromy alone, and the loader classifies it
    again with floquet_spectrum and the stored shooting period: every field
    of the loaded spectrum is the cold run's, bit for bit."""
    result = floquet_runs[name]
    stored = read_json(os.path.join(result.config.out_dir, "spectrum.json"))
    assert sorted(stored) == ["inputs", "monodromy"]
    loaded = load_result(result.config).spectrum
    for f in fields(FloquetSpectrum):
        ours, cold = (np.asarray(getattr(s, f.name)) for s in (loaded, result.spectrum))
        assert (ours.dtype, ours.shape) == (cold.dtype, cold.shape), f.name
        assert ours.tobytes() == cold.tobytes(), f.name


@pytest.mark.parametrize("name", ["ei", "oracle"])
def test_sweep_samples_the_orbit_of_a_plain_flow(floquet_runs, name):
    """The pass integrates x with Phi and Psi, chunk by chunk: its x samples,
    the cycle's series, lie within 1e-10 of the peak of one plain-field
    integration from the same anchor, and its end state gives the shooting
    residual."""
    result = floquet_runs[name]
    cycle = result.cycle
    sweep = cycle.sweep
    assert np.array_equal(cycle.series.coef, FourierSeries.from_samples(sweep.states).coef)
    _, plain = sampled_flow(_field_rhs(result.model), 0.0, cycle.anchor, cycle.period,
                            cycle.theta * cycle.period)
    assert _peak_relative(sweep.states, plain) < 1e-10
    assert cycle.shooting_residual == float(np.linalg.norm(sweep.end_state - cycle.anchor))


@pytest.mark.parametrize("name", ["ei", "oracle"])
def test_sweep_monodromy_matches_a_single_shot_flow(floquet_runs, name):
    """The product of the pass's Phi chunk ends is the monodromy: the
    spectrum's monodromy is that product, bitwise, and its multipliers with
    |mu| >= 1e-6 lie within 1e-10 (relative) of those of a single-shot
    variational flow over the period, integrated here as the reference."""
    result = floquet_runs[name]
    cycle = result.cycle
    ends = cycle.sweep.ends[:, 0]
    product = ends[0]
    for end in ends[1:]:
        product = end @ product
    assert result.spectrum.monodromy.tobytes() == product.tobytes()
    d = result.model.dim
    field, jacobian = result.model.point_field(), result.model.point_jacobian()

    def x_and_phi(t, y):
        return np.concatenate([field(y[:d]), (jacobian(y[:d]) @ y[d:].reshape(d, d)).ravel()])

    end = _integrate(x_and_phi, 0.0, np.concatenate([cycle.anchor, np.eye(d).ravel()]),
                     cycle.period, DEFAULT_SETTINGS)
    single = end[d:].reshape(d, d)
    ours, theirs = np.linalg.eigvals(product), np.linalg.eigvals(single)
    for mu in theirs[np.abs(theirs) >= 1e-6]:
        gap = np.min(np.abs(ours - mu)) / abs(mu)
        assert gap < 1e-10, (mu, gap)


def _make_reversed_oracle(overrides=None):
    """The oracle with time reversed: the unit circle repels."""

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

    return models.VectorFieldModel("reversed", 2, {}, ("x", "y"), rhs, jac_rows)


def test_non_attracting_cycle_reported():
    """Shooting converges on a repelling cycle started on it; the Floquet
    stage, which reads the pass's monodromy, refuses it."""
    # start exactly on the (now repelling) cycle so the return map exists
    cycle = find_cycle(_make_reversed_oracle(), [1.0, 0.0], relax_time=0.0, grid_size=64)
    assert abs(cycle.period - 2.0 * np.pi) < 1e-10
    assert cycle.shooting_residual < 1e-10
    with pytest.raises(HyperbolicityError, match="on or outside the unit circle"):
        floquet_spectrum(cycle.sweep.product(), cycle.period)


def test_non_attracting_cycle_fails_the_floquet_stage(monkeypatch, tmp_path, capsys):
    """A repelling cycle passes the cycle stage and is refused by the
    Floquet stage: a numerical abort (exit 3) recorded as the floquet
    stage's, with cycle.json kept and no spectrum written."""
    monkeypatch.setitem(models._REGISTRY, "reversed", _make_reversed_oracle)
    config = RunConfig(model="reversed", guess=(1.0, 0.0), relax_time=0.0,
                       grid_size=64, out_dir=str(tmp_path / "api"))
    with pytest.raises(HyperbolicityError, match="on or outside the unit circle"):
        run_pipeline(config, through=Stage.FLOQUET)
    manifest = read_json(str(tmp_path / "api" / "manifest.json"))
    assert manifest["failed_stage"] == Stage.FLOQUET
    assert os.path.exists(tmp_path / "api" / "cycle.json")
    assert not os.path.exists(tmp_path / "api" / "spectrum.json")
    cfg = tmp_path / "reversed.cfg"
    cfg.write_text(
        "model.name = reversed\n"
        "cycle.guess = 1.0, 0.0\n"
        "cycle.relax_time = 0.0\n"
        "cycle.grid_N = 64\n"
        f"output.directory = {tmp_path / 'cli'}\n"
    )
    capsys.readouterr()
    assert main(["floquet", "--config", str(cfg)]) == 3
    assert "on or outside the unit circle" in capsys.readouterr().err
    assert os.path.exists(tmp_path / "cli" / "cycle.json")


def _gate(spectrum, tmp_path, order):
    """The floquet stage's divisor gate on ``spectrum`` at the default
    ``solver.small_divisor_tol``; returns the report it wrote, which it
    writes before it decides, whether it raises or not."""
    result = PipelineResult(config=RunConfig(order=order, out_dir=str(tmp_path)),
                            spectrum=spectrum)
    try:
        _run_resonance(result)
    finally:
        written = read_json(str(tmp_path / "resonance.json"))
        assert written == json.loads(json.dumps(result.resonance.summary()))
    return result.resonance


def test_resonance_report_oracle_empty(oracle_cycle, tmp_path):
    """The oracle's exponents are 0 and lam_s = -2 (T = 2 pi), so its tables
    are closed forms: manifold 2 (n - 1) at n = 2..10, phase 2 n at 1..9,
    amplitude 1 at n = 1 (the trivial direction's k = +-1 divisor 2 pi / T;
    its k = 0 mode is free) and 2 (n - 1) at 2..9; the gate passes them."""
    _, _, spectrum = oracle_cycle
    report = _gate(spectrum, tmp_path, 9)
    want = {
        "manifold": {n: 2.0 * (n - 1) for n in range(2, 11)},
        "phase": {n: 2.0 * n for n in range(1, 10)},
        "amplitude": {n: 2.0 * (n - 1) if n > 1 else 1.0 for n in range(1, 10)},
    }
    for name in DIVISOR_TABLES:
        got = report.minima(name)
        assert list(got) == list(want[name])
        assert got == pytest.approx(want[name], rel=1e-10)
    assert list(report.summary()) == [f"{name}_divisor_min" for name in DIVISOR_TABLES]


def _spectrum(period, exponents):
    """A spectrum of ``exponents`` (trivial first, then the slow one) with
    eigenvector basis the identity, as the divisor gate reads it."""
    exponents = np.asarray(exponents, dtype=complex)
    return FloquetSpectrum(
        period=period,
        multipliers=np.exp(exponents * period),
        exponents=exponents,
        eigenvectors=np.eye(len(exponents), dtype=complex),
        classes=(CLASS_TRIVIAL,) + (CLASS_REAL_POSITIVE,) * (len(exponents) - 1),
        monodromy=np.eye(len(exponents)),
        hyperbolicity_defect=0.0,
        eigenvector_condition=1.0,
    )


def test_resonance_synthetic_flag(tmp_path):
    # lam_2 = 2 lam_s exactly: manifold order 2 divides by 2 lam_s - lam_2 = 0
    spectrum = _spectrum(2.0 * np.pi, [0.0, -0.5, -1.0])
    message = (r"manifold divisor of order 2 in direction 2 is 0\.000e\+00, "
               r"below solver\.small_divisor_tol = 1e-08")
    with pytest.raises(ResonanceError, match=message):
        _gate(spectrum, tmp_path, 3)
    assert check_resonances(spectrum, 3).tables["manifold"][2][2] == 0.0


def test_resonance_gate_refuses_a_nan_divisor(tmp_path):
    """A NaN divisor, here from a NaN period, is no divisor above the
    tolerance: the gate raises, where a `divisor < tol` test passed it."""
    spectrum = _spectrum(math.nan, [0.0, -0.5, -1.2])
    result = PipelineResult(config=RunConfig(order=3, out_dir=str(tmp_path)),
                            spectrum=spectrum)
    with pytest.raises(ResonanceError, match=r"divisor of order \d+ in direction \d+ is nan"):
        _run_resonance(result)


def test_resonance_lattice_reduction(tmp_path):
    # divisors are measured modulo 2 pi i / T: 2 lam_s - lam_2 = 2 pi i / T
    # is one lattice step, so the manifold divisor at k = -1 is zero
    T = 5.0
    lam = -0.3 + 1j * np.pi / T
    spectrum = _spectrum(T, [0.0, lam, 2 * lam.real])
    assert check_resonances(spectrum, 2).tables["manifold"][2][2] < 1e-15
    with pytest.raises(ResonanceError, match="manifold divisor of order 2 in direction 2 "):
        _gate(spectrum, tmp_path, 2)


def test_ei_no_resonances(ei_run):
    # every recursion divisor stays safely away from zero
    report = ei_run.result.resonance
    for name in DIVISOR_TABLES:
        assert min(report.minima(name).values()) > 1e-3


def ei_like_spectrum():
    """A 6-direction spectrum with the classes of the network model."""
    T = 20.8
    nu = np.pi / T
    exponents = np.array(
        [0.0, -0.1405, -0.3774 + 0.045j, -0.3774 - 0.045j, -1.04 + nu * 1j,
         -1.0846 + nu * 1j],
        dtype=complex,
    )
    return FloquetSpectrum(
        period=T,
        multipliers=np.exp(exponents * T),
        exponents=exponents,
        eigenvectors=np.eye(6, dtype=complex),
        classes=(CLASS_TRIVIAL, CLASS_REAL_POSITIVE, CLASS_PAIR_LEAD,
                 CLASS_PAIR_CONJ, "real_negative", "real_negative"),
        monodromy=np.eye(6),
        hyperbolicity_defect=0.0,
        eigenvector_condition=1.0,
    )


def scalar_lattice_distance(v, T):
    step = 2.0 * np.pi / T
    im = v.imag - step * np.round(v.imag / step)
    return float(np.hypot(v.real, im))


def test_divisor_tables_match_scalar_loop():
    """The three divisor tables hold, per order and direction, the divisors a
    scalar loop takes, bitwise, over the orders each recursion solves at
    order 9: the manifold's 2..10 (it adds order 10), both responses'
    1..9.  At amplitude order 1 the trivial direction's k = 0 mode is free,
    so its entry is the k = +-1 divisor 2 pi / T."""
    spectrum = ei_like_spectrum()
    T, lam = spectrum.period, spectrum.exponents
    lam_s = lam[1]
    report = check_resonances(spectrum, 9)
    want = {
        "manifold": {n: [scalar_lattice_distance(n * lam_s - lj, T) for lj in lam]
                     for n in range(2, 11)},
        "phase": {n: [scalar_lattice_distance(lj + n * lam_s, T) for lj in lam]
                  for n in range(1, 10)},
        "amplitude": {
            n: [2.0 * math.pi / T if (n, j) == (1, 0)
                else scalar_lattice_distance(lj + (n - 1) * lam_s, T)
                for j, lj in enumerate(lam)]
            for n in range(1, 10)
        },
    }
    for name in DIVISOR_TABLES:
        rows = report.tables[name]
        assert list(rows) == list(want[name])
        assert all(row.tolist() == want[name][n] for n, row in rows.items())
        minima = report.minima(name)
        assert all(type(v) is float and v == min(want[name][n]) for n, v in minima.items())
    # the trivial exponent's k = 0 divisor of amplitude order 1 is free, not 0
    assert report.minima("amplitude")[1] > 0.0
    assert list(report.summary()) == [
        "manifold_divisor_min", "phase_divisor_min", "amplitude_divisor_min",
    ]


def _make_stiff_oracle():
    """The oracle with its radial rate times 5: the nontrivial multiplier
    e^{-20 pi} ~ 5e-28 sits far below the monodromy's roundoff."""

    def rhs(u):
        x, y = u
        s = 5.0 * (1.0 - (x * x + y * y))
        return (s * x - y, s * y + x)

    def jac_rows(u):
        x, y = u
        xy = x * y
        return (
            (5.0 * (1.0 - 3.0 * (x * x) - y * y), -10.0 * xy - 1.0),
            (1.0 - 10.0 * xy, 5.0 * (1.0 - x * x - 3.0 * (y * y))),
        )

    return models.VectorFieldModel(
        name="stiff_oracle", dim=2, params={}, state_names=("x", "y"),
        rhs=rhs, jac_rows=jac_rows,
    )


@pytest.fixture
def stiff_oracle(monkeypatch):
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    models.register_model("stiff_oracle", lambda overrides: _make_stiff_oracle())


def test_multiplier_rounding_to_zero_is_a_typed_abort(stiff_oracle, tmp_path, capsys):
    """A multiplier at the roundoff floor of the monodromy (here e^{-20 pi},
    which rounds to 0 or to a few eps of either sign) has no exponent to
    read: it ended the run untyped in the frames stage, from NaN seeds; it is
    a numerical abort (exit 3) of the spectrum that names the multiplier and
    the floor."""
    message = (r"multiplier mu_1 = \S+ lies at the roundoff floor of the monodromy: "
               r"\|mu_1\| = \S+ <= 100 eps \|M\|_2 = ")
    config = RunConfig(model="stiff_oracle", guess=(1.3, 0.0), relax_time=20.0,
                       grid_size=128, out_dir=str(tmp_path / "api"))
    with pytest.raises(MultiplierUnderflowError, match=message):
        run_pipeline(config, through=Stage.FLOQUET)
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(
        "model.name = stiff_oracle\n"
        "cycle.guess = 1.3, 0.0\n"
        "cycle.relax_time = 20.0\n"
        "cycle.grid_N = 128\n"
        f"output.directory = {tmp_path / 'cli'}\n"
    )
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 3
    assert re.search(message, capsys.readouterr().err)


def _make_van_der_pol(overrides):
    """x'' - mu (1 - x^2) x' + x = 0 as (x, x'); mu defaults to 1."""
    mu = float(overrides.get("mu", 1.0))

    def rhs(u):
        x, v = u
        return (v, mu * (1.0 - x * x) * v - x)

    def jac_rows(u):
        x, v = u
        return ((0.0, 1.0), (-2.0 * mu * x * v - 1.0, mu * (1.0 - x * x)))

    return models.VectorFieldModel(
        name="vdp", dim=2, params={"mu": mu}, state_names=("x", "v"),
        rhs=rhs, jac_rows=jac_rows,
    )


@pytest.fixture
def van_der_pol(monkeypatch):
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    models.register_model("vdp", _make_van_der_pol)


@pytest.mark.parametrize("mu", [1.0, 3.0, 4.0, 6.0])
def test_van_der_pol_spectrum_or_a_typed_refusal(van_der_pol, mu, tmp_path):
    """At mu = 1 the slow multiplier (e^{-1.06 T}) stands 1e12 eps |M|_2
    clear of the monodromy's roundoff and its exponent is read; from mu = 3
    the true multiplier lies below that floor, and the spectrum refuses it
    rather than classing a rounding residue."""
    config = RunConfig(model="vdp", model_params={"mu": mu}, guess=(2.0, 0.0),
                       grid_size=1024, out_dir=str(tmp_path))
    if mu == 1.0:
        spectrum = run_pipeline(config, through=Stage.FLOQUET).spectrum
        assert spectrum.classes == (CLASS_TRIVIAL, CLASS_REAL_POSITIVE)
        assert spectrum.exponents[1].real == pytest.approx(-1.0593770, abs=1e-7)
        return
    with pytest.raises(MultiplierUnderflowError, match=r"mu_1 = .* roundoff floor"):
        run_pipeline(config, through=Stage.FLOQUET)


def test_van_der_pol_below_the_floor_exits_3(van_der_pol, tmp_path, capsys):
    cfg = tmp_path / "vdp.cfg"
    cfg.write_text(
        "model.name = vdp\n"
        "model.params.mu = 4\n"
        "cycle.guess = 2.0, 0.0\n"
        "cycle.grid_N = 1024\n"
        f"output.directory = {tmp_path / 'out'}\n"
    )
    capsys.readouterr()
    assert main(["floquet", "--config", str(cfg)]) == 3
    assert "roundoff floor of the monodromy" in capsys.readouterr().err


def test_kept_pass_is_the_pass_of_the_stored_anchor(monkeypatch):
    """Each Newton step runs one pass, and the last step is measured, not
    applied: the cycle keeps that pass, whose start is the anchor, so the
    pass recomputed from the stored anchor and period is bytewise the same,
    and the shooting residual is the last Newton residual's norm."""
    import slowphase.cycle as cycle_mod

    passes = []
    sweep = cycle_mod.variational_sweep

    def spy(model, anchor, period, grid_size, settings):
        passes.append((np.array(anchor), sweep(model, anchor, period, grid_size, settings)))
        return passes[-1][1]

    monkeypatch.setattr(cycle_mod, "variational_sweep", spy)
    model = make_oracle_model()
    cycle = find_cycle(model, [1.3, 0.0], grid_size=128, relax_time=20.0)
    monkeypatch.undo()
    assert len(passes) == len(cycle.search["newton_steps"]) >= 2
    anchor, kept = passes[-1]
    assert kept is cycle.sweep and anchor.tobytes() == cycle.anchor.tobytes()
    assert cycle.shooting_residual == float(np.linalg.norm(kept.end_state - anchor))
    again = cycle_mod.variational_sweep(model, cycle.anchor, cycle.period, 128,
                                        DEFAULT_SETTINGS)
    for name in ("states", "flows", "ends", "end_state"):
        assert getattr(again, name).tobytes() == getattr(kept, name).tobytes(), name


@pytest.mark.parametrize("name", ["oracle", "ei"])
def test_only_the_kept_pass_builds_interpolants(monkeypatch, name):
    """The passes keep every step and build interpolants only when the
    samples are read: in a cold find_cycle only the pass the cycle keeps
    builds any, one per step that serves a grid time, and a Newton step's
    applied pass builds none.  A fresh pass builds none until its samples
    are read, and a second read builds nothing more."""
    import slowphase.cycle as cycle_mod
    from slowphase import dop853 as dop853_mod

    rhs_of_pass, kept, spans, built = [], [], [], []
    variational_rhs, keep = cycle_mod._variational_rhs, dop853_mod.DOP853.keep
    coefficients = dop853_mod._coefficients

    def spy_rhs(model):
        rhs_of_pass.append(variational_rhs(model))
        return rhs_of_pass[-1]

    def spy_keep(solver):
        kept.append(solver.fun)
        spans.append((solver.fun, solver.t_old, solver.t))
        return keep(solver)

    def spy_coefficients(fun, *args):
        built.append(fun)
        return coefficients(fun, *args)

    monkeypatch.setattr(cycle_mod, "_variational_rhs", spy_rhs)
    monkeypatch.setattr(dop853_mod.DOP853, "keep", spy_keep)
    monkeypatch.setattr(dop853_mod, "_coefficients", spy_coefficients)
    if name == "oracle":
        model, guess, grid_size, relax_time = make_oracle_model(), [1.3, 0.0], 64, 20.0
    else:
        model, guess = models.make_ei_model(), DEFAULT_GUESSES["ei"]
        grid_size, relax_time = 1024, 500.0
    cycle = find_cycle(model, guess, grid_size=grid_size, relax_time=relax_time)
    times = cycle.theta * cycle.period
    # a grid time at a chunk's start is the chunk's initial state; any other
    # one is served by the first step whose closed interval holds it
    inner = times[~np.isin(times, np.linspace(0.0, cycle.period, IDENTITY_CHUNKS + 1))]

    def counts(calls):
        return [sum(fun is rhs for fun in calls) for rhs in rhs_of_pass]

    def serving(rhs):
        return sum(bool(np.any((t_old < inner) & (inner <= t)))
                   for fun, t_old, t in spans if fun is rhs)

    assert len(rhs_of_pass) == len(cycle.search["newton_steps"]) >= 2
    assert all(n > 0 for n in counts(kept))
    assert 0 < serving(rhs_of_pass[-1]) <= counts(kept)[-1]
    assert counts(built) == [0] * (len(rhs_of_pass) - 1) + [serving(rhs_of_pass[-1])]

    kept.clear()
    built.clear()
    sweep = cycle_mod.variational_sweep(model, cycle.anchor, cycle.period, grid_size)
    fresh = rhs_of_pass[-1]
    assert kept and all(fun is fresh for fun in kept) and built == []
    flows = sweep.flows
    assert built == [fresh] * serving(fresh)
    assert sweep.states is sweep.states and sweep.flows is flows
    assert built == [fresh] * serving(fresh)
    for field_name in ("states", "flows"):
        assert getattr(sweep, field_name).tobytes() == getattr(cycle.sweep, field_name).tobytes()
