import math
import time
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients

import slowphase.cycle as cycle_mod
import slowphase.frames as frames_mod
from slowphase import dop853
from slowphase.cycle import CLASS_PAIR_CONJ, _variational_rhs, variational_sweep
from slowphase.errors import ConfigError, IntegrationError, ModelError
from slowphase.integrate import (
    DEFAULT_SETTINGS,
    RTOL_FLOOR,
    CycleInterpolant,
    IntegratorSettings,
    _field_rhs,
    _integrate,
    flow,
)
from slowphase.models import VectorFieldModel, make_ei_model, make_oracle_model
from slowphase.series import FourierSeries, theta_grid

from sampled_flow import sampled_flow


def test_settings_validation():
    with pytest.raises(ConfigError, match="integrator.rtol"):
        IntegratorSettings(rtol=-1.0)
    with pytest.raises(ConfigError, match="integrator.atol"):
        IntegratorSettings(atol=0.0)
    with pytest.raises(ConfigError, match="integrator.rtol"):
        IntegratorSettings(rtol=float("nan"))  # DOP853 would never finish
    with pytest.raises(ConfigError, match="integrator.max_steps"):
        IntegratorSettings(max_steps=0)


def test_rtol_below_floor_rejected():
    # DOP853 cannot hold a tolerance below 100 eps; scipy raised it to the
    # floor behind a warning, so a run used another tolerance than its own
    assert RTOL_FLOOR == 100 * np.finfo(float).eps
    IntegratorSettings(rtol=RTOL_FLOOR)
    for rtol in (1e-15, np.nextafter(RTOL_FLOOR, 0.0)):
        with pytest.raises(ConfigError, match="integrator.rtol"):
            IntegratorSettings(rtol=rtol)


def test_tableau_equals_scipy():
    """The in-house coefficients are scipy's, bit for bit, layout included."""
    ref = dop853_coefficients
    n = ref.N_STAGES
    pairs = [
        (dop853.A, ref.A), (dop853.B, ref.A[n, :n]), (dop853.C, ref.C),
        (dop853.D, ref.D), (dop853.E3, ref.E3), (dop853.E5, ref.E5),
    ]
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    assert dop853.N_STAGES == n
    assert sum(np.count_nonzero(ours) for ours, _ in pairs) == 169


def _scipy_integrate(fun, t0, y0, t1, settings, t_eval):
    """The driver's loop on scipy's DOP853: the solver at its end, the
    samples, and (t, y) of every step."""
    solver = DOP853(fun, t0, y0, t_bound=t1, rtol=settings.rtol, atol=settings.atol)
    order = np.argsort(t_eval if t1 > t0 else -t_eval, kind="stable")
    want = t_eval[order]
    out = np.full((len(t_eval), y0.size), np.nan)
    cursor = 0
    while cursor < len(want) and want[cursor] == t0:
        out[order[cursor]] = y0
        cursor += 1
    trail = []
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            return solver, out, trail
        trail.append((solver.t, solver.y.copy()))
        dense = solver.dense_output()
        lo, hi = sorted((dense.t_min, dense.t_max))
        stop = cursor
        while stop < len(want) and lo <= want[stop] <= hi:
            stop += 1
        if stop > cursor:
            out[order[cursor:stop]] = dense(want[cursor:stop]).T
            cursor = stop
    return solver, out, trail


_START = {
    "ei": (0.05, -0.5, 0.5, 0.05, -0.5, 0.5),
    "oracle": (0.7, 0.2),
}


@hyp_settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_START)),
    variational=st.booleans(),
    kick=st.lists(st.floats(-0.2, 0.2), min_size=6, max_size=6),
    horizon=st.floats(0.05, 3.0),
    backward=st.booleans(),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=12),
)
# backward from radius 1.3 the oracle blows up at t = -0.45
@example(name="oracle", variational=False, kick=[0.6, -0.2, 0, 0, 0, 0],
         horizon=1.0, backward=True, fractions=[0.5])
def test_driver_equals_scipy_dop853(name, variational, kick, horizon, backward, fractions):
    """Forward and backward flows of model states (and of the variational
    system) are bitwise scipy's: end state, step count, the samples of the
    steps kept through on_step, and the (t, y) that on_step sees after every
    step.  A flow that blows up fails
    at the same step in both.  The right-hand sides are the ones the package
    integrates: the point-field closure and the pass's (x, Phi, Psi)
    system, from the identity as each chunk starts."""
    model = make_ei_model() if name == "ei" else make_oracle_model()
    d = model.dim
    x0 = np.asarray(_START[name]) + np.asarray(kick[:d])
    if variational:
        fun = _variational_rhs(model)
        y0 = np.concatenate([x0, np.tile(np.eye(d).ravel(), 2)])
    else:
        fun = _field_rhs(model)
        y0 = x0
    t0, t1 = (horizon, 0.0) if backward else (0.0, horizon)
    t_eval = np.array([t0, t1] + [f * horizon for f in fractions])

    trail = []

    def on_step(solver):
        trail.append((solver.t, solver.y.copy()))

    ref, ref_samples, ref_trail = _scipy_integrate(fun, t0, y0, t1, DEFAULT_SETTINGS, t_eval)
    if ref.status == "failed":
        with pytest.raises(IntegrationError, match="integrator failed") as err:
            _integrate(fun, t0, y0, t1, DEFAULT_SETTINGS, on_step=on_step)
        assert err.value.time == ref.t
    else:
        end = _integrate(fun, t0, y0, t1, DEFAULT_SETTINGS, on_step=on_step)
        assert end.tobytes() == ref.y.tobytes()
        kept_end, samples = sampled_flow(fun, t0, y0, t1, t_eval)
        assert kept_end.tobytes() == end.tobytes()
        assert samples.tobytes() == ref_samples.tobytes()
    assert len(trail) == len(ref_trail)
    for (t, y), (ref_t, ref_y) in zip(trail, ref_trail):
        assert t == ref_t and y.tobytes() == ref_y.tobytes()


def _spied_sweep(model, anchor, period, grid_size, monkeypatch):
    """The variational sweep (the cycle stage's pass) from ``anchor``, and
    per chunk integration it ran, its arguments and grid times."""
    chunks = []
    integrate = cycle_mod._integrate

    def spy(fun, t0, y0, t1, settings, **kwargs):
        chunks.append((fun, t0, y0, t1, settings))
        return integrate(fun, t0, y0, t1, settings, **kwargs)

    monkeypatch.setattr(cycle_mod, "_integrate", spy)
    sweep = cycle_mod.variational_sweep(model, anchor, period, grid_size)
    times = theta_grid(grid_size) * period
    return sweep, [chunk + (times[sweep.chunk == c],) for c, chunk in enumerate(chunks)]


def test_sweep_chunks_equal_unsampled_chunks_and_scipy_dop853(ei_run, monkeypatch):
    """Each chunk of the variational sweep on ei, which integrates x with Phi
    and Psi, ends bitwise where the same chunk ends without keeping its
    steps, and both its end state and its samples of x and Phi at the grid
    times of the chunk are bitwise scipy's DOP853; each chunk starts x at the
    previous chunk's end."""
    result = ei_run.result
    cycle = result.cycle
    sweep, chunks = _spied_sweep(result.model, cycle.anchor, cycle.period, cycle.grid_size,
                                 monkeypatch)
    d = result.model.dim
    assert len(chunks) == cycle_mod.IDENTITY_CHUNKS
    x = result.cycle.anchor
    for c, (fun, t0, y0, t1, settings, t_eval) in enumerate(chunks):
        assert y0[:d].tobytes() == x.tobytes(), c
        end = _integrate(fun, t0, y0, t1, settings)
        assert sweep.ends[c].tobytes() == end[d:].tobytes(), c
        ref, samples, _ = _scipy_integrate(fun, t0, y0, t1, settings, t_eval)
        assert ref.status == "finished"
        assert end.tobytes() == ref.y.tobytes(), c
        inside = sweep.chunk == c
        assert sweep.states[inside].tobytes() == samples[:, :d].tobytes(), c
        assert sweep.flows[inside].tobytes() == samples[:, d:d + d * d].tobytes(), c
        x = end[:d]
    assert sweep.end_state.tobytes() == x.tobytes()


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_shifted_columns_equal_scipy_dop853(ei_run, direction, monkeypatch):
    """The bundle's exponent-shifted seed columns on ei for the exponents on
    one route (forward by Phi, backward by Psi^T) are bitwise the columns
    assembled from scipy's DOP853 run over each chunk of the variational
    sweep."""
    result = ei_run.result
    model, spectrum = result.model, result.spectrum
    lams, vecs = spectrum.exponents, spectrum.eigenvectors
    cycle = result.cycle
    sweep, chunks = _spied_sweep(model, cycle.anchor, cycle.period, cycle.grid_size,
                                 monkeypatch)
    d = model.dim
    ends = np.empty(sweep.ends.shape)
    ref_samples = np.empty((len(sweep.chunk), d + d * d))
    for c, (fun, t0, y0, t1, settings, t_eval) in enumerate(chunks):
        ref, samples, _ = _scipy_integrate(fun, t0, y0, t1, settings, t_eval)
        assert ref.status == "finished"
        ends[c] = ref.y[d:].reshape(ends.shape[1:])
        ref_samples[sweep.chunk == c] = samples[:, :d + d * d]
    ref_sweep = replace(sweep, ends=ends, samples=ref_samples)

    group = [
        j for j in range(1, model.dim)
        if spectrum.classes[j] != CLASS_PAIR_CONJ
        and frames_mod._integration_route(lams[j], lams, result.cycle.period) == direction
    ]
    assert group
    seeds = {j: vecs[:, j] for j in group}
    cols, routes = frames_mod._seed_columns(sweep, seeds, lams)
    expected, _ = frames_mod._seed_columns(ref_sweep, seeds, lams)
    assert set(routes.values()) == {direction}
    assert cols[:, :, group].tobytes() == expected[:, :, group].tobytes()


@pytest.mark.parametrize("grid_size", [8, 32])
def test_sweep_samples_at_chunk_starts_and_coarse_grids_equal_scipy_dop853(
        grid_size, monkeypatch):
    """On the oracle's unit circle at grid 8, where every other chunk holds
    no grid time, and at grid 32, the pass's samples of x and Phi are
    bitwise scipy's DOP853 run over each chunk.  A grid time at a chunk's
    start is that chunk's initial state: x from the previous chunk's end
    (the anchor for chunk 0) and Phi the identity."""
    model, anchor, period = make_oracle_model(), np.array([1.0, 0.0]), 2.0 * np.pi
    sweep, chunks = _spied_sweep(model, anchor, period, grid_size, monkeypatch)
    d = model.dim
    assert len(chunks) == cycle_mod.IDENTITY_CHUNKS
    ref_samples = np.empty((grid_size, d + d * d))
    x = anchor
    for c, (fun, t0, y0, t1, settings, t_eval) in enumerate(chunks):
        assert y0[:d].tobytes() == x.tobytes(), c
        ref, samples, _ = _scipy_integrate(fun, t0, y0, t1, settings, t_eval)
        assert ref.status == "finished"
        ref_samples[sweep.chunk == c] = samples[:, :d + d * d]
        x = ref.y[:d]
    assert sweep.states.tobytes() == ref_samples[:, :d].tobytes()
    assert sweep.flows.tobytes() == ref_samples[:, d:].reshape(-1, d, d).tobytes()
    assert sweep.end_state.tobytes() == x.tobytes()

    starts = theta_grid(grid_size) * period == sweep.edges[sweep.chunk]
    assert np.count_nonzero(starts) == min(grid_size, cycle_mod.IDENTITY_CHUNKS)
    held = np.bincount(sweep.chunk, minlength=cycle_mod.IDENTITY_CHUNKS)
    assert (np.count_nonzero(held == 0) == 8) == (grid_size == 8)
    for c in sweep.chunk[starts]:
        x = anchor if c == 0 else chunks[c][2][:d]
        row = np.flatnonzero(starts & (sweep.chunk == c))
        assert sweep.states[row].tobytes() == x.tobytes()
        assert np.array_equal(sweep.flows[row[0]], np.eye(d))


@pytest.mark.parametrize("horizon", [np.inf, -np.inf, np.nan])
def test_non_finite_horizon_raises_at_once(horizon):
    # every comparison of the step-size loop is false for NaN: it would spin
    # inside one step and never reach the step budget
    model = make_ei_model()
    y0 = np.concatenate([_START["ei"], np.tile(np.eye(model.dim).ravel(), 2)])
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="times must be finite"):
        _integrate(_variational_rhs(model), 0.0, y0, horizon,
                   IntegratorSettings(max_steps=2000))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(IntegrationError, match="times must be finite"):
        flow(model, np.asarray(_START["ei"]), horizon)
    with pytest.raises(IntegrationError, match="times must be finite"):
        _integrate(lambda t, y: -y, horizon, np.ones(2), 1.0, DEFAULT_SETTINGS)


@pytest.mark.parametrize("length", [5, 7])
def test_variational_flow_rejects_wrong_state_length(length):
    model = make_ei_model()
    start = time.perf_counter()
    with pytest.raises(ModelError, match=r"shape \(6,\)"):
        variational_sweep(model, np.full(length, 0.1), 0.1, 8)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("period", [math.inf, math.nan])
def test_variational_sweep_rejects_a_non_finite_period(period):
    # the typed error comes before any arithmetic on the period, so the
    # suite's warnings-as-errors filter sees no RuntimeWarning first
    with pytest.raises(IntegrationError, match=f"period must be finite, got {period}"):
        variational_sweep(make_ei_model(), np.full(6, 0.1), period, 64)


def test_flow_time_zero_is_identity():
    model = make_oracle_model()
    x0 = np.array([0.3, -0.7])
    assert np.array_equal(flow(model, x0, 0.0), x0)


def test_flow_full_turn_returns_to_start():
    model = make_oracle_model()
    out = flow(model, np.array([1.0, 0.0]), 2.0 * np.pi)
    assert np.linalg.norm(out - [1.0, 0.0]) < 1e-10


def test_flow_semigroup_property():
    model = make_oracle_model()
    rng = np.random.default_rng(0)
    x0 = np.array([1.2, 0.4])
    for _ in range(5):
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        once = flow(model, flow(model, x0, t1), t2)
        direct = flow(model, x0, t1 + t2)
        assert np.linalg.norm(once - direct) < 1e-9


def test_flow_backward_inverts_forward():
    model = make_oracle_model()
    x0 = np.array([0.9, 0.1])
    there = flow(model, x0, 1.3)
    back = flow(model, there, -1.3)
    assert np.linalg.norm(back - x0) < 1e-9


def _psi_product(sweep):
    # Psi's chunk ends multiplied, last chunk leftmost: the adjoint monodromy
    return reduce(lambda m, end: end @ m, sweep.ends[:, 1])


def test_variational_identity_at_time_zero():
    sweep = variational_sweep(make_oracle_model(), np.array([1.0, 0.0]), 0.0, 8)
    assert np.array_equal(sweep.end_state, [1.0, 0.0])
    for product in (sweep.product(), _psi_product(sweep)):
        assert np.array_equal(product, np.eye(2))


def test_variational_monodromy_eigenvalues():
    """Over one period of the oracle's unit circle, the pass's Phi product
    has multipliers 1 and e^{-4 pi}, and its Psi product their inverses."""
    sweep = variational_sweep(make_oracle_model(), np.array([1.0, 0.0]), 2.0 * np.pi, 8)
    for product, rate in ((sweep.product(), -4.0), (_psi_product(sweep), 4.0)):
        eigs = np.sort(np.abs(np.linalg.eigvals(product)))
        expected = np.sort([1.0, np.exp(rate * np.pi)])
        assert np.max(np.abs(eigs - expected) / expected) < 1e-8, rate


def test_blowup_reports_failure_time():
    model = VectorFieldModel(
        name="quadratic",
        dim=1,
        params={},
        state_names=("x",),
        rhs=lambda u: (u[0] * u[0],),
    )
    # dx/dt = x^2 from x=1 blows up at t=1
    with pytest.raises(IntegrationError) as err:
        flow(model, np.array([1.0]), 2.0)
    assert err.value.time is not None
    assert 0.9 < err.value.time <= 1.1


def test_non_finite_start_raises_before_stepping():
    # a NaN field at t0 gives a NaN first step, whose step() would never return
    with pytest.raises(IntegrationError, match="non-finite field"):
        _integrate(lambda t, y: y * np.nan, 0.0, np.ones(2), 1.0, DEFAULT_SETTINGS)
    with pytest.raises(IntegrationError, match="non-finite initial state"):
        _integrate(lambda t, y: y, 0.0, np.array([np.nan, 0.0]), 1.0, DEFAULT_SETTINGS)
    # over a zero span too, where no step is taken
    with pytest.raises(IntegrationError, match="non-finite initial state"):
        flow(make_oracle_model(), np.array([np.nan, 0.0]), 0.0)
    # a finite state whose field overflows
    start = np.array([1e200, 1e200, 0.5, 0.05, -0.5, 0.5])
    with pytest.raises(IntegrationError, match="non-finite field") as err:
        flow(make_ei_model(), start, 1.0)
    assert err.value.time == 0.0


def test_step_budget_exhaustion():
    model = make_oracle_model()
    tiny = IntegratorSettings(max_steps=3)
    with pytest.raises(IntegrationError):
        flow(model, np.array([1.0, 0.0]), 50.0, tiny)


def test_integrate_samples_along_trajectory():
    # steps kept through on_step sample the unit circle, and keeping them
    # leaves the end state the one flow returns, bit for bit
    model = make_oracle_model()
    x0 = np.array([1.0, 0.0])
    times = np.linspace(0.0, np.pi, 9)
    end, samples = sampled_flow(lambda t, y: model.eval(y), 0.0, x0, 2.0 * np.pi, times)
    expected = np.stack([np.cos(times), np.sin(times)], axis=1)
    assert np.max(np.abs(samples - expected)) < 1e-9
    assert np.array_equal(end, flow(model, x0, 2.0 * np.pi))


@pytest.mark.parametrize("n", [8, 16, 64])
def test_interpolant_matches_two_sided_sum(n):
    """The table reproduces the full sum, Nyquist row included, of a one-sided
    series and of the two-sided series of the same samples."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 2, 3))
    period = 3.7
    times = rng.uniform(-2.0 * period, 3.0 * period, 25)
    for series in (FourierSeries.from_samples(values),
                   FourierSeries.from_samples(values.astype(complex))):
        assert np.max(np.abs(series.coef[n // 2])) > 1e-3  # nonzero Nyquist row
        interp = CycleInterpolant(series, period)
        for t in times:
            value = interp(t)
            assert value.shape == (2, 3)
            assert np.max(np.abs(value - _two_sided_sum(series, t, period))) < 1e-13


def _two_sided_sum(series, t, period):
    """Real part of the two-sided sum of ``series`` at time ``t``, with each
    phase reduced exactly: at x = t N / period = j + r grid cells, mode k
    turns by ((k j) mod N) / N + k r / N of a circle, so no phase argument
    exceeds pi, and its rounding does not grow with k or t.  A one-sided row
    0 < k < N/2 counts twice, for its conjugate row."""
    n, k = series.grid_size, series.k
    x = t * (n / period)
    j = math.floor(x + 0.5)
    turns = (k * j) % n / n + k * (x - j) / n
    weights = np.where(k % (n // 2) == 0, 1.0, 2.0) if series.real else 1.0
    return np.tensordot(weights * np.exp(2j * np.pi * turns), series.coef, axes=(0, 0)).real


@hyp_settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log2_n=st.integers(3, 9),
    band=st.floats(0.0, 1.0),
    period=st.floats(0.5, 50.0),
    where=st.sampled_from(["before", "after", "node", "midpoint"]),
    cycles=st.integers(-3, 3),
)
def test_taylor_table_matches_two_sided_sum(
        seed, log2_n, band, period, where, cycles):
    """On random band-limited series the Taylor table reproduces the
    two-sided sum at t < 0, t > T, on grid nodes and at node midpoints."""
    n = 2**log2_n
    rng = np.random.default_rng(seed)
    k_cut = 1 + int(band * (n // 2 - 1))
    series = FourierSeries.from_samples(rng.standard_normal((n, 3))).band_limited(k_cut)
    interp = CycleInterpolant(series, period)
    if where == "before":
        t = -rng.uniform(0.0, 3.0 * period)
    elif where == "after":
        t = period * rng.uniform(1.0, 4.0)
    else:
        node = int(rng.integers(n)) + (0.5 if where == "midpoint" else 0.0)
        t = (node / n + cycles) * period
    value = interp(t)
    assert value.shape == (3,) and value.flags.c_contiguous
    assert np.max(np.abs(value - _two_sided_sum(series, t, period))) < 1e-13


def _damped(t, y):
    """A damped rotation, forced."""
    return np.array([[-0.1, 1.0], [-1.0, -0.1]]) @ y + np.sin(t)


@pytest.mark.parametrize("t0, t1", [(0.0, 5.0), (5.0, 0.0)])
def test_integrate_samples_equal_scalar_dense_loop(t0, t1):
    """Batched dense-output sampling of kept steps is bitwise the
    one-time-at-a-time loop."""
    settings = IntegratorSettings()
    y0 = np.array([1.4, -0.2])
    times = np.random.default_rng(1).permutation(np.linspace(0.0, 5.0, 101))
    _, samples = sampled_flow(_damped, t0, y0, t1, times, settings)

    expected = np.full((len(times), 2), np.nan)
    expected[times == t0] = y0
    solver = DOP853(_damped, t0, y0, t_bound=t1, rtol=settings.rtol, atol=settings.atol)
    while solver.status == "running":
        solver.step()
        dense = solver.dense_output()
        lo, hi = sorted((dense.t_min, dense.t_max))
        for i, t in enumerate(times):
            if np.isnan(expected[i, 0]) and lo <= t <= hi:
                expected[i] = dense(t)
    assert not np.isnan(expected).any()
    assert samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0)])
def test_samples_at_the_ends_equal_scipy_dop853(t0, t1):
    """Samples at exactly t0 are the initial state, and samples at exactly
    t1 come from the last kept step's interpolant: both bitwise what the
    driver's loop on scipy's DOP853 serves."""
    y0 = np.array([1.4, -0.2])
    t_eval = np.array([t1, t0, t1, t0])
    _, samples = sampled_flow(_damped, t0, y0, t1, t_eval)
    _, ref_samples, _ = _scipy_integrate(_damped, t0, y0, t1, DEFAULT_SETTINGS, t_eval)
    assert samples.tobytes() == ref_samples.tobytes()
    assert samples[1].tobytes() == y0.tobytes()


@st.composite
def _sample_times(draw, horizon):
    """Unsorted sample times on [0, horizon]: both ends, and fractions with
    repeats."""
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    repeats = draw(st.lists(st.integers(0, len(fractions) - 1), max_size=6))
    times = [0.0, horizon] + [f * horizon for f in fractions + [fractions[i] for i in repeats]]
    return np.array(draw(st.permutations(times)))


@hyp_settings(max_examples=30, deadline=None)
@given(
    variational=st.booleans(),
    kick=st.lists(st.floats(-0.2, 0.2), min_size=6, max_size=6),
    horizon=st.floats(0.05, 3.0),
    backward=st.booleans(),
    data=st.data(),
)
def test_batched_samples_equal_scipy_dense_output(variational, kick, horizon, backward, data):
    """Samples of the steps kept through on_step, taken after the last step
    in one batch, are bitwise the per-step dense output of scipy's DOP853,
    forward and backward, for
    unsorted times with repeats and both ends: on the oracle's field and on
    ei's variational right-hand side, the pass's system."""
    if variational:
        model = make_ei_model()
        d = model.dim
        fun = _variational_rhs(model)
        y0 = np.concatenate([np.asarray(_START["ei"]) + kick, np.tile(np.eye(d).ravel(), 2)])
    else:
        fun = _field_rhs(make_oracle_model())
        y0 = np.asarray(_START["oracle"]) + kick[:2]
    t0, t1 = (horizon, 0.0) if backward else (0.0, horizon)
    t_eval = data.draw(_sample_times(horizon))
    _, samples = sampled_flow(fun, t0, y0, t1, t_eval)
    ref, ref_samples, _ = _scipy_integrate(fun, t0, y0, t1, DEFAULT_SETTINGS, t_eval)
    assert ref.status == "finished"
    assert samples.tobytes() == ref_samples.tobytes()
