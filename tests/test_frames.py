from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slowphase.cycle as cycle_mod
import slowphase.frames as frames_mod
import slowphase.integrate as integrate_mod
import slowphase.pipeline as pipeline_mod
from slowphase.config import RunConfig
from slowphase.errors import FrameError
from slowphase.cycle import (
    CLASS_PAIR_CONJ,
    CLASS_PAIR_LEAD,
    CLASS_REAL_NEGATIVE,
    CLASS_REAL_POSITIVE,
    IDENTITY_CHUNKS,
    variational_sweep,
)
from slowphase.frames import (
    _integration_route,
    _seed_columns,
    build_adjoint_frame,
    build_bundle_frame,
    cross_check_adjoint_frame,
)
from slowphase.integrate import (
    DEFAULT_SETTINGS,
    SEED_RTOL,
    CycleInterpolant,
    IntegratorSettings,
)
from slowphase.pipeline import Stage, run_pipeline
from slowphase.series import FourierSeries, theta_grid

from sampled_flow import sampled_flow


def test_oracle_bundle_columns_closed_form(oracle_run):
    result = oracle_run.result
    cols = result.bundle.grid_values().real
    # tangent column: K0' = 2 pi (-sin, cos) for the unit-speed angular motion
    expect0 = 2.0 * np.pi * oracle_run.tangent
    assert np.max(np.abs(cols[:, :, 0] - expect0)) < 1e-10
    # slow column: the radial direction, up to the sign gauge
    expect1 = oracle_run.gauge_sign * oracle_run.radial
    assert np.max(np.abs(cols[:, :, 1] - expect1)) < 1e-10


def test_oracle_adjoint_columns_closed_form(oracle_run):
    result = oracle_run.result
    acols = result.adjoint.grid_values().real
    # phase gradient on the cycle: tangent / (2 pi)
    expect0 = oracle_run.tangent / (2.0 * np.pi)
    assert np.max(np.abs(acols[:, :, 0] - expect0)) < 1e-10
    expect1 = oracle_run.gauge_sign * oracle_run.radial
    assert np.max(np.abs(acols[:, :, 1] - expect1)) < 1e-10


def test_frame_residuals_below_spec(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        assert ns.result.bundle.residual < 1e-9
        assert ns.result.adjoint.residual < 1e-9


def test_biorthogonality_pointwise(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        result = ns.result
        q = result.adjoint.grid_values()
        b = result.bundle.grid_values()
        gram = np.einsum("nij,nik->njk", q, b)
        eye = np.eye(result.model.dim)
        assert np.max(np.abs(gram - eye)) < 1e-9


def test_phase_normalization_pointwise(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        result = ns.result
        iprc = result.adjoint.grid_values()[:, :, 0].real
        speed = result.model.eval(result.cycle.samples)
        pairing = np.einsum("ni,ni->n", iprc, speed)
        assert np.max(np.abs(pairing - 1.0 / result.cycle.period)) < 1e-10


def test_amplitude_normalization_pointwise(ei_run):
    result = ei_run.result
    q = result.adjoint.grid_values()
    b = result.bundle.grid_values()
    for j in range(1, result.model.dim):
        pairing = np.einsum("ni,ni->n", q[:, :, j], b[:, :, j])
        assert np.max(np.abs(pairing - 1.0)) < 1e-9


def test_frame_ode_residuals_per_class(ei_run):
    # every column satisfies its order-1 equation with its own exponent
    result = ei_run.result
    cols = result.bundle.grid_values()
    lams = result.bundle.exponents
    jac = result.model.jacobian(result.cycle.samples)
    dq = (
        FourierSeries.from_samples(cols).band_limited(result.band_cut)
        .differentiate().samples()
    )
    res = dq / result.cycle.period - jac @ cols + cols * lams[None, None, :]
    for j in range(result.model.dim):
        assert np.max(np.abs(res[:, :, j])) < 1e-9


def test_real_bundle_antiperiodicity(ei_run):
    result = ei_run.result
    n = result.cycle.grid_size
    assert len(ei_run.theta_real) == 2 * n
    vals, avals = ei_run.bundle_real, ei_run.adjoint_real
    for j in (4, 5):
        assert np.max(np.abs(vals[:n, :, j] + vals[n:, :, j])) < 1e-9
        assert np.max(np.abs(avals[:n, :, j] + avals[n:, :, j])) < 1e-9
    # 1-periodic columns repeat across the lift
    for j in (0, 1, 2, 3):
        assert np.max(np.abs(vals[:n, :, j] - vals[n:, :, j])) < 1e-12


def test_negative_columns_relate_to_complex_by_half_harmonic(ei_run):
    # complex column = e^{-i pi theta} x real antiperiodic column
    result = ei_run.result
    n = result.cycle.grid_size
    phase = np.exp(-1j * np.pi * ei_run.theta_real[:n])
    complex_cols = result.bundle.grid_values()
    real_cols = ei_run.bundle_real
    for j in (4, 5):
        reconstructed = phase[:, None] * real_cols[:n, :, j]
        assert np.max(np.abs(reconstructed - complex_cols[:, :, j])) < 1e-10


def test_real_pair_columns_are_real_and_imaginary_parts(ei_run):
    result = ei_run.result
    n = result.cycle.grid_size
    complex_cols = result.bundle.grid_values()
    real_cols = ei_run.bundle_real
    assert np.max(np.abs(real_cols[:n, :, 2] - complex_cols[:, :, 2].real)) < 1e-12
    assert np.max(np.abs(real_cols[:n, :, 3] - complex_cols[:, :, 2].imag)) < 1e-12


def test_real_frames_biorthogonal(ei_run):
    result = ei_run.result
    q, b = ei_run.adjoint_real, ei_run.bundle_real
    gram = np.einsum("nij,nik->njk", q, b)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-9


def real_generator_matrix(classes, exponents) -> np.ndarray:
    """Real reduced generator: diag of 0, lam, nu, and 2x2 rotation blocks.

    ``classes`` and ``exponents`` are a complex frame's; a negative column
    contributes the real part nu of its exponent, a pair the rotation by the
    imaginary part of its lead exponent.  The real adjoint frame's generator
    is the transpose.
    """
    out = np.zeros((len(classes), len(classes)))
    for i, (cls, lam) in enumerate(zip(classes, exponents)):
        if cls in (CLASS_REAL_POSITIVE, CLASS_REAL_NEGATIVE):
            out[i, i] = lam.real
        elif cls == CLASS_PAIR_LEAD:
            out[i, i] = out[i + 1, i + 1] = lam.real
            out[i, i + 1] = lam.imag
            out[i + 1, i] = -lam.imag
    return out


def _lift_derivative(values, k_cut):
    """theta-derivative of values sampled over the lift theta in [0, 2): a
    1-periodic series in theta / 2, so its derivative is halved."""
    series = FourierSeries.from_samples(values).band_limited(2 * k_cut)
    return series.differentiate().samples() / 2.0


def test_real_frame_odes(ei_run):
    # (1/T) Q~' = DX Q~ - Q~ R for the bundle; adjoint with transposed blocks
    result = ei_run.result
    T = result.cycle.period
    jac = result.model.jacobian(result.cycle.samples)
    jac2 = np.tile(jac, (2, 1, 1))
    classes, exponents = result.bundle.classes, result.bundle.exponents
    gen = real_generator_matrix(classes, exponents)
    vals = ei_run.bundle_real
    res = _lift_derivative(vals, result.band_cut) / T - jac2 @ vals + vals @ gen
    assert np.max(np.abs(res)) < 5e-9
    avals = ei_run.adjoint_real
    res_a = (_lift_derivative(avals, result.band_cut) / T
             + np.swapaxes(jac2, 1, 2) @ avals - avals @ gen.T)
    assert np.max(np.abs(res_a)) < 5e-9


def test_real_frames_are_exact_recombinations(ei_run):
    """On both halves of the lift, the real frames are the complex grid
    values recombined, bit for bit: a pair's real and imaginary parts (2 Re
    and -2 Im for the adjoint), and a negative column times exp(i pi theta)
    (exp(-i pi theta) for the adjoint)."""
    result = ei_run.result
    n = result.cycle.grid_size
    theta = ei_run.theta_real
    assert np.array_equal(theta, np.arange(2 * n) / n)
    b, q = result.bundle.grid_values(), result.adjoint.grid_values()
    assert tuple(result.bundle.classes[2:]) == (
        "complex_pair_lead", "complex_pair_conjugate", "real_negative", "real_negative")
    for half in (slice(0, n), slice(n, 2 * n)):
        real_b, real_q = ei_run.bundle_real[half], ei_run.adjoint_real[half]
        assert np.array_equal(real_b[:, :, 2], b[:, :, 2].real)
        assert np.array_equal(real_b[:, :, 3], b[:, :, 2].imag)
        assert np.array_equal(real_q[:, :, 2], 2.0 * q[:, :, 2].real)
        assert np.array_equal(real_q[:, :, 3], -2.0 * q[:, :, 2].imag)
        for j in (4, 5):
            factor = np.exp(1j * np.pi * theta[half])[:, None]
            assert np.array_equal(real_b[:, :, j], (factor * b[:, :, j]).real)
            factor = np.exp(-1j * np.pi * theta[half])[:, None]
            assert np.array_equal(real_q[:, :, j], (factor * q[:, :, j]).real)


def test_real_generator_blocks():
    classes = (
        "trivial", "real_positive", "complex_pair_lead", "complex_pair_conjugate",
        "real_negative",
    )
    exponents = np.array([0.0, -0.5, -0.3 + 0.7j, -0.3 - 0.7j, -1.1 + np.pi * 1j])
    gen = real_generator_matrix(classes, exponents)
    expected = np.zeros((5, 5))
    expected[1, 1] = -0.5
    expected[2:4, 2:4] = [[-0.3, 0.7], [-0.7, -0.3]]
    expected[4, 4] = -1.1
    assert np.array_equal(gen, expected)
    adj = real_generator_matrix(classes, exponents).T
    expected[2:4, 2:4] = [[-0.3, -0.7], [0.7, -0.3]]
    assert np.array_equal(adj, expected)


def test_oracle_adjoint_polish_stops_at_roundoff(floquet_runs, monkeypatch):
    """The adjoint polish aims at a residual below what roundoff lets it
    reach, and ends where a sweep no longer halves it: on the oracle, from
    the frames stage's own inputs, within 3 sweeps, not after sweeps of
    noise."""
    partial = floquet_runs["oracle"]
    model = partial.model
    cycle, bundle, band_cut = build_bundle_frame(model, partial.cycle, partial.spectrum)
    refine = frames_mod._refine_frame
    sweeps = []

    def counting(*args, **kwargs):
        history = refine(*args, **kwargs)
        sweeps.append(len(history))
        return history

    monkeypatch.setattr(frames_mod, "_refine_frame", counting)
    build_adjoint_frame(model, cycle, bundle, band_cut)
    assert len(sweeps) == 1 and sweeps[0] <= 3, sweeps


def _sine_of_angle(a, b):
    """Sine of the angle between complex vectors ``a`` and ``b``: accurate
    at small angles, where the arccosine of the normalized pairing is not."""
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return float(np.linalg.norm(b - a * np.vdot(a, b)))


def test_adjoint_seeds_are_the_bundle_dual_at_every_node(floquet_runs, monkeypatch):
    """The adjoint frame's seeds are the polished bundle's pointwise dual,
    bitwise (after the reality symmetrization of its classes): on ei at grid
    2^10 every seed column lies within 1e-9 in angle of the polished adjoint
    column at every grid node."""
    partial = floquet_runs["ei"]
    model = partial.model
    cycle, bundle, band_cut = build_bundle_frame(model, partial.cycle, partial.spectrum)
    refine = frames_mod._refine_frame
    pairs = []

    def spy(op_grid, period, cols, *args, **kwargs):
        seeds = cols.copy()
        history = refine(op_grid, period, cols, *args, **kwargs)
        pairs.append((seeds, cols.copy()))
        return history

    monkeypatch.setattr(frames_mod, "_refine_frame", spy)
    build_adjoint_frame(model, cycle, bundle, band_cut)
    ((seeds, polished),) = pairs
    dual, mus = frames_mod._dual_frame(bundle), -bundle.exponents
    frames_mod._symmetrize_columns(dual, mus, bundle.classes, cycle.theta, cycle.period)
    assert seeds.tobytes() == dual.tobytes()
    angle = max(_sine_of_angle(polished[n, :, j], seeds[n, :, j])
                for n in range(len(seeds)) for j in range(model.dim))
    assert angle < 1e-9, angle


def test_bundle_frame_refuses_a_cycle_without_its_pass(floquet_runs):
    """The bundle is seeded from the pass its cycle holds; a cycle loaded
    from the cycle stage holds none until pipeline.cycle_sweep recomputes
    it, and the build names that function."""
    partial = floquet_runs["oracle"]
    bare = replace(partial.cycle, sweep=None)
    with pytest.raises(FrameError, match=r"pipeline\.cycle_sweep"):
        build_bundle_frame(partial.model, bare, partial.spectrum)


def test_adjoint_frame_refuses_a_bundle_singular_at_theta_0(floquet_runs):
    """A bundle whose slow column vanishes at node 0, or at node N/2, has no
    dual basis there: a FrameError naming that phase, not a raw
    LinAlgError."""
    partial = floquet_runs["oracle"]
    model = partial.model
    cycle, bundle, band_cut = build_bundle_frame(model, partial.cycle, partial.spectrum)
    n = cycle.grid_size
    for node, phase in ((0, "0"), (n // 2, "0.5")):
        vals = bundle.grid_values().copy()
        vals[node, :, 1] = 0.0
        singular = replace(bundle)
        singular._grid_values = vals  # the cached grid values the build reads
        with pytest.raises(FrameError, match=f"singular at theta = {phase}: "):
            build_adjoint_frame(model, cycle, singular, band_cut)


def test_refine_frame_stops_at_tolerance_or_first_sweep_not_halving(ei_run):
    """The polish stops at its tolerance, or at the first sweep that does
    not halve the best residual.  A polish that ends on its tolerance has
    halved the residual at every sweep, so it is bitwise that many sweeps,
    as under a rule that stops only at the tolerance or after five sweeps
    without improvement."""
    result = ei_run.result
    bundle, cycle = result.bundle, result.cycle
    jac = result.model.jacobian(cycle.samples)
    d = bundle.dim
    wave = np.cos(2 * np.pi * cycle.theta[:, None, None] + np.arange(d * d).reshape(d, d))

    def polish(**kwargs):
        cols = bundle.grid_values() * (1.0 + 1e-6 * wave)
        lams = bundle.exponents + 1e-6
        history = frames_mod._refine_frame(
            jac, cycle.period, cols, lams, bundle.classes, cycle.theta,
            fixed_columns=(0,), k_cut=result.band_cut, **kwargs,
        )
        return history, cols, lams

    def halving(history):
        return all(b <= 0.5 * a for a, b in zip(history, history[1:]))

    history, cols, lams = polish()
    assert len(history) >= 2 and halving(history)
    assert history[-1] < 1e-12 * (1.0 + np.max(np.abs(jac)))
    fixed, cols_fixed, lams_fixed = polish(tol_rel=0.0, max_sweeps=len(history) - 1)
    assert fixed == history[:-1]
    assert cols_fixed.tobytes() == cols.tobytes()
    assert lams_fixed.tobytes() == lams.tobytes()

    floor, _, _ = polish(tol_rel=0.0)  # unreachable: polished to roundoff
    assert 3 <= len(floor) < 80
    assert halving(floor[:-1]) and floor[-1] > 0.5 * floor[-2]


def test_cross_check_oracle(oracle_run):
    result = oracle_run.result
    cycle = result.cycle
    sweep = variational_sweep(result.model, cycle.anchor, cycle.period, cycle.grid_size)
    rep = cross_check_adjoint_frame(result.bundle, result.adjoint, sweep, cycle.period)
    assert np.max(rep["column_discrepancies"]) < 1e-8
    assert np.max(rep["eigenvalue_duality_rel_errors"]) < 1e-8
    assert rep["psi_phi_identity_defect"] < 1e-8


def test_cross_check_ei(ei_run):
    rep = ei_run.result.crosscheck
    assert np.max(rep["column_discrepancies"]) < 1e-8
    assert np.max(rep["eigenvalue_duality_rel_errors"]) < 1e-8
    assert rep["psi_phi_identity_defect"] < 1e-8


def test_cold_frames_stage_decomposes_one_matrix(tmp_path, monkeypatch):
    """The monodromy is the one matrix a run eigen-decomposes: the frames
    are seeded from its eigenvectors and the bundle's dual basis, and the
    cross-check compares refined exponents, so neither forms a second
    product to decompose."""
    calls = []
    eig = np.linalg.eig

    def counted(matrix):
        calls.append(np.shape(matrix))
        return eig(matrix)

    monkeypatch.setattr(np.linalg, "eig", counted)
    config = RunConfig(model="oracle", guess=(1.3, 0.0), relax_time=20.0,
                       grid_size=128, order=4, out_dir=str(tmp_path))
    run_pipeline(config, through=Stage.FRAMES)
    assert calls == [(2, 2)]


@pytest.fixture(scope="module")
def ei_sweep(ei_run):
    """The pass along the polished production cycle: its Phi and Psi."""
    cycle = ei_run.result.cycle
    return variational_sweep(ei_run.result.model, cycle.anchor, cycle.period,
                             cycle.grid_size)


def _cross_check(result, sweep, adjoint=None):
    return cross_check_adjoint_frame(result.bundle, adjoint or result.adjoint, sweep,
                                     result.cycle.period)


def test_cross_check_reports_a_column_defect(ei_run, ei_sweep):
    """One amplitude response column off by a smooth relative error of 1e-9
    shows in the column discrepancy at 0.9 to 1.1 times its size."""
    result, j = ei_run.result, 1
    vals = result.adjoint.grid_values().copy()
    fault = 1e-9 * np.cos(2 * np.pi * result.cycle.theta)[:, None] * vals[:, :, j]
    vals[:, :, j] += fault
    faulty = replace(result.adjoint, series=FourierSeries.from_samples(vals))
    size = np.max(np.abs(fault)) / max(1.0, np.max(np.abs(vals[:, :, j])))
    base, rep = _cross_check(result, ei_sweep), _cross_check(result, ei_sweep, faulty)
    assert np.max(base["column_discrepancies"]) < 1e-3 * size
    assert 0.9 * size <= rep["column_discrepancies"][j] <= 1.1 * size
    assert np.argmax(rep["column_discrepancies"]) == j
    others = np.arange(result.model.dim) != j
    assert np.max(rep["column_discrepancies"][others]) < 1e-3 * size


def test_cross_check_reports_a_psi_chunk_defect(ei_run, ei_sweep):
    """One chunk's Psi end off by a relative 1e-9 shows in the Psi^T Phi
    defect at 0.9 to 1.1 times 1e-9."""
    ends = ei_sweep.ends.copy()
    ends[5, 1] *= 1.0 + 1e-9
    base = _cross_check(ei_run.result, ei_sweep)
    rep = _cross_check(ei_run.result, replace(ei_sweep, ends=ends))
    assert base["psi_phi_identity_defect"] < 1e-2 * 1e-9
    assert 0.9e-9 <= rep["psi_phi_identity_defect"] <= 1.1e-9


def test_cross_check_reports_an_exponent_defect(ei_run, ei_sweep):
    """One adjoint exponent off by 1e-9 shows in its refined duality error
    at 0.9 to 1.1 times 1e-9 T, and in no other."""
    result, j = ei_run.result, 2
    exponents = result.adjoint.exponents.copy()
    exponents[j] += 1e-9
    faulty = replace(result.adjoint, exponents=exponents)
    base, rep = _cross_check(result, ei_sweep), _cross_check(result, ei_sweep, faulty)
    size = 1e-9 * result.cycle.period
    assert np.max(base["eigenvalue_duality_rel_errors"]) < 1e-3 * size
    errors = rep["eigenvalue_duality_rel_errors"]
    assert 0.9 * size <= errors[j] <= 1.1 * size
    others = np.arange(result.model.dim) != j
    assert np.array_equal(errors[others], base["eigenvalue_duality_rel_errors"][others])


_CONFIGS = {
    "ei": RunConfig(model="ei", grid_size=1024, order=9),
    "oracle": RunConfig(model="oracle", guess=(1.3, 0.0), relax_time=20.0,
                        grid_size=256, order=5),
}


@pytest.fixture(scope="module")
def floquet_runs(tmp_path_factory):
    """Runs of ``_CONFIGS`` through the Floquet stage: the cycles and spectra
    the frames stage starts from."""
    return {
        name: run_pipeline(replace(config, out_dir=str(tmp_path_factory.mktemp(name))),
                           through=Stage.FLOQUET)
        for name, config in _CONFIGS.items()
    }


def _arrays(obj, path=""):
    """path -> (dtype, shape, bytes) of every array reachable from ``obj``
    through the attributes of slowphase objects, dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return {path: (obj.dtype, obj.shape, obj.tobytes())}
    if isinstance(obj, dict):
        items = ((f"{path}[{k!r}]", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    elif type(obj).__module__.startswith("slowphase") and hasattr(obj, "__dict__"):
        items = ((f"{path}.{k}", v) for k, v in vars(obj).items())
    else:
        return {}
    return {key: leaf for sub, v in items for key, leaf in _arrays(v, sub).items()}


def _call(fn, *args):
    """``fn(*args)``, asserting that no array of the arguments changed; a
    cache that the call adds (``Frame.grid_values``'s) is no change."""
    before = _arrays(args)
    out = fn(*args)
    after = _arrays(args)
    changed = [key for key, leaf in before.items() if after.get(key) != leaf]
    assert not changed, (fn.__name__, changed)
    return out


@pytest.mark.parametrize("name", ["ei", "oracle"])
def test_readme_frames_calls_give_the_pipelines_frames(floquet_runs, name, tmp_path):
    """README's three frames-stage library calls give the frames stage's
    results byte for byte: the polished cycle's series and period, both
    frames' coefficients, exponents and residuals, the band cut and the
    cross-check's report; and none changes an array of its arguments."""
    partial = floquet_runs[name]
    model, cycle, spectrum = partial.model, partial.cycle, partial.spectrum
    sweep = cycle.sweep
    polished, bundle, band_cut = _call(build_bundle_frame, model, cycle, spectrum)
    adjoint = _call(build_adjoint_frame, model, polished, bundle, band_cut)
    crosscheck = _call(cross_check_adjoint_frame, bundle, adjoint, sweep, polished.period)

    staged = run_pipeline(replace(_CONFIGS[name], out_dir=str(tmp_path)),
                          through=Stage.FRAMES, resume=replace(partial))
    assert staged.cycle.series.coef.tobytes() == polished.series.coef.tobytes()
    assert staged.cycle.period == polished.period
    assert staged.band_cut == band_cut
    for ours, theirs in ((bundle, staged.bundle), (adjoint, staged.adjoint)):
        assert theirs.series.coef.tobytes() == ours.series.coef.tobytes()
        assert theirs.exponents.tobytes() == ours.exponents.tobytes()
        assert theirs.residual == ours.residual
    assert staged.crosscheck.keys() == crosscheck.keys()
    for key, value in crosscheck.items():
        assert np.asarray(staged.crosscheck[key]).tobytes() == np.asarray(value).tobytes(), key


def _shifted_seed(model, cycle, w, lam, route):
    """Test-local seed: dC/dt = (DX - lam) C from ``w`` over one period on
    ``route``, along ``cycle``, at the default settings, sampled at the grid
    times."""
    d, period = model.dim, cycle.period
    interp, jacobian = CycleInterpolant(cycle.series, period), model.point_jacobian()

    def rhs(t, y):
        a = jacobian(interp(t))
        c = y[:d] + 1j * y[d:]
        dc = a @ c - lam * c
        return np.concatenate([dc.real, dc.imag])

    t0, t1 = (0.0, period) if route == "forward" else (period, 0.0)
    y0 = np.concatenate([w.real, w.imag])
    _, samples = sampled_flow(rhs, t0, y0, t1, cycle.theta * period)
    return samples[:, :d] + 1j * samples[:, d:]


@pytest.mark.parametrize("name", ["ei", "oracle"])
def test_sweep_seeds_match_shifted_integrations(floquet_runs, name):
    """Each bundle seed column that the cycle stage's pass gives (DX, lam,
    the monodromy's eigenvectors) lies within 1e-9 of its peak of the
    exponent-shifted integration of its seed over the whole period on its
    route, along the interpolated cycle.  Both routes occur on ei (forward
    by Phi, backward by Psi^T); the oracle's one column goes backward."""
    partial = floquet_runs[name]
    model, cycle, spectrum = partial.model, partial.cycle, partial.spectrum
    lams = spectrum.exponents
    seeds = {j: spectrum.eigenvectors[:, j] for j in range(1, model.dim)
             if spectrum.classes[j] != CLASS_PAIR_CONJ}
    cols, routes = _seed_columns(cycle.sweep, seeds, lams)
    for j, route in routes.items():
        expected = _shifted_seed(model, cycle, seeds[j], lams[j], route)
        gap = _peak_relative(cols[:, :, j], expected)
        assert gap < 1e-9, (j, route, gap)
    assert set(routes.values()) == ({"forward", "backward"} if name == "ei" else {"backward"})


def _peak_relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", ["ei", "oracle"])
def test_seeds_at_floor_give_the_frames_of_seeds_at_user_settings(
        floquet_runs, name, tmp_path, monkeypatch):
    """The polish owns the frames' accuracy: bundle seed columns carrying a
    smooth relative error of 1e-9, the size of the error of seeds integrated
    at the seed floor, give the frames and expansions of the sweep's seeds
    at user settings.  The adjoint frame, seeded with the polished bundle's
    dual, sees the noise only through the bundle."""
    partial = floquet_runs[name]
    config = _CONFIGS[name]
    exact = run_pipeline(replace(config, out_dir=str(tmp_path / "exact")),
                         through=Stage.RESPONSE, resume=replace(partial))
    seed_columns = frames_mod._seed_columns
    perturbed = []

    def noisy_seed_columns(*args):
        cols, routes = seed_columns(*args)
        n, d, _ = cols.shape
        phase = np.arange(d * d).reshape(d, d)
        wave = np.cos(2 * np.pi * theta_grid(n)[:, None, None] + phase)
        perturbed.append(routes)
        return cols * (1.0 + 1e-9 * wave), routes

    monkeypatch.setattr(frames_mod, "_seed_columns", noisy_seed_columns)
    noisy = run_pipeline(replace(config, out_dir=str(tmp_path / "noisy")),
                         through=Stage.RESPONSE, resume=replace(partial))
    assert len(perturbed) == 1  # the bundle's seeds alone
    assert exact.bundle.grid_values().tobytes() != noisy.bundle.grid_values().tobytes()

    assert _peak_relative(noisy.bundle.grid_values(), exact.bundle.grid_values()) < 1e-13
    assert _peak_relative(noisy.adjoint.grid_values(), exact.adjoint.grid_values()) < 1e-11
    k_noisy, k_exact = noisy.manifold.coeffs.samples(), exact.manifold.coeffs.samples()
    for n in range(len(k_exact)):
        assert _peak_relative(k_noisy[n], k_exact[n]) < 1e-12, n
    # orders 5 and up sit at the noise floor of the response recursion: on
    # ei, orders 5-9 of the phase move by 4e-11 to 2e-9 of their peaks under
    # this perturbation, so a bound there would gate roundoff
    for noisy_fn, exact_fn in ((noisy.response.phase, exact.response.phase),
                               (noisy.response.amplitude, exact.response.amplitude)):
        z_noisy, z_exact = noisy_fn.samples(), exact_fn.samples()
        for n in range(5):
            assert _peak_relative(z_noisy[n], z_exact[n]) < 1e-10, n


@pytest.mark.parametrize("user", [
    DEFAULT_SETTINGS,
    IntegratorSettings(rtol=1e-8, atol=1e-9),
    IntegratorSettings(rtol=SEED_RTOL, atol=1e-10, max_steps=50_000),
], ids=["tighter", "looser", "at_floor"])
def test_cold_run_integrates_each_chunk_once_at_user_settings(
        tmp_path, monkeypatch, user):
    """A cold run through the frames stage integrates the variational system
    only in the shooting Newton's passes, exactly one per Newton step, each
    of IDENTITY_CHUNKS chunks, between its edges, at the user's settings
    object however it compares with the seed floor; the last pass spans the
    spectrum's period, and the spectrum and both frame builders integrate
    nothing."""
    calls = []  # (stage, t0, t1, settings, state size) of every integration
    stage = ["cycle"]
    integrate = integrate_mod._integrate

    def spy(fun, t0, y0, t1, settings, **kwargs):
        calls.append((stage[0], t0, t1, settings, len(y0)))
        return integrate(fun, t0, y0, t1, settings, **kwargs)

    for module in (integrate_mod, cycle_mod):
        monkeypatch.setattr(module, "_integrate", spy)
    for name in ("floquet_spectrum", "build_bundle_frame", "cross_check_adjoint_frame"):
        def entered(*args, _name=name, _fn=getattr(pipeline_mod, name)):
            stage[0] = _name
            return _fn(*args)

        monkeypatch.setattr(pipeline_mod, name, entered)
    config = RunConfig(model="oracle", guess=(1.3, 0.0), relax_time=20.0,
                       grid_size=256, order=3, integrator=user, out_dir=str(tmp_path))
    result = run_pipeline(config, through=Stage.FRAMES)

    assert stage[0] == "cross_check_adjoint_frame"  # every spy was entered
    assert all(where == "cycle" for where, *_ in calls)
    # the pass integrates x, Phi and Psi: 2 + 2 * 2 * 2 components on the oracle
    passes = [i for i, call in enumerate(calls) if call[4] == 10]
    steps = len(result.cycle.search["newton_steps"])
    assert len(passes) == steps * IDENTITY_CHUNKS and steps >= 2
    assert passes == list(range(len(calls) - len(passes), len(calls)))  # after the searches
    for p in range(steps):
        chunks = calls[passes[p * IDENTITY_CHUNKS]:][:IDENTITY_CHUNKS]
        period = chunks[-1][2]
        edges = np.linspace(0.0, period, IDENTITY_CHUNKS + 1)
        for c, (_, t0, t1, settings, _) in enumerate(chunks):
            assert settings is user
            assert (t0, t1) == (edges[c], edges[c + 1])
    assert period == result.spectrum.period


def test_oracle_frames_stage_with_chunks_holding_no_grid_time(tmp_path):
    """At grid 8, half of the 16 chunks hold no grid time: the sweep still
    integrates each and the frames stage runs through."""
    config = RunConfig(model="oracle", guess=(1.3, 0.0), relax_time=20.0,
                       grid_size=8, order=3, out_dir=str(tmp_path))
    result = run_pipeline(config, through=Stage.FRAMES)
    assert result.bundle.residual < 1e-9 and result.adjoint.residual < 1e-9
    assert np.max(result.crosscheck["column_discrepancies"]) < 1e-8
    assert result.crosscheck["psi_phi_identity_defect"] < 1e-8


# negative real parts: dyadic values make ties between the two routes exact
_negative = st.one_of(
    st.integers(-64, -1).map(lambda k: k / 8.0),
    st.floats(min_value=-1e3, max_value=-1e-6),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_negative, st.floats(-10.0, 10.0)), min_size=1, max_size=7),
    st.one_of(st.sampled_from([0.5, 1.0, 8.0]), st.floats(0.1, 100.0)),
)
def test_route_rule_of_the_bundle_seeds(parts, period):
    """The route rule of the bundle's seed columns, on exponents with the
    phase's 0: forward iff (max Re lam - Re lam_j) T <= (Re lam_j - min Re
    lam) T, ties forward; so the phase column goes forward and the fastest
    backward."""
    lam = np.array([0.0] + [complex(re, im) for re, im in parts])
    re_max, re_min = float(np.max(lam.real)), float(np.min(lam.real))
    for lam_j in lam:
        forward = (re_max - lam_j.real) * period <= (lam_j.real - re_min) * period
        expected = "forward" if forward else "backward"
        assert _integration_route(lam_j, lam, period) == expected
    assert _integration_route(lam[0], lam, period) == "forward"
    assert _integration_route(lam[np.argmin(lam.real)], lam, period) == "backward"
