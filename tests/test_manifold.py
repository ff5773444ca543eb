from math import comb

import numpy as np
import pytest

from slowphase import frames, manifold, workers
from slowphase.config import RunConfig
from slowphase.cycle import DIVISOR_TABLES
from slowphase.errors import ModelError, NumericalError
from slowphase.frames import Frame, solve_in_frame
from slowphase.manifold import (
    evaluate_manifold,
    expand_slow_manifold,
    order_residuals,
    solve_orders,
)
from slowphase.models import JetTransport, jet_compose
from slowphase.pipeline import Stage, run_pipeline
from slowphase.series import FourierSeries, FourierTaylor, solve_diagonal, wavenumbers


def radial_taylor_coefficient(n):
    """Series of (1 - 2 sigma)^(-1/2): the oracle's radial conjugacy."""
    return comb(2 * n, n) / 2.0**n


def test_oracle_orders_match_radial_conjugacy(oracle_run):
    man = oracle_run.result.manifold
    b = oracle_run.gauge_sign
    for n in range(0, 6):
        got = man.order_series(n).samples().real
        if n == 0:
            expected = oracle_run.result.cycle.samples
        else:
            expected = (b**n) * radial_taylor_coefficient(n) * oracle_run.radial
        assert np.max(np.abs(got - expected)) < 1e-8, f"order {n}"


def test_homological_residuals(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        man = ns.result.manifold
        assert np.all(man.residuals < 1e-9)
        assert man.conjugation_drift < 1e-10


def test_residuals_see_an_injected_defect(oracle_run):
    """A defect d = eps peak cos(2 pi theta) e_0 added to order 3 after the
    solve, with the transport left as it was, changes the lhs by
    d'/T + s_3 d, whose grid maximum the residual must reach in half."""
    result = oracle_run.result
    man = result.manifold
    values = man.coeffs.samples().real
    composed = jet_compose(result.model, values, "field")
    theta = result.cycle.theta
    n, eps, T, s_n = 3, 1e-6, man.period, 3 * man.slow_exponent
    size = eps * np.max(np.abs(values[n]))
    values[n, :, 0] += size * np.cos(2.0 * np.pi * theta)
    change = size * np.max(np.abs(
        -2.0 * np.pi / T * np.sin(2.0 * np.pi * theta) + s_n * np.cos(2.0 * np.pi * theta)
    ))
    residuals = order_residuals(
        FourierTaylor.from_samples(values), values, composed, man.slow_exponent, 0, T
    )
    assert residuals[n] >= 0.5 * change
    assert np.all(np.delete(residuals, n) < 1e-9)


def test_zero_inhomogeneity_gives_zero_order(oracle_run):
    result = oracle_run.result
    n_grid = result.cycle.grid_size
    zero_rhs = np.zeros((n_grid, 2))
    shifts = 3 * result.manifold.slow_exponent - result.bundle.exponents
    out, _ = solve_in_frame(
        zero_rhs, result.adjoint, result.bundle, shifts, result.cycle.period
    )
    assert np.max(np.abs(out)) == 0.0


@pytest.mark.parametrize("d", [2, 6])
def test_real_reduction_is_the_complex_contraction_bit_for_bit(d, monkeypatch):
    """``solve_in_frame`` reduces a real right-hand side with the frame read
    as pairs of floats.  Pinned to the contraction over ``rhs.astype(complex)``
    bit for bit, on a contiguous right-hand side and on a column view like
    the response transport's, so a numpy that sums ``einsum`` otherwise
    fails here instead of changing the artifacts."""
    rng = np.random.default_rng(d)
    n, period = 256, 3.7
    values = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    frame = Frame(FourierSeries.from_samples(values), np.zeros(d, complex), ("",) * d, 0.0)
    shifts = rng.uniform(0.5, 2.0, d) + 1j * rng.uniform(-1.0, 1.0, d)
    seen = []

    def spy(rhs, *args, **kwargs):
        seen.append(rhs.coef)
        return solve_diagonal(rhs, *args, **kwargs)

    monkeypatch.setattr(frames, "solve_diagonal", spy)
    for rhs in (rng.standard_normal((n, d)), rng.standard_normal((n, 2 * d))[:, d:]):
        x, _ = solve_in_frame(rhs, frame, frame, shifts, period)
        reduced = np.einsum("nai,na->ni", frame.grid_values(), rhs.astype(complex))
        assert np.array_equal(seen.pop(), FourierSeries.from_samples(reduced).coef)
        solution, _ = solve_diagonal(FourierSeries.from_samples(reduced), shifts, period)
        assert np.array_equal(x, np.einsum("nab,nb->na", frame.grid_values(), solution.samples()))


def transport_through(model, partial):
    """A field transport over ``partial`` and a zero order above it, with the
    orders of ``partial`` filled."""
    values = np.concatenate([partial, np.zeros_like(partial[:1])])
    transport = JetTransport(model, values, "field")
    for n in range(len(partial)):
        transport.fill(n)
    return transport


def solve_manifold_orders(result, transport, first):
    """The manifold recursion's orders ``first``.. on ``transport``."""
    lam_s = result.manifold.slow_exponent
    return solve_orders(
        transport, first, result.adjoint, result.bundle, result.bundle.exponents,
        lam_s, 0, result.cycle.period, 1e-8,
    )


def test_solve_orders_matches_expansion(oracle_run):
    result = oracle_run.result
    man = result.manifold
    partial = man.coeffs.truncated(2).samples().real
    transport = transport_through(result.model, partial)
    drift = solve_manifold_orders(result, transport, 3)
    stored = man.order_series(3).samples().real
    assert np.max(np.abs(transport.orders[3] - stored)) < 1e-12
    assert drift < 1e-10
    assert transport.fills == [1, 1, 1, 2]


def _smallest_divisor(rhs, reduce, expand, shifts, period, free_modes=(),
                      small_divisor_tol=1e-8):
    """The smallest |2 pi i k/T + shift_j| that ``solve_in_frame`` called
    with these arguments divides by: the Nyquist row and the free modes
    excluded, as in ``solve_diagonal``."""
    n = len(rhs)
    k = wavenumbers(n)
    magnitudes = np.abs((2j * np.pi / period) * k[:, None] + np.asarray(shifts)[None, :])
    magnitudes[n // 2] = np.inf
    for kf, jf in free_modes:
        magnitudes[k == kf, jf] = np.inf
    return float(magnitudes.min())


def _spied_run(out, **settings):
    """A cold run through the response stage, and per divisor table the
    smallest divisor of each order its recursion solved, computed from the
    arguments of every ``solve_in_frame`` call of ``solve_orders``: the
    manifold's orders 2..order + 1, then the phase and the amplitude
    recursions' orders 1..order."""
    minima = []
    solve = manifold.solve_in_frame

    def spy(*args):
        minima.append(_smallest_divisor(*args))
        return solve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifold, "solve_in_frame", spy)
        # both recursions in this process, where the spy sees them
        patch.setattr(workers, "worth_splitting", lambda size: False)
        result = run_pipeline(RunConfig(out_dir=str(out), **settings),
                              through=Stage.RESPONSE)
    order = result.config.order
    assert len(minima) == 3 * order
    return result, {
        name: dict(zip(range(first, order + first), minima[i * order:(i + 1) * order]))
        for i, (name, first) in enumerate((("manifold", 2), ("phase", 1), ("amplitude", 1)))
    }


@pytest.fixture(scope="module")
def oracle_spied(tmp_path_factory):
    """`oracle` at grid 256, order 5, through the response stage."""
    return _spied_run(tmp_path_factory.mktemp("oracle_spied"), model="oracle",
                      guess=(1.3, 0.0), relax_time=20.0, grid_size=256, order=5)


@pytest.fixture(scope="module")
def ei_spied(tmp_path_factory):
    """`ei` at grid 2^10, order 9, through the response stage."""
    return _spied_run(tmp_path_factory.mktemp("ei_spied"), model="ei",
                      grid_size=1024, order=9)


@pytest.mark.parametrize("run", ["oracle", "ei"])
def test_divisor_table_is_what_the_recursion_divides_by(request, run):
    """Each order's smallest divisor in the manifold, phase and amplitude
    recursions is the floquet stage's closed-form table entry, for every
    order the recursion solves (manifold 2..order + 1, responses
    1..order), within 1e-6 relative.  Measured: at most 2.9e-12 on `oracle`
    (256, order 5) and 4.4e-8 on `ei` (2^10, order 9), where the recursions
    divide with the frames' refined exponents and the tables use the
    spectrum's; so the bound has a 23x margin.  The amplitude entry of
    order 1 includes the trivial direction's k = +-1 divisor 2 pi / T,
    which is the smallest on `oracle`."""
    result, solved = request.getfixturevalue(f"{run}_spied")
    gaps = {}
    for name in DIVISOR_TABLES:
        table = result.resonance.minima(name)
        first = 2 if name == "manifold" else 1
        orders = list(range(first, result.config.order + first))
        assert list(table) == list(solved[name]) == orders, name
        gaps.update({(name, n): abs(solved[name][n] - table[n]) / table[n] for n in table})
    assert max(gaps.values()) < 1e-6, gaps


def test_solve_orders_input_must_read_zero(oracle_run):
    # B_n is the field composed with the lower orders alone
    result = oracle_run.result
    partial = result.manifold.coeffs.truncated(2).samples().real
    transport = transport_through(result.model, partial)
    transport.orders[3] = partial[2]
    with pytest.raises(ModelError, match="order 3 .* not zero"):
        solve_manifold_orders(result, transport, 3)


def test_recursion_composes_order_by_order(ei_run, monkeypatch):
    """Each B_n is order n of the field composed with the lower orders and a
    zero order n, and each order is filled at most twice: a recursion that
    recomposed orders 0..n at every n would fill order 0 L times."""
    result = ei_run.result
    transports, rhs = [], []

    class Recording(JetTransport):
        def __init__(self, *args):
            super().__init__(*args)
            transports.append(self)

    def recording_solve(b_n, *args, **kwargs):
        rhs.append(np.array(b_n))
        return solve_in_frame(b_n, *args, **kwargs)

    monkeypatch.setattr(manifold, "JetTransport", Recording)
    monkeypatch.setattr(manifold, "solve_in_frame", recording_solve)
    man = expand_slow_manifold(
        result.model, result.cycle, result.bundle, result.adjoint, 8
    )
    (transport,) = transports
    values = transport.orders
    total = man.total_order
    assert len(rhs) == total - 1
    for n, b_n in enumerate(rhs, start=2):
        padded = np.concatenate([values[:n], np.zeros_like(values[:1])])
        assert b_n.tobytes() == jet_compose(result.model, padded, "field")[n].tobytes()
    assert transport.fills == [1, 1] + [2] * (total - 1)
    # the residuals are measured against the full composition
    full = jet_compose(result.model, values, "field")
    assert transport.result().tobytes() == full.tobytes()


def test_gauge_covariance(oracle_run):
    """Rescaling the amplitude unit by b multiplies order n by b^n."""
    result = oracle_run.result
    base = expand_slow_manifold(
        result.model, result.cycle, result.bundle, result.adjoint,
        order=4, gauge=1.0,
    )
    doubled = expand_slow_manifold(
        result.model, result.cycle, result.bundle, result.adjoint,
        order=4, gauge=2.0,
    )
    for n in range(5):
        a = base.order_series(n).samples().real
        ratio = doubled.order_series(n).samples().real
        assert np.max(np.abs(ratio - (2.0**n) * a)) < 1e-12 * max(
            1.0, 2.0**n * np.max(np.abs(a))
        )
    # the represented point set is unchanged: evaluating at sigma/2
    # reproduces the base evaluation at sigma
    th, sg = 0.3, 0.12
    p1 = evaluate_manifold(base, th, sg)
    p2 = evaluate_manifold(doubled, th, sg / 2.0)
    assert np.max(np.abs(p1 - p2)) < 1e-12


def test_order_one_expansion_is_cycle_plus_slow_column(oracle_run):
    result = oracle_run.result
    man = expand_slow_manifold(
        result.model, result.cycle, result.bundle, result.adjoint, order=1
    )
    assert man.total_order == 2
    assert np.max(np.abs(man.order_series(0).samples().real - result.cycle.samples)) < 1e-14
    slow = result.bundle.grid_values()[:, :, 1].real
    assert np.max(np.abs(man.order_series(1).samples().real - slow)) < 1e-14


def test_evaluate_at_zero_amplitude_is_cycle(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        man = ns.result.manifold
        theta = ns.result.cycle.theta
        points = evaluate_manifold(man, theta, np.zeros_like(theta))
        assert np.max(np.abs(points - ns.result.cycle.samples)) < 1e-12


def test_oracle_point_on_manifold_closed_form(oracle_run):
    # at sigma, the radius is (1 - 2 b sigma)^(-1/2)
    man = oracle_run.result.manifold
    b = oracle_run.gauge_sign
    sg = 0.1
    point = evaluate_manifold(man, 0.0, b * sg)
    expected_radius = (1.0 - 2.0 * sg) ** -0.5
    # truncation error at order 5 is ~ sigma^6 x next coefficient
    budget = radial_taylor_coefficient(6) * sg**6 * 3
    assert abs(np.linalg.norm(point) - expected_radius) < budget


def test_flow_conjugacy_oracle(oracle_run):
    from slowphase.integrate import flow

    result = oracle_run.result
    man = result.manifold
    rng = np.random.default_rng(12)
    lam = man.slow_exponent
    T = man.period
    for _ in range(10):
        th = rng.uniform()
        sg = rng.uniform(-0.02, 0.02)
        t = rng.uniform(0.0, T)
        start = evaluate_manifold(man, th, sg)
        pushed = flow(result.model, start, t)
        target = evaluate_manifold(man, (th + t / T) % 1.0, sg * np.exp(lam * t))
        assert np.linalg.norm(pushed - target) < 1e-8


def test_complex_slow_direction_rejected(oracle_run):
    result = oracle_run.result
    fake = Frame(
        series=result.bundle.series,
        exponents=result.bundle.exponents,
        classes=("trivial", "complex_pair_lead"),
        residual=0.0,
    )
    with pytest.raises(NumericalError):
        expand_slow_manifold(
            result.model, result.cycle, fake, result.adjoint, order=2
        )
