from math import comb

import numpy as np
import pytest

from slowphase import manifold
from slowphase.errors import ModelError, NumericalError
from slowphase.frames import Frame, solve_in_frame
from slowphase.manifold import (
    evaluate_manifold,
    expand_slow_manifold,
    next_order_coefficient,
)
from slowphase.models import JetTransport, jet_compose


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


def test_zero_inhomogeneity_gives_zero_order(oracle_run):
    result = oracle_run.result
    n_grid = result.cycle.grid_size
    zero_rhs = np.zeros((n_grid, 2))
    shifts = 3 * result.manifold.slow_exponent - result.bundle.exponents
    out, _, _ = solve_in_frame(
        zero_rhs, result.adjoint, result.bundle, shifts, result.cycle.period
    )
    assert np.max(np.abs(out)) == 0.0


def transport_through(model, partial):
    """A field transport over ``partial`` and a zero order above it, with the
    orders of ``partial`` filled."""
    values = np.concatenate([partial, np.zeros_like(partial[:1])])
    transport = JetTransport(model, values, "field")
    for n in range(len(partial)):
        transport.fill(n)
    return transport


def test_next_order_coefficient_matches_expansion(oracle_run):
    result = oracle_run.result
    man = result.manifold
    partial = man.coeffs.truncated(2).samples().real
    out, div_min = next_order_coefficient(
        transport_through(result.model, partial), result.bundle, result.adjoint,
        3, result.cycle.period,
    )
    stored = man.order_series(3).samples().real
    assert np.max(np.abs(out.real - stored)) < 1e-12
    assert div_min > 1.0  # oracle divisors are (n-1) |lam_s| and larger


def test_next_order_preconditions(oracle_run):
    result = oracle_run.result
    partial = result.manifold.coeffs.truncated(2).samples().real
    transport = transport_through(result.model, partial)
    with pytest.raises(ModelError):
        next_order_coefficient(
            transport, result.bundle, result.adjoint, 1, result.cycle.period,
        )
    with pytest.raises(ModelError):
        next_order_coefficient(
            transport, result.bundle, result.adjoint, 5, result.cycle.period,
        )


def test_next_order_input_must_read_zero(oracle_run):
    # B_n is the field composed with the lower orders alone
    result = oracle_run.result
    partial = result.manifold.coeffs.truncated(2).samples().real
    transport = transport_through(result.model, partial)
    transport.orders[3] = partial[2]
    with pytest.raises(ModelError, match="order 3 .* not zero"):
        next_order_coefficient(
            transport, result.bundle, result.adjoint, 3, result.cycle.period,
        )


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
        order=4, extra_orders=0, gauge=1.0,
    )
    doubled = expand_slow_manifold(
        result.model, result.cycle, result.bundle, result.adjoint,
        order=4, extra_orders=0, gauge=2.0,
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
        result.model, result.cycle, result.bundle, result.adjoint,
        order=1, extra_orders=0,
    )
    assert man.total_order == 1
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
