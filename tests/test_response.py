from dataclasses import replace

import numpy as np
import pytest

from slowphase import manifold, response
from slowphase.errors import SolvabilityError
from slowphase.manifold import evaluate_manifold, order_residuals, solve_orders
from slowphase.models import JetTransport, jet_compose
from slowphase.pipeline import save_response
from slowphase.response import expand_response_functions
from slowphase.series import FourierTaylor


def half_power_series(power, n, b):
    """Taylor coefficients of (1 - 2 b sigma)^(power/2) up to order n."""
    out = [1.0]
    # d/ds (1-2bs)^(p/2) = -p b (1-2bs)^(p/2-1): recurrence on coefficients
    coeff = 1.0
    for k in range(1, n + 1):
        coeff *= (power / 2.0 - (k - 1)) / k * (-2.0 * b)
        out.append(coeff)
    return out


def test_oracle_phase_orders_closed_form(oracle_run):
    """grad Theta on the manifold: (1 - 2 b sigma)^{1/2} tangent / (2 pi r)...

    With radius r(sigma) = (1-2 b sigma)^{-1/2} and radial isochrons, the
    phase gradient at a manifold point is tangent / (2 pi r), giving Taylor
    coefficients of (1 - 2 b sigma)^{1/2} times the on-cycle curve.
    """
    resp = oracle_run.result.response
    b = oracle_run.gauge_sign
    base = oracle_run.tangent / (2.0 * np.pi)
    coeffs = half_power_series(1, resp.order, b)
    for n in range(resp.order + 1):
        got = resp.phase.order_series(n).samples().real
        assert np.max(np.abs(got - coeffs[n] * base)) < 1e-8, f"Z order {n}"


def test_oracle_amplitude_orders_closed_form(oracle_run):
    # grad Sigma = (x, y) / r^4 on the manifold: coefficients of
    # (1 - 2 b sigma)^{3/2} times the on-cycle curve, rescaled by the gauge
    resp = oracle_run.result.response
    b = oracle_run.gauge_sign
    base = b * oracle_run.radial
    coeffs = half_power_series(3, resp.order, b)
    for n in range(resp.order + 1):
        got = resp.amplitude.order_series(n).samples().real
        assert np.max(np.abs(got - coeffs[n] * base)) < 1e-8, f"I order {n}"


def test_adjoint_homological_residuals(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        resp = ns.result.response
        assert np.all(resp.phase_residuals < 1e-9)
        assert np.all(resp.amplitude_residuals < 1e-9)
        assert resp.conjugation_drift < 1e-10


def test_residuals_see_an_injected_defect(oracle_run):
    """A defect d = eps peak cos(2 pi theta) e_1 added to amplitude order 2
    after the solve, with the composition left as it was, changes the lhs
    by d'/T + s_2 d, whose grid maximum the residual must reach in half."""
    result = oracle_run.result
    man, resp = result.manifold, result.response
    d = result.model.dim
    stack = np.concatenate([
        man.coeffs.truncated(resp.order).samples().real,
        resp.amplitude.samples().real,
    ], axis=2)
    composed = jet_compose(result.model, stack, "adjoint_action")
    values = stack[:, :, d:]
    theta = result.cycle.theta
    n, eps, T, s_n = 2, 1e-6, man.period, (2 - 1) * man.slow_exponent
    size = eps * np.max(np.abs(values[n]))
    values[n, :, 1] += size * np.cos(2.0 * np.pi * theta)
    change = size * np.max(np.abs(
        -2.0 * np.pi / T * np.sin(2.0 * np.pi * theta) + s_n * np.cos(2.0 * np.pi * theta)
    ))
    residuals = order_residuals(
        FourierTaylor.from_samples(values), values, composed, man.slow_exponent, -1, T
    )
    assert residuals[n] >= 0.5 * change
    assert np.all(np.delete(residuals, n) < 1e-9)


def test_solvability_and_normalization(oracle_run, ei_run):
    for ns in (oracle_run, ei_run):
        resp = ns.result.response
        assert resp.solvability_residual < 1e-9
        assert resp.normalization_defect < 1e-9


def test_normalization_defect_reports_an_injected_defect(oracle_run, monkeypatch):
    """Adding eps cos(2 pi theta) Z_0 to the particular I_1 shifts
    T <I_1, X(K_0)> by eps cos(2 pi theta), as <Z_0, X(K_0)> = 1/T; the
    pinned constant removes only its mean, 0, so the defect reads about eps."""
    result, eps = oracle_run.result, 1e-6
    fix = response._fix_order1_normalization

    def perturbed(i1_particular, z0, *args):
        theta = np.arange(len(z0)) / len(z0)
        return fix(i1_particular + eps * np.cos(2 * np.pi * theta)[:, None] * z0, z0, *args)

    def defect():
        return expand_response_functions(
            result.model, result.manifold, result.bundle, result.adjoint,
            order=result.response.order,
        ).normalization_defect

    assert defect() < 1e-9
    monkeypatch.setattr(response, "_fix_order1_normalization", perturbed)
    assert defect() >= 0.5 * eps


@pytest.mark.parametrize("run", ["oracle_run", "ei_run"])
def test_solvability_residual_reads_an_injected_defect(run, request, monkeypatch):
    """Adding eps Z_0 to the amplitude order-1 right-hand side, the one solve
    with a free mode, moves that free (k = 0, trivial) coefficient by eps:
    <K_0', Z_0> = 1, and Z_0 pairs to 0 with the other bundle columns.  The
    residual reads eps to 10 % below the tolerance, and above it raises.
    Z_0 is taken real, as the recursion takes it: every right-hand side of
    ``solve_in_frame`` is real."""
    ns = request.getfixturevalue(run)
    result, tol = ns.result, ns.config.solvability_tol
    z0 = result.adjoint.grid_values()[:, :, 0].real
    solve = manifold.solve_in_frame

    def residual(eps):
        def inject(rhs, reduce, expand, shifts, period, free_modes, *args):
            if free_modes:
                rhs = rhs + eps * z0
            return solve(rhs, reduce, expand, shifts, period, free_modes, *args)

        monkeypatch.setattr(manifold, "solve_in_frame", inject)
        return expand_response_functions(
            result.model, result.manifold, result.bundle, result.adjoint,
            order=1, solvability_tol=tol,
        ).solvability_residual

    for eps in (1e-10, 3e-10):
        assert eps < tol
        assert 0.9 * eps <= residual(eps) <= 1.1 * eps
    with pytest.raises(SolvabilityError, match="order-1 solvability residual"):
        residual(1e-6)


def test_order1_lambda_identity_pointwise(ei_run):
    """<I_0, DX K_1> + <I_1, X(K_0)> equals the slow exponent, pointwise."""
    result = ei_run.result
    man, resp = result.manifold, result.response
    k1 = man.order_series(1).samples().real
    i0 = resp.amplitude.order_series(0).samples().real
    i1 = resp.amplitude.order_series(1).samples().real
    x0 = result.model.eval(result.cycle.samples)
    jac = result.model.jacobian(result.cycle.samples)
    lhs = np.einsum("ni,ni->n", i0, np.einsum("nab,nb->na", jac, k1)) + np.einsum(
        "ni,ni->n", i1, x0
    )
    assert np.max(np.abs(lhs - man.slow_exponent)) < 1e-9


def test_order_zero_base_case(oracle_run):
    result = oracle_run.result
    resp = expand_response_functions(
        result.model, result.manifold, result.bundle, result.adjoint, order=0
    )
    adjoint_vals = result.adjoint.grid_values()
    assert np.max(np.abs(
        resp.phase.order_series(0).samples().real - adjoint_vals[:, :, 0].real
    )) < 1e-14
    assert np.max(np.abs(
        resp.amplitude.order_series(0).samples().real - adjoint_vals[:, :, 1].real
    )) < 1e-14


def response_transport(result, z_orders):
    """An adjoint-action transport over [K | z], orders 0..len(z_orders)-1
    filled; z_orders reaches one order past the last written one."""
    d = result.model.dim
    stack = np.zeros(z_orders.shape[:2] + (2 * d,))
    stack[:, :, :d] = result.manifold.coeffs.truncated(len(z_orders) - 1).samples().real
    stack[:, :, d:] = z_orders
    transport = JetTransport(result.model, stack, "adjoint_action")
    for n in range(len(z_orders) - 1):
        transport.fill(n)
    return transport


def solve_response_orders(result, transport, offset, on_free=None):
    """A response recursion's orders from ``transport.filled`` on."""
    return solve_orders(
        transport, transport.filled, result.bundle, result.adjoint,
        -result.bundle.exponents, result.manifold.slow_exponent, offset,
        result.cycle.period, 1e-8, on_free,
    )


def test_zero_driving_terms_give_zero_orders(oracle_run):
    # z = 0 below the solved order drives nothing: phase order 1 and
    # amplitude order 2 (past its free mode) come out zero
    result = oracle_run.result
    d = result.model.dim
    for offset, first in ((0, 1), (-1, 2)):
        transport = response_transport(
            result, np.zeros((first + 1, result.cycle.grid_size, d))
        )
        solve_response_orders(result, transport, offset)
        assert np.max(np.abs(transport.orders[first, :, d:])) == 0.0


def test_order1_free_mode_bookkeeping(oracle_run, monkeypatch):
    """Order-1 amplitude solve: the free mode goes to ``on_free`` with the
    right-hand side of the genuine driving term, which is compatible, and
    incompatible data trips the solvability gate."""
    result = oracle_run.result
    d = result.model.dim
    i0 = result.adjoint.grid_values()[:, :, 1].real
    z_orders = np.zeros((2, len(i0), d))
    z_orders[0] = i0
    transport = response_transport(result, z_orders)
    # the genuine G_1 = F_1 I_0: order 1 of the adjoint action over
    # [K_0, K_1 | I_0, 0] is -G_1
    g_real = -jet_compose(result.model, transport.orders, "adjoint_action")[1]
    calls = []

    def record(n, x_n, free_rhs):
        calls.append((n, free_rhs))
        return x_n

    solve_response_orders(result, transport, -1, record)
    ((n, free_rhs),) = calls
    assert n == 1
    assert abs(free_rhs) < 1e-9
    # the free mode is zero in the solution handed over
    trivial = result.bundle.grid_values()[:, :, 0].real
    assert abs(np.mean(np.einsum("na,na->n", trivial, transport.orders[1, :, d:]))) < 1e-9
    # incompatible synthetic data trips the solvability gate: perturb F_1 by
    # k0p i0^T so the driving term gains a component along the flow
    # direction (the trivial coordinate of the reduction carries the
    # solvability condition)
    k0p = result.bundle.grid_values()[:, :, 0].real
    g_bad = g_real + k0p * np.einsum("nb,nb->n", i0, i0)[:, None]

    class Perturbed(JetTransport):
        def fill(self, n):
            super().fill(n)
            if n == 1:
                self.out[1] = -g_bad

    monkeypatch.setattr(response, "JetTransport", Perturbed)
    with pytest.raises(SolvabilityError, match="order-1 solvability residual"):
        expand_response_functions(
            result.model, result.manifold, result.bundle, result.adjoint, order=1
        )


def test_each_order_is_filled_at_most_twice(oracle_run, monkeypatch):
    """Each response recursion fills order n once with Z_n = 0 and once
    after Z_n is written: a recursion that recomposed orders 0..n at every n
    would fill order 0 L times."""
    result = oracle_run.result
    transports = []

    class Recording(JetTransport):
        def __init__(self, *args):
            super().__init__(*args)
            transports.append(self)

    monkeypatch.setattr(response, "JetTransport", Recording)
    resp = expand_response_functions(
        result.model, result.manifold, result.bundle, result.adjoint, 5
    )
    assert len(transports) == 2  # phase, then amplitude
    d = result.model.dim
    for transport, expansion in zip(transports, (resp.phase, resp.amplitude)):
        assert transport.fills == [1] + [2] * 5
        # the transport carries the stored orders, and its final state is
        # the full composition of [K | Z]
        values = transport.orders
        stored = FourierTaylor.from_samples(values[:, :, d:]).coef
        assert stored.tobytes() == expansion.coef.tobytes()
        full = jet_compose(result.model, values, "adjoint_action")
        assert transport.result().tobytes() == full.tobytes()


def _layouts(coef):
    """C-ordered, Fortran-ordered and strided arrays equal to ``coef``."""
    strided = np.stack([coef, np.zeros_like(coef)], axis=-1)[..., 0]
    return np.ascontiguousarray(coef), np.asfortranarray(coef), strided


def test_response_is_independent_of_memory_layout(ei_run, tmp_path):
    """Fortran-ordered and strided copies of the manifold coefficients and of
    both frames give byte-identical response arrays and response.json."""
    result = ei_run.result
    man, bundle, adjoint = result.manifold, result.bundle, result.adjoint
    outputs = []
    for k, (m, b, a) in enumerate(zip(
        _layouts(man.coeffs.coef), _layouts(bundle.series.coef),
        _layouts(adjoint.series.coef),
    )):
        assert k == 0 or not (m.flags.c_contiguous or b.flags.c_contiguous
                              or a.flags.c_contiguous)
        resp = expand_response_functions(
            result.model,
            replace(man, coeffs=replace(man.coeffs, coef=m)),
            replace(bundle, series=replace(bundle.series, coef=b)),
            replace(adjoint, series=replace(adjoint.series, coef=a)),
            man.nominal_order,
        )
        out = tmp_path / str(k)
        out.mkdir()
        save_response(str(out), resp, {})
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("response_phase_coeff.npy", "response_amplitude_coeff.npy",
                         "response.json")
        })
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_directional_derivative_identities_oracle(oracle_run):
    result = oracle_run.result
    man, resp = result.manifold, result.response
    rng = np.random.default_rng(5)
    T, lam = man.period, man.slow_exponent
    for _ in range(20):
        th = rng.uniform()
        sg = rng.uniform(-0.02, 0.02)
        point = evaluate_manifold(man, th, sg)
        speed = result.model.eval(point)
        z = resp.phase.evaluate(th, sg).real
        a = resp.amplitude.evaluate(th, sg).real
        assert abs(np.dot(z, speed) - 1.0 / T) < 1e-8
        assert abs(np.dot(a, speed) - lam * sg) < 1e-8

