import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowphase.errors import GridError, SmallDivisorError
from slowphase.models import VectorFieldModel, jet_compose
from slowphase.series import (
    FourierSeries,
    FourierTaylor,
    horner,
    solve_diagonal,
    theta_grid,
)


def grids(max_log=6):
    return st.integers(min_value=3, max_value=max_log).map(lambda p: 2**p)


@settings(max_examples=25, deadline=None)
@given(grids(), st.integers(min_value=0, max_value=2**31 - 1))
def test_transform_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 3))
    series = FourierSeries.from_samples(values)
    back = series.samples()
    assert np.max(np.abs(back.real - values)) < 1e-13
    assert np.max(np.abs(back.imag)) < 1e-13


def test_constant_grid_analyzes_to_mean_mode():
    series = FourierSeries.from_samples(np.full(64, 2.5))
    assert series.coef[0] == pytest.approx(2.5)
    assert np.max(np.abs(series.coef[1:])) < 1e-15


def test_cosine_coefficients():
    theta = theta_grid(64)
    series = FourierSeries.from_samples(np.cos(2 * np.pi * theta))
    assert series.coef[1] == pytest.approx(0.5, abs=1e-14)
    assert series.coef[-1] == pytest.approx(0.5, abs=1e-14)
    rest = np.delete(series.coef, [1, -1])
    assert np.max(np.abs(rest)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(grids(), st.integers(min_value=0, max_value=2**31 - 1))
def test_parseval(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    series = FourierSeries.from_samples(values)
    grid_norm = np.linalg.norm(values)
    coef_norm = np.linalg.norm(series.coef)
    assert grid_norm == pytest.approx(np.sqrt(n) * coef_norm, rel=1e-12)


def test_power_of_two_rejected():
    with pytest.raises(GridError):
        FourierSeries.from_samples(np.zeros(48))
    with pytest.raises(GridError):
        theta_grid(12)


def test_derivative_of_constant_is_zero():
    series = FourierSeries.from_samples(np.full(32, 4.2)).differentiate()
    assert np.max(np.abs(series.samples())) < 1e-14


def test_derivative_of_sine():
    theta = theta_grid(128)
    series = FourierSeries.from_samples(np.sin(2 * np.pi * theta))
    deriv = series.differentiate().samples().real
    assert np.max(np.abs(deriv - 2 * np.pi * np.cos(2 * np.pi * theta))) < 1e-12


def test_derivative_mean_is_zero_and_nyquist_dropped():
    rng = np.random.default_rng(0)
    series = FourierSeries.from_samples(rng.standard_normal(64))
    deriv = series.differentiate()
    assert abs(deriv.coef[0]) == 0.0
    assert abs(deriv.coef[32]) == 0.0  # Nyquist bin


def test_evaluate_matches_grid_synthesis():
    rng = np.random.default_rng(3)
    series = FourierSeries.from_samples(rng.standard_normal((32, 2)))
    theta = series.grid()
    direct = series.evaluate(theta)
    assert np.max(np.abs(direct - series.samples())) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_real_input_closure(seed):
    rng = np.random.default_rng(seed)
    series = FourierSeries.from_samples(rng.standard_normal(64))
    assert np.max(np.abs(series.differentiate().samples().imag)) < 1e-12


def test_solve_diagonal_single_mode():
    # rhs = e^{2 pi i theta}, shift 1, T = 1: u = rhs / (2 pi i + 1)
    n = 32
    theta = theta_grid(n)
    rhs = FourierSeries.from_samples(np.exp(2j * np.pi * theta)[:, None])
    sol, free, smallest = solve_diagonal(rhs, [1.0], period_time=1.0)
    assert free == {}
    assert smallest == 1.0  # the k = 0 divisor
    expected = np.exp(2j * np.pi * theta) / (2j * np.pi + 1.0)
    assert np.max(np.abs(sol.samples()[:, 0] - expected)) < 1e-13


def test_solve_diagonal_zero_rhs_gives_zero():
    rhs = FourierSeries(np.zeros((32, 2), dtype=complex))
    sol, _, _ = solve_diagonal(rhs, [0.5, 1.5], period_time=2.0)
    assert np.max(np.abs(sol.coef)) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_solve_diagonal_operator_round_trip(seed):
    rng = np.random.default_rng(seed)
    n, d, T = 64, 3, 3.7
    shifts = np.array([0.3 + 0.2j, 1.1, 2.0 - 1.0j])
    rhs = FourierSeries.from_samples(
        rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    ).band_limited(n // 2)
    sol, _, _ = solve_diagonal(rhs, shifts, period_time=T)
    recovered = sol.differentiate().samples() / T + sol.samples() * shifts
    assert np.max(np.abs(recovered - rhs.samples())) < 1e-11


def test_solve_diagonal_small_divisor_raises_with_context():
    rhs = FourierSeries.from_samples(np.ones((16, 1)))
    with pytest.raises(SmallDivisorError) as err:
        solve_diagonal(rhs, [1e-12], period_time=1.0)
    assert err.value.context[0] == 0  # wavenumber of the offending mode


def test_solve_diagonal_free_mode_reports_residual():
    n = 16
    values = np.ones((n, 1)) * 0.25
    rhs = FourierSeries.from_samples(values)
    sol, free, smallest = solve_diagonal(
        rhs, [0.0], period_time=1.0, free_modes=[(0, 0)]
    )
    assert free[(0, 0)] == pytest.approx(0.25)
    assert smallest == pytest.approx(2 * np.pi)  # the free zero divisor is skipped
    assert abs(sol.coef[0, 0]) == 0.0


def test_fourier_taylor_requires_order_zero():
    with pytest.raises(GridError):
        FourierTaylor(np.zeros((0, 8, 2), dtype=complex))
    with pytest.raises(GridError):
        FourierTaylor.from_samples(np.zeros((0, 8, 2)))
    with pytest.raises(GridError):
        FourierTaylor(np.zeros((3, 12, 2), dtype=complex))
    with pytest.raises(GridError):
        FourierTaylor.from_samples(np.zeros((3, 12, 2)))


@pytest.mark.parametrize("period", [1.0, 2.0])
@pytest.mark.parametrize("value_shape", [(), (3,), (3, 3)])
def test_fourier_taylor_is_bitwise_the_per_order_series(period, value_shape):
    """Each operation on the stacked coefficients equals, bit for bit, the
    same operation on the order's FourierSeries."""
    rng = np.random.default_rng(len(value_shape))
    values = rng.standard_normal((5, 32, *value_shape))
    ft = FourierTaylor.from_samples(values, period)
    per_order = [FourierSeries.from_samples(v, period) for v in values]
    assert ft.coef.shape == (5, 32, *value_shape)
    assert (ft.order, ft.grid_size, ft.value_shape) == (4, 32, value_shape)
    samples, derivative = ft.samples(), ft.differentiate()
    assert derivative.period == period
    for n, series in enumerate(per_order):
        view = ft.order_series(n)
        assert view.period == period and np.shares_memory(view.coef, ft.coef)
        assert view.coef.tobytes() == series.coef.tobytes()
        assert samples[n].tobytes() == series.samples().tobytes()
        assert derivative.coef[n].tobytes() == series.differentiate().coef.tobytes()
    low = ft.truncated(2)
    assert low.order == 2 and low.period == period
    assert low.coef.tobytes() == ft.coef[:3].tobytes()


def test_fourier_taylor_evaluate_horner():
    n = 32
    theta = theta_grid(n)
    values = np.stack([np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)])
    ft = FourierTaylor.from_samples(values[:, :, None])
    val = ft.evaluate(0.25, 0.5)
    expected = np.cos(np.pi / 2) + 0.5 * np.sin(np.pi / 2)
    assert val[0] == pytest.approx(expected, abs=1e-12)


def test_fourier_taylor_shared_phase_is_bitwise_per_order_evaluation():
    rng = np.random.default_rng(5)
    orders = tuple(
        FourierSeries.from_samples(rng.standard_normal((32, 3))) for _ in range(5)
    )
    ft = FourierTaylor(np.stack([series.coef for series in orders]))
    theta = rng.uniform(0.0, 1.0, 7)
    sigma = rng.uniform(-0.5, 0.5, 7)
    acc = orders[4].evaluate(theta)
    for n in range(3, -1, -1):
        acc = acc * sigma[:, None] + orders[n].evaluate(theta)
    assert ft.evaluate(theta, sigma).tobytes() == acc.tobytes()


def compose(closure, *inputs):
    """Jet transport of ``closure`` over input jets of shape (L+1, grid);
    returns the output jets, shape (L+1, grid, outputs)."""
    model = VectorFieldModel(
        name="closure", dim=len(inputs), params={},
        state_names=tuple(f"x{i}" for i in range(len(inputs))),
        rhs=closure, jac_rows=None,
    )
    return jet_compose(model, np.stack(inputs, axis=-1), "field")


def test_jet_multiplication_is_taylor_convolution():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])  # 1+3s (pointwise per column)
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    prod = compose(lambda u: (u[0] * u[1],), a, b)[:, :, 0]
    assert np.allclose(prod[0], [5.0, 12.0])
    assert np.allclose(prod[1], [1 * 7 + 3 * 5, 2 * 8 + 4 * 6])


def test_jet_power_and_scalar_mixing():
    x = np.array([[2.0], [1.0], [0.0]])  # 2 + s
    poly = compose(lambda u: (3.0 * u[0] ** 2 + 1.0 - u[0],), x)[:, :, 0]
    # 3(2+s)^2 + 1 - (2+s) = 12 + 12 s + 3 s^2 + 1 - 2 - s
    assert np.allclose(poly[:, 0], [11.0, 11.0, 3.0])


@pytest.mark.parametrize("period", [1.0, 2.0])
@pytest.mark.parametrize("shape", [(64, 3), (64, 3, 3)])
def test_band_limit_and_derivative_equal_raw_fft(period, shape):
    """The series chain is bitwise the raw-FFT band limit and derivative.

    Real (n, d) input stands for orbit samples and complex (n, d, d) input
    for frame columns; the reference transforms them as complex arrays.
    """
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape)
    if len(shape) == 3:
        values = values + 1j * rng.standard_normal(shape)
    n, k_cut = shape[0], 12
    k = np.fft.fftfreq(n, d=1.0 / n)
    column = (n,) + (1,) * (len(shape) - 1)
    series = FourierSeries.from_samples(values, period)

    coef = np.fft.fft(values.astype(complex), axis=0)
    coef[np.abs(k) >= k_cut] = 0.0
    band = np.fft.ifft(coef, axis=0)
    assert series.band_limited(k_cut).samples().tobytes() == band.tobytes()

    for cut in (None, k_cut):
        kk = k.copy()
        kk[n // 2] = 0.0
        if cut is not None:
            kk[np.abs(k) >= cut] = 0.0
        coef = np.fft.fft(values.astype(complex), axis=0)
        coef *= ((2j * np.pi / period) * kk).reshape(column)
        deriv = np.fft.ifft(coef, axis=0)
        chain = series if cut is None else series.band_limited(cut)
        assert chain.differentiate().samples().tobytes() == deriv.tobytes()


def test_horner_matches_explicit_powers_for_lists_and_stacks():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((5, 16, 3))
    sigma = rng.uniform(-1.0, 1.0, 16)[:, None]
    expect = values[4]
    for n in range(3, -1, -1):
        expect = expect * sigma + values[n]
    assert horner(values, sigma).tobytes() == expect.tobytes()
    assert horner(list(values), sigma).tobytes() == expect.tobytes()
    assert horner(values[:1], sigma).tobytes() == values[0].tobytes()
    assert np.allclose(
        horner(values, sigma), sum(values[n] * sigma**n for n in range(5))
    )


def test_horner_leaves_its_inputs_unchanged_and_promotes():
    rng = np.random.default_rng(5)
    real = rng.standard_normal((4, 8, 3))
    cplx = real + 1j * rng.standard_normal((4, 8, 3))
    cases = (
        (real, 0.3),  # scalar sigma
        (real, rng.uniform(-1.0, 1.0, (2, 8, 1))),  # sigma broadcasts the result up
        (cplx, rng.uniform(-1.0, 1.0, (8, 1))),  # complex values, real sigma
        (real, np.complex128(0.5 - 0.25j)),  # real values, complex sigma
    )
    for values, sigma in cases:
        kept = [values.copy(), np.copy(sigma)]
        for form in (values, list(values)):
            out = horner(form, sigma)
            assert out.dtype == np.result_type(values, sigma)
            expect = values[-1]  # the same rule with a fresh array per step
            for n in range(len(values) - 2, -1, -1):
                expect = expect * sigma + values[n]
            assert out.tobytes() == expect.tobytes()
            assert out is not form[0] and not np.shares_memory(out, values)
        assert values.tobytes() == kept[0].tobytes()
        assert np.asarray(sigma).tobytes() == kept[1].tobytes()


def test_band_limited_zeroes_high_modes():
    rng = np.random.default_rng(1)
    series = FourierSeries.from_samples(rng.standard_normal(64))
    cut = series.band_limited(8)
    assert np.max(np.abs(cut.coef[np.abs(cut.k) >= 8])) == 0.0
    assert np.max(np.abs(cut.coef[np.abs(cut.k) < 8] - series.coef[np.abs(series.k) < 8])) == 0.0
