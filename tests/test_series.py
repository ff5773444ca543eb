from dataclasses import fields

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
    wavenumbers,
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


@settings(max_examples=40, deadline=None)
@given(
    log2_n=st.integers(min_value=3, max_value=10),
    value_shape=st.sampled_from([(), (3,), (3, 3)]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_real_series_round_trip_and_evaluation(log2_n, value_shape, seed):
    """Real samples analyze into the N/2 + 1 one-sided rows, synthesize back
    to real values, and point evaluation at the grid phases matches them."""
    n = 2**log2_n
    values = np.random.default_rng(seed).standard_normal((n, *value_shape))
    series = FourierSeries.from_samples(values)
    assert series.real and series.coef.shape == (n // 2 + 1, *value_shape)
    assert series.grid_size == n and np.array_equal(series.k, np.arange(n // 2 + 1))
    back = series.samples()
    assert back.dtype == np.float64 and back.shape == values.shape
    assert np.max(np.abs(back - values)) < 1e-13
    at_grid = series.evaluate(series.grid())
    assert at_grid.dtype == np.float64 and at_grid.shape == values.shape
    # the phase arguments k theta reach N/2, so their rounding grows with N;
    # 30 seeds per size reached 2.3 N eps
    assert np.max(np.abs(at_grid - back)) < 8 * n * np.finfo(float).eps


def test_constant_grid_analyzes_to_mean_mode():
    series = FourierSeries.from_samples(np.full(64, 2.5))
    assert series.coef[0] == pytest.approx(2.5)
    assert np.max(np.abs(series.coef[1:])) < 1e-15


def test_cosine_coefficients():
    """Real samples keep the rows k = 0..N/2; complex ones all N rows, with
    the conjugate row k = -1 last."""
    theta = theta_grid(64)
    values = np.cos(2 * np.pi * theta)
    series = FourierSeries.from_samples(values)
    assert series.real and series.coef.shape == (33,) and series.grid_size == 64
    assert series.coef[1] == pytest.approx(0.5, abs=1e-14)
    assert np.max(np.abs(np.delete(series.coef, 1))) < 1e-14
    two_sided = FourierSeries.from_samples(values.astype(complex))
    assert not two_sided.real and two_sided.coef.shape == (64,)
    assert two_sided.coef[1] == pytest.approx(0.5, abs=1e-14)
    assert two_sided.coef[-1] == pytest.approx(0.5, abs=1e-14)
    rest = np.delete(two_sided.coef, [1, -1])
    assert np.max(np.abs(rest)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(grids(), st.integers(min_value=0, max_value=2**31 - 1))
def test_parseval(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    series = FourierSeries.from_samples(values)
    grid_norm = np.linalg.norm(values)
    # a one-sided row 0 < k < N/2 stands for itself and its conjugate
    weights = np.where(series.k % (n // 2) == 0, 1.0, 2.0)
    coef_norm = np.sqrt(np.sum(weights * np.abs(series.coef) ** 2))
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
    sol, free = solve_diagonal(rhs, [1.0], period_time=1.0)
    assert free == {}
    expected = np.exp(2j * np.pi * theta) / (2j * np.pi + 1.0)
    assert np.max(np.abs(sol.samples()[:, 0] - expected)) < 1e-13


def test_solve_diagonal_zero_rhs_gives_zero():
    rhs = FourierSeries(np.zeros((32, 2), dtype=complex))
    sol, _ = solve_diagonal(rhs, [0.5, 1.5], period_time=2.0)
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
    sol, _ = solve_diagonal(rhs, shifts, period_time=T)
    recovered = sol.differentiate().samples() / T + sol.samples() * shifts
    assert np.max(np.abs(recovered - rhs.samples())) < 1e-11


@settings(max_examples=60, deadline=None)
@given(
    log2_n=st.integers(1, 6),
    dim=st.integers(1, 3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_free=st.integers(0, 3),
)
def test_solve_diagonal_divides_unmasked_modes_and_zeroes_the_rest(log2_n, dim, seed, n_free):
    """Each mode is its coefficient over its divisor, bit for bit; the
    Nyquist row and the free modes are exactly 0+0j, with positive zeros."""
    rng = np.random.default_rng(seed)
    n, period = 2**log2_n, rng.uniform(0.5, 10.0)
    coef = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    coef[rng.random(coef.shape) < 0.2] = complex(-0.0, -0.0)
    shifts = rng.uniform(0.1, 2.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    free_modes = {(int(k[rng.integers(n)]), int(rng.integers(dim))) for _ in range(n_free)}
    sol, free = solve_diagonal(FourierSeries(coef.copy()), shifts, period, free_modes)
    masked = np.zeros((n, dim), dtype=bool)
    masked[n // 2] = True
    for kf, jf in free_modes:
        masked[k == kf, jf] = True
        assert free[(kf, jf)] == coef[k == kf, jf][0]
    out = sol.coef
    assert out.dtype == np.complex128 and out.shape == (n, dim)
    assert not np.signbit(out[masked].real).any() and not np.signbit(out[masked].imag).any()
    assert (out[masked] == 0).all()
    divisors = (2j * np.pi / period) * k[:, None] + shifts[None, :]
    for row, col in zip(*np.nonzero(~masked)):
        expected = coef[row, col] / divisors[row, col]
        assert out[row, col].tobytes() == np.complex128(expected).tobytes(), (row, col)


def test_solve_diagonal_refuses_a_one_sided_series():
    with pytest.raises(GridError, match="two-sided"):
        solve_diagonal(FourierSeries.from_samples(np.ones((16, 1))), [1.0], 1.0)


def test_solve_diagonal_small_divisor_raises_with_context():
    rhs = FourierSeries.from_samples(np.ones((16, 1), dtype=complex))
    with pytest.raises(SmallDivisorError) as err:
        solve_diagonal(rhs, [1e-12], period_time=1.0)
    assert err.value.context[0] == 0  # wavenumber of the offending mode


def test_solve_diagonal_free_mode_reports_residual():
    n = 16
    values = np.full((n, 1), 0.25 + 0j)
    rhs = FourierSeries.from_samples(values)
    # the free zero divisor does not raise
    sol, free = solve_diagonal(rhs, [0.0], period_time=1.0, free_modes=[(0, 0)])
    assert free[(0, 0)] == pytest.approx(0.25)
    assert abs(sol.coef[0, 0]) == 0.0


def test_wavenumbers_are_one_read_only_array_that_solves_leave_unchanged():
    """One read-only array per grid and layout, shared by every caller; the
    derivative and the solve build their factors and divisors from it and
    leave it as it was."""
    for real, freq in ((False, np.fft.fftfreq), (True, np.fft.rfftfreq)):
        k = wavenumbers(16, real)
        assert wavenumbers(16, real) is k and not k.flags.writeable
        assert np.array_equal(k, freq(16, d=1.0 / 16))
        with pytest.raises(ValueError):
            k[0] = 1
    values = np.random.default_rng(0).standard_normal((16, 2))
    FourierSeries.from_samples(values).differentiate()
    FourierSeries.from_samples(values.astype(complex)).differentiate()
    solve_diagonal(FourierSeries.from_samples(values.astype(complex)), [1.0, 2.0], 3.0)
    assert np.array_equal(wavenumbers(16), np.fft.fftfreq(16, d=1.0 / 16))
    assert np.array_equal(wavenumbers(16, True), np.fft.rfftfreq(16, d=1.0 / 16))


def test_fourier_taylor_requires_order_zero():
    with pytest.raises(GridError):
        FourierTaylor(np.zeros((0, 8, 2), dtype=complex))
    with pytest.raises(GridError):
        FourierTaylor.from_samples(np.zeros((0, 8, 2)))
    with pytest.raises(GridError):
        FourierTaylor(np.zeros((3, 12, 2), dtype=complex))
    with pytest.raises(GridError):
        FourierTaylor.from_samples(np.zeros((3, 12, 2)))


@pytest.mark.parametrize("value_shape", [(), (3,), (3, 3)])
def test_fourier_taylor_is_bitwise_the_per_order_series(value_shape):
    """Each operation on the stacked coefficients equals, bit for bit, the
    same operation on the order's FourierSeries, in both layouts: 17 rows
    for real values and 32 for complex ones."""
    rng = np.random.default_rng(len(value_shape))
    real = rng.standard_normal((5, 32, *value_shape))
    for values, rows in ((real, 17), (real + 1j * rng.standard_normal(real.shape), 32)):
        ft = FourierTaylor.from_samples(values)
        per_order = [FourierSeries.from_samples(v) for v in values]
        assert ft.coef.shape == (5, rows, *value_shape) and ft.real == (rows == 17)
        assert (ft.order, ft.grid_size, ft.value_shape) == (4, 32, value_shape)
        samples, derivative = ft.samples(), ft.differentiate()
        assert derivative.real == ft.real
        assert samples.dtype == values.dtype
        for n, series in enumerate(per_order):
            view = ft.order_series(n)
            assert np.shares_memory(view.coef, ft.coef)
            assert view.real == series.real == ft.real
            assert view.coef.tobytes() == series.coef.tobytes()
            assert samples[n].tobytes() == series.samples().tobytes()
            assert derivative.coef[n].tobytes() == series.differentiate().coef.tobytes()
        low = ft.truncated(2)
        assert low.order == 2 and low.real == ft.real
        assert low.coef.tobytes() == ft.coef[:3].tobytes()


def test_series_have_period_one():
    """Every series has period 1 in theta: the coefficients and the layout
    are the only fields, and a positional period is refused, not read as
    ``real``."""
    assert [f.name for f in fields(FourierSeries)] == ["coef", "real"]
    assert [f.name for f in fields(FourierTaylor)] == ["coef", "real"]
    with pytest.raises(TypeError):
        FourierSeries(np.zeros((8, 2), dtype=complex), 2.0)
    with pytest.raises(TypeError):
        FourierTaylor(np.zeros((2, 8, 2), dtype=complex), 2.0)
    with pytest.raises(TypeError):
        FourierSeries.from_samples(np.ones(8), 1.0)
    with pytest.raises(TypeError):
        theta_grid(8, 2.0)
    assert np.array_equal(theta_grid(8), np.arange(8) / 8)


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
    ft = FourierTaylor(np.stack([series.coef for series in orders]), real=True)
    theta = rng.uniform(0.0, 1.0, 7)
    sigma = rng.uniform(-0.5, 0.5, 7)
    acc = orders[4].evaluate(theta)
    for n in range(3, -1, -1):
        acc = acc * sigma[:, None] + orders[n].evaluate(theta)
    assert ft.evaluate(theta, sigma).tobytes() == acc.tobytes()


@pytest.mark.parametrize("real", [True, False])
def test_samples_do_not_depend_on_the_coefficient_layout(real):
    """Grid values of a Fortran-ordered coefficient array come back
    C-contiguous, so a pairing reduced over them (the response
    normalization's ``einsum``) has the bits of the C-ordered array's."""
    rng = np.random.default_rng(8)
    values = rng.standard_normal((3, 64, 6))
    if not real:
        values = values + 1j * rng.standard_normal(values.shape)
    ft = FourierTaylor.from_samples(values)
    fortran = FourierTaylor(np.asfortranarray(ft.coef), real=real)
    assert not fortran.coef.flags.c_contiguous
    pairs = []
    for layout in (ft, fortran):
        a = layout.samples()
        b = layout.order_series(1).differentiate().samples()
        assert a.flags.c_contiguous and b.flags.c_contiguous
        pairs.append(np.einsum("ni,ni->n", a[0], b))
    assert pairs[1].tobytes() == pairs[0].tobytes()


def compose(closure, *inputs):
    """Jet transport of ``closure`` over input jets of shape (L+1, grid);
    returns the output jets, shape (L+1, grid, outputs)."""
    model = VectorFieldModel(
        name="closure", dim=len(inputs), params={},
        state_names=tuple(f"x{i}" for i in range(len(inputs))),
        rhs=closure,
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


@pytest.mark.parametrize("shape", [(64, 3), (64, 3, 3)])
def test_band_limit_and_derivative_equal_raw_fft(shape):
    """The series chain is bitwise the raw-FFT band limit and derivative.

    Real (n, d) input stands for orbit samples, which the reference
    transforms one-sided (``rfft``, ``irfft``), and complex (n, d, d) input
    for frame columns, which it transforms two-sided.
    """
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape)
    n, k_cut = shape[0], 12
    if len(shape) == 3:
        values = values + 1j * rng.standard_normal(shape)
        k, fft, ifft = np.fft.fftfreq(n, d=1.0 / n), np.fft.fft, np.fft.ifft
    else:
        k, fft = np.fft.rfftfreq(n, d=1.0 / n), np.fft.rfft

        def ifft(coef, axis):
            return np.fft.irfft(coef, n=n, axis=axis)
    column = (len(k),) + (1,) * (len(shape) - 1)
    series = FourierSeries.from_samples(values)

    coef = fft(values, axis=0)
    coef[np.abs(k) >= k_cut] = 0.0
    band = ifft(coef, axis=0)
    assert series.band_limited(k_cut).samples().tobytes() == band.tobytes()

    for cut in (None, k_cut):
        kk = k.copy()
        kk[n // 2] = 0.0
        if cut is not None:
            kk[np.abs(k) >= cut] = 0.0
        coef = fft(values, axis=0)
        coef *= (2j * np.pi * kk).reshape(column)
        deriv = ifft(coef, axis=0)
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
