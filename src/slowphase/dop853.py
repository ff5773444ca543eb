"""The DOP853 stepper: Dormand-Prince 8(5,3) with its order-7 dense output.

An explicit embedded Runge-Kutta pair of order 8 (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, sections II.4-II.5): 12 stages
per step, an error estimate blended from the embedded order-5 and order-3
solutions, and 3 extra stages for the interpolant.  The arithmetic is scipy's
``scipy.integrate.DOP853`` operation for operation -- the initial step, the
stage sums, the error norm, the step-size factors, the clamp at ``t_bound``
and the interpolant's Horner loop -- so every flow is bitwise the one scipy
computes; the tests compare the two.

The hot loop keeps those operations and drops the numpy dispatch around
them.  Each stage sum is the same ``np.dot`` (one BLAS ``gemv``) on a view
with the strides of scipy's ``K[:s].T``, taken once per integration from the
transposed stage array, against a contiguous copy of the weight row.  The
sum is scaled and shifted in place (``dy *= h; dy += y``, the IEEE
operations of ``dot * h`` and ``y + dy``); the error norm is
``sqrt(e.dot(e)) ** 2``, which is what ``np.linalg.norm`` computes for a real
vector; and the step-size arithmetic runs on Python floats.

A step's interpolant is built on demand: :meth:`DOP853.dense_output` builds
the last step's, and :func:`dense_samples` builds those of steps kept by
:meth:`DOP853.keep` and evaluates all their samples in one Horner sweep.
Both share the construction and the Horner loop, so a batch is bitwise the
per-step dense output.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DOP853", "dense_samples"]

N_STAGES = 12

# Row s of A (s = 1..15) weighs stages 0..s-1 into stage s; trailing zeros
# are omitted.  Rows 1-11 are the stages of a step, row 12 holds the order-8
# weights B, and rows 13-15 are the extra stages of the interpolant.
_A_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
        0.20136540080403034, 0.04471061572777259,
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
        0.00820105229563469, 0.007567897660545699, -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
        0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
        0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ),
)

A = np.zeros((16, 16))
for _s, _row in enumerate(_A_ROWS, start=1):
    A[_s, : len(_row)] = _row
B = A[N_STAGES, :N_STAGES]
C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
])
# the stage weights A[s, :s] as contiguous rows, and C as Python floats
_A_STAGE = [np.ascontiguousarray(A[s, :s]) for s in range(16)]
_C = C.tolist()
# error weights over the 12 stages and f(t + h): E5 of the order-5 estimate,
# E3 = B minus the order-3 weights (stored as the differences, rounded)
E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
])
E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
])
# interpolant coefficients of stages 0-15 for the powers 3-6
D = np.array([
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727,
        -9.194632392478356, -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ],
])

SAFETY = 0.9  # multiplies the asymptotic step-size factor
MIN_FACTOR = 0.2  # largest decrease of the step size
MAX_FACTOR = 10  # largest increase of the step size
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _horner(F, x, y_old):
    """The interpolant with coefficient rows ``F`` at the step fractions
    ``x``, from ``y_old``: a scalar ``x`` and (n,) rows give one state, and
    a column of fractions against (n,) or (m, n) rows gives (m, n) states.
    The same elementwise operations in every case, so a batch is bitwise
    the scalar loop."""
    y = np.zeros(np.broadcast_shapes(np.shape(x), F.shape[1:]))
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


def _coefficients(fun, K, t_old, h, y_old, y):
    """The interpolant's (7, n) coefficient rows of the step from ``t_old``
    by ``h``, ``y_old`` to ``y``: fills the three extra stages ``K[13:16]``
    of the (16, n) stage array ``K``, whose rows 0-12 are the step's."""
    KT = K.T  # KT[:, :s] has the strides of scipy's K[:s].T
    for s in range(N_STAGES + 1, 16):
        dy = np.dot(KT[:, :s], _A_STAGE[s])
        dy *= h
        dy += y_old
        K[s] = fun(t_old + _C[s] * h, dy)
    F = np.empty((7, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (K[N_STAGES] + f_old)
    F[3:] = h * np.dot(D, K)
    return F


def dense_samples(fun, steps, which, t, size=None):
    """The states at times ``t`` from the kept ``steps`` (each one
    :meth:`DOP853.keep`), ``t[i]`` in the closed interval of step
    ``which[i]``: the interpolant of each step that ``which`` names is built
    once, then every sample is evaluated in one Horner sweep, bitwise
    :meth:`DOP853.dense_output`'s, for the first ``size`` components alone if given
    (stages stay full width)."""
    used, which = np.unique(which, return_inverse=True)
    steps = [steps[s] for s in used]
    F = np.empty((7, len(steps), steps[0][0].shape[1]))
    for s, (K, t_old, h, y_old, y) in enumerate(steps):
        F[:, s] = _coefficients(fun, K, t_old, h, y_old, y)
    t_old = np.array([step[1] for step in steps])[which]
    h = np.array([step[2] for step in steps])[which]
    y_old = np.stack([step[3][:size] for step in steps])[which]
    return _horner(F[:, which, :size], ((t - t_old) / h)[:, None], y_old)


class DOP853:
    """One integration of ``y' = fun(t, y)`` from ``t0`` toward ``t_bound``.

    ``fun`` returns a float array shaped like ``y``; ``t_bound`` differs from
    ``t0`` and may lie before it.  Each :meth:`step` advances ``t``, ``y`` and
    ``f`` (the field at ``(t, y)``) by one accepted step, which ends exactly
    at ``t_bound`` when it would pass it; ``finished`` is then true.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.fun = fun
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.direction = float(np.sign(t_bound - t0))
        self.f = fun(t0, y0)
        self.h_abs = self._initial_step()
        self.K_extended = np.empty((16, y0.size))
        self.K = self.K_extended[: N_STAGES + 1]
        # columns[s] = K_extended.T[:, :s] has the strides of K[:s].T, so
        # every stage sum is the gemv call scipy makes
        KT = self.K_extended.T
        self.columns = [KT[:, :s] for s in range(N_STAGES + 2)]
        self.t_old = self.y_old = self.h_previous = None
        self.finished = False

    def _initial_step(self):
        """Hairer-Norsett-Wanner's starting step from two field evaluations."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * direction * f0
        f1 = self.fun(t0 + h0 * direction, y1)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length)

    def _stages(self, t, y, h):
        """The order-8 solution at ``t + h`` and its field; fills ``K``."""
        K, columns, fun = self.K, self.columns, self.fun
        K[0] = self.f
        for s in range(1, N_STAGES):
            dy = np.dot(columns[s], _A_STAGE[s])
            dy *= h
            dy += y
            K[s] = fun(t + _C[s] * h, dy)
        y_new = np.dot(columns[N_STAGES], B)
        y_new *= h
        y_new += y
        f_new = fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def _error_norm(self, h, scale):
        stages = self.columns[N_STAGES + 1]  # K.T
        err5 = np.dot(stages, E5)
        err5 /= scale
        err3 = np.dot(stages, E3)
        err3 /= scale
        # np.linalg.norm of a real vector is sqrt(x.dot(x))
        err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))

    def step(self) -> bool:
        """Take one accepted step; False (nothing moves) if the step size
        fell below ten units in the last place of ``t``."""
        t, y, direction = self.t, self.y, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = self._stages(t, y, h)
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= self.rtol
            scale += self.atol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        self.h_abs = h_abs * factor
        self.h_previous = h
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        self.finished = direction * (t_new - self.t_bound) >= 0
        return True

    def dense_output(self):
        """The interpolant of the last step, a polynomial of degree 7 in time:
        a function of one time that returns the state there.  Call this
        before the next step."""
        t_old, h, y_old = self.t_old, self.h_previous, self.y_old
        F = _coefficients(self.fun, self.K_extended, t_old, h, y_old, self.y)
        return lambda t: _horner(F, (t - t_old) / h, y_old)

    def keep(self):
        """The last step as :func:`dense_samples` reads it: a copy of its
        stages, with rows for the extra stages, and ``(t_old, h, y_old, y)``."""
        K = np.empty_like(self.K_extended)
        K[: N_STAGES + 1] = self.K
        return K, self.t_old, self.h_previous, self.y_old, self.y
