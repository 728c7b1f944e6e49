"""The Dormand-Prince 8(5,3) pair, the code DOP853 of Hairer, Norsett &
Wanner (Solving ODEs I, II.5 and II.10): one unrolled step for a system of
four scalar equations, and its seventh-order continuous extension on arrays
of accepted steps.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["step", "dense_output"]

# The tableau, to the digits of Hairer's Fortran source: nodes c_i and the
# nonzero a_ij of stages 2 to 12; the eighth-order weights b_j, whose
# solution is the point of stage 13 (c = 1), the first stage of the next
# step; the weights of the fifth-order error estimate; and the third-order
# weights bhh_j, whose difference from b_j is the third-order estimate.
_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _C12 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0,
)
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 1 / 27, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = (
    0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125,
)
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023,
)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996,
)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627,
)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196,
)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636,
)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259,
)
_E1, _E6, _E7, _E8, _E9, _E10, _E11, _E12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294,
)
_BHH1, _BHH9, _BHH12 = 31 / 127, 0.7338466882816118, 3 / 136

#: The seventh-order dense output of a step: three more stages 14 to 16 at
#: the nodes _DENSE_C, with the rows _DENSE_A over the stages _DENSE_STAGES,
#: and the rows _DENSE_D, over the same stages, of the last four of its seven
#: coefficients (the first three are Hermite data of the step).
_DENSE_STAGES = (1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
_DENSE_C = (0.1, 0.2, 7 / 9)
_DENSE_A = np.array([
    [0.056167502283047954, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298, 0.0, 0.0, 0.0],
    [0.03183464816350214, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
     0.0, 0.0],
    [-0.42889630158379194, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987, 0.0],
])
_DENSE_D = np.array([
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564],
])


def step(f, x, h, y, k1, tol, absolute):
    """One Dormand-Prince 8(5,3) step of size h for y' = f(x, *y) from
    (x, y), where k1 = f(x, *y).  Returns the eighth-order solution, its
    slope k13, the step as one flat row for :func:`dense_output` (x, h, y,
    y_new and the stages 1, 6 to 13, four components each), and the error
    estimate: the largest over the components of h * e5**2 / sqrt(e5**2 +
    0.01 * e3**2), Hairer's combination of the fifth- and third-order
    estimates e5 and e3 of a component, in units of tol * max(|y|, |y_new|),
    or of tol alone for the components flagged in ``absolute``.  err is inf,
    with no solution, when a stage overflows or the solution leaves the
    finite range.

    The four state components are written out: this is the march's inner
    loop, and per-component loops cost more than the arithmetic.  Stage j of
    component i is the name k<j>_<i>."""
    y0, y1, y2, y3 = y
    k1_0, k1_1, k1_2, k1_3 = k1
    isfinite = math.isfinite
    try:
        k2_0, k2_1, k2_2, k2_3 = f(
            x + _C2 * h,
            y0 + h * (_A2_1 * k1_0),
            y1 + h * (_A2_1 * k1_1),
            y2 + h * (_A2_1 * k1_2),
            y3 + h * (_A2_1 * k1_3),
        )
        k3_0, k3_1, k3_2, k3_3 = f(
            x + _C3 * h,
            y0 + h * (_A3_1 * k1_0 + _A3_2 * k2_0),
            y1 + h * (_A3_1 * k1_1 + _A3_2 * k2_1),
            y2 + h * (_A3_1 * k1_2 + _A3_2 * k2_2),
            y3 + h * (_A3_1 * k1_3 + _A3_2 * k2_3),
        )
        k4_0, k4_1, k4_2, k4_3 = f(
            x + _C4 * h,
            y0 + h * (_A4_1 * k1_0 + _A4_3 * k3_0),
            y1 + h * (_A4_1 * k1_1 + _A4_3 * k3_1),
            y2 + h * (_A4_1 * k1_2 + _A4_3 * k3_2),
            y3 + h * (_A4_1 * k1_3 + _A4_3 * k3_3),
        )
        k5_0, k5_1, k5_2, k5_3 = f(
            x + _C5 * h,
            y0 + h * (_A5_1 * k1_0 + _A5_3 * k3_0 + _A5_4 * k4_0),
            y1 + h * (_A5_1 * k1_1 + _A5_3 * k3_1 + _A5_4 * k4_1),
            y2 + h * (_A5_1 * k1_2 + _A5_3 * k3_2 + _A5_4 * k4_2),
            y3 + h * (_A5_1 * k1_3 + _A5_3 * k3_3 + _A5_4 * k4_3),
        )
        k6_0, k6_1, k6_2, k6_3 = f(
            x + _C6 * h,
            y0 + h * (_A6_1 * k1_0 + _A6_4 * k4_0 + _A6_5 * k5_0),
            y1 + h * (_A6_1 * k1_1 + _A6_4 * k4_1 + _A6_5 * k5_1),
            y2 + h * (_A6_1 * k1_2 + _A6_4 * k4_2 + _A6_5 * k5_2),
            y3 + h * (_A6_1 * k1_3 + _A6_4 * k4_3 + _A6_5 * k5_3),
        )
        k7_0, k7_1, k7_2, k7_3 = f(
            x + _C7 * h,
            y0 + h * (_A7_1 * k1_0 + _A7_4 * k4_0 + _A7_5 * k5_0 + _A7_6 * k6_0),
            y1 + h * (_A7_1 * k1_1 + _A7_4 * k4_1 + _A7_5 * k5_1 + _A7_6 * k6_1),
            y2 + h * (_A7_1 * k1_2 + _A7_4 * k4_2 + _A7_5 * k5_2 + _A7_6 * k6_2),
            y3 + h * (_A7_1 * k1_3 + _A7_4 * k4_3 + _A7_5 * k5_3 + _A7_6 * k6_3),
        )
        k8_0, k8_1, k8_2, k8_3 = f(
            x + _C8 * h,
            y0 + h * (_A8_1 * k1_0 + _A8_4 * k4_0 + _A8_5 * k5_0 + _A8_6 * k6_0
                + _A8_7 * k7_0),
            y1 + h * (_A8_1 * k1_1 + _A8_4 * k4_1 + _A8_5 * k5_1 + _A8_6 * k6_1
                + _A8_7 * k7_1),
            y2 + h * (_A8_1 * k1_2 + _A8_4 * k4_2 + _A8_5 * k5_2 + _A8_6 * k6_2
                + _A8_7 * k7_2),
            y3 + h * (_A8_1 * k1_3 + _A8_4 * k4_3 + _A8_5 * k5_3 + _A8_6 * k6_3
                + _A8_7 * k7_3),
        )
        k9_0, k9_1, k9_2, k9_3 = f(
            x + _C9 * h,
            y0 + h * (_A9_1 * k1_0 + _A9_4 * k4_0 + _A9_5 * k5_0 + _A9_6 * k6_0
                + _A9_7 * k7_0 + _A9_8 * k8_0),
            y1 + h * (_A9_1 * k1_1 + _A9_4 * k4_1 + _A9_5 * k5_1 + _A9_6 * k6_1
                + _A9_7 * k7_1 + _A9_8 * k8_1),
            y2 + h * (_A9_1 * k1_2 + _A9_4 * k4_2 + _A9_5 * k5_2 + _A9_6 * k6_2
                + _A9_7 * k7_2 + _A9_8 * k8_2),
            y3 + h * (_A9_1 * k1_3 + _A9_4 * k4_3 + _A9_5 * k5_3 + _A9_6 * k6_3
                + _A9_7 * k7_3 + _A9_8 * k8_3),
        )
        k10_0, k10_1, k10_2, k10_3 = f(
            x + _C10 * h,
            y0 + h * (_A10_1 * k1_0 + _A10_4 * k4_0 + _A10_5 * k5_0 + _A10_6 * k6_0
                + _A10_7 * k7_0 + _A10_8 * k8_0 + _A10_9 * k9_0),
            y1 + h * (_A10_1 * k1_1 + _A10_4 * k4_1 + _A10_5 * k5_1 + _A10_6 * k6_1
                + _A10_7 * k7_1 + _A10_8 * k8_1 + _A10_9 * k9_1),
            y2 + h * (_A10_1 * k1_2 + _A10_4 * k4_2 + _A10_5 * k5_2 + _A10_6 * k6_2
                + _A10_7 * k7_2 + _A10_8 * k8_2 + _A10_9 * k9_2),
            y3 + h * (_A10_1 * k1_3 + _A10_4 * k4_3 + _A10_5 * k5_3 + _A10_6 * k6_3
                + _A10_7 * k7_3 + _A10_8 * k8_3 + _A10_9 * k9_3),
        )
        k11_0, k11_1, k11_2, k11_3 = f(
            x + _C11 * h,
            y0 + h * (_A11_1 * k1_0 + _A11_4 * k4_0 + _A11_5 * k5_0 + _A11_6 * k6_0
                + _A11_7 * k7_0 + _A11_8 * k8_0 + _A11_9 * k9_0 + _A11_10 * k10_0),
            y1 + h * (_A11_1 * k1_1 + _A11_4 * k4_1 + _A11_5 * k5_1 + _A11_6 * k6_1
                + _A11_7 * k7_1 + _A11_8 * k8_1 + _A11_9 * k9_1 + _A11_10 * k10_1),
            y2 + h * (_A11_1 * k1_2 + _A11_4 * k4_2 + _A11_5 * k5_2 + _A11_6 * k6_2
                + _A11_7 * k7_2 + _A11_8 * k8_2 + _A11_9 * k9_2 + _A11_10 * k10_2),
            y3 + h * (_A11_1 * k1_3 + _A11_4 * k4_3 + _A11_5 * k5_3 + _A11_6 * k6_3
                + _A11_7 * k7_3 + _A11_8 * k8_3 + _A11_9 * k9_3 + _A11_10 * k10_3),
        )
        k12_0, k12_1, k12_2, k12_3 = f(
            x + _C12 * h,
            y0 + h * (_A12_1 * k1_0 + _A12_4 * k4_0 + _A12_5 * k5_0 + _A12_6 * k6_0
                + _A12_7 * k7_0 + _A12_8 * k8_0 + _A12_9 * k9_0 + _A12_10 * k10_0
                + _A12_11 * k11_0),
            y1 + h * (_A12_1 * k1_1 + _A12_4 * k4_1 + _A12_5 * k5_1 + _A12_6 * k6_1
                + _A12_7 * k7_1 + _A12_8 * k8_1 + _A12_9 * k9_1 + _A12_10 * k10_1
                + _A12_11 * k11_1),
            y2 + h * (_A12_1 * k1_2 + _A12_4 * k4_2 + _A12_5 * k5_2 + _A12_6 * k6_2
                + _A12_7 * k7_2 + _A12_8 * k8_2 + _A12_9 * k9_2 + _A12_10 * k10_2
                + _A12_11 * k11_2),
            y3 + h * (_A12_1 * k1_3 + _A12_4 * k4_3 + _A12_5 * k5_3 + _A12_6 * k6_3
                + _A12_7 * k7_3 + _A12_8 * k8_3 + _A12_9 * k9_3 + _A12_10 * k10_3
                + _A12_11 * k11_3),
        )
        d0 = (_B1 * k1_0 + _B6 * k6_0 + _B7 * k7_0 + _B8 * k8_0 + _B9 * k9_0
            + _B10 * k10_0 + _B11 * k11_0 + _B12 * k12_0)
        d1 = (_B1 * k1_1 + _B6 * k6_1 + _B7 * k7_1 + _B8 * k8_1 + _B9 * k9_1
            + _B10 * k10_1 + _B11 * k11_1 + _B12 * k12_1)
        d2 = (_B1 * k1_2 + _B6 * k6_2 + _B7 * k7_2 + _B8 * k8_2 + _B9 * k9_2
            + _B10 * k10_2 + _B11 * k11_2 + _B12 * k12_2)
        d3 = (_B1 * k1_3 + _B6 * k6_3 + _B7 * k7_3 + _B8 * k8_3 + _B9 * k9_3
            + _B10 * k10_3 + _B11 * k11_3 + _B12 * k12_3)
        n0, n1, n2, n3 = y0 + h * d0, y1 + h * d1, y2 + h * d2, y3 + h * d3
        k13 = k13_0, k13_1, k13_2, k13_3 = f(x + h, n0, n1, n2, n3)
    except (OverflowError, ZeroDivisionError):
        return None, None, None, math.inf
    if not (isfinite(n0) and isfinite(n1) and isfinite(n2) and isfinite(n3)
            and isfinite(k13_0) and isfinite(k13_1) and isfinite(k13_2)
            and isfinite(k13_3)):
        return None, None, None, math.inf
    a0, a1, a2, a3 = absolute
    s0 = 1.0 / (tol * (1.0 if a0 else max(abs(y0), abs(n0))) + 1e-300)
    s1 = 1.0 / (tol * (1.0 if a1 else max(abs(y1), abs(n1))) + 1e-300)
    s2 = 1.0 / (tol * (1.0 if a2 else max(abs(y2), abs(n2))) + 1e-300)
    s3 = 1.0 / (tol * (1.0 if a3 else max(abs(y3), abs(n3))) + 1e-300)
    err = 0.0
    for e5, e3 in (
        (abs(_E1 * k1_0 + _E6 * k6_0 + _E7 * k7_0 + _E8 * k8_0 + _E9 * k9_0
             + _E10 * k10_0 + _E11 * k11_0 + _E12 * k12_0) * s0,
         abs(d0 - _BHH1 * k1_0 - _BHH9 * k9_0 - _BHH12 * k12_0) * s0),
        (abs(_E1 * k1_1 + _E6 * k6_1 + _E7 * k7_1 + _E8 * k8_1 + _E9 * k9_1
             + _E10 * k10_1 + _E11 * k11_1 + _E12 * k12_1) * s1,
         abs(d1 - _BHH1 * k1_1 - _BHH9 * k9_1 - _BHH12 * k12_1) * s1),
        (abs(_E1 * k1_2 + _E6 * k6_2 + _E7 * k7_2 + _E8 * k8_2 + _E9 * k9_2
             + _E10 * k10_2 + _E11 * k11_2 + _E12 * k12_2) * s2,
         abs(d2 - _BHH1 * k1_2 - _BHH9 * k9_2 - _BHH12 * k12_2) * s2),
        (abs(_E1 * k1_3 + _E6 * k6_3 + _E7 * k7_3 + _E8 * k8_3 + _E9 * k9_3
             + _E10 * k10_3 + _E11 * k11_3 + _E12 * k12_3) * s3,
         abs(d3 - _BHH1 * k1_3 - _BHH9 * k9_3 - _BHH12 * k12_3) * s3),
    ):
        if e5 > 0.0:
            ratio = e3 / e5
            err = max(err, e5 / math.sqrt(1.0 + 0.01 * ratio * ratio))
    err *= h
    row = (
        x, h, y0, y1, y2, y3, n0, n1, n2, n3,
        k1_0, k1_1, k1_2, k1_3, k6_0, k6_1, k6_2, k6_3, k7_0, k7_1, k7_2, k7_3,
        k8_0, k8_1, k8_2, k8_3, k9_0, k9_1, k9_2, k9_3, k10_0, k10_1, k10_2,
        k10_3, k11_0, k11_1, k11_2, k11_3, k12_0, k12_1, k12_2, k12_3,
        k13_0, k13_1, k13_2, k13_3,
    )
    return (n0, n1, n2, n3), k13, row, err


def dense_output(f, steps, thetas):
    """The continuous extensions of accepted steps at the fractions
    ``thetas`` of each: an array of shape (steps, thetas, 4).  ``steps``
    stacks the rows that :func:`step` returns.  f is the right-hand side on
    arrays; one call of it evaluates an extra stage for every step."""
    x, h = steps[:, 0], steps[:, 1]
    y0, y1 = steps[:, 2:6], steps[:, 6:10]
    K = np.zeros((len(steps), len(_DENSE_STAGES), 4))
    K[:, :9] = steps[:, 10:].reshape(-1, 9, 4)
    for i, (c, row) in enumerate(zip(_DENSE_C, _DENSE_A)):
        at = y0 + h[:, None] * np.einsum("j,mjc->mc", row, K)
        K[:, 9 + i] = np.stack(f(x + c * h, *at.T), axis=1)
    # y0 + t (F0 + (1-t) (F1 + t (F2 + (1-t) (F3 + t (F4 + (1-t) (F5 + t F6))))))
    h = h[:, None]
    dy = y1 - y0
    F = [dy, h * K[:, 0] - dy, 2.0 * dy - h * (K[:, 8] + K[:, 0])]
    F += list(h * np.einsum("rj,mjc->rmc", _DENSE_D, K))
    t = np.asarray(thetas)[:, None]
    y = 0.0
    for i, Fi in enumerate(reversed(F)):
        y = (y + Fi[:, None]) * (t if i % 2 == 0 else 1.0 - t)
    return y0[:, None] + y
