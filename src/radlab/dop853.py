"""The Dormand-Prince 8(5,3) pair, the code DOP853 of Hairer, Norsett &
Wanner (Solving ODEs I, II.5 and II.10): one step for a system of a few
scalar equations, its seventh-order continuous extension on arrays of
accepted steps, and a linear component added to accepted steps after the
fact.

The tableau is data: the node and nonzero coefficients of each stage, the
weights of the solution and of the two error estimates, and the rows of
the dense output.  :func:`_step_source` generates a step from it as
straight-line Python source with the components written out, where loops
over the tableau would cost more than the arithmetic.  It takes a stage
writer, the hook that writes how each stage evaluates the right-hand
side.  Every component's error is in units of tol alone, as for a state
held in logarithms.  The march runs the steps that :mod:`radlab.solver`
generates from it per problem shape, with the right-hand side written
into every stage.  A step keeps all 13 of its stages, so a linear
equation that no other slope reads, and whose coefficients the stages
give, can be stepped over the accepted steps afterwards, on arrays
(:func:`appended`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["appended", "dense_stages", "dense_nodes"]

# The tableau, to the digits of Hairer's Fortran source.  _STAGES holds, for
# stages 2 to 12, the node c_i and the nonzero a_ij by j.  _B holds the
# eighth-order weights b_j, whose solution is the point of stage 13 (c = 1),
# the first stage of the next step; _E5 the weights of the fifth-order error
# estimate; and _BHH the third-order weights bhh_j, whose difference from
# the b_j is the third-order estimate.
_STAGES = (
    (0.05260015195876773, {1: 0.05260015195876773}),
    (0.0789002279381516, {1: 0.0197250569845379, 2: 0.0591751709536137}),
    (0.1183503419072274, {1: 0.02958758547680685, 3: 0.08876275643042054}),
    (0.2816496580927726, {1: 0.2413651341592667, 3: -0.8845494793282861,
                          4: 0.924834003261792}),
    (1 / 3, {1: 1 / 27, 4: 0.17082860872947386, 5: 0.12546768756682242}),
    (1 / 4, {1: 0.037109375, 4: 0.17025221101954405, 5: 0.06021653898045596,
             6: -0.017578125}),
    (4 / 13, {1: 0.03709200011850479, 4: 0.17038392571223998,
              5: 0.10726203044637328, 6: -0.015319437748624402,
              7: 0.008273789163814023}),
    (127 / 195, {1: 0.6241109587160757, 4: -3.3608926294469414,
                 5: -0.868219346841726, 6: 27.59209969944671,
                 7: 20.154067550477894, 8: -43.48988418106996}),
    (3 / 5, {1: 0.47766253643826434, 4: -2.4881146199716677, 5: -0.590290826836843,
             6: 21.230051448181193, 7: 15.279233632882423, 8: -33.28821096898486,
             9: -0.020331201708508627}),
    (6 / 7, {1: -0.9371424300859873, 4: 5.186372428844064, 5: 1.0914373489967295,
             6: -8.149787010746927, 7: -18.52006565999696, 8: 22.739487099350505,
             9: 2.4936055526796523, 10: -3.0467644718982196}),
    (1.0, {1: 2.273310147516538, 4: -10.53449546673725, 5: -2.0008720582248625,
           6: -17.9589318631188, 7: 27.94888452941996, 8: -2.8589982771350235,
           9: -8.87285693353063, 10: 12.360567175794303, 11: 0.6433927460157636}),
)
_B = {1: 0.054293734116568765, 6: 4.450312892752409, 7: 1.8915178993145003,
      8: -5.801203960010585, 9: 0.3111643669578199, 10: -0.1521609496625161,
      11: 0.20136540080403034, 12: 0.04471061572777259}
_E5 = {1: 0.01312004499419488, 6: -1.2251564463762044, 7: -0.4957589496572502,
       8: 1.6643771824549864, 9: -0.35032884874997366, 10: 0.3341791187130175,
       11: 0.08192320648511571, 12: -0.022355307863886294}
_BHH = {1: 31 / 127, 9: 0.7338466882816118, 12: 3 / 136}

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


# The step as source: stage j of component i is the name k<j>_<i>.  The
# stage writer given to _step_source sets them; the other fields are filled
# in from the tableau.
_STEP_SOURCE = '''\
def {signature}:
    {y} = y
    {k1} = k1
    try:
{stages}\
{weights}
        {n} = {solution}
{last}\
        if not ({finite}):
            return None, None, None, inf
    except (OverflowError, TypeError, ZeroDivisionError):
        return None, None, None, inf
    s = 1.0 / (tol + 1e-300)
    err = 0.0
{estimates}
    err *= h
    return ({n}), ({k13}), ({row}), err
'''
#: The names a generated step reads besides its arguments and its stages.
_STEP_GLOBALS = {"inf": math.inf, "isfinite": math.isfinite, "sqrt": math.sqrt}


def _step_source(signature: str, stage, size: int) -> str:
    """The source of a step function ``def <signature>:`` that takes
    (x, h, y, k1, tol) among its arguments: one Dormand-Prince 8(5,3) step
    of size h from (x, y), y of ``size`` components, where k1 is the slope
    at (x, y).  It returns the eighth-order solution, its slope k13, the
    step as one flat row for :func:`dense_stages` (x, h, y, y_new and the
    13 stages, ``size`` components each), and the error estimate: the
    largest over the components of h * e5**2 / sqrt(e5**2 + 0.01 * e3**2),
    Hairer's combination of the fifth- and third-order estimates e5 and e3
    of a component, in units of tol.  err is inf, with no solution, when a
    stage overflows or leaves the real line (a negative float to a
    fractional power is complex), or the solution leaves the finite range.

    ``stage(s=s, x=x, y=y)`` writes stage s: the lines, indented by eight
    spaces, that set k<s>_0 to k<s>_<size-1> to the right-hand side at the
    source expressions x and y (``size`` of them).  It is called for
    stages 2 to 12 and for stage 13 at (x + h, n0, ...), the solution.

    A stage's argument is y + h * (the sum of its a_ij * k_j in increasing
    j), the solution y + h * d with d the same sum over the b_j, and the
    third-order estimate d minus each bhh_j * k_j in turn; floats are
    written by repr, which round-trips; and the third-order estimate of a
    component is made only when its fifth-order one is positive, the only
    case that reads it."""
    comps = range(size)

    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in comps)

    def dot(weights, i, sep=" + "):
        return sep.join(f"{w!r} * k{j}_{i}" for j, w in weights.items())

    def estimate(i):
        return (
            f"    e5 = abs({dot(_E5, i)}) * s\n"
            "    if e5 > 0.0:\n"
            f"        e3 = abs(d{i} - {dot(_BHH, i, ' - ')}) * s\n"
            "        ratio = e3 / e5\n"
            "        e = e5 / sqrt(1.0 + 0.01 * ratio * ratio)\n"
            "        if e > err:\n"
            "            err = e"
        )

    return _STEP_SOURCE.format(
        signature=signature,
        y=names("y"),
        k1=names("k1_"),
        stages="".join(
            stage(s=s, x=f"x + {c!r} * h", y=[f"y{i} + h * ({dot(a, i)})" for i in comps])
            for s, (c, a) in enumerate(_STAGES, start=2)
        ),
        weights="\n".join(f"        d{i} = {dot(_B, i)}" for i in comps),
        n=names("n"),
        solution=", ".join(f"y{i} + h * d{i}" for i in comps),
        last=stage(s=13, x="x + h", y=[f"n{i}" for i in comps]),
        finite=" and ".join(f"isfinite({v}{i})" for v in ("n", "k13_") for i in comps),
        estimates="\n".join(map(estimate, comps)),
        k13=names("k13_"),
        row=", ".join(["x, h", names("y"), names("n")]
                      + [names(f"k{j}_") for j in range(1, 14)]),
    )


def _split(steps):
    """The starts y0 and ends y1 of the step rows ``steps``, (steps, size)
    arrays, and their stages, a (steps, 13, size) array: a row is x, h, y0,
    y1 and the 13 stages, 2 + 15 * size floats."""
    size = (steps.shape[1] - 2) // 15
    ends = 2 + 2 * size
    return steps[:, 2:2 + size], steps[:, 2 + size:ends], steps[:, ends:].reshape(len(steps), 13, size)


#: The rows a_ij of stages 2 to 12 over the stages before them, and the
#: weights b_j of the solution, the point of stage 13, as the rows of one
#: lower-triangular matrix, for stages formed on arrays.
_A_ROWS = np.array([[row.get(j, 0.0) for j in range(1, 13)] for _, row in (*_STAGES, (1.0, _B))])


def appended(steps, rates, start):
    """The step rows ``steps`` with one more component z, which solves the
    linear equation z' = a - m z and which no other slope reads:
    ``rates(k)`` gives the coefficients (a, m) at the stages of each step,
    two (13, steps) arrays, from the stages k of the rows, a (size, 13,
    steps) array, and ``start`` is z where the first step starts.

    The step of a linear equation is affine in its start, z1 = alpha z0 +
    beta: alpha is the same step from 1 with a = 0, and beta from 0.  Both
    are formed for all steps at once, stage by stage, and chained in
    order, each step starting where the one before it ended.  z's stages
    in the rows are its slopes a - m z at its stage values."""
    count = len(steps)
    y0, y1, K = _split(steps)
    a, m = rates(K.T)
    # The responses to the start 1 with a = 0 and to the start 0, side by
    # side: their slopes S at the stages; their values at stage 13, the
    # step's end, are its alpha and beta.
    h, units = np.tile(steps[:, 1], 2), np.repeat([1.0, 0.0], count)
    a, m = np.hstack([np.zeros_like(a), a]), np.hstack([m, m])
    S = np.empty((13, 2 * count))
    S[0] = a[0] - m[0] * units
    for i, row in enumerate(_A_ROWS, start=1):
        values = units + h * (row[:i] @ S[:i])
        S[i] = a[i] - m[i] * values
    z = [start]
    for alpha, beta in zip(*values.reshape(2, count).tolist()):
        z.append(alpha * z[-1] + beta)
    z = np.array(z)
    homogeneous, particular = S.reshape(13, 2, count).transpose(1, 0, 2)
    slopes = (homogeneous * z[:-1] + particular).T[:, :, None]
    stages = np.concatenate([K, slopes], axis=2).reshape(count, -1)
    return np.hstack([steps[:, :2], y0, z[:-1, None], y1, z[1:, None], stages])


#: The stages of _DENSE_STAGES that a step row holds, by their index there.
_ROW_STAGES = [j - 1 for j in _DENSE_STAGES[:9]]


def dense_stages(f, steps):
    """What the continuous extensions of accepted steps are linear in: y1 -
    y0 and h times the 12 stages of _DENSE_STAGES of each step, as a (13,
    steps, size) array.  ``steps`` stacks the rows that a step returns.
    f is the right-hand side on arrays; one call of it evaluates an extra
    stage for every step."""
    x, h = steps[:, 0], steps[:, 1]
    y0, y1, stages = _split(steps)
    m, size = y0.shape
    V = np.zeros((1 + len(_DENSE_STAGES), m, size))
    V[0] = y1 - y0
    K = V[1:]
    K[:9] = stages[:, _ROW_STAGES].transpose(1, 0, 2)
    for i, (c, row) in enumerate(zip(_DENSE_C, _DENSE_A)):
        at = y0 + h[:, None] * (row @ K.reshape(len(row), -1)).reshape(m, size)
        K[9 + i] = np.stack(f(x + c * h, *at.T), axis=1)
    K *= h[:, None]
    return V


def dense_nodes(steps, V, thetas):
    """The continuous extensions of the accepted steps ``steps``, whose
    :func:`dense_stages` are V, at one fraction of each, ``thetas``: a
    (steps, size) array.

    The extension is y0 + t (F0 + (1-t) (F1 + t (F2 + (1-t) (F3 + t (F4 +
    (1-t) (F5 + t F6)))))) with F0 = y1 - y0, F1 = h K_1 - F0, F2 = 2 F0 -
    h (K_1 + K_13) and F3 to F6 the rows of _DENSE_D applied to h K, the
    K_j the stages of _DENSE_STAGES.  The nested products are the
    polynomials P_i below, and the F_i are linear in V = (y1 - y0, h K), so
    a step's node is its row of the (steps, 13) node matrix N times V."""
    t = np.reshape(thetas, (-1, 1))
    s = 1.0 - t
    P = np.hstack([t, t * s, t * t * s, (t * s) ** 2, t**3 * s**2, (t * s) ** 3, t**4 * s**3])
    N = np.empty((len(t), 1 + len(_DENSE_STAGES)))
    N[:, 0] = P[:, 0] - P[:, 1] + 2.0 * P[:, 2]
    N[:, 1:] = P[:, 3:] @ _DENSE_D
    N[:, 1] += P[:, 1] - P[:, 2]
    N[:, 1 + _DENSE_STAGES.index(13)] -= P[:, 2]
    return _split(steps)[0] + np.einsum("ij,jik->ik", N, V)
