"""Adaptive Gauss–Kronrod quadrature and grid-based cumulative integrals.

The embedded 7/15-point rule drives a worst-first adaptive bisection with a
relative-tolerance target and an absolute floor.  Improper integrals and
integrands with power-law endpoint behaviour are reduced to the finite smooth
case by explicit substitutions so that the panel rule converges quickly.

Cumulative integrals of samples on a grid use one quadratic panel per
interval.  The panel weights depend on the grid alone: :class:`CumulativeGrid`
builds them once per grid and applies them to every sample vector it is
given, which is how the Picard stage reuses the weights of its fixed radial
grid across all sweeps.  :func:`cumulative_quadratic` and
:func:`cumulative_power_graded` run the same code on a grid used once.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "adaptive_quad",
    "integral_with_endpoint_power",
    "integral_to_infinity",
    "CumulativeGrid",
    "cumulative_quadratic",
    "cumulative_power_graded",
]


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


# 15-point Kronrod extension of 7-point Gauss on [-1, 1]: positive abscissae,
# Kronrod weights, and the embedded Gauss weights (odd-index nodes).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
)
_WGK_CENTER = 0.20948214108472782
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.41795918367346935


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 value and |K15 - G7| error estimate on one panel."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    kronrod = _WGK_CENTER * fc
    gauss = _WG_CENTER * fc
    for j in range(7):
        offset = half * _XGK[j]
        pair = f(center - offset) + f(center + offset)
        kronrod += _WGK[j] * pair
        if j % 2 == 1:
            gauss += _WG[(j - 1) // 2] * pair
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    abs_floor: float = 1e-30,
    limit: int = 4000,
) -> float:
    """Integrate ``f`` over ``[a, b]`` by worst-first adaptive bisection.

    Refinement stops when the summed panel error estimates drop below
    ``max(rel_tol * |integral|, abs_floor)``; exceeding ``limit`` panels
    raises :class:`QuadratureError`.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_quad(f, b, a, rel_tol=rel_tol, abs_floor=abs_floor, limit=limit)

    value, error = _panel(f, a, b)
    total = value
    total_error = error
    heap = [(-error, a, b, value, error)]
    panels = 1

    while total_error > max(rel_tol * abs(total), abs_floor):
        if panels >= limit:
            raise QuadratureError(
                f"adaptive quadrature needed more than {limit} panels "
                f"(error estimate {total_error:.3e} on value {total:.6e})"
            )
        _, pa, pb, pvalue, perror = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # Panel at floating-point resolution: accept its value as is.
            total_error -= perror
            continue
        left_value, left_error = _panel(f, pa, mid)
        right_value, right_error = _panel(f, mid, pb)
        total += left_value + right_value - pvalue
        total_error += left_error + right_error - perror
        heapq.heappush(heap, (-left_error, pa, mid, left_value, left_error))
        heapq.heappush(heap, (-right_error, mid, pb, right_value, right_error))
        panels += 1

    return total


def integral_with_endpoint_power(
    f: Callable[[float], float],
    upper: float,
    zero_exponent: float,
    *,
    rel_tol: float = 1e-10,
    abs_floor: float = 1e-30,
    limit: int = 4000,
) -> float:
    """Integrate ``f`` over ``[0, upper]`` when ``f(t) ~ c * t**zero_exponent``
    near 0 with ``zero_exponent > -1``.

    The substitution ``t = tau**m`` lifts a fractional endpoint power to at
    least cubic smoothness, after which plain adaptive refinement is fast.
    """
    if upper == 0.0:
        return 0.0
    if upper < 0.0:
        raise ValueError("the upper limit must be non-negative")
    a = zero_exponent
    if a <= -1.0:
        raise ValueError("the endpoint exponent must exceed -1 for integrability")
    m = 1 if a >= 3.0 else max(1, math.ceil(4.0 / (a + 1.0)))
    if m == 1:
        return adaptive_quad(f, 0.0, upper, rel_tol=rel_tol, abs_floor=abs_floor, limit=limit)
    edge = upper ** (1.0 / m)

    def transformed(tau: float) -> float:
        return f(tau**m) * m * tau ** (m - 1)

    return adaptive_quad(
        transformed, 0.0, edge, rel_tol=rel_tol, abs_floor=abs_floor, limit=limit
    )


def integral_to_infinity(
    f: Callable[[float], float],
    a: float,
    *,
    tail_exponent: float | None = None,
    rel_tol: float = 1e-10,
    abs_floor: float = 1e-30,
    limit: int = 4000,
) -> float:
    """Integrate ``f`` over ``[a, oo)`` for ``a > 0`` and ``f(s) ~ s**-gamma``
    with ``gamma > 1`` (pass ``gamma`` as ``tail_exponent`` when known).

    Uses the substitution ``s = a * xi**-kappa`` on ``(0, 1]``, with ``kappa``
    chosen from the tail exponent so the transformed integrand vanishes to
    high order at 0.  Arguments beyond the floating-point range contribute
    nothing and are clamped to 0; as ``gamma -> 1`` the mass beyond ``1e300``
    that the clamp drops grows like ``1e300**(1 - gamma) / (gamma - 1)``, so
    accuracy degrades for tails barely steeper than ``1/s``.
    """
    if not a > 0.0:
        raise ValueError("the lower limit must be positive")
    if tail_exponent is not None and tail_exponent > 1.0:
        kappa = min(64.0, max(1.0, 4.0 / (tail_exponent - 1.0)))
    else:
        kappa = 8.0

    def transformed(xi: float) -> float:
        # Python float powers raise OverflowError instead of returning inf,
        # so arguments past the representable range are clamped via except.
        try:
            s = a * xi**-kappa
        except OverflowError:
            return 0.0
        if not math.isfinite(s) or s > 1e300:
            return 0.0
        try:
            value = f(s) * a * kappa * xi ** (-kappa - 1.0)
        except OverflowError:
            return 0.0
        return value if math.isfinite(value) else 0.0

    return adaptive_quad(
        transformed, 0.0, 1.0, rel_tol=rel_tol, abs_floor=abs_floor, limit=limit
    )


def _parabola_weights(
    x0: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (w0, w1, w2) with w0*y0 + w1*y1 + w2*y2 the integral over
    [u, v] of the parabola through (x0, y0), (x1, y1), (x2, y2).

    Worked in coordinates shifted to ``u`` so the cubic terms carry no
    cancellation on strongly graded grids.
    """

    def pair_primitive(shift_a: np.ndarray, shift_b: np.ndarray, s: np.ndarray) -> np.ndarray:
        # integral from 0 to s of (tau - shift_a) * (tau - shift_b) dtau
        return s * (s * (s / 3.0 - 0.5 * (shift_a + shift_b)) + shift_a * shift_b)

    span = v - u
    a0, a1, a2 = x0 - u, x1 - u, x2 - u
    w0 = pair_primitive(a1, a2, span) / ((x0 - x1) * (x0 - x2))
    w1 = pair_primitive(a0, a2, span) / ((x1 - x0) * (x1 - x2))
    w2 = pair_primitive(a0, a1, span) / ((x2 - x0) * (x2 - x1))
    return w0, w1, w2


class CumulativeGrid:
    """Cumulative integrals of any number of sample vectors on one grid ``x``.

    The quadratic-panel weights depend on ``x`` alone, so they are built on
    first use and kept; each integral then costs one weighted sum per panel,
    with the same arithmetic as building the weights afresh.
    :meth:`power_graded` integrates on a substituted grid that depends on the
    fitted exponent as well, so it builds that grid on each call and reuses
    only the weights of ``x`` (for its plain-panel fallbacks).
    :func:`cumulative_quadratic` and :func:`cumulative_power_graded` are these
    methods on a one-use grid.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("x and y must be one-dimensional arrays of equal length")
        self.x = x
        self._weights = None

    def _samples(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != self.x.shape:
            raise ValueError("x and y must be one-dimensional arrays of equal length")
        return y

    def quadratic(self, y) -> np.ndarray:
        """See :func:`cumulative_quadratic`."""
        x = self.x
        y = self._samples(y)
        n = x.size
        if n < 2:
            return np.zeros(n)
        if n == 2:
            return np.array([0.0, 0.5 * (y[0] + y[1]) * (x[1] - x[0])])

        if self._weights is None:
            u, v = x[:-1], x[1:]
            self._weights = (
                _parabola_weights(x[:-2], x[1:-1], x[2:], u[1:], v[1:]),
                _parabola_weights(x[:-2], x[1:-1], x[2:], u[:-1], v[:-1]),
            )
        (l0, l1, l2), (r0, r1, r2) = self._weights
        y0, y1, y2 = y[:-2], y[1:-1], y[2:]
        left = l0 * y0 + l1 * y1 + l2 * y2
        right = r0 * y0 + r1 * y1 + r2 * y2
        panels = np.empty(n - 1)
        panels[0] = right[0]
        panels[-1] = left[-1]
        if n > 3:
            panels[1:-1] = 0.5 * (left[:-1] + right[1:])

        if np.all(y >= 0.0) and np.any(panels <= 0.0):
            _nonneg_panel_repair(panels, x, y)

        out = np.empty(n)
        out[0] = 0.0
        np.cumsum(panels, out=out[1:])
        return out

    def power_graded(self, y, *, max_exponent: float = 25.0) -> np.ndarray:
        """See :func:`cumulative_power_graded`."""
        x = self.x
        y = self._samples(y)
        if x.size and x[0] != 0.0:
            raise ValueError("the grid must start at x = 0")
        if np.any(y < 0.0):
            raise ValueError("samples must be non-negative")
        if x.size < 4:
            return self.quadratic(y)

        positive = np.nonzero(y[1:] > 0.0)[0]
        if positive.size < 2 or positive[1] != positive[0] + 1:
            return self.quadratic(y)
        i = 1 + int(positive[0])
        ratio = y[i + 1] / y[i]
        if not (math.isfinite(ratio) and ratio > 0.0):
            return self.quadratic(y)
        k = math.log(ratio) / math.log(x[i + 1] / x[i])
        if not math.isfinite(k):
            return self.quadratic(y)
        k = min(max(k, 0.0), max_exponent)
        if min(abs(k - 0.0), abs(k - 1.0), abs(k - 2.0)) < 1e-9:
            return self.quadratic(y)

        # Work in zhat = (x/x_max)^(k+1) rather than z = x^(k+1)/(k+1): the
        # panel arithmetic cubes local spans, and for large k the unscaled z
        # values sit so far below 1 that those cubes fall out of normal float
        # range.
        with np.errstate(over="ignore"):
            xk = x**k
            zhat = (x / x[-1]) ** (k + 1.0)
        if not (np.isfinite(xk[-1]) and xk[-1] > 0.0):
            return self.quadratic(y)
        phi = np.zeros_like(y)
        np.divide(y[1:], xk[1:], out=phi[1:], where=y[1:] > 0.0)
        phi[0] = phi[i]
        if not np.all(np.isfinite(phi)):
            return self.quadratic(y)
        scale = x[-1] * xk[-1] / (k + 1.0)
        return scale * CumulativeGrid(zhat).quadratic(phi)


def cumulative_quadratic(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples ``y`` on the grid ``x``, one quadratic
    panel per interval (averaging the two bracketing parabolas inside).

    Exact for quadratics; third-order accurate on non-uniform grids, which
    keeps strongly graded startup grids from polluting downstream integrals.
    Panels that come out non-positive for non-negative samples are repaired
    (:func:`_nonneg_panel_repair`).
    """
    return CumulativeGrid(x).quadratic(y)


def _nonneg_panel_repair(panels: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Replace non-positive panel estimates for non-negative samples.

    A parabola through a steep convex triple (the first panels of c*x**k on a
    strongly graded grid) can integrate to a negative value even though the
    samples are non-negative; that panel estimate is wrong, and letting it
    through would make the cumulative integral of a positive integrand
    non-increasing.  Panels touching a zero sample get a power-law estimate
    fitted to the two nearest positive neighbours (exact when the data is
    locally c*(x - x_zero)**k); panels with positive ends fall back to the
    trapezoid.  Panels between two zero samples are set to zero at once.
    Mutates ``panels`` in place.
    """
    n = x.size
    bad = panels <= 0.0
    flat = bad & (y[:-1] == 0.0) & (y[1:] == 0.0)
    panels[flat] = 0.0
    for j in np.nonzero(bad & ~flat)[0]:
        yi, yj = y[j], y[j + 1]
        h = x[j + 1] - x[j]
        if yi == 0.0 and yj > 0.0 and j + 2 < n and y[j + 2] > yj > 0.0:
            span = (x[j + 2] - x[j]) / h
            k = math.log(y[j + 2] / yj) / math.log(span)
            if math.isfinite(k) and k > -0.9:
                panels[j] = yj * h / (k + 1.0)
                continue
        if yj == 0.0 and yi > 0.0 and j >= 1 and y[j - 1] > yi > 0.0:
            span = (x[j + 1] - x[j - 1]) / h
            k = math.log(y[j - 1] / yi) / math.log(span)
            if math.isfinite(k) and k > -0.9:
                panels[j] = yi * h / (k + 1.0)
                continue
        panels[j] = max(0.5 * (yi + yj) * h, 0.0)


def cumulative_power_graded(y: np.ndarray, x: np.ndarray, *, max_exponent: float = 25.0) -> np.ndarray:
    """Cumulative integral of non-negative samples on a grid starting at 0,
    for integrands that vanish like a power ``c * x**k`` at the origin.

    Polynomial panels lose all relative accuracy near the origin once the
    grid is strongly graded and ``k`` exceeds 2: a parabola across a 4:1
    spacing jump misestimates x**2.5 by -61% and x**8 by O(1), and anything
    downstream that divides the cumulative by a power of x inherits that
    error in full.  This fits ``k`` from the first two strictly positive
    samples and integrates the slowly varying ``y / x**k`` in the substituted
    variable ``z = x**(k+1) / (k+1)``, where the same quadratic panels are
    asymptotically exact.  Exponents in {0, 1, 2} (parabola-exact already)
    and failed fits fall back to the plain panels.
    """
    return CumulativeGrid(x).power_graded(y, max_exponent=max_exponent)
