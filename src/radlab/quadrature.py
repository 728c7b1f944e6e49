"""Adaptive Gauss–Kronrod quadrature.

The embedded 7/15-point rule drives a worst-first adaptive bisection with a
relative-tolerance target and an absolute floor.  Improper integrals and
integrands with power-law endpoint behaviour are reduced to the finite smooth
case by explicit substitutions so that the panel rule converges quickly.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

__all__ = [
    "QuadratureError",
    "adaptive_quad",
    "integral_with_endpoint_power",
    "integral_to_infinity",
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
