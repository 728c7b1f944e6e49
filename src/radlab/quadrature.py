"""Adaptive Gauss–Kronrod quadrature.

The embedded 7/15-point rule drives a worst-first adaptive bisection with a
relative-tolerance target and an absolute floor.  radlab's own integrals are
closed forms or the fixed Gauss–Legendre rule in ln t of
:mod:`radlab.criteria`; this general-purpose routine is the independent
reference the tests hold them to.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = [
    "QuadratureError",
    "adaptive_quad",
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
