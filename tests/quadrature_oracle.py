"""Reference integrals for the tests, independent of radlab's fixed rule.

Improper integrals and integrands with power-law endpoint behaviour are
reduced to the finite smooth case by explicit substitutions, after which
:func:`radlab.quadrature.adaptive_quad` converges quickly.
"""

from __future__ import annotations

import math
from typing import Callable

from radlab.quadrature import adaptive_quad


def integral_with_endpoint_power(
    f: Callable[[float], float],
    upper: float,
    zero_exponent: float,
    *,
    rel_tol: float = 1e-10,
) -> float:
    """Integrate ``f`` over ``[0, upper]`` when ``f(t) ~ c * t**zero_exponent``
    near 0 with ``zero_exponent > -1``.

    The substitution ``t = tau**m`` lifts a fractional endpoint power to at
    least cubic smoothness, after which plain adaptive refinement is fast.
    """
    a = zero_exponent
    if a <= -1.0:
        raise ValueError("the endpoint exponent must exceed -1 for integrability")
    m = 1 if a >= 3.0 else max(1, math.ceil(4.0 / (a + 1.0)))
    if m == 1:
        return adaptive_quad(f, 0.0, upper, rel_tol=rel_tol)

    def transformed(tau: float) -> float:
        return f(tau**m) * m * tau ** (m - 1)

    return adaptive_quad(transformed, 0.0, upper ** (1.0 / m), rel_tol=rel_tol)


def integral_to_infinity(
    f: Callable[[float], float],
    a: float,
    *,
    tail_exponent: float | None = None,
    rel_tol: float = 1e-10,
) -> float:
    """Integrate ``f`` over ``[a, oo)`` for ``a > 0`` and ``f(s) ~ s**-gamma``
    with ``gamma > 1`` (pass ``gamma`` as ``tail_exponent`` when known).

    Uses the substitution ``s = a * xi**-kappa`` on ``(0, 1]``, with ``kappa``
    chosen from the tail exponent so the transformed integrand vanishes to
    high order at 0.  Arguments beyond the floating-point range contribute
    nothing and are clamped to 0; as ``gamma -> 1`` the mass beyond ``1e300``
    that the clamp drops grows like ``1e300**(1 - gamma) / (gamma - 1)``, so
    the result is low for tails barely steeper than ``1/s``.
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

    return adaptive_quad(transformed, 0.0, 1.0, rel_tol=rel_tol)
