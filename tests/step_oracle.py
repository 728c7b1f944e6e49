"""The Dormand-Prince 8(5,3) step whose stages call a function, the
reference for the march's fused steps.

``step(f, x, h, y, k1, tol)`` is one step for y' = f(x, *y) from (x, y),
where k1 = f(x, *y), and returns what :func:`radlab.dop853._step_source`
states.  It is generated by that function, the generator of the march's
steps, with a stage writer that calls f in place of the right-hand side
that the march writes into every stage, once for each number of
components.  On the march's own scalar kernel it must give the fused
step's bits.
"""

from __future__ import annotations

import functools

from radlab import dop853


def _call_stage(s, x, y):
    """A stage of :func:`step`: one call of its argument f."""
    slopes = ", ".join(f"k{s}_{i}" for i in range(len(y)))
    return f"        {slopes} = f({x}, {', '.join(y)})\n"


@functools.cache
def _compiled(size):
    """The reference step for ``size`` components."""
    namespace = {"__name__": __name__, **dop853._STEP_GLOBALS}
    source = dop853._step_source("step(f, x, h, y, k1, tol)", _call_stage, size)
    exec(compile(source, "<dop853 reference step>", "exec"), namespace)
    return namespace["step"]


def step(f, x, h, y, k1, tol):
    return _compiled(len(y))(f, x, h, y, k1, tol)
