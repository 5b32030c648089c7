"""Scalar minimisation helpers: a scan over caller-given points, then golden-section polish."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> Tuple[float, float]:
    """Golden-section minimum of ``f`` on ``[lo, hi]`` to bracket width ``tol > 0``.

    Assumes ``f`` is unimodal on the bracket; use :func:`bracketed_min` when the
    objective may have several local minima or infinite plateaus.

    Returns ``(x, f(x))``.
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    for _ in range(max(n - 1, 0)):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    if yc < yd:
        return c, yc
    return d, yd


def bracketed_min(
    f: Callable[[float], float],
    xs: Sequence[float],
    ys: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """Minimise ``f`` over the increasing scan points ``xs``, then polish.

    ``ys`` are the values of ``f`` at ``xs`` when the caller already has them.
    The scan makes the search robust to +inf plateaus (infeasible regions) and
    mild multimodality.  The first minimum of the scan is refined by golden
    section between its scan neighbours, to a width of ``1e-12`` relative to
    the right end (at least 1), and kept when it is strictly better than the
    refinement.  Returns ``(x, f(x))`` for the best point seen.
    """
    if ys is None:
        ys = [f(x) for x in xs]
    k = int(np.argmin(ys))
    x, y = float(xs[k]), float(ys[k])
    if math.isinf(y):
        return x, y
    hi = float(xs[min(k + 1, len(xs) - 1)])
    x_ref, y_ref = golden_min(f, float(xs[max(k - 1, 0)]), hi, tol=1e-12 * max(1.0, hi))
    return (x, y) if y < y_ref else (x_ref, y_ref)


def chebyshev_grid(lo: float, hi: float, n: int):
    """Chebyshev-spaced nodes on ``[lo, hi]`` including both endpoints.

    Points cluster near the endpoints, which suits functions with endpoint
    singularities (moment envelopes near their support edge).
    """
    if n < 2:
        raise ValueError("need at least two grid points")
    k = np.arange(n, dtype=float)
    nodes = lo + (hi - lo) * 0.5 * (1.0 - np.cos(math.pi * k / (n - 1)))
    nodes[0] = lo
    nodes[-1] = hi
    return nodes
