"""Numerical helpers: scan-and-golden-section minimisation and Chebyshev grids."""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

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


def golden_min_rows(f: Callable, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray):
    """:func:`golden_min` for many rows in lockstep, bit-identical row by row.

    Row ``i`` minimises its own objective on ``[lo[i], hi[i]]`` (``lo <= hi``)
    to width ``tol[i]``; ``f(rows, xs)`` evaluates row ``rows[j]``'s
    objective at ``xs[j]``.  Each row takes its own scalar steps and is
    masked off when done.  Returns the arrays ``(x, f(x))``.
    """
    h = hi - lo
    x, y = 0.5 * (lo + hi), np.empty(lo.shape)
    narrow = np.flatnonzero(h <= tol)
    y[narrow] = f(narrow, x[narrow])
    rows = np.flatnonzero(~(h <= tol))
    a, h = lo[rows], h[rows]
    c, d = a + _INV_PHI2 * h, a + _INV_PHI * h
    yc, yd = f(rows, c), f(rows, d)
    n = [math.ceil(math.log(t / w) / math.log(_INV_PHI)) for t, w in zip(tol[rows], h)]
    steps = np.maximum(np.array(n, dtype=int) - 1, 0)
    for i in range(int(steps.max(initial=0))):
        on = np.flatnonzero(steps > i)
        left = yc[on] < yd[on]
        lt, rt = on[left], on[~left]
        d[lt], yd[lt] = c[lt], yc[lt]
        a[rt], c[rt], yc[rt] = c[rt], d[rt], yd[rt]
        h[on] *= _INV_PHI
        c[lt] = a[lt] + _INV_PHI2 * h[lt]
        d[rt] = a[rt] + _INV_PHI * h[rt]
        y_new = f(rows[on], np.where(left, c[on], d[on]))
        yc[lt], yd[rt] = y_new[left], y_new[~left]
    take_c = yc < yd
    x[rows], y[rows] = np.where(take_c, c, d), np.where(take_c, yc, yd)
    return x, y


def bracketed_min(
    f: Callable[[float], float], xs: Sequence[float], ys: Sequence[float]
) -> Tuple[float, float]:
    """Minimise ``f`` from its values ``ys`` at the increasing scan points ``xs``, then polish.

    The scan makes the search robust to +inf plateaus (infeasible regions) and
    mild multimodality.  The first minimum of the scan is refined by golden
    section between its scan neighbours, to a width of ``1e-12`` relative to
    the right end (at least 1), and kept when it is strictly better than the
    refinement.  Returns ``(x, f(x))`` for the best point seen.
    """
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
