"""The scalar searches that composition and the conjugate tails once ran, kept verbatim.

``otimes`` used to run its own scan over the split interval, bracket the
first minimum and polish it by golden section, one exponent at a time.  The
composition search is now one lockstep search over whole exponent grids
(``calculus._otimes_grid``); these loops are the oracle it must match bit for
bit, in value and split, for every pair of envelopes that is not two tables.
Two tables compose exactly at their breakpoints instead; ``ref_compose``
takes that path for them, one exponent at a time, and this search for any
other pair.  They also stand in for ``otimes`` wherever a test needs many
single compositions: a one-row grid call costs several times the scalar loop.
"""

import math

from polymoment import Tabulated
from polymoment.calculus import OtimesResult, otimes

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_INSET = 1e-12


def ref_golden_min(f, lo, hi, tol=1e-10, max_iter=300):
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    if h <= tol or h == 0.0:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    for _ in range(max(min(n, max_iter) - 1, 0)):
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


def ref_bracketed_min(f, lo, hi, coarse=64, tol=1e-10):
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        return lo, f(lo)
    step = (hi - lo) / (coarse - 1)
    xs = [lo + step * k for k in range(coarse - 1)] + [hi]
    ys = [f(x) for x in xs]
    k = min(range(len(xs)), key=lambda i: ys[i])
    if math.isinf(ys[k]):
        return xs[k], ys[k]
    lo2 = xs[max(k - 1, 0)]
    hi2 = xs[min(k + 1, len(xs) - 1)]
    x, y = ref_golden_min(f, lo2, hi2, tol=tol)
    if ys[k] < y:
        x, y = xs[k], ys[k]
    return x, y


def ref_otimes_search(nu1, nu2, p, coarse):
    r1, closed1 = nu1.evaluable_upper()
    r2, closed2 = nu2.evaluable_upper()
    a_lo = p / r1 if math.isfinite(r1) else 0.0
    a_hi = 1.0 - (p / r2 if math.isfinite(r2) else 0.0)
    if a_hi <= a_lo:
        return OtimesResult(math.inf, math.nan)
    width = a_hi - a_lo
    inset = max(_INSET * max(width, 1.0), 1e-300)
    lo = a_lo + inset
    hi = a_hi - inset
    if hi <= lo:
        lo = hi = 0.5 * (a_lo + a_hi)

    def objective(a):
        if a <= 0.0 or a >= 1.0:
            return math.inf
        v1 = nu1(p / a)
        if math.isinf(v1):
            return math.inf
        v2 = nu2(p / (1.0 - a))
        return v1 * v2

    a_best, v_best = ref_bracketed_min(objective, lo, hi, coarse=coarse, tol=_INSET)
    if math.isfinite(r1) and closed1 and 0.0 < a_lo < 1.0:
        v = objective(a_lo)
        if v < v_best:
            a_best, v_best = a_lo, v
    if math.isfinite(r2) and closed2 and 0.0 < a_hi < 1.0:
        v = objective(a_hi)
        if v < v_best:
            a_best, v_best = a_hi, v
    return OtimesResult(v_best, a_best)


def ref_otimes(nu1, nu2, p, coarse=64):
    p = float(p)
    r1 = nu1.support.upper
    r2 = nu2.support.upper
    load = (p / r1 if math.isfinite(r1) else 0.0) + (p / r2 if math.isfinite(r2) else 0.0)
    if load >= 1.0:
        return OtimesResult(math.inf, math.nan)
    swapped = r2 < r1
    first, second = (nu2, nu1) if swapped else (nu1, nu2)
    res = ref_otimes_search(first, second, p, coarse)
    if swapped and not math.isnan(res.split):
        res = OtimesResult(res.value, 1.0 - res.split)
    return res


def ref_compose(nu1, nu2, p):
    """The composition a chain stage takes at one exponent: exact for two tables, else searched."""
    if isinstance(nu1, Tabulated) and isinstance(nu2, Tabulated):
        return otimes(nu1, nu2, p, full_output=True)
    return ref_otimes(nu1, nu2, p)
