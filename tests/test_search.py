"""The shared scan-and-polish search against the two searches it replaced,
and the lockstep stage-grid search against the scalar one.

``otimes`` and the conjugate-tail optimiser used to run their own copies of
the scan, first-minimum bracket and golden-section polish.  The reference
code below is those copies, kept verbatim, so the shared search must give
bit-identical results from the same sequence of envelope evaluations.
"""

import math

import numpy as np
import pytest

from polymoment import (
    ConjugateSpec,
    Indicator,
    PowerGrowth,
    PowerSingularity,
    Product,
    Scaled,
    SlowlyVarying,
    Tabulated,
    combined_exponent,
    otimes,
    tail_from_envelope,
    tail_inf_form,
)
from polymoment import calculus
from polymoment.calculus import DoobMaximal, OtimesResult, _otimes_grid
from polymoment.envelope import EnvelopeDomainError, MomentEnvelope
from polymoment.polymodel import ParetoPower, Rademacher, natural_envelope

# ---------------------------------------------------------------------------
# reference: the two searches as separate scalar loops
# ---------------------------------------------------------------------------

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


def ref_optimal_exponent(spec, x):
    logx = math.log(x)
    grid = spec.p_grid
    obj_grid = grid * (spec._log_knu - logx)
    k = int(np.argmin(obj_grid))

    def objective(p):
        lk = spec.log_knu(p)
        if math.isinf(lk):
            return math.inf
        return p * (lk - logx)

    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    p_best, v_best = ref_golden_min(objective, float(lo), float(hi), tol=1e-12 * max(1.0, hi))
    if obj_grid[k] < v_best:
        p_best, v_best = float(grid[k]), float(obj_grid[k])

    if k == grid.size - 1:
        sup = spec.envelope.support
        step = max(grid[-1] - grid[max(grid.size - 2, 0)], 1.0)
        p_lo = float(grid[-1])
        p_hi = p_lo
        while True:
            cand = p_hi + step
            if not sup.contains(cand):
                break
            v = objective(cand)
            if v >= v_best:
                p_hi = cand
                break
            p_hi = cand
            v_best = v
            step *= 2.0
        if p_hi > p_lo:
            p_ref, v_ref = ref_golden_min(objective, p_lo, p_hi, tol=1e-10 * p_hi)
            if v_ref < v_best:
                p_best, v_best = p_ref, v_ref
    return p_best


def ref_tail_from_envelope(spec, x):
    x = float(x)
    if x <= math.e:
        return 1.0
    p_star = ref_optimal_exponent(spec, x)
    return math.exp(min(0.0, p_star * (spec.log_knu(p_star) - math.log(x))))


def ref_tail_inf_form(spec, x):
    x = float(x)
    if x <= math.e:
        return 1.0
    p_star = ref_optimal_exponent(spec, x)
    knu = spec.norm_factor * spec.envelope(p_star)
    return min(1.0, (knu / x) ** p_star)


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


@pytest.fixture
def evaluations(monkeypatch):
    """Every envelope evaluation, in order, as ``(envelope id, exponent)``."""
    log = []
    call = MomentEnvelope.__call__

    def recorded(env, p):
        log.append((id(env), float(p)))
        return call(env, p)

    monkeypatch.setattr(MomentEnvelope, "__call__", recorded)
    return log


def same(a, b):
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


def _envelopes():
    return {
        "indicator": Indicator(r=5.0),
        "log_singular": PowerSingularity(r=6.0, power=1.5, slowvar=SlowlyVarying.log_power(0.7)),
        "growth": PowerGrowth(growth=0.5, scale=1.3),
        "product": Product((PowerSingularity(r=7.0), Indicator(r=9.0))),
        "scaled": Scaled(PowerSingularity(r=4.5, power=0.5), 2.5),
        "natural_pareto": natural_envelope(ParetoPower(6.0), "martingale", points=65),
        "natural_signs": natural_envelope(Rademacher(), "martingale", points=65),
    }


_NAMES = list(_envelopes())
_PAIRS = [(a, b) for i, a in enumerate(_NAMES) for b in _NAMES[i:]]


@pytest.mark.parametrize("first,second", _PAIRS)
def test_otimes_matches_separate_search(first, second, evaluations):
    envs = _envelopes()
    nu1, nu2 = envs[first], envs[second]
    edge = combined_exponent([nu1.support.upper, nu2.support.upper])
    if math.isfinite(edge):
        # interior points, a narrow split interval near the edge, one too
        # narrow to scan (a single midpoint) and the infeasible edge itself
        ps = [1.0, 1.0 + 0.5 * (edge - 1.0), edge * (1.0 - 1e-6), edge * (1.0 - 1e-13), edge]
    else:
        ps = [1.0, 2.5, 17.0, 60.0]
    for p in ps:
        for a, b in ((nu1, nu2), (nu2, nu1)):
            del evaluations[:]
            got = otimes(a, b, p, full_output=True)
            got_calls = list(evaluations)
            del evaluations[:]
            want = ref_otimes(a, b, p)
            assert same(got.value, want.value) and same(got.split, want.split), (p, got, want)
            assert got_calls == evaluations


def _tail_specs():
    envs = _envelopes()
    return [
        ConjugateSpec(envs["indicator"]),
        ConjugateSpec(envs["log_singular"], norm_factor=1.7),
        ConjugateSpec(envs["growth"]),
        ConjugateSpec(envs["growth"], p_grid=np.linspace(1.5, 9.0, 7)),
        # at x = 10 the optimum (21.8) lies just above the scan's minimum 21,
        # so the polish ends in the top interval without an expansion
        ConjugateSpec(envs["growth"], p_grid=[5.0, 15.0, 21.0, 24.0]),
        ConjugateSpec(envs["product"]),
        ConjugateSpec(envs["scaled"], p_grid=[2.0]),
        ConjugateSpec(envs["natural_pareto"]),
        ConjugateSpec(envs["natural_signs"]),
    ]


@pytest.mark.parametrize("index", range(len(_tail_specs())))
def test_tails_match_separate_search(index, evaluations):
    spec = _tail_specs()[index]
    for x in [2.0, 3.5, 10.0, 1e2, 1e4, 1e6]:
        for form, ref in ((tail_from_envelope, ref_tail_from_envelope), (tail_inf_form, ref_tail_inf_form)):
            del evaluations[:]
            got = form(spec, x)
            got_calls = list(evaluations)
            del evaluations[:]
            want = ref(spec, x)
            assert same(got, want), (x, got, want)
            assert got_calls == evaluations


def test_growth_tail_at_large_threshold_expands_above_the_grid():
    # the case above that exercises the expansion: the scan's minimum is the
    # top grid point, and the optimum lies far beyond it
    spec = ConjugateSpec(PowerGrowth(growth=0.5, scale=1.3))
    obj_grid = spec.p_grid * (spec._log_knu - math.log(1e6))
    assert int(np.argmin(obj_grid)) == spec.p_grid.size - 1
    assert ref_optimal_exponent(spec, 1e6) > 2.0 * spec.p_grid[-1]


# ---------------------------------------------------------------------------
# whole stage grids: the lockstep search against the scalar one
# ---------------------------------------------------------------------------


def same_bits(got, want):
    want = np.array(want, dtype=float)
    return got.dtype == np.float64 and got.shape == want.shape and np.array_equal(
        got.view(np.int64), want.view(np.int64)
    )


def _grid_points(edge):
    if not math.isfinite(edge):
        return np.array([1.0, 2.5, 17.0, 60.0, 1e3, 5.0, 1.0])
    # unsorted on purpose: interior points, splits narrow enough for the
    # golden polish to stop at once (1 - 3e-11) or to scan only a midpoint
    # (1 - 1e-13), the infeasible edge itself and points beyond it
    near = edge * (1.0 - np.array([1e-3, 1e-6, 1e-9, 3e-11, 1e-13]))
    return np.concatenate([np.linspace(1.0, edge, 9), near, [edge * 1.5, 1.0]])


@pytest.mark.parametrize("first,second", _PAIRS)
def test_otimes_grid_matches_scalar_otimes(first, second):
    envs = _envelopes()
    nu1, nu2 = envs[first], envs[second]
    ps = _grid_points(combined_exponent([nu1.support.upper, nu2.support.upper]))
    for a, b in ((nu1, nu2), (nu2, nu1)):
        want = [otimes(a, b, p) for p in ps]
        assert all(type(v) is float for v in want)
        assert same_bits(_otimes_grid(a, b, ps), want), (first, second)


def test_open_tabulated_end_is_not_an_attained_split(evaluations, monkeypatch):
    # the closed-endpoint check evaluates nu1 at its evaluable upper exponent;
    # a tabulated envelope open at its grid end is infinite there, so neither
    # search may evaluate it (the scan stays a relative 1e-12 inside)
    tab = Tabulated([1.0, 2.0, 4.0], [1.0, 1.5, 3.0], upper_closed=False)
    nu2 = PowerSingularity(r=6.0)
    ps = np.array([1.5, 2.0, 2.3])
    want = [otimes(tab, nu2, p) for p in ps]
    assert max(q for env, q in evaluations if env == id(tab)) < 4.0 * (1.0 - 1e-13)
    seen = []
    values_at = Tabulated.values_at
    monkeypatch.setattr(
        Tabulated, "values_at", lambda env, qs: seen.extend(qs) or values_at(env, qs)
    )
    assert same_bits(_otimes_grid(tab, nu2, ps), want)
    assert max(seen) < 4.0 * (1.0 - 1e-13)


def test_otimes_grid_whole_grid_infeasible_and_domain():
    nu1, nu2 = Indicator(r=2.0), PowerSingularity(r=3.0)
    ps = np.array([1.2, 1.5, 3.0])  # load >= 1 everywhere
    assert same_bits(_otimes_grid(nu1, nu2, ps), [otimes(nu1, nu2, p) for p in ps])
    assert _otimes_grid(nu1, nu2, np.array([])).shape == (0,)
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(EnvelopeDomainError):
            _otimes_grid(nu1, nu2, np.array([1.0, bad]))


def test_compose_stages_match_scalar_fold(monkeypatch):
    envs = [
        natural_envelope(ParetoPower(6.0), "martingale", points=65),
        natural_envelope(ParetoPower(8.0), "martingale", points=65),
        Scaled(PowerSingularity(r=9.0, power=0.5), 1.5),
    ]
    got = calculus._compose_stages(envs[0], 6.0, envs[1:], None, 65)
    monkeypatch.setattr(
        calculus, "_otimes_grid", lambda a, b, ps: np.array([otimes(a, b, p) for p in ps])
    )
    want = calculus._compose_stages(envs[0], 6.0, envs[1:], None, 65)
    for g, w in zip(got, want):
        assert np.array_equal(g.p_grid, w.p_grid) and same_bits(g.values, w.values)


def _value_envelopes():
    envs = dict(_envelopes())
    envs["lower_bounded"] = PowerSingularity(r=6.0, lower=2.0)
    envs["doob"] = DoobMaximal(PowerSingularity(r=6.0))
    envs["tabulated_open_end"] = Tabulated(
        [1.0, 2.0, 4.0], [1.0, 1.5, 3.0], upper=None, upper_closed=False
    )
    envs["tabulated_declared_upper"] = Tabulated([1.0, 2.0, 4.0], [1.0, 1.5, 3.0], upper=7.0)
    return envs


@pytest.mark.parametrize("name", list(_value_envelopes()))
def test_values_at_matches_scalar_call(name):
    env = _value_envelopes()[name]
    ps = [1.0, 1.0 + 1e-12, 1.5, 2.0, 3.3, 4.0, 4.5, 5.0, 5.999, 6.0, 6.5, 9.0, 12.0, 300.0]
    grid = getattr(env, "p_grid", None)
    if grid is not None:
        ps += list(grid) + list(0.5 * (grid[1:] + grid[:-1]))
    ps = np.array(ps)
    ps = ps[ps > 1.0] if name == "doob" else ps  # p/(p-1) is undefined at 1
    want = [env(p) for p in ps]
    assert all(type(v) is float for v in want)
    assert same_bits(env.values_at(ps), want)
    assert env.values_at(np.array([])).shape == (0,)
    with pytest.raises(EnvelopeDomainError):
        env.values_at(np.array([2.0, 0.5]))
