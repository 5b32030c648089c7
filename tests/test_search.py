"""The composition search and the conjugate-tail optimiser against the
scalar searches they replaced, two tables' exact composition against its
contract, and conjugate tails of tables against their exact form.

``otimes`` and the conjugate-tail optimiser used to run their own copies of
the scan, first-minimum bracket and golden-section polish.  Those copies are
kept verbatim, the composition's in ``scalar_search`` and the tails' below.
Over closed-form envelopes the tails must give bit-identical results from
the same sequence of envelope evaluations.  Over a table the tail is the
lowest of its node lines: it must equal a brute minimum over them, and lie
no higher than the search.  Composition is one call over whole exponent
grids (``_otimes_grid``, with ``otimes`` a one-row call of it), evaluated
through ``values_at``.  For any pair that is not two tables it is a lockstep
search that must give the scalar search's values and splits bit for bit at
every exponent.  Two tables compose at the best of their breakpoints: the
value must lie at or below the objective at any feasible split, be attained
by its own exponent pair, and never lie above the scalar search.
"""

import math

import numpy as np
import pytest

from polymoment import (
    ConjugateSpec,
    DependenceRegime,
    GrowthConstant,
    Indicator,
    PowerGrowth,
    PowerSingularity,
    Product,
    Scaled,
    SlowlyVarying,
    Tabulated,
    combined_exponent,
    log_tail_from_envelope,
    otimes,
    tail_from_envelope,
    tail_inf_form,
    zeta_chain,
)
from polymoment import calculus
from polymoment.calculus import DoobMaximal, _otimes_grid
from polymoment.envelope import EnvelopeDomainError, MomentEnvelope
from polymoment.polymodel import ParetoPower, Rademacher, natural_envelope
from polymoment.tails import _optimal_exponent
from scalar_search import ref_golden_min, ref_otimes

# ---------------------------------------------------------------------------
# reference: the conjugate-tail search as its own scalar loop
# ---------------------------------------------------------------------------

def ref_optimal_exponent(spec, x):
    """The optimal exponent and the objective there."""
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
            p_best, v_best = cand, v
            step *= 2.0
        if p_hi > p_lo:
            p_ref, v_ref = ref_golden_min(objective, p_lo, p_hi, tol=1e-10 * p_hi)
            if v_ref < v_best:
                p_best, v_best = p_ref, v_ref
    return p_best, v_best


def ref_tail_from_envelope(spec, x):
    x = float(x)
    if x <= math.e:
        return 1.0
    return math.exp(min(0.0, ref_optimal_exponent(spec, x)[1]))


def ref_tail_inf_form(spec, x):
    x = float(x)
    if x <= math.e:
        return 1.0
    p_star = ref_optimal_exponent(spec, x)[0]
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


def _both_tables(a, b):
    return isinstance(a, Tabulated) and isinstance(b, Tabulated)


_ENVS = _envelopes()
_NAMES = list(_ENVS)
# two tables compose exactly, not by the search (their contract is further down)
_PAIRS = [
    (a, b) for i, a in enumerate(_NAMES) for b in _NAMES[i:] if not _both_tables(_ENVS[a], _ENVS[b])
]


@pytest.mark.parametrize("first,second", _PAIRS)
def test_otimes_matches_separate_search(first, second):
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
            got, want = otimes(a, b, p, full_output=True), ref_otimes(a, b, p)
            assert same(got.value, want.value) and same(got.split, want.split), (p, got, want)


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
    assert ref_optimal_exponent(spec, 1e6)[0] > 2.0 * spec.p_grid[-1]


@pytest.mark.parametrize("growth", [0.5, 0.25])
def test_growth_log_tail_never_rises(growth):
    # the expansion can stop at float overflow while the objective still
    # improves; the optimum is then its last candidate, not the grid top
    spec = ConjugateSpec(PowerGrowth(growth=growth))
    prev = 0.0
    for x in (10.0 ** (k / 4) for k in range(1233)):
        got = log_tail_from_envelope(spec, x)
        assert got <= prev, (x, got, prev)
        prev = got


def test_optimal_exponent_returns_the_objective_there():
    specs = [*_tail_specs(), ConjugateSpec(PowerGrowth(growth=0.25))]
    for spec in specs:
        for s in [1.0, 2.3, 9.2, 13.8, 177.3, 355.0, 700.0]:
            p, value = _optimal_exponent(spec, s)
            log_knu = spec.log_knu(p)
            want = math.inf if math.isinf(log_knu) else p * (log_knu - s)
            assert same(value, want), (spec, s, p, value, want)
    for spec in _table_specs().values():
        for s in [1.0, 2.3, 9.2, 13.8, 177.3]:
            p, value = _optimal_exponent(spec, s)
            assert value == pytest.approx(p * (spec.log_knu(p) - s), rel=1e-13, abs=1e-13), (s, p)


@pytest.mark.parametrize("kind", ["closed", "table", "scaled_table", "doob_table"])
def test_spec_is_its_own_tail_bound(kind):
    specs = _table_specs()
    spec = {
        "closed": lambda: _tail_specs()[1], "table": lambda: specs["natural_pareto"],
        "scaled_table": lambda: specs["scaled_pareto"], "doob_table": lambda: specs["doob_pareto"],
    }[kind]()
    # the vacuous test is on x itself: log of the next float above e is 1.0
    above_e = math.nextafter(math.e, math.inf)
    assert math.log(above_e) == 1.0
    for x in [0.0, 1.0, math.e, above_e, 5.0, 1e300, math.inf]:
        assert same(spec(x), tail_from_envelope(spec, x)), (x, spec(x))
    with pytest.raises(EnvelopeDomainError, match="NaN"):
        spec(math.nan)


# ---------------------------------------------------------------------------
# tables: the lowest node line
# ---------------------------------------------------------------------------


def _table_specs():
    envs = _envelopes()
    pareto = envs["natural_pareto"]
    return {
        "natural_pareto": ConjugateSpec(pareto),
        "natural_signs": ConjugateSpec(envs["natural_signs"]),
        "scaled_pareto": ConjugateSpec(Scaled(Scaled(pareto, 2.0), 0.7), norm_factor=1.3),
        # grid ends between table nodes, and an optimum at the lower end for s > 1
        "pareto_inside": ConjugateSpec(pareto, norm_factor=10.0, p_grid=[2.5, 3.7, 5.0]),
        "doob_pareto": ConjugateSpec(DoobMaximal(Scaled(pareto, 1.5)), norm_factor=1.3),
    }


def node_lines(spec):
    """The table's nodes strictly inside the spec's grid ends, and those ends, with
    ``p log(k nu(p))`` there from scalar envelope calls, without the Doob factor."""
    env = spec.envelope
    doob = isinstance(env, DoobMaximal)
    base = ConjugateSpec(env.inner if doob else env, spec.norm_factor, spec.p_grid)
    table = base.envelope
    while isinstance(table, Scaled):
        table = table.inner
    lo, hi = spec.p_grid[0], spec.p_grid[-1]
    ps = np.array([lo, *(p for p in table.p_grid if lo < p < hi), hi])
    return ps, np.array([p * base.log_knu(p) for p in ps]), doob


def _thresholds(slopes, rng):
    """``s = log x``: random, where the optimum is either grid end (below the
    first chord slope, above the last), at every chord slope, and ``+-inf``."""
    return [*rng.uniform(1.0, 60.0, 300), slopes[0] - 0.5, slopes[-1] + 1.0,
            4.0 * slopes[-1], *slopes, math.inf, -math.inf]


@pytest.mark.parametrize(
    "name", ["natural_pareto", "natural_signs", "scaled_pareto", "pareto_inside"])
def test_table_tail_is_its_lowest_node_line(name):
    spec = _table_specs()[name]
    ps, c, _ = node_lines(spec)
    for s in _thresholds(np.diff(c) / np.diff(ps), np.random.default_rng(7)):
        got = log_tail_from_envelope(spec, math.exp(s))
        lines = c - ps * s
        want = min(0.0, lines.min()) if s > 1.0 else 0.0
        scale = np.abs(c).max() + ps[-1] * abs(s)  # the size of the terms that cancel
        assert got == want or abs(got - want) <= 1e-15 * scale, (s, got, want)
        if math.isfinite(s) and s > 1.0:
            # never above the grid scan and golden polish it replaced
            old = min(0.0, ref_optimal_exponent(spec, math.exp(s))[1])
            assert got <= old + 1e-13 * abs(old), (s, got, old)


def test_doob_table_tail_is_at_most_a_dense_scan():
    # under p/(p-1) the minimum may lie between nodes; thresholds at each
    # segment's middle bend put it there
    spec = _table_specs()["doob_pareto"]
    ps, c, _ = node_lines(spec)
    q = np.concatenate([np.linspace(a, b, 10_000) for a, b in zip(ps[:-1], ps[1:])])
    inner = spec.envelope.inner
    q_log_knu = q * (np.log(inner.values_at(q) * (q / (q - 1.0))) + math.log(spec.norm_factor))
    bends = spec.kinks()[1:]
    middles = 0.5 * (np.array(bends[: ps.size - 1]) + np.array(bends[ps.size - 1:]))
    rng = np.random.default_rng(11)
    for s in [*rng.uniform(1.0, 60.0, 20), *middles[middles > 1.0]]:
        got = log_tail_from_envelope(spec, math.exp(s))
        scan = min(0.0, (q_log_knu - q * s).min())
        scale = np.abs(c).max() + ps[-1] * abs(s)
        assert got <= scan + 1e-15 * scale, (s, got, scan)
        # and attained: the optimal exponent's own Markov bound
        p = _optimal_exponent(spec, s)[0]
        assert abs(min(0.0, p * (spec.log_knu(p) - s)) - got) <= 1e-15 * scale, (s, p, got)


@pytest.mark.parametrize("name", list(_table_specs()))
def test_table_tail_kinks_are_its_chord_slopes(name):
    spec = _table_specs()[name]
    ps, c, doob = node_lines(spec)
    want = np.diff(c) / np.diff(ps)
    if doob:  # each node's one-sided slopes: plus the slope of p log(p/(p-1))
        dh = np.log(ps / (ps - 1.0)) - 1.0 / (ps - 1.0)
        want = np.concatenate([want + dh[:-1], want + dh[1:]])
    got = spec.kinks()
    assert got[0] == 1.0 and all(type(k) is float for k in got)
    np.testing.assert_allclose(got[1:], want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name", list(_table_specs()))
def test_table_tail_rejects_a_nan_threshold(name):
    spec = _table_specs()[name]
    for form in (tail_from_envelope, tail_inf_form, log_tail_from_envelope):
        with pytest.raises(EnvelopeDomainError, match="NaN"):
            form(spec, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        spec(math.nan)


# ---------------------------------------------------------------------------
# whole stage grids: values and splits against the scalar search
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
        want = [ref_otimes(a, b, p) for p in ps]
        assert all(type(v) is float for res in want for v in res)
        values, splits = _otimes_grid(a, b, ps)
        assert same_bits(values, [res.value for res in want]), (first, second)
        assert same_bits(splits, [res.split for res in want]), (first, second)


def test_open_tabulated_end_is_not_an_attained_split(evaluations, monkeypatch):
    # the closed-endpoint check evaluates nu1 at its evaluable upper exponent;
    # a tabulated envelope open at its grid end is infinite there, so neither
    # search may evaluate it (the scan stays a relative 1e-12 inside)
    tab = Tabulated([1.0, 2.0, 4.0], [1.0, 1.5, 3.0], upper_closed=False)
    nu2 = PowerSingularity(r=6.0)
    ps = np.array([1.5, 2.0, 2.3])
    want = [ref_otimes(tab, nu2, p) for p in ps]
    assert max(q for env, q in evaluations if env == id(tab)) < 4.0 * (1.0 - 1e-13)
    seen = []
    values_at = Tabulated.values_at
    monkeypatch.setattr(
        Tabulated, "values_at", lambda env, qs: seen.extend(qs) or values_at(env, qs)
    )
    values, splits = _otimes_grid(tab, nu2, ps)
    assert same_bits(values, [res.value for res in want])
    assert same_bits(splits, [res.split for res in want])
    assert max(seen) < 4.0 * (1.0 - 1e-13)


def test_otimes_grid_whole_grid_infeasible_and_domain():
    nu1, nu2 = Indicator(r=2.0), PowerSingularity(r=3.0)
    ps = np.array([1.2, 1.5, 3.0])  # load >= 1 everywhere
    want = [ref_otimes(nu1, nu2, p) for p in ps]
    values, splits = _otimes_grid(nu1, nu2, ps)
    assert same_bits(values, [res.value for res in want])
    assert same_bits(splits, [res.split for res in want])
    assert all(part.shape == (0,) for part in _otimes_grid(nu1, nu2, np.array([])))
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(EnvelopeDomainError):
            _otimes_grid(nu1, nu2, np.array([1.0, bad]))
        with pytest.raises(EnvelopeDomainError):
            otimes(nu1, nu2, bad)


def test_compose_stages_match_scalar_fold(monkeypatch):
    envs = [
        natural_envelope(ParetoPower(6.0), "martingale", points=65),
        natural_envelope(ParetoPower(8.0), "martingale", points=65),
        Scaled(PowerSingularity(r=9.0, power=0.5), 1.5),
    ]
    got = calculus._compose_stages(envs[0], 6.0, envs[1:], None, 65)
    compose = calculus._otimes_grid

    def one_at_a_time(a, b, ps):
        # two tables by their one-row composition, any other pair by the scalar search
        if _both_tables(a, b):
            return np.array([compose(a, b, [p])[0][0] for p in ps]), None
        return np.array([ref_otimes(a, b, p).value for p in ps]), None

    monkeypatch.setattr(calculus, "_otimes_grid", one_at_a_time)
    want = calculus._compose_stages(envs[0], 6.0, envs[1:], None, 65)
    for g, w in zip(got, want):
        assert np.array_equal(g.p_grid, w.p_grid) and same_bits(g.values, w.values)


# ---------------------------------------------------------------------------
# two tables: the exact minimum over their breakpoints
# ---------------------------------------------------------------------------


def _table_pairs():
    pareto, signs = _ENVS["natural_pareto"], _ENVS["natural_signs"]
    pareto8 = natural_envelope(ParetoPower(8.0), "martingale", points=65)
    stage = zeta_chain(DependenceRegime("martingale"), [pareto, pareto8], points=65).bound
    return {
        "pareto-pareto": (pareto, pareto),
        "pareto-signs": (pareto, signs),
        "signs-signs": (signs, signs),
        "stage-pareto": (stage, pareto8),
        # an open grid end, and a table that starts above 1 with a declared
        # singularity beyond its grid
        "open-pareto": (Tabulated([1.0, 2.0, 4.0], [1.0, 1.5, 3.0], upper_closed=False), pareto),
        "late-signs": (Tabulated([1.5, 2.5, 4.0, 7.0], [1.1, 1.4, 2.2, 4.0], upper=9.0), signs),
    }


_TABLE_PAIRS = list(_table_pairs())


def _table_grid(nu1, nu2):
    """Interior exponents, exponents near the evaluable edge, and the grid points above."""
    edge = combined_exponent([nu1.evaluable_upper()[0], nu2.evaluable_upper()[0]])
    near = edge * (1.0 - np.array([1e-3, 1e-6, 1e-9, 1e-13]))
    declared = combined_exponent([nu1.support.upper, nu2.support.upper])
    return np.concatenate([np.linspace(1.0, edge, 41)[:-1], near, _grid_points(declared)])


def _canonical(nu1, nu2):
    return (nu2, nu1) if nu2.support.upper < nu1.support.upper else (nu1, nu2)


@pytest.mark.parametrize("name", _TABLE_PAIRS)
def test_table_composition_is_at_most_any_feasible_split(name):
    nu1, nu2 = _table_pairs()[name]
    rng = np.random.default_rng(7)
    ps = _table_grid(nu1, nu2)
    values = _otimes_grid(nu1, nu2, ps)[0]
    (r1, closed1), (r2, closed2) = nu1.evaluable_upper(), nu2.evaluable_upper()
    for p, value in zip(ps, values):
        # 1/q1 over the interval where both exponents lie in their tables; an
        # open end is approached no nearer than the inset point, as by the search
        lo = max((1.0 if closed1 else 1.0 + 1e-12 * r1 / p) / r1, 1.0 / p - 1.0 / nu2.p_grid[0])
        hi = min(1.0 / nu1.p_grid[0], 1.0 / p - (1.0 if closed2 else 1.0 + 1e-12 * r2 / p) / r2)
        if not lo < hi:
            continue
        t = rng.uniform(lo, hi, 10_000)
        objective = nu1.values_at(1.0 / t) * nu2.values_at(1.0 / (1.0 / p - t))
        # roundoff: each pair meets 1/q1 + 1/q2 = 1/p to an ulp, which the
        # log slope near a singular grid end (about 30) amplifies
        assert value <= objective.min() * (1.0 + 1e-12), (p, value, objective.min())


@pytest.mark.parametrize("name", _TABLE_PAIRS)
def test_table_composition_is_attained(name):
    nu1, nu2 = _canonical(*_table_pairs()[name])
    ps = _table_grid(nu1, nu2)
    values, splits = _otimes_grid(nu1, nu2, ps)
    exact, q1, q2 = calculus._otimes_tables(nu1, nu2, ps)
    fin = np.isfinite(values)
    assert fin.sum() >= 40 and np.all(fin <= np.isfinite(exact))
    assert same_bits(values[fin], exact[fin]) and same_bits(splits[fin], ps[fin] / q1[fin])
    assert np.all(np.isnan(splits[~fin]))
    for p, value, a, b in zip(ps[fin], values[fin], q1[fin], q2[fin]):
        # a feasible Hoelder pair: finite scalar values, and 1/q1 + 1/q2 = 1/p to roundoff
        assert nu1(a) * nu2(b) == value, (p, a, b)
        assert abs((1.0 / a + 1.0 / b) * p - 1.0) <= 4 * 2.0 ** -52, (p, a, b)


@pytest.mark.parametrize("name", _TABLE_PAIRS)
def test_table_composition_is_never_above_the_search(name):
    nu1, nu2 = _table_pairs()[name]
    ps = _table_grid(nu1, nu2)
    for a, b in ((nu1, nu2), (nu2, nu1)):
        got = _otimes_grid(a, b, ps)[0]
        want = np.array([ref_otimes(a, b, p).value for p in ps])
        assert np.array_equal(np.isinf(got), np.isinf(want)), name
        fin = np.isfinite(want)
        assert np.all(got[fin] <= want[fin] * (1.0 + 1e-13)), name


@pytest.mark.parametrize("tag,direction", [
    ("martingale", "forward"), ("inside_independent", "forward"), ("martingale", "reverse"),
])
def test_chain_stages_dominate_the_exact_composition(tag, direction):
    # each stage interpolates K(p) times the composition of the stage before
    # with the next input; between its nodes it must stay at or above it
    inputs = [
        natural_envelope(dist, tag, points=65)
        for dist in (ParetoPower(6.0), ParetoPower(8.0), Rademacher())
    ]
    chain = zeta_chain(DependenceRegime(tag, direction), inputs, points=65)
    order = inputs if direction == "forward" else inputs[::-1]
    K = GrowthConstant.martingale()
    for prev, nu, stage in zip(chain.stages, order[1:], chain.stages[1:]):
        mid = 0.5 * (stage.p_grid[1:] + stage.p_grid[:-1])
        composed = np.array([K(p) for p in mid]) * _otimes_grid(prev, nu, mid)[0]
        assert np.all(np.isfinite(composed))
        assert np.all(stage.values_at(mid) >= composed * (1.0 - 1e-14))


def test_row_blocks_do_not_change_bits(monkeypatch):
    nu1, nu2 = _table_pairs()["stage-pareto"]
    ps = _table_grid(nu1, nu2)
    want = _otimes_grid(nu1, nu2, ps)
    for block in (1, 500, 1 << 40):  # a row per block, several rows, one block
        monkeypatch.setattr(calculus, "_BLOCK", block)
        got = _otimes_grid(nu1, nu2, ps)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), block


def test_open_table_end_is_not_a_candidate(monkeypatch):
    # the composition of two tables evaluates only each row's winner, and a
    # table open at its grid end is never evaluated there
    tab, pareto = _table_pairs()["open-pareto"]
    seen = []
    values_at = Tabulated.values_at
    monkeypatch.setattr(
        Tabulated, "values_at",
        lambda env, qs: (seen.extend(qs) if env is tab else None) or values_at(env, qs),
    )
    ps = _table_grid(tab, pareto)
    values = _otimes_grid(tab, pareto, ps)[0]
    assert len(seen) == np.isfinite(values).sum() > 0
    # the inset point, or a split interval's midpoint where it is narrower
    # than two insets (the row 1e-13 below the edge)
    assert max(seen) < 4.0
    assert sorted(seen)[-2] < 4.0 * (1.0 - 1e-13)


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
