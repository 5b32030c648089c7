import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymoment import (
    EnvelopeDomainError,
    Indicator,
    InfiniteMomentError,
    PowerGrowth,
    PowerSingularity,
    Product,
    RegularVariationTail,
    Scaled,
    SlowlyVarying,
    SupportInterval,
    Tabulated,
    WeibullTail,
    TabulatedTail,
    doob_maximal_envelope,
    empirical_moments,
    gls_norm,
    moments_from_tail,
    natural_moments_pareto_power,
    tabulate_envelope,
)


def pareto_norm(r1, p):
    # independent closed form: E eps^q = 1/(1-q) for q < 1 with q = p/r1
    return (1.0 / (1.0 - p / r1)) ** (1.0 / p)


class TestEvaluation:
    def test_indicator_on_support(self):
        assert Indicator(r=4)(3.0) == 1.0

    def test_indicator_beyond_support(self):
        assert Indicator(r=4)(4.5) == math.inf

    def test_indicator_closed_endpoint(self):
        assert Indicator(r=4)(4.0) == 1.0

    def test_power_singularity_unit_gap(self):
        env = PowerSingularity(r=6, power=1.0 / 6.0)
        assert env(5.0) == 1.0

    def test_power_singularity_diverges_at_edge(self):
        env = PowerSingularity(r=4, power=0.5)
        assert env(4.0) == math.inf
        assert env(4.0 - 1e-12) > 1e5

    def test_rejects_bad_exponents(self):
        env = Indicator(r=4)
        with pytest.raises(EnvelopeDomainError):
            env(0.5)
        with pytest.raises(EnvelopeDomainError):
            env(math.nan)
        with pytest.raises(EnvelopeDomainError):
            env(math.inf)

    @pytest.mark.parametrize(
        "env",
        [
            Indicator(r=3),
            PowerSingularity(r=3, power=0.5),
            Tabulated(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])),
            Scaled(Indicator(r=3), 2.0),
            Product((Indicator(r=3), PowerGrowth(growth=0.5))),
        ],
    )
    def test_outside_support_is_infinite(self, env):
        assert env(3.5) == math.inf

    def test_scaled_keeps_the_inner_domain_check(self):
        from polymoment import doob_maximal_envelope

        inner = doob_maximal_envelope(Indicator(r=4.0))
        with pytest.raises(EnvelopeDomainError):
            Scaled(inner, 2.0)(1.0)
        assert Scaled(inner, 2.0)(2.0) == 2.0 * inner(2.0)

    def test_below_lower_endpoint_is_infinite(self):
        env = Indicator(r=4, lower=2.0)
        assert env(1.5) == math.inf

    def test_tabulated_log_moment_linear(self):
        env = Tabulated(np.array([1.0, 3.0]), np.array([1.0, 4.0]))
        # linear in p log nu: 2 log nu(2) is the mean of 1 log 1 and 3 log 4
        assert env(2.0) == pytest.approx(4.0 ** 0.75, rel=1e-12)

    def test_tabulated_declared_upper_beyond_grid(self):
        env = Tabulated(np.array([1.0, 2.0]), np.array([1.0, 1.0]), upper=4.0)
        assert env.support.upper == 4.0
        assert env(3.0) == math.inf  # inside support, beyond the grid
        assert env.evaluable_upper() == (2.0, True)

    def test_tabulated_open_grid_end_is_not_attained(self):
        for upper in (None, 4.0):
            env = Tabulated([1.0, 2.0, 4.0], [1.0, 1.5, 3.0], upper=upper, upper_closed=False)
            assert env(4.0) == math.inf
            assert env.evaluable_upper() == (4.0, False)

    def test_tables_keep_read_only_copies(self):
        # a table derives cached arrays from its values; a later write by the
        # caller must reach neither, or its values and its bound would part
        grid, vals = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 4.0, 8.0])
        env = Tabulated(grid, vals)
        before = env(2.5)
        vals[2], grid[0] = 30.0, 0.5
        assert env.values.tolist() == [1.0, 2.0, 4.0, 8.0] and env.p_grid[0] == 1.0
        assert env(2.5) == before and env.values_at([2.5])[0] == before
        xs, tail_vals = np.array([1.0, 10.0, 100.0]), np.array([1.0, 0.1, 0.01])
        tail = TabulatedTail(xs, tail_vals)
        tail_vals[1] = 0.5  # before the first call, which builds the tail's logs
        assert tail(10.0) == pytest.approx(0.1, rel=1e-12)
        for table in (env, tail):
            with pytest.raises(ValueError, match="read-only"):
                table.values[0] = 2.0

    def test_product_support_intersection(self):
        env = Product((Indicator(r=3), Indicator(r=5)))
        assert env.support.upper == 3.0
        assert env(2.0) == 1.0


class TestSlowlyVarying:
    def test_constant(self):
        L = SlowlyVarying.constant(2.5)
        assert L(1.0) == 2.5
        assert L(1e6) == 2.5

    def test_log_power_positive_at_one(self):
        L = SlowlyVarying.log_power(2.0)
        assert L(1.0) == 1.0
        assert L(math.e) == pytest.approx(4.0)

    def test_clamps_below_one(self):
        L = SlowlyVarying.log_power(-1.0)
        assert L(0.1) == L(1.0)

    @pytest.mark.parametrize(
        "L",
        [
            SlowlyVarying.constant(2.5),
            SlowlyVarying.log_power(1.5),
            SlowlyVarying.from_callable(lambda x: 1.0 + 1.0 / x),
        ],
    )
    def test_array_matches_scalars(self, L):
        xs = np.array([[0.5, 1.0, 2.0], [10.0, 1e3, 1e6]])
        got = L(xs)
        assert got.shape == xs.shape
        for x, v in zip(xs.ravel(), got.ravel()):
            assert v == pytest.approx(L(float(x)), rel=1e-14)


class TestSupportInterval:
    def test_invalid(self):
        with pytest.raises(ValueError):
            SupportInterval(3.0, 2.0)
        with pytest.raises(ValueError):
            SupportInterval(0.5, 2.0)

    def test_contains(self):
        sup = SupportInterval(1.0, 4.0, upper_closed=False)
        assert sup.contains(3.999)
        assert not sup.contains(4.0)
        assert SupportInterval(1.0, 4.0, upper_closed=True).contains(4.0)

    @pytest.mark.parametrize("env", [
        PowerSingularity(r=4.0, lower=1.5),
        PowerGrowth(growth=1.0),
        Indicator(r=3.0),
        Scaled(PowerSingularity(r=4.0), 2.0),
        Product((PowerSingularity(r=4.0), Indicator(r=3.0), PowerGrowth())),
        doob_maximal_envelope(PowerSingularity(r=4.0, lower=1.5)),
    ], ids=lambda env: type(env).__name__)
    def test_computed_once(self, env):
        sup = env.support
        assert env.support is sup
        assert env(sup.lower) == env(sup.lower)  # evaluation reads the cached interval
        assert env.support is sup

    def test_cached_values(self):
        assert Product((PowerSingularity(r=4.0), Indicator(r=3.0))).support == SupportInterval(
            1.0, 3.0, upper_closed=True
        )
        assert Product((PowerSingularity(r=3.0), Indicator(r=3.0))).support == SupportInterval(
            1.0, 3.0, upper_closed=False
        )
        inner = PowerSingularity(r=4.0, lower=1.5)
        assert doob_maximal_envelope(inner).support is inner.support


class TestMomentNorm:
    def test_self_norm_is_one_for_tabulated(self):
        grid = np.linspace(2.0, 3.5, 7)
        env = tabulate_envelope(lambda p: pareto_norm(4.0, p), grid)
        assert gls_norm(lambda p: env(p), env, grid) == 1.0

    def test_zero_variable(self):
        assert gls_norm(lambda p: 0.0, Indicator(r=4), [2.0, 3.0]) == 0.0

    def test_pareto_against_dense_grid_oracle(self):
        env = PowerSingularity(r=4, power=0.25)
        moments = lambda p: natural_moments_pareto_power(4.0, p)
        grid = np.array([2.0, 3.0, 3.5, 3.9])
        got = gls_norm(moments, env, grid)
        # oracle: maximize the exact ratio on a 10x finer grid covering the span
        fine = np.linspace(2.0, 3.9, 40)
        oracle = max(moments(p) / env(p) for p in fine)
        assert got <= oracle * (1 + 1e-12)
        assert got == pytest.approx(oracle, rel=0.05)
        assert math.isfinite(got) and got > 0

    def test_grid_refinement_monotone(self):
        env = PowerSingularity(r=4, power=0.25)
        moments = lambda p: natural_moments_pareto_power(4.0, p)
        coarse = gls_norm(moments, env, [2.0, 3.0])
        fine = gls_norm(moments, env, [2.0, 2.5, 3.0, 3.5])
        assert fine >= coarse

    def test_scaled_envelope_identity(self):
        env = Indicator(r=4)
        moments = lambda p: pareto_norm(4.0, p) if p < 4 else 1.0
        grid = [2.0, 3.0]
        base = gls_norm(moments, env, grid)
        for c in (0.5, 2.0, 7.0):
            scaled = gls_norm(moments, Scaled(env, c), grid)
            assert scaled == pytest.approx(base / c, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            gls_norm(lambda p: 1.0, Indicator(r=4), [])
        with pytest.raises(EnvelopeDomainError):
            gls_norm(lambda p: 1.0, Indicator(r=4), [5.0])


class TestParetoPowerMoments:
    def test_square_root_two(self):
        assert natural_moments_pareto_power(4.0, 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_first_moment(self):
        assert natural_moments_pareto_power(4.0, 1.0) == pytest.approx(4.0 / 3.0)

    def test_r_two(self):
        assert natural_moments_pareto_power(2.0, 1.0) == pytest.approx(2.0)

    def test_infinite_moment(self):
        with pytest.raises(InfiniteMomentError):
            natural_moments_pareto_power(4.0, 4.0)
        with pytest.raises(InfiniteMomentError):
            natural_moments_pareto_power(4.0, 5.0)


class TestMomentsFromTail:
    def test_exact_pareto_family(self):
        # near the tail index the integrand decays like u^(p-1-r) and keeps its
        # mass far beyond where u^-r underflows: at p = 3.999, past u = 1e280
        tail = RegularVariationTail(r=4, gamma=0)
        for p in [*np.arange(1.0, 4.0, 0.5), 3.9, 3.99, 3.999]:
            got = moments_from_tail(tail, float(p))
            want = pareto_norm(4.0, float(p))
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_tail(self):
        assert moments_from_tail(lambda x: 0.0, 2.0) == 0.0

    def test_exponential_first_moment(self):
        assert moments_from_tail(WeibullTail(1.0, 1.0), 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_divergence_detected(self):
        tail = RegularVariationTail(r=4, gamma=0)
        with pytest.raises(InfiniteMomentError):
            moments_from_tail(tail, 4.0)
        with pytest.raises(InfiniteMomentError):
            moments_from_tail(tail, 4.5)

    def test_boundary_moment_with_integrable_log(self):
        # at p = r the moment is finite only when the log exponent < -1;
        # T(e^s) = min(1, e^(-4s) s^(-2.5)) is 1 up to s_c, where 4 s_c + 2.5 log s_c = 0,
        # so E|xi|^4 = e^(4 s_c) + 4 int_{s_c}^inf s^(-2.5) ds = e^(4 s_c) + (8/3) s_c^(-1.5)
        lo, hi = 0.01, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if 4.0 * mid + 2.5 * math.log(mid) < 0.0 else (lo, mid)
        s_c = 0.5 * (lo + hi)
        want = (math.exp(4.0 * s_c) + 8.0 / 3.0 * s_c ** -1.5) ** 0.25
        tail = RegularVariationTail(r=4, gamma=-2.5)
        assert moments_from_tail(tail, 4.0) == pytest.approx(want, rel=1e-10)

    def test_tabulated_pure_power(self):
        # a log-grid table of x^-4 is the Pareto tail inside the grid and its
        # fitted decay beyond it; this takes the generic log T(e^s) path
        xs = np.logspace(0.0, 3.0, 61)
        tail = TabulatedTail(xs, xs ** -4.0)
        for p in (1.0, 2.0, 3.0, 3.5, 3.99, 3.999):
            assert moments_from_tail(tail, p) == pytest.approx(pareto_norm(4.0, p), rel=1e-9)

    def test_tabulated_log_tail_keeps_its_bits(self):
        # the logs of the grid and the values are taken once; log_tail is the
        # log-log interpolation it was when it took them on every call
        xs = np.logspace(0.0, 3.0, 61)
        vals = np.minimum(1.0, 3.0 * xs ** -2.5)
        vals[40:45] = 0.0
        tail = TabulatedTail(xs, vals)
        with np.errstate(divide="ignore"):
            logv = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -math.inf)
        for s in np.linspace(0.1, 6.8, 97):
            assert tail.log_tail(float(s)) == float(np.interp(s, np.log(xs), logv))
        # the end logs too: vacuous below the grid, the fitted decay beyond it
        for s in np.linspace(-2.0, 0.0, 9):
            assert tail.log_tail(float(s)) == 0.0
        for s in np.linspace(math.log(xs[-1]), 12.0, 17):
            want = math.log(vals[-1]) - tail.pareto_index * (s - math.log(xs[-1]))
            assert tail.log_tail(float(s)) == want

    def test_quadrature_roundoff_is_not_a_warning(self):
        # at its tail index this moment's integrand decays only like s^(-2.5)
        # in s = log x; the double-exponential rule still meets its tolerance
        # there and warns of nothing, so no process-global warning filter is needed
        tail = RegularVariationTail(r=4, gamma=-2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert moments_from_tail(tail, 4.0) > 0


class TestEmpiricalMoments:
    def test_signs(self):
        est = empirical_moments([1.0, -1.0, 1.0, -1.0], 2.0)
        assert est.value == 1.0

    def test_single_point(self):
        est = empirical_moments([2.0], 3.0)
        assert est.value == pytest.approx(2.0)
        assert est.stderr == 0.0

    def test_empty(self):
        with pytest.raises(ValueError):
            empirical_moments([], 2.0)

    def test_batch_means_weighted_by_batch_size(self):
        # 350,000 replications run as 63 batches of 5,469 and one of 5,453
        from polymoment.envelope import _moment_estimate
        from polymoment.polymodel import batch_plan

        counts = batch_plan(350_000)
        assert counts == [5469] * 63 + [5453]
        means = 1.0 + 0.01 * np.sin(np.arange(64.0))
        means[-1] = 3.0  # the short batch is far off: its weight shows
        m = float(np.dot(counts, means)) / 350_000
        est = _moment_estimate(m, means, counts, 2.0)
        var = sum((c / 350_000 * (b - m)) ** 2 for c, b in zip(counts, means)) * 64 / 63
        assert est.power_mean_stderr == pytest.approx(math.sqrt(var), rel=1e-12)
        assert est.stderr == pytest.approx(math.sqrt(var) * math.sqrt(m) / (2.0 * m), rel=1e-12)
        # equal batches: the ddof=1 standard deviation of the means over sqrt(B)
        equal = _moment_estimate(float(means.mean()), means, [10] * 64, 2.0)
        assert equal.power_mean_stderr == pytest.approx(means.std(ddof=1) / 8.0, rel=1e-12)

    def test_pareto_power_large_sample(self):
        rng = np.random.default_rng(12345)
        xs = (1.0 - rng.random(100000)) ** (-0.25)  # eps^(1/4)
        est = empirical_moments(xs, 2.0, tail_index=4.0)
        want = pareto_norm(4.0, 2.0)
        assert abs(est.value - want) <= 3.0 * est.stderr
        assert not est.high_variance
        est_hi = empirical_moments(xs, 3.0, tail_index=4.0)
        assert est_hi.high_variance

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=200),
        st.floats(1.0, 4.0),
        st.floats(0.1, 3.0),
    )
    def test_lyapunov_monotonicity(self, xs, p1, dp):
        est_lo = empirical_moments(xs, p1)
        est_hi = empirical_moments(xs, p1 + dp)
        assert est_lo.value <= est_hi.value * (1 + 1e-9) + 1e-12


class TestTailBounds:
    def test_clamped(self):
        tail = RegularVariationTail(r=4, gamma=-2)
        assert tail(1.5) <= 1.0
        assert tail(0.5) == 1.0

    def test_monotone_beyond_e(self):
        tail = RegularVariationTail(r=3, gamma=1.5)
        xs = np.linspace(math.e + 0.01, 100, 50)
        vals = [tail(float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_weibull(self):
        tail = WeibullTail(c=1.0, alpha=2.0)
        assert tail(0.0) == 1.0
        assert tail(2.0) == pytest.approx(math.exp(-4.0))
        # x^alpha overflows a float here; the tail is 0, not an OverflowError
        assert tail(1e200) == 0.0

    def test_tabulated_tail_interpolation(self):
        tail = TabulatedTail(np.array([1.0, 10.0, 100.0]), np.array([1.0, 1e-2, 1e-4]))
        assert tail(0.5) == 1.0
        assert tail(10.0) == pytest.approx(1e-2)
        assert 1e-4 < tail(31.6) < 1e-2

    def test_tabulated_tail_beyond_the_grid(self):
        # the fitted decay from the first to the last point, here x^-2
        tail = TabulatedTail(np.array([1.0, 10.0, 100.0]), np.array([1.0, 1e-2, 1e-4]))
        assert tail.pareto_index == pytest.approx(2.0)
        for x in (100.0, 300.0, 1e4):
            assert tail(x) == pytest.approx(1e-4 * (x / 100.0) ** -2.0, rel=1e-12)

    def test_tabulated_tail_zero_beyond_the_grid(self):
        # an empirical tail ending at 0 stays 0
        ends_at_zero = TabulatedTail(np.array([1.0, 10.0, 100.0]), np.array([1.0, 1e-2, 0.0]))
        assert ends_at_zero.pareto_index == pytest.approx(2.0)
        assert ends_at_zero(200.0) == 0.0
        # with fewer than two positive values there is no decay to fit
        one_positive = TabulatedTail(np.array([1.0, 10.0]), np.array([0.0, 0.5]))
        assert one_positive.pareto_index == math.inf
        assert one_positive(20.0) == 0.0
