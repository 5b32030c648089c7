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

    def test_tabulated_log_linear(self):
        env = Tabulated(np.array([1.0, 3.0]), np.array([1.0, 4.0]))
        # log-linear: value at 2 is geometric mean of 1 and 4
        assert env(2.0) == pytest.approx(2.0, rel=1e-12)

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
        tail = RegularVariationTail(r=4, gamma=0)
        for p in np.arange(1.0, 4.0, 0.5):
            got = moments_from_tail(tail, float(p))
            want = pareto_norm(4.0, float(p))
            assert got == pytest.approx(want, rel=1e-6)

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
        # at p = r the moment is finite only when the log exponent < -1
        tail = RegularVariationTail(r=4, gamma=-2.5)
        value = moments_from_tail(tail, 4.0)
        assert math.isfinite(value) and value > 0

    def test_quadrature_roundoff_is_not_a_warning(self):
        # QUADPACK reports roundoff near this boundary moment; it is returned,
        # not warned, so no process-global warning filter is needed
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

    def test_tabulated_tail_interpolation(self):
        tail = TabulatedTail(np.array([1.0, 10.0, 100.0]), np.array([1.0, 1e-2, 1e-4]))
        assert tail(0.5) == 1.0
        assert tail(10.0) == pytest.approx(1e-2)
        assert 1e-4 < tail(31.6) < 1e-2
