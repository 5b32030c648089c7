import math

import numpy as np
import pytest

from polymoment import (
    ConjugateSpec,
    ConjugateTail,
    Indicator,
    ParetoPower,
    PowerGrowth,
    PowerSingularity,
    RegularVariationTail,
    Scaled,
    SlowlyVarying,
    Tabulated,
    TabulatedTail,
    WeibullTail,
    doob_maximal_envelope,
    dominance_check,
    fit_tail_rescale,
    moments_from_tail,
    natural_envelope,
    regular_variation_tail,
    tabulate_envelope,
    tail_from_envelope,
    tail_inf_form,
)
from polymoment.envelope import EnvelopeDomainError


def random_tabulated(rng):
    lo = rng.uniform(1.0, 2.0)
    hi = rng.uniform(lo + 1.0, lo + 5.0)
    ps = np.sort(rng.uniform(lo, hi, size=12))
    ps[0], ps[-1] = lo, hi
    vals = np.exp(rng.uniform(-1.0, 2.0, size=ps.size))
    return Tabulated(ps, vals)


class TestConjugateTail:
    @pytest.mark.parametrize("name", ["natural_pareto", "singularity", "growth"])
    def test_grid_objective_equals_log_knu(self, name):
        # the scan and the golden polish must weigh values of one logarithm;
        # np.log differs from math.log in the last bit at one of these points
        from polymoment import PowerSingularity
        from polymoment.polymodel import ParetoPower, natural_envelope

        env = {
            "natural_pareto": lambda: natural_envelope(ParetoPower(6.0), "martingale"),
            "singularity": lambda: PowerSingularity(5.0, 1.3),
            "growth": lambda: PowerGrowth(0.5, 1.3),
        }[name]()
        spec = ConjugateSpec(env, norm_factor=1.7)
        for i, p in enumerate(spec.p_grid):
            assert spec._log_knu[i] == spec.log_knu(p), (i, p)

    def test_indicator_inverse_power(self):
        spec = ConjugateSpec(Indicator(r=4))
        t = tail_from_envelope(spec, 10.0)
        assert abs(math.log(t) - math.log(1e-4)) <= 1e-10 * abs(math.log(1e-4))

    def test_vacuous_below_e(self):
        spec = ConjugateSpec(Indicator(r=4))
        assert tail_from_envelope(spec, 2.0) == 1.0
        assert tail_from_envelope(spec, math.e) == 1.0

    def test_nan_threshold_raises_and_inf_gives_zero(self):
        from polymoment import log_tail_from_envelope

        spec = ConjugateSpec(Indicator(r=4))
        for form in (tail_from_envelope, tail_inf_form, log_tail_from_envelope):
            with pytest.raises(EnvelopeDomainError, match="NaN"):
                form(spec, math.nan)
        assert tail_from_envelope(spec, math.inf) == tail_inf_form(spec, math.inf) == 0.0
        assert log_tail_from_envelope(spec, math.inf) == -math.inf

    def test_non_increasing(self):
        spec = ConjugateSpec(Indicator(r=4))
        xs = [3.0, 5.0, 10.0, 50.0, 200.0]
        vals = [tail_from_envelope(spec, x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_subgaussian_shape(self):
        # envelope sqrt(p) conjugates to exp(-x^2/(2e)) with optimum p = x^2/e
        from polymoment import log_tail_from_envelope

        spec = ConjugateSpec(
            PowerGrowth(growth=0.5), p_grid=np.geomspace(1.001, 4000.0, 400)
        )
        for x in [10.0, 20.0, 40.0, 80.0]:
            log_t = log_tail_from_envelope(spec, x)
            assert log_t / x ** 2 == pytest.approx(-1.0 / (2.0 * math.e), rel=1e-3)
        from polymoment.tails import _optimal_exponent

        x = 40.0
        assert _optimal_exponent(spec, math.log(x)) == pytest.approx(x ** 2 / math.e, rel=1e-3)

    def test_expansion_beyond_default_grid(self):
        # growth envelopes need exponents far above any fixed grid at large x
        spec = ConjugateSpec(PowerGrowth(growth=0.5))
        t = tail_from_envelope(spec, 60.0)
        assert math.log(t) / 60.0 ** 2 == pytest.approx(-1.0 / (2.0 * math.e), rel=1e-2)

    def test_inf_form_identity_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            env = random_tabulated(rng)
            k = float(rng.uniform(0.5, 3.0))
            spec = ConjugateSpec(env, norm_factor=k)
            x = float(rng.uniform(3.0, 200.0))
            a = tail_from_envelope(spec, x)
            b = tail_inf_form(spec, x)
            if a == 0.0 or b == 0.0:
                assert a == b
            elif a == 1.0 or b == 1.0:
                assert abs(a - b) <= 1e-12
            else:
                assert abs(math.log(a) - math.log(b)) <= 1e-10 * max(1.0, abs(math.log(a)))

    def test_grid_refinement_monotone(self):
        env = Indicator(r=5)
        coarse = ConjugateSpec(env, p_grid=np.linspace(1.5, 5.0, 8))
        fine = ConjugateSpec(env, p_grid=np.linspace(1.5, 5.0, 64))
        for x in [4.0, 10.0, 40.0]:
            assert tail_from_envelope(fine, x) <= tail_from_envelope(coarse, x) * (1 + 1e-9)

    def test_scaling_covariance(self):
        env = Tabulated(np.linspace(1.5, 4.0, 20), np.linspace(1.0, 9.0, 20))
        k = 2.5
        spec_scaled = ConjugateSpec(env, norm_factor=k)
        spec_plain = ConjugateSpec(env, norm_factor=1.0)
        for x in [10.0, 30.0, 100.0]:
            lhs = tail_from_envelope(spec_scaled, x)
            rhs = tail_from_envelope(spec_plain, x / k)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ConjugateSpec(Indicator(r=4), p_grid=[])
        with pytest.raises(ValueError):
            ConjugateSpec(Indicator(r=4), p_grid=[2.0, 1.5])
        with pytest.raises(EnvelopeDomainError):
            ConjugateSpec(Indicator(r=4), p_grid=[2.0, 4.5])

    def test_open_tabulated_end_stays_off_the_default_grid(self):
        # the envelope is infinite at its grid end, so the grid must stop short
        env = Tabulated([1.0, 2.0, 4.0], [1.0, 1.5, 3.0], upper_closed=False)
        spec = ConjugateSpec(env)
        assert spec.p_grid[-1] < 4.0
        assert 0.0 < tail_from_envelope(spec, 10.0) < 1.0

    def test_conjugate_tail_object(self):
        tail = ConjugateTail(ConjugateSpec(Indicator(r=4)))
        assert tail(10.0) == pytest.approx(1e-4, rel=1e-9)
        assert tail.pareto_index == pytest.approx(4.0)


class TestRegularVariationTail:
    def test_log_power_cancels(self):
        assert regular_variation_tail(4.0, -1.0, None, 10.0) == pytest.approx(1e-4)

    def test_e_squared(self):
        want = math.exp(-8.0) * 2.0
        assert regular_variation_tail(4.0, 0.0, None, math.e ** 2) == pytest.approx(want)

    def test_monotone(self):
        for r, gamma in [(3.0, 0.0), (4.0, 1.0), (2.5, -0.5)]:
            assert regular_variation_tail(r, gamma, None, 100.0) < regular_variation_tail(
                r, gamma, None, 10.0
            )

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            regular_variation_tail(4.0, 0.0, None, 2.0)

    def test_nan_threshold_raises(self):
        # every tail kind, also those that take their values from log_tail
        tails = [
            RegularVariationTail(r=4.0), WeibullTail(), TabulatedTail([1.0, 10.0], [1.0, 0.1]),
            ConjugateTail(ConjugateSpec(Indicator(r=4))),
        ]
        for tail in tails:
            with pytest.raises(ValueError, match="NaN"):
                tail(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            regular_variation_tail(4.0, 0.0, None, math.nan)

    def test_slowly_varying_factor(self):
        L = SlowlyVarying.log_power(1.0)
        x = 100.0
        want = x ** -4.0 * math.log(x) * L(math.log(x))
        assert regular_variation_tail(4.0, 0.0, L, x) == pytest.approx(want)


class TestDominance:
    def test_unit_bound_always_passes(self):
        report = dominance_check(
            lambda x: 1.0, lambda x: (0.9, 0.01), [5.0, 10.0, 20.0]
        )
        assert report.passed
        assert report.violations == ()

    def test_zero_empirical_always_passes(self):
        report = dominance_check(
            lambda x: 1e-12, lambda x: (0.0, 0.0), [5.0, 10.0]
        )
        assert report.passed

    def test_violation_flagged(self):
        report = dominance_check(
            lambda x: 1e-6, lambda x: (0.5, 0.01), [5.0, 10.0]
        )
        assert not report.passed
        assert report.violations == (5.0, 10.0)

    def test_two_sigma_slack(self):
        report = dominance_check(
            lambda x: 0.5, lambda x: (0.51, 0.01), [5.0]
        )
        assert report.passed  # 0.51 - 0.02 <= 0.5

    def test_rescale_recorded(self):
        report = dominance_check(lambda x: 1.0, lambda x: (0.0, 0.0), [5.0], rescale=2.5)
        assert report.rescale == 2.5

    def test_single_variable_conjugate_bound(self):
        # Pareto-power variable against the conjugate of its natural envelope
        rng = np.random.default_rng(11)
        xs = (1.0 - rng.random(1000000)) ** (-0.25)
        from polymoment import natural_moments_pareto_power

        env = tabulate_envelope(
            lambda p: natural_moments_pareto_power(4.0, p),
            np.linspace(1.0, 3.996, 257),
        )
        spec = ConjugateSpec(env)

        def empirical(x):
            est = float(np.mean(xs >= x))
            return est, math.sqrt(est * (1 - est) / xs.size)

        report = dominance_check(
            lambda x: tail_from_envelope(spec, x), empirical, [5.0, 10.0, 20.0, 50.0]
        )
        assert report.passed


class TestFitRescale:
    def test_exact_touch(self):
        spec = ConjugateSpec(Indicator(r=4))
        bound = lambda x: tail_from_envelope(spec, x)
        c = fit_tail_rescale(bound, 10.0, 1e-3)
        assert bound(10.0 / c) == pytest.approx(1e-3, rel=1e-6)

    def test_degenerate_target(self):
        bound = lambda x: 0.5
        assert fit_tail_rescale(bound, 10.0, 0.0) == 1.0
        assert fit_tail_rescale(bound, 10.0, -1.0) == 1.0


class TestMomentTailSandwich:
    def test_recovered_moments_dominate_original(self):
        # moments -> conjugate tail -> moments loses at most a log-order
        # factor and always in the upward direction
        tail = RegularVariationTail(r=4.0, gamma=0.5)
        grid = np.linspace(1.2, 3.4, 12)
        moments = [moments_from_tail(tail, float(p)) for p in grid]
        env = Tabulated(grid, np.array(moments))
        conj = ConjugateTail(ConjugateSpec(env))
        for p, original in zip(grid[:-3], moments[:-3]):
            recovered = moments_from_tail(conj, float(p))
            assert recovered >= original * (1 - 1e-9)

    def test_indicator_conjugate_near_its_index(self):
        # the conjugate tail of Indicator(4) is min(1, x^-4) beyond e, so
        # E|xi|^p = e^p + p e^(p-4) / (4 - p); near p = 4 most of that mass
        # lies where x^-4 underflows, which its log form keeps
        conj = ConjugateTail(ConjugateSpec(Indicator(r=4)))
        for p in (3.9, 3.99, 3.999):
            want = (math.exp(p) + p * math.exp(p - 4.0) / (4.0 - p)) ** (1.0 / p)
            assert moments_from_tail(conj, p) == pytest.approx(want, rel=1e-11)

    def test_declared_index_is_not_probed(self):
        # the tail's own index (3.9997) decides divergence; the local slope
        # between 1e6 and 2e6 (about 3.71) would refuse p = 3.8 and 3.9
        from scipy import integrate

        conj = ConjugateTail(ConjugateSpec(PowerSingularity(r=4.0, power=1.0)))
        for p in (3.8, 3.9):
            def f(s):
                return p * math.exp(p * s + conj.log_tail(s))
            # the s-integral, broken where the bound leaves 1 (s = 1, x = e)
            want = math.exp(p) + sum(
                integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                for a, b in ((1.0, 10.0), (10.0, 100.0), (100.0, math.inf)))
            assert moments_from_tail(conj, p) == pytest.approx(want ** (1.0 / p), rel=1e-10)
        assert moments_from_tail(conj, 3.8) == pytest.approx(16.79, rel=1e-3)
        assert moments_from_tail(conj, 3.9) == pytest.approx(39.01, rel=1e-3)

    def test_scaled_table_is_its_table_with_a_norm_factor(self):
        # the tail over a scaled table bends where the table's does, with the
        # factor's log in the norm factor; undeclared, the rule does not converge
        table = natural_envelope(ParetoPower(6.0), "common_independent", points=65)
        for p in (2.0, 4.0, 5.0):
            want = moments_from_tail(ConjugateTail(ConjugateSpec(table, norm_factor=2.0)), p)
            got = moments_from_tail(ConjugateTail(ConjugateSpec(Scaled(table, 2.0))), p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_doob_table(self):
        # p/(p-1) bends the log-moment curve between the table's nodes, so the
        # tail bends at each node's one-sided slopes; undeclared, the rule does
        # not converge.  The reference is a trapezoid rule in s = log x over the
        # tail's own values, from its one-sided limit at s = 1, where it jumps
        table = natural_envelope(ParetoPower(6.0), "common_independent", points=65)
        conj = ConjugateTail(ConjugateSpec(doob_maximal_envelope(table)))
        h = 4e-3
        s = np.arange(1.0, 41.0 + h / 2, h)
        log_t = np.array([conj.log_tail(float(v)) for v in [1.0 + 1e-15, *s[1:]]])
        for p in (2.0, 4.0, 5.0):
            f = p * np.exp(p * s + log_t)
            want = (math.exp(p) + h * (f.sum() - 0.5 * (f[0] + f[-1]))) ** (1.0 / p)
            assert moments_from_tail(conj, p) == pytest.approx(want, rel=2e-6)
