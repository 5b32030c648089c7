import math

import numpy as np
import pytest

from polymoment import (
    ChainFeasibilityError,
    DependenceRegime,
    EnvelopeDomainError,
    GrowthConstant,
    Indicator,
    MomentEnvelope,
    PowerGrowth,
    PowerSingularity,
    Scaled,
    SupportInterval,
    Tabulated,
    combined_exponent,
    doob_maximal_envelope,
    good_lambda_envelope,
    natural_moments_pareto_power,
    otimes,
    otimes_chain,
    polynomial_dominant_envelope,
    tabulate_envelope,
    zeta_chain,
)
from scalar_search import ref_compose


def growth_closed_form(c1, mu1, c2, mu2, p):
    # exact infimum for power-growth envelopes: minimise over the split a
    # (c1 (p/a)^mu1)(c2 (p/b)^mu2) -> optimum a = mu1/(mu1+mu2)
    s = mu1 + mu2
    return c1 * c2 * mu1 ** (-mu1) * mu2 ** (-mu2) * s ** s * p ** s


def dense_grid_otimes(nu1, nu2, p, points=100000):
    r1 = nu1.evaluable_upper()[0]
    r2 = nu2.evaluable_upper()[0]
    lo = p / r1 if math.isfinite(r1) else 1e-9
    hi = 1.0 - (p / r2 if math.isfinite(r2) else 1e-9)
    best = math.inf
    for a in np.linspace(lo + 1e-9, hi - 1e-9, points):
        v = nu1(p / a) * nu2(p / (1.0 - a))
        if v < best:
            best = v
    return best


class TestOtimes:
    def test_power_growth_closed_form(self):
        for mu1, mu2, c1, c2 in [(0.5, 0.5, 1, 1), (0.3, 1.1, 2.0, 0.7), (1.0, 2.0, 1.5, 3.0)]:
            nu1 = PowerGrowth(growth=mu1, scale=c1)
            nu2 = PowerGrowth(growth=mu2, scale=c2)
            for p in [1.0, 2.5, 7.0]:
                res = otimes(nu1, nu2, p, full_output=True)
                want = growth_closed_form(c1, mu1, c2, mu2, p)
                assert res.value == pytest.approx(want, rel=1e-9)
                assert res.split == pytest.approx(mu1 / (mu1 + mu2), abs=1e-6)

    def test_indicator_reduction(self):
        nu = Indicator(r=4)
        assert otimes(nu, nu, 1.5) == 1.0
        assert otimes(nu, nu, 1.999) == 1.0
        assert otimes(nu, nu, 2.0) == math.inf
        assert otimes(nu, nu, 2.5) == math.inf

    def test_commutative(self):
        nu1 = PowerSingularity(r=4, power=0.25)
        nu2 = PowerSingularity(r=6, power=0.5, scale=2.0)
        for p in [1.0, 1.3, 1.9, 2.2]:
            a = otimes(nu1, nu2, p)
            b = otimes(nu2, nu1, p)
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert a == pytest.approx(b, rel=1e-12)

    def test_constant_factors(self):
        nu1 = PowerSingularity(r=4, power=0.25)
        nu2 = PowerSingularity(r=6, power=0.5)
        c1, c2 = 3.0, 0.25
        for p in [1.0, 1.5, 2.0]:
            lhs = otimes(Scaled(nu1, c1), Scaled(nu2, c2), p)
            rhs = c1 * c2 * otimes(nu1, nu2, p)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_dense_grid_oracle(self):
        nu1 = PowerSingularity(r=4, power=0.25)
        nu2 = PowerSingularity(r=4, power=0.25)
        got = otimes(nu1, nu2, 1.0)
        oracle = dense_grid_otimes(nu1, nu2, 1.0)
        assert got <= oracle * (1 + 1e-9)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_superadditive_over_sums(self):
        # the infimum of a sum dominates the sum of infima, so composing with
        # an envelope sum can only exceed the sum of compositions (the
        # subadditive direction fails pointwise; see the norm-level test
        # below for the triangle-inequality consequence that does hold)
        class SumEnvelope(MomentEnvelope):
            def __init__(self, a, b):
                self.a, self.b = a, b

            @property
            def support(self):
                sa, sb = self.a.support, self.b.support
                upper = min(sa.upper, sb.upper)
                closed = (sa.upper_closed or sa.upper > upper) and (
                    sb.upper_closed or sb.upper > upper
                )
                return SupportInterval(
                    max(sa.lower, sb.lower), upper, upper_closed=closed
                )

            def _value(self, p):
                return self.a(p) + self.b(p)

        nu1 = PowerSingularity(r=5, power=0.3)
        nu2 = PowerSingularity(r=6, power=0.5)
        nu3 = PowerGrowth(growth=0.5)
        total = SumEnvelope(nu2, nu3)
        for p in [1.0, 1.4, 2.0]:
            lhs = otimes(nu1, total, p)
            rhs = otimes(nu1, nu2, p) + otimes(nu1, nu3, p)
            assert lhs >= rhs * (1 - 1e-9)

    def test_sum_triangle_at_norm_level(self):
        # |xi (eta + zeta)|_p <= (nu1 (x) nu2)(p) + (nu1 (x) nu3)(p) for
        # variables dominated by their natural envelopes
        rng = np.random.default_rng(31)
        eps = 1.0 / (1.0 - rng.random(200000))
        xi = eps ** (1.0 / 6.0)
        eta = eps ** (1.0 / 4.0)
        zeta = eps ** (1.0 / 8.0)
        nu1 = tabulate_envelope(
            lambda p: natural_moments_pareto_power(6.0, p), np.linspace(1.0, 5.9, 129)
        )
        nu2 = tabulate_envelope(
            lambda p: natural_moments_pareto_power(4.0, p), np.linspace(1.0, 3.95, 129)
        )
        nu3 = tabulate_envelope(
            lambda p: natural_moments_pareto_power(8.0, p), np.linspace(1.0, 7.9, 129)
        )
        from polymoment import empirical_moments

        for p in [1.2, 1.6, 2.0]:
            est = empirical_moments(xi * (eta + zeta), p)
            bound = otimes(nu1, nu2, p) + otimes(nu1, nu3, p)
            assert est.value - 3 * est.stderr <= bound

    def test_constant_split_upper_bound(self):
        # the explicit split a = r2/(r1+r2) is feasible, so it bounds the inf
        r1, r2 = 5.0, 7.0
        nu1 = PowerSingularity(r=r1, power=0.4)
        nu2 = PowerSingularity(r=r2, power=0.6)
        a = r2 / (r1 + r2)
        for p in [1.0, 1.5, 2.0, 2.5]:
            bound = nu1(p / a) * nu2(p / (1.0 - a))
            assert otimes(nu1, nu2, p) <= bound * (1 + 1e-12)

    def test_mixed_singularity_growth_order(self):
        # singular x growth composes to a singular envelope with the summed
        # log-exponent: value * (r-p)^(gamma+mu) should stay bounded
        r, gamma, mu = 4.0, 0.7, 0.5
        nu1 = PowerSingularity(r=r, power=gamma)
        nu2 = PowerGrowth(growth=mu)
        gaps = np.logspace(-5, -2, 12)
        ratios = [otimes(nu1, nu2, float(r - g)) * g ** (gamma + mu) for g in gaps]
        slope = np.polyfit(np.log(1.0 / gaps), np.log(ratios), 1)[0]
        # a residual slope would mean the combined exponent is off
        assert abs(slope) < 0.01

    def test_rejects_bad_exponent(self):
        nu = Indicator(r=4)
        with pytest.raises(EnvelopeDomainError):
            otimes(nu, nu, 0.5)


class TestOtimesChain:
    def test_single_element_unchanged(self):
        nu = PowerSingularity(r=4, power=0.5)
        assert otimes_chain([nu]) is nu

    def test_indicator_chain_is_unit(self):
        chain = otimes_chain([Indicator(r=6)] * 3)
        assert chain.support.upper == pytest.approx(2.0)
        for p in [1.0, 1.3, 1.7, 1.9]:
            assert chain(p) == pytest.approx(1.0, rel=1e-12)

    def test_growth_chain_closed_form(self):
        # (p^0.5 (x) p^0.5) (x) p = 8 p^2 by iterating the exact composition
        chain = otimes_chain(
            [PowerGrowth(growth=0.5), PowerGrowth(growth=0.5), PowerGrowth(growth=1.0)],
            p_grid=np.linspace(1.0, 10.0, 41),
        )
        # grid nodes carry only the intermediate-stage tabulation error
        for p in chain.p_grid[:: 8]:
            assert chain(float(p)) == pytest.approx(8.0 * float(p) ** 2, rel=1e-3)
        # off-node queries add the final grid's own interpolation error
        assert chain(2.0) == pytest.approx(32.0, rel=1e-2)

    def test_growth_chain_nested_dense_oracle(self):
        envs = [PowerGrowth(growth=0.5), PowerGrowth(growth=0.5), PowerGrowth(growth=1.0)]
        chain = otimes_chain(envs, p_grid=np.linspace(1.0, 6.0, 21))
        for p in [2.0, 4.0]:
            # oracle: two-level dense-grid minimisation of the exact forms
            best = math.inf
            for a in np.linspace(1e-3, 1 - 1e-3, 400):
                inner = growth_closed_form(1, 0.5, 1, 0.5, p / a)
                v = inner * (p / (1 - a))
                best = min(best, v)
            assert chain(p) == pytest.approx(best, rel=2e-3)

    def test_pairwise_fold_nodes_are_exact(self):
        # with only one composition the tabulated values are direct minima of
        # closed forms, so the nodes match the exact formula tightly
        chain = otimes_chain(
            [PowerGrowth(growth=0.5), PowerGrowth(growth=0.5)],
            p_grid=np.linspace(1.0, 10.0, 19),
        )
        for p in chain.p_grid:
            assert chain(float(p)) == pytest.approx(2.0 * float(p), rel=1e-9)

    def test_infeasible_chain(self):
        with pytest.raises(ChainFeasibilityError):
            otimes_chain([Indicator(r=1.5), Indicator(r=1.5)])


def km_ref(p):
    return max(p, 2.0) * math.sqrt(2.0)


def ki_ref(p):
    q = max(p, 2.0)
    return 0.87 * q / math.log(q)


class TestGrowthConstants:
    def test_reference_values(self):
        km = GrowthConstant.martingale()
        ki = GrowthConstant.independent()
        assert km(3.0) == pytest.approx(3.0 * math.sqrt(2.0))
        assert ki(3.0) == pytest.approx(0.87 * 3.0 / math.log(3.0))
        # clamped below p = 2
        assert km(1.0) == km(2.0)
        assert ki(1.0) == ki(2.0)

    def test_positive(self):
        for p in [1.0, 2.0, 10.0, 100.0]:
            assert GrowthConstant.martingale()(p) > 0
            assert GrowthConstant.independent()(p) > 0


class TestZetaChain:
    def test_common_independent_arithmetic(self):
        chain = zeta_chain(
            DependenceRegime("common_independent"),
            [Indicator(r=8), Indicator(r=8)],
            p_grid=[2.0, 3.0],
        )
        want = ki_ref(3.0) * km_ref(3.0)
        assert chain.bound(3.0) == pytest.approx(want, rel=1e-12)
        assert chain.combined_r == pytest.approx(4.0)

    def test_martingale_base_case(self):
        nu = PowerSingularity(r=6, power=1.0 / 6.0)
        chain = zeta_chain(DependenceRegime("martingale"), [nu], p_grid=[1.5, 2.0, 4.0])
        for p in [1.5, 2.0, 4.0]:
            assert chain.bound(p) == pytest.approx(km_ref(p) * nu(p), rel=1e-12)

    def test_vector_vs_common_ratio(self):
        grid = [1.5, 2.0, 2.5, 3.0]
        nus = [Indicator(r=8), Indicator(r=8)]
        vec = zeta_chain(DependenceRegime("vector_independent"), nus, p_grid=grid)
        com = zeta_chain(DependenceRegime("common_independent"), nus, p_grid=grid)
        for p in grid:
            assert vec.bound(p) / com.bound(p) == pytest.approx(
                km_ref(p) / ki_ref(p), rel=1e-12
            )

    def test_explicit_solution_matches_recursion(self):
        # combined exponent for (6, 7, 8) is about 2.30; stay inside it
        grid = np.linspace(1.2, 2.2, 9)
        nus = [
            PowerSingularity(r=6, power=0.2),
            PowerSingularity(r=7, power=0.3),
            PowerSingularity(r=8, power=0.4),
        ]
        for tag, init in [("common_independent", ki_ref), ("vector_independent", km_ref)]:
            chain = zeta_chain(DependenceRegime(tag), nus, p_grid=grid)
            for p in grid:
                p = float(p)
                explicit = init(p) * km_ref(p) ** 2 * nus[0](p) * nus[1](p) * nus[2](p)
                assert chain.bound(p) == pytest.approx(explicit, rel=1e-12)

    def test_reverse_equals_forward_for_equal_inputs(self):
        nu = PowerSingularity(r=6, power=1.0 / 6.0)
        for tag in ["martingale", "common_independent", "inside_independent", "vector_independent"]:
            fwd = zeta_chain(DependenceRegime(tag, "forward"), [nu, nu, nu])
            rev = zeta_chain(DependenceRegime(tag, "reverse"), [nu, nu, nu])
            assert np.array_equal(fwd.bound.values, rev.bound.values)

    @pytest.mark.parametrize("d", [2, 3])
    def test_reverse_equals_forward_for_equal_tables(self, d):
        # equal natural tables compose exactly, at their breakpoints
        from polymoment import ParetoPower, natural_envelope

        nu = natural_envelope(ParetoPower(6.0), "martingale", points=65)
        fwd = zeta_chain(DependenceRegime("martingale", "forward"), [nu] * d, points=65)
        rev = zeta_chain(DependenceRegime("martingale", "reverse"), [nu] * d, points=65)
        for got, want in zip(rev.stages, fwd.stages):
            assert np.array_equal(got.p_grid, want.p_grid)
            assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))

    def test_monotone_in_inputs(self):
        grid = np.linspace(1.1, 2.6, 7)
        nu1 = PowerSingularity(r=6, power=0.3)
        nu2 = PowerSingularity(r=7, power=0.4)
        bigger = Scaled(nu1, 1.25)
        for tag in ["martingale", "common_independent"]:
            base = zeta_chain(DependenceRegime(tag), [nu1, nu2], p_grid=grid)
            grown = zeta_chain(DependenceRegime(tag), [bigger, nu2], p_grid=grid)
            for s_base, s_grown in zip(base.stages, grown.stages):
                ps = s_base.p_grid
                assert all(
                    s_grown(float(p)) >= s_base(float(p)) * (1 - 1e-9) for p in ps[:5]
                )

    def test_stage_supports_respect_partial_exponents(self):
        nus = [PowerSingularity(r=6, power=0.2), PowerSingularity(r=8, power=0.3)]
        chain = zeta_chain(DependenceRegime("martingale"), nus)
        partial = [6.0, combined_exponent([6.0, 8.0])]
        for stage, r_part in zip(chain.stages, partial):
            assert stage.support.upper <= r_part * (1 + 1e-9)

    def test_bounded_prefactor_example(self):
        # for pure power singularities the chain built with the growth
        # constant frozen at its value sqrt(2) * r on the combined interval
        # stays below 2^(d/2) r^d (r-p)^(-sum of powers); the exponent-
        # dependent constant would exceed that cap because inner stages are
        # evaluated beyond the combined exponent
        d1, d2 = 1.0 / 6.0, 1.0 / 8.0
        nus = [PowerSingularity(r=6, power=d1), PowerSingularity(r=8, power=d2)]
        r = combined_exponent([6.0, 8.0])
        frozen = GrowthConstant.custom(lambda p: r * math.sqrt(2.0))
        grid = np.linspace(1.2, 0.95 * r, 9)
        chain = zeta_chain(DependenceRegime("martingale"), nus, K_M=frozen, p_grid=grid)
        for p in grid:
            p = float(p)
            cap = 2.0 ** (2 / 2) * r ** 2 * (r - p) ** (-(d1 + d2))
            assert chain.bound(p) <= cap * (1 + 1e-9)

    def test_infeasible_combination(self):
        with pytest.raises(ChainFeasibilityError):
            zeta_chain(DependenceRegime("martingale"), [Indicator(r=1.5), Indicator(r=1.5)])

    def test_grid_outside_support_rejected(self):
        with pytest.raises(EnvelopeDomainError):
            zeta_chain(
                DependenceRegime("martingale"),
                [Indicator(r=4), Indicator(r=4)],
                p_grid=[1.0, 2.5],
            )

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            DependenceRegime("sideways")
        with pytest.raises(ValueError):
            DependenceRegime("martingale", "diagonal")


class TestDominantEnvelope:
    def test_support_edge(self):
        env = polynomial_dominant_envelope([(6.0, 0.0), (8.0, 0.0)], d=2)
        assert env.support.upper == pytest.approx(3.0)

    def test_moment_form_values(self):
        env = polynomial_dominant_envelope([(6.0, 0.0), (8.0, 0.0)], d=2)
        for p in env.p_grid[:: len(env.p_grid) // 6]:
            p = float(p)
            assert env(p) == pytest.approx(((3.0 - p) ** -1.0) ** (1.0 / p), rel=1e-12)

    def test_worst_factor_selection(self):
        # gamma_bar maximises over the smallest tail index only
        env = polynomial_dominant_envelope([(6.0, 0.0), (8.0, 5.0)], d=2, p_grid=[1.5, 2.0])
        p = 2.0
        assert env(p) == pytest.approx(((3.0 - p) ** -1.0) ** (1.0 / p), rel=1e-12)

    def test_single_factor_reduction(self):
        # d = 1 reduces to the plain regular-variation moment asymptotic
        r, gamma = 5.0, 0.4
        ps = [1.5, 2.5, 4.0]
        env = polynomial_dominant_envelope([(r, gamma)], d=1, p_grid=ps)
        for p in ps:
            want = ((r - p) ** (-(gamma + 1.0))) ** (1.0 / p)
            assert env(p) == pytest.approx(want, rel=1e-12)

    def test_degree_exceeds_index(self):
        with pytest.raises(ValueError):
            polynomial_dominant_envelope([(2.0, 0.0)], d=2)


class TestDoobAndGoodLambda:
    def test_doob_factor(self):
        env = doob_maximal_envelope(Indicator(r=4))
        assert env(2.0) == pytest.approx(2.0)
        assert env(3.0) == pytest.approx(1.5)
        # the factor tends to 1 for large exponents
        wide = doob_maximal_envelope(Indicator(r=200))
        assert wide(100.0) == pytest.approx(100.0 / 99.0)

    def test_doob_rejects_p_at_most_one(self):
        env = doob_maximal_envelope(Indicator(r=4))
        with pytest.raises(EnvelopeDomainError):
            env(1.0)
        with pytest.raises(EnvelopeDomainError):
            env(0.5)

    def test_good_lambda_exponent(self):
        env = good_lambda_envelope(Indicator(r=10), beta=2.0, epsilon=1.0 / 16.0)
        assert env.support.upper == pytest.approx(4.0)
        assert env(3.0) == pytest.approx(1.0)
        assert env(3.5) == pytest.approx(0.5 ** -0.25, rel=1e-12)

    def test_good_lambda_requires_exponent_above_one(self):
        with pytest.raises(ValueError):
            good_lambda_envelope(Indicator(r=10), beta=2.0, epsilon=0.9)


class TestHoelderAndSharpness:
    def test_product_moment_dominated_closed_form(self):
        # xi = eps^(1/6), eta = xi^2 = eps^(1/3) share the same eps; their
        # product has the combined exponent 2 and the composed envelope
        # dominates its exact moments
        grid = np.linspace(1.0, 5.9, 257)
        nu1 = tabulate_envelope(
            lambda p: natural_moments_pareto_power(6.0, p), grid, upper=6.0, upper_closed=False
        )
        grid2 = np.linspace(1.0, 2.95, 257)
        nu2 = tabulate_envelope(
            lambda p: natural_moments_pareto_power(3.0, p), grid2, upper=3.0, upper_closed=False
        )
        for p in [1.0, 1.3, 1.6, 1.9]:
            exact_product = natural_moments_pareto_power(2.0, p)
            assert exact_product <= otimes(nu1, nu2, p) * (1 + 1e-6)

    def test_product_moment_dominated_monte_carlo(self):
        rng = np.random.default_rng(99)
        eps = 1.0 / (1.0 - rng.random(200000))
        xi = eps ** (1.0 / 6.0)
        eta = eps ** (1.0 / 3.0)
        grid = np.linspace(1.0, 5.9, 129)
        nu1 = tabulate_envelope(lambda p: natural_moments_pareto_power(6.0, p), grid)
        nu2 = tabulate_envelope(
            lambda p: natural_moments_pareto_power(3.0, p), np.linspace(1.0, 2.95, 129)
        )
        from polymoment import empirical_moments

        for p in [1.2, 1.6]:
            est = empirical_moments(xi * eta, p)
            assert est.value - 3 * est.stderr <= otimes(nu1, nu2, p)

    def test_shared_factor_exactness(self):
        # |xi eta|_p matches (r/(r-p))^(1/p) with r the combined exponent
        rng = np.random.default_rng(4242)
        eps = 1.0 / (1.0 - rng.random(400000))
        xi = eps ** (1.0 / 4.0)
        eta = eps ** (1.0 / 4.0)
        from polymoment import empirical_moments

        for p in [1.0, 1.5]:
            est = empirical_moments(xi * eta, p)
            want = natural_moments_pareto_power(2.0, p)
            assert abs(est.value - want) <= 3 * est.stderr

    def test_independent_product_ratio_near_one(self):
        rng = np.random.default_rng(77)
        xi = (1.0 - rng.random(400000)) ** (-1.0 / 6.0)
        eta = (1.0 - rng.random(400000)) ** (-1.0 / 8.0)
        from polymoment import empirical_moments

        for p in [2.0, 3.0]:
            est = empirical_moments(xi * eta, p)
            want = natural_moments_pareto_power(6.0, p) * natural_moments_pareto_power(8.0, p)
            assert abs(est.value / want - 1.0) <= 4 * est.stderr / want + 0.02


# ---------------------------------------------------------------------------
# the composition fold against the two loops it replaced
# ---------------------------------------------------------------------------


def ref_otimes_chain(envs, p_grid=None, points=257):
    """The left fold as its own loop (before otimes_chain shared the zeta fold), one exponent at a time."""
    from polymoment.calculus import _stage_grid

    envs = list(envs)
    if len(envs) == 1:
        return envs[0]
    uppers = [e.support.upper for e in envs]
    final_grid = None if p_grid is None else np.asarray(p_grid, dtype=float)
    p_max_hint = None if final_grid is None else float(final_grid[-1])
    acc = envs[0]
    r_acc = uppers[0]
    eff_acc = acc.evaluable_upper()[0]
    for k, nxt in enumerate(envs[1:], start=2):
        r_acc = combined_exponent([r_acc, uppers[k - 1]])
        eff_acc = combined_exponent([eff_acc, nxt.evaluable_upper()[0]])
        last = k == len(envs)
        if last and final_grid is not None:
            grid = final_grid
        else:
            grid = _stage_grid(eff_acc, r_acc, points, p_max_hint, final=last)
        vals = np.array([ref_compose(acc, nxt, float(p)).value for p in grid])
        assert np.all(np.isfinite(vals))
        acc = Tabulated(grid, vals, upper=r_acc if math.isfinite(r_acc) else None)
        eff_acc = acc.evaluable_upper()[0]
    return acc


def ref_zeta_stages(regime, nus, points=257, p_grid=None):
    """Stages of zeta_chain with its own composition loop, default growth constants."""
    from polymoment.calculus import _PRODUCT_TAGS, _stage_grid

    K_M = GrowthConstant.martingale()
    K_I = GrowthConstant.independent()
    nus = list(nus)
    r_comb = combined_exponent([nu.support.upper for nu in nus])
    order = nus if not regime.reverse else list(reversed(nus))
    if regime.tag in _PRODUCT_TAGS:
        eff_comb = combined_exponent([nu.evaluable_upper()[0] for nu in nus])
    else:
        eff_comb = order[0].evaluable_upper()[0]
        for nu in order[1:]:
            h = combined_exponent([eff_comb, nu.evaluable_upper()[0]])
            eff_comb = 1.0 + (1.0 - 1e-6) * (h - 1.0) if math.isfinite(h) else h
    if p_grid is None:
        final_grid = _stage_grid(eff_comb, r_comb, points, None, final=True)
    else:
        final_grid = np.asarray(p_grid, dtype=float)
    p_max_hint = float(final_grid[-1])
    init_K = K_M if regime.tag in ("martingale", "vector_independent") else K_I
    d = len(order)

    def stage(grid, vals, upper):
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise ChainFeasibilityError("non-finite stage")
        return Tabulated(grid, vals, upper=upper if math.isfinite(upper) else None)

    stages = []
    if regime.tag in _PRODUCT_TAGS:
        km_vals = np.array([K_M(p) for p in final_grid])
        vals = np.array([init_K(p) * order[0](p) for p in final_grid])
        stages.append(stage(final_grid, vals, r_comb))
        for m in range(1, d):
            nu_vals = np.array([order[m](p) for p in final_grid])
            vals = km_vals * vals * nu_vals
            stages.append(stage(final_grid, vals, r_comb))
        return stages
    r_acc = order[0].support.upper
    eff_acc = order[0].evaluable_upper()[0]
    grid = final_grid if d == 1 else _stage_grid(eff_acc, r_acc, points, p_max_hint, final=False)
    vals = np.array([init_K(p) * order[0](p) for p in grid])
    stages.append(stage(grid, vals, r_acc))
    for m in range(1, d):
        nxt = order[m]
        r_acc = combined_exponent([r_acc, nxt.support.upper])
        eff_acc = combined_exponent([stages[-1].evaluable_upper()[0], nxt.evaluable_upper()[0]])
        last = m == d - 1
        grid = final_grid if last else _stage_grid(eff_acc, r_acc, points, p_max_hint, final=False)
        vals = np.array([K_M(p) * ref_compose(stages[-1], nxt, float(p)).value for p in grid])
        stages.append(stage(grid, vals, r_acc))
    return stages


def assert_same_stage(got, want):
    assert isinstance(got, Tabulated)
    assert np.array_equal(got.p_grid, want.p_grid)
    assert np.array_equal(got.values, want.values)
    assert got.upper == want.upper
    assert got.support == want.support


def _natural_pareto(tag):
    from polymoment import ParetoPower, natural_envelope

    return natural_envelope(ParetoPower(r1=8.0), tag, points=33)


FOLD_TAGS = ["martingale", "common_independent", "inside_independent", "vector_independent"]


class TestCompositionFold:
    """otimes_chain and every zeta_chain stage are bit-identical to the separate loops.

    The loops compose one exponent at a time (``ref_compose``): two tables by
    their exact one-row composition, any other pair by the scalar search.
    """

    @pytest.mark.parametrize("with_grid", [False, True])
    def test_otimes_chain(self, with_grid):
        envs = [
            PowerGrowth(growth=0.5),
            PowerSingularity(r=6.0, power=1.0 / 6.0),
            _natural_pareto("martingale"),
        ]
        grid = np.linspace(1.0, 3.0, 9) if with_grid else None
        got = otimes_chain(envs, p_grid=grid, points=33)
        assert_same_stage(got, ref_otimes_chain(envs, p_grid=grid, points=33))
        assert_same_stage(otimes_chain(envs[:2]), ref_otimes_chain(envs[:2]))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("tag", FOLD_TAGS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_zeta_chain_stages(self, d, tag, direction):
        # an infinite-support input first (forward) or last (reverse), and a
        # natural envelope of sampled cells
        inputs = [PowerGrowth(growth=0.5), PowerSingularity(r=6.0, power=1.0 / 6.0)]
        inputs = inputs[: d - 1] + [_natural_pareto(tag)]
        regime = DependenceRegime(tag, direction)
        r_comb = combined_exponent([nu.support.upper for nu in inputs])
        for grid in (None, np.linspace(1.0, 0.8 * r_comb, 7)):
            try:
                want = ref_zeta_stages(regime, inputs, points=33, p_grid=grid)
            except ChainFeasibilityError:
                # the reference's default grid outruns a tabulated growth
                # first stage; zeta_chain ends its default grid below it
                assert grid is None
                chain = zeta_chain(regime, inputs, points=33)
                want = ref_zeta_stages(regime, inputs, points=33, p_grid=chain.bound.p_grid)
            else:
                chain = zeta_chain(regime, inputs, p_grid=grid, points=33)
            assert len(chain.stages) == len(want) == d
            for got, ref in zip(chain.stages, want):
                assert_same_stage(got, ref)

    def test_zeta_chain_default_points_and_grid(self):
        inputs = [PowerSingularity(r=6.0, power=1.0 / 6.0), _natural_pareto("martingale")]
        regime = DependenceRegime("martingale", "forward")
        for grid in (None, np.linspace(1.0, 3.0, 5)):
            chain = zeta_chain(regime, inputs, p_grid=grid)
            for got, ref in zip(chain.stages, ref_zeta_stages(regime, inputs, p_grid=grid)):
                assert_same_stage(got, ref)
