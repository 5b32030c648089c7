import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from polymoment import (
    CoefficientTensor,
    CustomQuantile,
    DependenceRegime,
    DoubleExpDiscrete,
    ExperimentPlan,
    Indicator,
    LogPerturbedPareto,
    LogPowerOnly,
    ParetoPower,
    PolynomialModel,
    Rademacher,
    Scaled,
    SlowlyVarying,
    Tabulated,
    Weibull,
    doob_experiment,
    empirical_moments,
    enumerate_indices,
    natural_envelope,
    natural_moments_pareto_power,
    run_experiment,
    sample_Q,
    sample_R,
    sample_cells,
    sample_reverse_V,
    save_samples,
    variance_of_Q,
)
from polymoment.polymodel import (
    BLOCK_ELEMENTS,
    InputDistribution,
    Sampler,
    _stream,
    batch_plan,
    cell_abs_moment,
    cell_loc_scale,
    cell_sigma,
    iter_q_batches,
    model_from_config,
    model_to_config,
    power_mean,
)


def common_model(d, n, dists, tensor=None, sharing="none", tag="common_independent",
                 direction="forward", multiplicities=None):
    slots = len(multiplicities) if multiplicities else d
    if tensor is None:
        tensor = CoefficientTensor.uniform(slots, n)
    return PolynomialModel(
        d=d,
        n=n,
        coefficients=tensor,
        regime=DependenceRegime(tag, direction),
        distributions=tuple(dists),
        sharing=sharing,
        multiplicities=multiplicities,
    )


class TestIndexEnumeration:
    def test_pairs(self):
        assert list(enumerate_indices(2, 3)) == [(1, 2), (1, 3), (2, 3)]

    def test_count(self):
        assert sum(1 for _ in enumerate_indices(3, 10)) == 120

    def test_errors(self):
        with pytest.raises(ValueError):
            list(enumerate_indices(4, 3))


class TestCoefficientTensor:
    def test_uniform_is_normalized(self):
        t = CoefficientTensor.uniform(2, 5)
        assert t.normalized
        assert t.norm2() == pytest.approx(1.0)

    def test_single(self):
        t = CoefficientTensor.single(2, 5)
        assert t.entries == {(1, 2): 1.0}
        assert t.normalized

    def test_random_unit(self):
        t = CoefficientTensor.random_unit(2, 6, np.random.default_rng(1))
        assert t.norm2() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientTensor(2, 3, {(2, 2): 1.0})
        with pytest.raises(ValueError):
            CoefficientTensor(2, 3, {(1, 4): 1.0})
        with pytest.raises(ValueError):
            CoefficientTensor(2, 3, {(1,): 1.0})

    def test_restrict(self):
        t = CoefficientTensor.uniform(2, 4)
        sub = t.restrict(2, 4)
        assert set(sub.entries) == {(2, 3), (2, 4), (3, 4)}


class TestVarianceIdentity:
    def test_unit_normalised(self):
        t = CoefficientTensor.uniform(2, 3)
        assert variance_of_Q(t, np.ones((3, 2))) == pytest.approx(1.0)

    def test_single_entry(self):
        t = CoefficientTensor(2, 3, {(1, 2): 1.0})
        sig = np.ones((3, 2))
        sig[0, 0] = 2.0
        sig[1, 1] = 3.0
        assert variance_of_Q(t, sig) == pytest.approx(36.0)

    def test_empty_tensor(self):
        t = CoefficientTensor(2, 3, {})
        assert variance_of_Q(t, np.ones((3, 2))) == 0.0

    def test_shape_mismatch(self):
        t = CoefficientTensor.uniform(2, 5)
        with pytest.raises(ValueError):
            variance_of_Q(t, np.ones((3, 2)))


class TestDistributions:
    def test_pareto_closed_forms_match_quadrature(self):
        # LogPerturbedPareto with kappa = 0 is the same variable as
        # ParetoPower, so the generic quadrature must match the closed form
        pp = ParetoPower(4.0)
        lp = LogPerturbedPareto(4.0, 0.0)
        for p in [1.0, 2.0, 3.0, 3.5]:
            assert lp.raw_abs_moment(p) == pytest.approx(pp.raw_abs_moment(p), rel=1e-9)
        assert lp.mean() == pytest.approx(pp.mean(), rel=1e-9)

    def test_pareto_mean(self):
        assert ParetoPower(4.0).mean() == pytest.approx(4.0 / 3.0)

    def test_log_power_gamma_moments(self):
        d = LogPowerOnly(mu=1.5)
        assert d.raw_abs_moment(2.0) == pytest.approx(math.gamma(4.0))
        rng = np.random.default_rng(5)
        xs = d.survival_quantile(1.0 - rng.random(200000))
        est = empirical_moments(xs, 2.0)
        assert abs(est.value - math.gamma(4.0) ** 0.5) <= 3 * est.stderr

    def test_weibull_moments(self):
        d = Weibull(c=2.0, alpha=1.5)
        want = 2.0 ** (-2.0 / 1.5) * math.gamma(1.0 + 2.0 / 1.5)
        assert d.raw_abs_moment(2.0) == pytest.approx(want, rel=1e-12)

    def test_rademacher(self):
        d = Rademacher()
        assert d.mean() == 0.0
        assert d.variance() == 1.0
        vals = d.survival_quantile(np.array([0.2, 0.8]))
        assert set(vals.tolist()) == {1.0, -1.0}

    def test_double_exp_atoms(self):
        d = DoubleExpDiscrete(r=4.0, beta=1.0)
        vals, probs = d.atoms()
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.diff(vals) > 0)
        # sampler hits the atoms with the right frequencies
        rng = np.random.default_rng(3)
        xs = d.survival_quantile(1.0 - rng.random(100000))
        top = float(np.mean(xs == vals[0]))
        assert abs(top - probs[0]) < 3 * math.sqrt(probs[0] * (1 - probs[0]) / 100000)

    def test_double_exp_moment_singularity_order(self):
        # the p-th norm has a pure power singularity of order beta at the
        # edge (the tail keeps log-periodic spikes: the moment description
        # is smoother than the tail one)
        r, beta = 4.0, 1.5
        d = DoubleExpDiscrete(r=r, beta=beta)
        gaps = np.array([0.2, 0.1, 0.05, 0.02, 0.01])
        vals = np.array(
            [d.raw_abs_moment(r - g) ** (1.0 / (r - g)) * g ** beta for g in gaps]
        )
        assert vals.max() / vals.min() < 5.0

    def test_centered_standardized_transforms(self):
        d = ParetoPower(6.0, centered=True, standardized=True)
        assert cell_sigma(d, symmetrized=False) == pytest.approx(1.0)
        assert cell_abs_moment(d, [2.0], symmetrized=False)[0] == pytest.approx(1.0, rel=1e-9)

    def test_symmetrized_scale(self):
        d = ParetoPower(6.0, standardized=True)
        # symmetrised cells have unit second moment
        assert cell_abs_moment(d, [2.0], symmetrized=True)[0] == pytest.approx(1.0, rel=1e-12)

    def test_custom_atoms(self):
        d = CustomQuantile(
            quantile=lambda u: np.where(u < 0.25, 1.0, np.where(u < 0.75, 0.0, -1.0)),
            atom_values=(-1.0, 0.0, 1.0),
            atom_probs=(0.25, 0.5, 0.25),
        )
        assert d.mean() == pytest.approx(0.0)
        assert d.variance() == pytest.approx(0.5)

    def test_custom_quantiles_compare_by_identity(self):
        # equal flags, different quantiles: each gets its own cached
        # (loc, scale) and its own natural table
        one = CustomQuantile(quantile=lambda u: u ** -0.25, boundary=4.0, centered=True)
        two = CustomQuantile(quantile=lambda u: 2 * u ** -0.25, boundary=4.0, centered=True)
        assert one != two and one == one
        assert cell_loc_scale(one, False)[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert cell_loc_scale(two, False)[0] == pytest.approx(8.0 / 3.0, rel=1e-12)
        # |2X - 8/3| = 2 |X - 4/3|
        table_one = natural_envelope(one, "common_independent", points=17)
        table_two = natural_envelope(two, "common_independent", points=17)
        assert np.allclose(table_two.values, 2.0 * table_one.values, rtol=1e-9)


class TestSampling:
    def test_single_rademacher(self):
        model = common_model(1, 1, [Rademacher()], tensor=CoefficientTensor.single(1, 1))
        q = sample_Q(model, 0, 2000)
        assert set(np.unique(q)) <= {-1.0, 1.0}
        assert abs(q.mean()) < 0.1

    def test_determinism(self):
        model = common_model(2, 4, [ParetoPower(6.0), ParetoPower(8.0)])
        a = sample_Q(model, 42, 5000)
        b = sample_Q(model, 42, 5000)
        assert np.array_equal(a, b)
        c = sample_Q(model, 43, 5000)
        assert not np.array_equal(a, c)

    def test_rademacher_exact_enumeration(self):
        model = common_model(2, 3, [Rademacher(), Rademacher()])
        factors, probs = Sampler(model).enumerate()
        assert factors.shape[-1] == 2 ** 6  # time-major: states last
        assert probs.sum() == pytest.approx(1.0)
        q = sample_Q(model, 1, 400000)
        for p in [1, 2, 3, 4]:
            from polymoment.mcverify import brute_force_moments

            exact = brute_force_moments(model, [p])[0]
            est = empirical_moments(q, p)
            assert abs(est.power_mean - exact) <= 4 * est.power_mean_stderr

    def test_variance_identity_light_tails(self):
        for dists in ([Rademacher(), Rademacher()], [Weibull(1.0, 2.0, centered=True), Weibull(1.0, 2.0, centered=True)]):
            model = common_model(2, 4, dists)
            q = sample_Q(model, 7, 200000)
            want = variance_of_Q(model.coefficients, model.sigma_matrix())
            est_var = q.var()
            se = q.var() * math.sqrt(2.0 / q.size) * 3  # crude but adequate
            assert abs(est_var - want) < max(4 * se, 0.05 * want)

    def test_cell_sigma_is_the_standard_deviation(self):
        # X = eps^(1/6) has E X = 6/5 and E X^2 = 6/4, so sd^2 = 0.06 (the rms would be 1.5)
        assert cell_sigma(ParetoPower(6.0), symmetrized=False) == pytest.approx(math.sqrt(0.06))

    def test_sigma_matrix_needs_mean_zero_cells(self):
        # uncentered cells have cross terms: here the identity would read 2.25,
        # while the exact Var Q is about 0.29
        model = common_model(2, 3, [ParetoPower(6.0), ParetoPower(6.0)])
        with pytest.raises(ValueError, match="nonzero mean"):
            model.sigma_matrix()

    def test_sigma_matrix_needs_a_multilinear_model(self):
        # X^2 - E X^2 of a centered standardized Pareto(8) has variance 21.7, not 1
        dist = ParetoPower(8.0, centered=True, standardized=True)
        model = common_model(2, 5, [dist], multiplicities=(2,))
        with pytest.raises(ValueError, match="multilinear"):
            model.sigma_matrix()

    def test_martingale_conditional_mean_zero(self):
        model = common_model(
            2, 6,
            [ParetoPower(6.0, standardized=True), ParetoPower(8.0, standardized=True)],
            tag="martingale",
        )
        cells = sample_cells(model, 11, 150000)
        # library of bounded, past-measurable test functions
        past2 = cells[:, :2, :].sum(axis=(1, 2))
        tests = [np.sign(past2), np.tanh(past2), np.ones(cells.shape[0])]
        for g in tests:
            for m in range(2):
                prod = cells[:, 2, m] * g
                se = prod.std() / math.sqrt(prod.size)
                assert abs(prod.mean()) <= 3 * se

    def test_reverse_martingale_conditional_mean_zero(self):
        model = common_model(
            2, 6,
            [ParetoPower(6.0, standardized=True), ParetoPower(8.0, standardized=True)],
            tag="martingale", direction="reverse",
        )
        cells = sample_cells(model, 13, 150000)
        # conditioning on the future now
        future = cells[:, 4:, :].sum(axis=(1, 2))
        for m in range(2):
            prod = cells[:, 3, m] * np.sign(future)
            se = prod.std() / math.sqrt(prod.size)
            assert abs(prod.mean()) <= 3 * se

    def test_sign_flip_invariance(self):
        # flipping the sign of one coefficient leaves |Q| distribution
        # unchanged for sign-symmetric inputs
        tensor = CoefficientTensor.uniform(2, 4)
        flipped_entries = dict(tensor.entries)
        first = next(iter(flipped_entries))
        flipped_entries[first] = -flipped_entries[first]
        flipped = CoefficientTensor(2, 4, flipped_entries)
        dists = [Rademacher(), Rademacher()]
        # round away float jitter so the discrete atoms coincide exactly
        q1 = np.round(np.abs(sample_Q(common_model(2, 4, dists), 5, 40000)), 9)
        q2 = np.round(
            np.abs(sample_Q(common_model(2, 4, dists, tensor=flipped), 6, 40000)), 9
        )
        ks = stats.ks_2samp(q1, q2)
        assert ks.pvalue > 0.001

    def test_shared_all_moment_boundary(self):
        # with every cell driven by one draw the sum is a power of a single
        # Pareto variable: moments exist only below the combined exponent 2
        model = common_model(
            2, 4, [ParetoPower(4.0), ParetoPower(4.0)], sharing="all", tag="martingale"
        )
        assert model.combined_r == pytest.approx(2.0)
        q = np.abs(sample_Q(model, 3, 100000))
        est_lo = empirical_moments(q, 1.5)
        assert math.isfinite(est_lo.value)
        # direct check: |Q| = sum b * eps^(1/2) has the Pareto index 2
        tail_ratio = float(np.mean(q > 50.0) / np.mean(q > 25.0))
        assert tail_ratio == pytest.approx(0.25, abs=0.15)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            common_model(2, 4, [Rademacher(), Rademacher()], sharing="vectors")

    def test_moment_boundary_combined(self):
        model = common_model(2, 4, [ParetoPower(6.0), ParetoPower(8.0)])
        assert model.combined_r == pytest.approx(1.0 / (1 / 6 + 1 / 8))


class TestReverseWindow:
    def test_full_window_matches_sample_q(self):
        model = common_model(2, 5, [ParetoPower(6.0), ParetoPower(8.0)])
        v = sample_reverse_V(model, 21, 30000, 1, 5)
        q = sample_Q(model, 21, 30000)
        assert np.array_equal(v, q)

    def test_minimal_window_single_tuple(self):
        model = common_model(2, 5, [Rademacher(), Rademacher()])
        v = sample_reverse_V(model, 2, 10000, 4, 5)
        b = model.coefficients.entries[(4, 5)]
        assert set(np.round(np.abs(v), 12).tolist()) <= {round(abs(b), 12)}

    def test_window_variance_matches_restricted_tensor(self):
        model = common_model(2, 6, [Rademacher(), Rademacher()])
        v = sample_reverse_V(model, 9, 300000, 3, 6)
        sub = model.coefficients.restrict(3, 6)
        want = variance_of_Q(sub, np.ones((6, 2)))
        se = v.var() * math.sqrt(2.0 / v.size) * 4
        assert abs(v.var() - want) < max(se, 0.02 * want)

    def test_uniform_tensor_under_a_window_takes_the_recursion(self):
        from polymoment.cli import load_config

        cfg = load_config(None, "pareto_reverse_window")
        model = model_from_config(cfg["model"])
        window = tuple(cfg["plan"]["window"])
        assert window == (2, 6) and model.coefficients == CoefficientTensor.uniform(model.d, model.n)
        sampler = Sampler(model, window)
        assert sampler.coef is not None
        factors = sampler.factors(sampler.cells(0, 0, 4096))
        # the term-by-term sum over the window's tuples
        want = np.zeros(4096)
        for I, b in sorted(model.coefficients.restrict(*window).entries.items()):
            term = np.full(4096, b)
            for m, i in enumerate(I):
                term = term * factors[i - window[0], m]
            want += term
        np.testing.assert_allclose(sampler.q(factors), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_window_too_small(self):
        model = common_model(2, 5, [Rademacher(), Rademacher()])
        with pytest.raises(ValueError):
            sample_reverse_V(model, 0, 2000, 5, 5)


class TestPolynomialModels:
    def test_off_diagonal_reduces_to_q(self):
        dists = [ParetoPower(6.0, centered=True), ParetoPower(6.0, centered=True)]
        q_model = common_model(2, 4, dists)
        r_model = common_model(2, 4, dists, multiplicities=(1, 1))
        q = sample_Q(q_model, 17, 150000)
        r = sample_R(r_model, 17, 150000)
        assert np.allclose(q, r)

    def test_rademacher_diagonal_degenerates(self):
        model = common_model(
            2, 5, [Rademacher()], multiplicities=(2,),
            tensor=CoefficientTensor.uniform(1, 5),
        )
        r = sample_R(model, 1, 5000)
        assert np.all(r == 0.0)

    def test_diagonal_variance_quadrature_oracle(self):
        dist = ParetoPower(6.0)
        model = common_model(
            2, 10, [dist], multiplicities=(2,),
            tensor=CoefficientTensor.uniform(1, 10),
        )
        r = sample_R(model, 23, 400000)
        # oracle: Var(X^2) for the uncentered Pareto-power by closed moments
        ex2 = dist.raw_abs_moment(2.0)
        ex4 = dist.raw_abs_moment(4.0)
        want = ex4 - ex2 ** 2  # sum b^2 = 1
        est = empirical_moments(r, 2.0)
        assert abs(est.power_mean - want) <= 4 * est.power_mean_stderr

    def test_multiplicity_validation(self):
        with pytest.raises(ValueError):
            common_model(2, 4, [ParetoPower(6.0)], multiplicities=(3,))
        with pytest.raises(ValueError):
            common_model(
                2, 4, [ParetoPower(6.0)], multiplicities=(2,), tag="martingale"
            )


class TestNaturalEnvelope:
    def test_dominates_sampled_cells(self):
        for tag in ["common_independent", "martingale"]:
            dist = ParetoPower(6.0, centered=True, standardized=True)
            env = natural_envelope(dist, tag)
            model = common_model(1, 3, [dist], tag=tag)
            cells = sample_cells(model, 31, 200000)
            xs = cells[:, 0, 0]
            for p in [1.5, 2.5, 4.0]:
                est = empirical_moments(xs, p)
                assert est.value - 3 * est.stderr <= env(p)

    def test_pareto_closed_form_nodes(self):
        dist = ParetoPower(4.0)
        env = natural_envelope(dist, "common_independent")
        for p in env.p_grid[:: 32]:
            p = float(p)
            assert env(p) == pytest.approx(natural_moments_pareto_power(4.0, p), rel=1e-9)


class TestSerialization:
    def test_save_samples_roundtrip(self, tmp_path):
        values = np.array([1.5, -2.25, 3.75])
        f64 = tmp_path / "x.f64"
        save_samples(str(f64), values, "f64")
        assert np.array_equal(np.fromfile(f64, dtype="<f8"), values)
        csv = tmp_path / "x.csv"
        save_samples(str(csv), values, "csv")
        assert np.allclose(np.loadtxt(csv), values)

    def test_model_config_roundtrip(self):
        model = common_model(
            2, 5,
            [ParetoPower(6.0, centered=True, standardized=True),
             LogPerturbedPareto(4.0, 0.5)],
            tag="inside_independent", sharing="vectors",
        )
        cfg = model_to_config(model)
        back = model_from_config(cfg)
        assert back == model

    def test_config_rebuilds_the_model(self):
        # a report embeds model_to_config, so its config must rebuild the very
        # model that ran: "uniform" only for 1/sqrt(C(n, d)) entries, not for
        # every tensor whose entries are equal
        dists = [ParetoPower(6.0, centered=True), ParetoPower(8.0, centered=True)]
        ones = CoefficientTensor(2, 3, dict.fromkeys(enumerate_indices(2, 3), 1.0))
        # all equal and unit-norm, but not the exact uniform 1/sqrt(3)
        third = math.sqrt(1.0 / 3.0)
        equal = CoefficientTensor(2, 3, dict.fromkeys(enumerate_indices(2, 3), third))
        assert third != 1.0 / math.sqrt(3.0) and equal.normalized
        dist_cfg = [{"kind": "pareto_power", "r1": 6.0}, {"kind": "pareto_power", "r1": 8.0}]

        def from_cfg(coefficients, distributions=dist_cfg):
            return model_from_config(
                {"d": 2, "n": 3, "coefficients": coefficients, "distributions": distributions}
            )

        cases = {
            "uniform": (common_model(2, 3, dists), "uniform"),
            "ones": (common_model(2, 3, dists, tensor=ones), "entries"),
            "normalized": (common_model(2, 3, dists, tensor=equal), "entries"),
            "single_default": (from_cfg({"kind": "single"}), "single"),
            "single_index": (from_cfg({"kind": "single", "index": [2, 3]}), "single"),
            "entries": (from_cfg({"kind": "entries", "entries": [[[1, 2], 0.5], [[2, 3], -1.5]]}),
                        "entries"),
            "multiplicities": (
                common_model(2, 5, [Rademacher()], multiplicities=(2,),
                             tensor=CoefficientTensor.uniform(1, 5)),
                "uniform",
            ),
            "slowvar_null": (
                from_cfg({}, [{"kind": "log_perturbed_pareto", "r": 4.0, "kappa": 0.5,
                               "slowvar": None}] * 2),
                "uniform",
            ),
        }
        assert cases["single_default"][0].coefficients.entries == {(1, 2): 1.0}
        assert cases["single_index"][0].coefficients.entries == {(2, 3): 1.0}
        for name, (model, kind) in cases.items():
            cfg = model_to_config(model)
            assert cfg["coefficients"]["kind"] == kind, name
            assert model_from_config(json.loads(json.dumps(cfg))) == model, name

    def test_unknown_keys_rejected(self):
        cfg = model_to_config(common_model(2, 3, [Rademacher(), Rademacher()]))
        cfg["extra"] = 1
        with pytest.raises(ValueError):
            model_from_config(cfg)


class TestEnumerationGuards:
    def test_state_space_too_large(self):
        model = common_model(2, 13, [Rademacher(), Rademacher()])
        with pytest.raises(ValueError):
            Sampler(model).enumerate()

    def test_continuous_inputs_rejected(self):
        model = common_model(2, 3, [ParetoPower(6.0), ParetoPower(6.0)])
        with pytest.raises(ValueError):
            Sampler(model).enumerate()


# ---------------------------------------------------------------------------
# reference sampler: the replication-major (size, rows, slots) layout and Q
# loops the library used before cells became time-major; the library must
# reproduce it bit for bit
# ---------------------------------------------------------------------------


def ref_cells(model, seed, b, size, window=None):
    i_lo, i_hi = (1, model.n) if window is None else window
    rows, slots = i_hi - i_lo + 1, model.slots
    if model.sharing == "none":
        keys = np.arange(rows * slots).reshape(rows, slots)
    elif model.sharing == "vectors":
        keys = np.repeat(np.arange(rows)[:, None], slots, axis=1)
    else:
        keys = np.zeros((rows, slots), dtype=np.int64)
    nkeys = int(keys.max()) + 1
    gen = _stream(seed, b)
    u_mag = 1.0 - gen.random((size, nkeys))
    sym = model.regime.tag in ("martingale", "vector_independent")
    if sym:
        signs = np.where(gen.random((size, nkeys)) < 0.5, -1.0, 1.0)
    cells = np.empty((size, rows, slots))
    for m, dist in enumerate(model.distributions):
        loc, scale = cell_loc_scale(dist, sym)
        raw = dist.survival_quantile(u_mag[:, keys[:, m]])
        if sym:
            cells[:, :, m] = np.abs(raw) / scale * signs[:, keys[:, m]]
        else:
            cells[:, :, m] = (raw - loc) / scale
    if not sym:
        return cells
    order = range(rows - 1, -1, -1) if model.regime.reverse else range(rows)
    if model.regime.tag == "vector_independent":
        sums = np.zeros((size, slots))
        count = 0
        for i in order:
            w = 1.0 + 0.5 * sums / count if count > 0 else np.ones((size, slots))
            signs_row = np.sign(cells[:, i, :])
            cells[:, i, :] *= w
            sums += signs_row
            count += 1
    else:
        total = np.zeros(size)
        count = 0
        for i in order:
            w = 1.0 + 0.5 * total / count if count > 0 else np.ones(size)
            signs_row = np.sign(cells[:, i, :])
            cells[:, i, :] *= w[:, None]
            total += signs_row.sum(axis=1)
            count += slots
    return cells


def ref_factors(model, cells):
    if model.multiplicities is None:
        return cells
    out = np.empty_like(cells)
    for l, k in enumerate(model.multiplicities):
        out[:, :, l] = cells[:, :, l] ** k - power_mean(model, l) if k else 1.0
    return out


def ref_q(cells, tensor, i_lo, running_max=False):
    size, rows, slots = cells.shape
    values = set(tensor.entries.values())
    if tensor.d == slots and len(values) == 1 and len(tensor.entries) == math.comb(rows, slots):
        c = values.pop()
        P = np.zeros((size, slots + 1))
        P[:, 0] = 1.0
        best = np.zeros(size)
        for k in range(rows):
            for m in range(min(k + 1, slots), 0, -1):
                P[:, m] += P[:, m - 1] * cells[:, k, m - 1]
            if running_max:
                np.maximum(best, np.abs(c * P[:, slots]), out=best)
        return best if running_max else c * P[:, slots]
    q = np.zeros(size)
    best = np.zeros(size)
    items = tensor.items_sorted()
    if running_max:
        items = sorted(items, key=lambda item: item[0][-1])
    last = None
    for I, b in items:
        if running_max and last is not None and I[-1] != last:
            np.maximum(best, np.abs(q), out=best)
        last = I[-1]
        term = np.full(size, b)
        for m, i in enumerate(I):
            term = term * cells[:, i - i_lo, m]
        q += term
    np.maximum(best, np.abs(q), out=best)
    return best if running_max else q


def ref_sample(model, seed, reps, window=None, running_max=False):
    i_lo, i_hi = (1, model.n) if window is None else window
    tensor = model.coefficients if window is None else model.coefficients.restrict(i_lo, i_hi)
    cells, qs = [], []
    for b, size in enumerate(batch_plan(reps)):
        c = ref_cells(model, seed, b, size, window)
        cells.append(c)
        qs.append(ref_q(ref_factors(model, c), tensor, i_lo, running_max))
    return np.concatenate(cells), np.concatenate(qs)


def assert_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


SMOKE_DISTS = {
    "pareto_power": ParetoPower(4.0),
    "log_perturbed_pareto": LogPerturbedPareto(4.0, 0.5, SlowlyVarying.log_power(1.0)),
    "log_power": LogPowerOnly(0.7),
    "double_exp_discrete": DoubleExpDiscrete(),
    "weibull": Weibull(1.0, 2.0),
    "rademacher": Rademacher(),
}
SMOKE_REGIMES = [
    ("common_independent", "none"),
    ("vector_independent", "none"),
    ("inside_independent", "none"),
    ("inside_independent", "vectors"),
    ("inside_independent", "all"),
    ("martingale", "none"),
    ("martingale", "vectors"),
    ("martingale", "all"),
]


def flat_plan(model, reps=2000, **kw):
    # a flat bound that nothing exceeds: these checks concern sampling only
    bound = Scaled(Indicator(r=10.0), 1e300)
    return ExperimentPlan(model=model, replications=reps, p_grid=(1.5,), bound=bound, **kw)


class TestSmokeMatrix:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("tag, sharing", SMOKE_REGIMES)
    @pytest.mark.parametrize("kind", sorted(SMOKE_DISTS))
    def test_case(self, kind, tag, sharing, direction):
        dist = SMOKE_DISTS[kind]
        model = common_model(2, 4, [dist, dist], sharing=sharing, tag=tag, direction=direction)
        assert model_from_config(model_to_config(model)) == model
        cells = sample_cells(model, 5, 2000)
        assert cells.shape == (2000, 4, 2)
        assert np.all(np.isfinite(cells))
        want_cells, want_q = ref_sample(model, 5, 2000)
        assert_identical(cells, want_cells)
        assert_identical(sample_Q(model, 5, 2000), want_q)
        one = run_experiment(flat_plan(model, seed=5, threads=1))
        two = run_experiment(flat_plan(model, seed=5, threads=2))
        assert one.result_payload() == two.result_payload()


class TestSharedSampler:
    def test_threads_outnumbering_cores(self):
        # batches share one sampler; each thread must keep its own buffers
        dists = [ParetoPower(r, standardized=True) for r in (6.0, 8.0, 6.0)]
        model = common_model(3, 8, dists, tag="martingale")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = run_experiment(flat_plan(model, reps=30000, seed=2, threads=8))
        finally:
            sys.setswitchinterval(interval)
        one = run_experiment(flat_plan(model, reps=30000, seed=2, threads=1))
        assert many.result_payload() == one.result_payload()

    def test_iter_q_batches_draws_one_batch_at_a_time(self, monkeypatch):
        drawn = []
        cells = Sampler.cells

        def counted(sampler, seed, b, size):
            drawn.append((b, size))
            return cells(sampler, seed, b, size)

        monkeypatch.setattr(Sampler, "cells", counted)
        model = common_model(2, 5, [ParetoPower(6.0), ParetoPower(8.0)])
        first = next(iter_q_batches(model, 7, 10 ** 6))
        assert drawn == [(0, batch_plan(10 ** 6)[0])]
        assert first.shape == (batch_plan(10 ** 6)[0],)


class TestReferenceIdentity:
    @staticmethod
    def pareto(tag, d, n, tensor=None, direction="forward"):
        centered = tag in ("common_independent", "inside_independent")
        dists = [ParetoPower(r, centered=centered, standardized=True) for r in (6.0, 8.0, 6.0)]
        return common_model(d, n, dists[:d], tensor=tensor, tag=tag, direction=direction)

    @pytest.mark.parametrize("tag", ["common_independent", "vector_independent", "martingale"])
    @pytest.mark.parametrize("tensor_kind", ["uniform", "random"])
    def test_q_and_running_max(self, tag, tensor_kind):
        tensor = None
        if tensor_kind == "random":
            tensor = CoefficientTensor.random_unit(3, 7, np.random.default_rng(3))
        model = self.pareto(tag, 3, 7, tensor=tensor)
        _, want = ref_sample(model, 11, 3000)
        assert_identical(sample_Q(model, 11, 3000), want)
        _, want_max = ref_sample(model, 11, 3000, running_max=True)
        got_max = np.concatenate(list(iter_q_batches(model, 11, 3000, running_max=True)))
        assert_identical(got_max, want_max)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("tensor_kind", ["uniform", "random"])
    def test_window(self, direction, tensor_kind):
        tensor = None
        if tensor_kind == "random":
            tensor = CoefficientTensor.random_unit(2, 8, np.random.default_rng(4))
        model = self.pareto("martingale", 2, 8, tensor=tensor, direction=direction)
        for window in [(3, 8), (1, 8), (2, 5)]:
            _, want = ref_sample(model, 12, 3000, window=window)
            assert_identical(sample_reverse_V(model, 12, 3000, *window), want)
            _, want_max = ref_sample(model, 12, 3000, window=window, running_max=True)
            got = iter_q_batches(model, 12, 3000, running_max=True, window=window)
            assert_identical(np.concatenate(list(got)), want_max)

    @pytest.mark.parametrize("mult", [(2,), (1, 1), (2, 1), (3, 0, 1)])
    def test_multiplicities(self, mult):
        dists = [ParetoPower(8.0, centered=True), Weibull(1.0, 1.5), LogPowerOnly(0.5)]
        slots = len(mult)
        tensor = CoefficientTensor.uniform(slots, 5)
        if slots == 3:
            tensor = CoefficientTensor.random_unit(slots, 5, np.random.default_rng(6))
        model = common_model(sum(mult), 5, dists[:slots], tensor=tensor, multiplicities=mult)
        _, want = ref_sample(model, 13, 3000)
        assert_identical(sample_R(model, 13, 3000), want)

    def test_doob_report_matches_reference(self):
        tensor = CoefficientTensor.random_unit(2, 6, np.random.default_rng(8))
        model = self.pareto("martingale", 2, 6, tensor=tensor)
        report = doob_experiment(flat_plan(model, reps=3000, seed=14, experiment="doob"))
        _, q = ref_sample(model, 14, 3000, running_max=True)
        parts = np.split(q, np.cumsum(batch_plan(3000))[:-1])
        total = sum(np.sum(np.abs(part) ** 1.5) for part in parts)
        assert report.moment_rows[0].empirical == (total / 3000.0) ** (1.0 / 1.5)


class TestBlockPath:
    """General-tensor Q in blocks of terms equals the per-term ref_q bit for bit."""

    pareto = staticmethod(TestReferenceIdentity.pareto)

    @staticmethod
    def check(model, size, window=None, seed=21):
        i_lo, i_hi = (1, model.n) if window is None else window
        tensor = model.coefficients
        if window is not None:
            tensor = tensor.restrict(i_lo, i_hi)
        sampler = Sampler(model, window)
        factors = sampler.factors(sampler.cells(seed, 0, size))
        want = ref_factors(model, ref_cells(model, seed, 0, size, window))
        for running_max in (False, True):
            got = sampler.q(factors, running_max)
            assert_identical(got, ref_q(want, tensor, i_lo, running_max))

    def model_220(self, tag="martingale"):
        tensor = CoefficientTensor.random_unit(3, 12, np.random.default_rng(5))
        return self.pareto(tag, 3, 12, tensor=tensor)

    @pytest.mark.parametrize("tag", ["common_independent", "martingale"])
    def test_several_blocks_with_a_ragged_last(self, tag):
        model = self.model_220(tag)
        block = BLOCK_ELEMENTS // 1024
        assert len(model.coefficients.entries) == 220 and 220 // block > 1 and 220 % block
        self.check(model, 1024)

    def test_sparse_groups_with_gaps_and_windows(self):
        entries = {(1, 2, 5): 0.3, (2, 3, 5): -0.5, (1, 4, 9): 0.7, (3, 6, 9): 0.2,
                   (2, 7, 11): -0.1}
        model = self.pareto("martingale", 3, 12, tensor=CoefficientTensor(3, 12, entries))
        # (4, 8) keeps no term at all
        for window in [None, (1, 12), (2, 11), (3, 9), (4, 8)]:
            self.check(model, 1024, window)
            self.check(model, 7, window)

    def test_single_entry_and_degree_one(self):
        single = CoefficientTensor.single(3, 12, (2, 5, 9))
        self.check(self.pareto("martingale", 3, 12, tensor=single), 1024)
        tensor = CoefficientTensor.random_unit(1, 12, np.random.default_rng(7))
        self.check(self.pareto("vector_independent", 1, 12, tensor=tensor), 1024)

    def test_one_term_per_block(self):
        assert max(1, BLOCK_ELEMENTS // 40_000) == 1
        self.check(self.model_220(), 40_000)

    def test_batch_of_one(self):
        # a (K, 1) block would be reduced pairwise, not row by row
        for seed in range(8):
            self.check(self.model_220(), 1, seed=seed)

    @pytest.mark.parametrize("experiment", [run_experiment, doob_experiment])
    def test_batch_of_one_payload(self, experiment, monkeypatch):
        assert batch_plan(1025) == [1024, 1]
        model = self.model_220()
        kind = "doob" if experiment is doob_experiment else "standard"
        plan = flat_plan(model, reps=1025, seed=9, experiment=kind)
        got = experiment(plan).result_payload()

        def per_term_q(sampler, factors, running_max=False):
            return ref_q(factors.transpose(2, 0, 1), model.coefficients, 1, running_max)

        monkeypatch.setattr(Sampler, "q", per_term_q)
        assert experiment(plan).result_payload() == got

    def batches(self, model, sizes, seed=21):
        """``(factors, want)`` for batch b of ``sizes[b]``: the sampler's and ref_factors'."""
        sampler = Sampler(model)
        return sampler, [
            (sampler.factors(sampler.cells(seed, b, size)),
             ref_factors(model, ref_cells(model, seed, b, size)))
            for b, size in enumerate(sizes)
        ]

    def test_batch_sizes_in_turn_on_one_thread(self):
        # each change of size reshapes this thread's block buffers
        model = self.model_220()
        sampler, batches = self.batches(model, [1024, 7, 1, 1024])
        for factors, want in batches:
            for running_max in (False, True):
                got = sampler.q(factors, running_max)
                assert_identical(got, ref_q(want, model.coefficients, 1, running_max))

    def test_a_returned_q_is_not_overwritten(self):
        model = self.model_220()
        sampler, batches = self.batches(model, [1024, 1024])
        for running_max in (False, True):
            first = sampler.q(batches[0][0], running_max)
            kept = first.copy()
            sampler.q(batches[1][0], running_max)
            assert_identical(first, kept)

    def test_threads_share_one_sampler_with_mixed_sizes(self):
        import threading

        model = self.model_220()
        sizes = [1024, 7, 1, 300, 1024, 2, 513, 1] * 2
        sampler, batches = self.batches(model, sizes)
        start = threading.Barrier(8)
        got = [None] * 8

        def work(i):
            start.wait(timeout=60)
            # each thread walks the batches from its own offset, so sizes mix
            order = [(i + j) % len(batches) for j in range(len(batches))]
            got[i] = {b: sampler.q(batches[b][0], (i + b) % 2 == 1) for b in order}

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for i, results in enumerate(got):
            for b, (_, want) in enumerate(batches):
                assert_identical(results[b], ref_q(want, model.coefficients, 1, (i + b) % 2 == 1))

    def test_a_later_call_allocates_no_block(self):
        import tracemalloc

        model = self.model_220()
        sampler, [(factors, _)] = self.batches(model, [1024])
        for running_max in (False, True):
            sampler.q(factors, running_max)  # sizes this thread's buffers
            tracemalloc.start()
            try:
                sampler.q(factors, running_max)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # a quarter of one block of term products (8 * BLOCK_ELEMENTS
            # bytes); numpy's 64 KB ufunc buffer for the coefficients' broadcast
            # and the per-block sums stay below it
            assert peak < 2 * BLOCK_ELEMENTS

    @pytest.mark.parametrize("experiment", [run_experiment, doob_experiment])
    def test_thread_counts_agree(self, experiment):
        model = self.model_220()
        kind = "doob" if experiment is doob_experiment else "standard"
        payloads = [
            experiment(flat_plan(model, reps=20_000, seed=9, threads=t, experiment=kind))
            .result_payload()
            for t in (1, 2, 8)
        ]
        assert payloads[0] == payloads[1] == payloads[2]


def ref_tuple_products(factors, tuples):
    """Per-tuple factor products by fancy indexing of time-major factors, shape (tuples, size)."""
    rows = np.asarray(tuples, dtype=np.intp) - 1
    out = factors[rows[:, 0], 0]
    for m in range(1, rows.shape[1]):
        out *= factors[rows[:, m], m]
    return out


def ref_sweep(plan):
    """The coefficient sweep's values from an index-dict matrix and ref_tuple_products,
    reduced over the batches as run_experiment reduces them."""
    model = plan.model
    d_t, n = model.coefficients.d, model.n
    tuples = list(enumerate_indices(d_t, n))
    gen = _stream(plan.seed, 1 << 32)
    tensors = [CoefficientTensor.uniform(d_t, n), CoefficientTensor.single(d_t, n)]
    tensors += [CoefficientTensor.random_unit(d_t, n, gen) for _ in range(plan.b_sweep)]
    matrix = np.zeros((len(tensors), len(tuples)))
    index = {I: j for j, I in enumerate(tuples)}
    for t, tensor in enumerate(tensors):
        for I, b in tensor.entries.items():
            matrix[t, index[I]] = b
    sampler = Sampler(model)
    sums, total = [], 0.0
    for b, size in enumerate(batch_plan(plan.replications)):
        factors = sampler.factors(sampler.cells(plan.seed, b, size))
        qs = np.abs(matrix @ ref_tuple_products(factors, tuples))
        sums.append(np.stack([np.sum(qs ** p, axis=1) for p in plan.p_grid], axis=1))
        total += size
    values = (np.sum(sums, axis=0) / total) ** (1.0 / plan.p_grid[None, :])
    return values.tolist(), values.max(axis=0).tolist()


class TestSweepProducts:
    """The coefficient sweep's term products come from Sampler.products, bit for bit."""

    pareto = staticmethod(TestReferenceIdentity.pareto)

    def models(self):
        general = CoefficientTensor.random_unit(3, 12, np.random.default_rng(5))
        mult = CoefficientTensor.random_unit(2, 6, np.random.default_rng(6))
        return {
            "general": self.pareto("martingale", 3, 12, tensor=general),
            "uniform": self.pareto("common_independent", 2, 9),
            "multiplicities": common_model(
                3, 6, [ParetoPower(9.0, centered=True, standardized=True), Rademacher()],
                tensor=mult, multiplicities=(2, 1),
            ),
        }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["general", "uniform", "multiplicities"])
    def test_sweep_matches_the_oracle(self, kind, threads):
        # 1025 replications run batches of 1024 and 1, so each thread's
        # products buffer changes shape mid-run
        assert batch_plan(1025) == [1024, 1]
        plan = ExperimentPlan(
            model=self.models()[kind], replications=1025, p_grid=(1.5, 3.0),
            bound=Scaled(Indicator(r=10.0), 1e300), seed=9, threads=threads, b_sweep=4,
        )
        sweep = run_experiment(plan).sweep
        values, top = ref_sweep(plan)
        assert sweep["labels"] == ["uniform", "single"] + [f"random_{j}" for j in range(4)]
        assert sweep["values"] == values
        assert sweep["max_over_tensors"] == top

    @pytest.mark.parametrize("size", [1024, 7, 1, 40_000])
    def test_products_match_fancy_indexing(self, size):
        model = self.models()["general"]
        tuples = list(enumerate_indices(3, 12))
        sampler = Sampler(model)
        # 1024 gathers in blocks of 64 tuples with a ragged last, 40,000 in
        # blocks of one, 7 and 1 in a single block
        assert BLOCK_ELEMENTS // 1024 == 64 and BLOCK_ELEMENTS // 40_000 == 1
        factors = sampler.factors(sampler.cells(21, 0, size))
        got = sampler.products(factors, sampler.flat_rows(tuples))
        assert_identical(got, ref_tuple_products(factors, tuples))


class TestScratch:
    """Each thread keeps one scratch array: the draws, Q's term blocks and the
    sweep's products are views of it, and of the sampler's results only
    ``products`` is one."""

    pareto = staticmethod(TestReferenceIdentity.pareto)
    models = TestSweepProducts.models

    def record(self, monkeypatch):
        """The views each ``Sampler._scratch`` call returns, one list per call."""
        calls = []
        scratch = Sampler._scratch

        def recording(sampler, *shapes):
            calls.append(scratch(sampler, *shapes))
            return calls[-1]

        monkeypatch.setattr(Sampler, "_scratch", recording)
        return calls

    def batch(self, sampler, rows, size, b=0):
        """cells, factors, q (plain and running max) and products of one batch."""
        cells = sampler.cells(21, b, size)
        factors = sampler.factors(cells)
        q, best = sampler.q(factors), sampler.q(factors, True)
        return cells, factors, q, best, sampler.products(factors, rows)

    def test_draws_blocks_and_products_share_one_array(self, monkeypatch):
        sampler = Sampler(self.models()["general"])
        rows = sampler.flat_rows(list(enumerate_indices(3, 12)))
        self.batch(sampler, rows, 1024)  # grows the array to the largest request
        calls = self.record(monkeypatch)
        *_, products = self.batch(sampler, rows, 1024, b=1)
        # cells (a draw chunk: each cell has its own key, so the uniforms go
        # straight into the cells), q twice (product, gather), products (out, gather)
        assert [len(views) for views in calls] == [1, 2, 2, 2]
        array = sampler._local.array
        for views in calls:
            for view in views:
                assert view.flags.c_contiguous and np.shares_memory(view, array)
            # one call's views lie back to back, so they never overlap
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(views, 2))
        assert products is calls[-1][0]

    @pytest.mark.parametrize("sharing", ["vectors", "all"])
    def test_shared_keys_draw_into_their_cells(self, sharing, monkeypatch):
        dist = ParetoPower(6.0, standardized=True)
        sampler = Sampler(common_model(3, 12, [dist] * 3, sharing=sharing, tag="martingale"))
        sampler.cells(21, 0, 1024)
        calls = self.record(monkeypatch)
        cells = sampler.cells(21, 1, 1024)
        # one draw chunk and no (keys, size) array: each key's uniforms go
        # into the first cell it drives
        [[draw]] = calls
        assert draw.shape == (1024, sampler.nkeys) and sampler._local.array.size == draw.size
        assert_identical(cells, whole_batch_cells(sampler, 21, 1, 1024))

    def test_a_smaller_batch_reuses_the_array(self):
        sampler = Sampler(self.models()["general"])
        tuples = list(enumerate_indices(3, 12))
        rows = sampler.flat_rows(tuples)
        self.batch(sampler, rows, 7)
        small = sampler._local.array
        self.batch(sampler, rows, 1024)
        array = sampler._local.array
        # 220 products and a 64-product gather block of 1024 replications
        assert array is not small and array.size == (220 + 64) * 1024
        for size in (1024, 300, 7, 1):
            *_, factors, _, _, products = self.batch(sampler, rows, size)
            assert sampler._local.array is array and array.size == (220 + 64) * 1024
            assert_identical(products, ref_tuple_products(factors, tuples))

    @pytest.mark.parametrize("kind", ["general", "uniform", "multiplicities", "identity"])
    def test_cells_and_q_never_alias_it(self, kind):
        if kind == "identity":
            # a quantile that hands back its input, a view of the scratch
            dist = CustomQuantile(quantile=lambda u: u, boundary=math.inf)
            model = common_model(2, 6, [dist, dist], tag="martingale")
        else:
            model = self.models()[kind]
        sampler = Sampler(model)
        rows = sampler.flat_rows(list(enumerate_indices(model.slots, model.n)))
        for size in (1024, 7):
            cells, factors, q, best, products = self.batch(sampler, rows, size)
            array = sampler._local.array
            assert np.shares_memory(products, array)
            for out in (cells, factors, q, best):
                assert not np.shares_memory(out, array)

    def test_each_thread_keeps_its_own_array(self):
        import threading

        sampler = Sampler(self.models()["general"])
        rows = sampler.flat_rows(list(enumerate_indices(3, 12)))
        factors = sampler.factors(sampler.cells(21, 0, 7))
        mine = sampler.products(factors, rows)
        other = []

        def work():
            other.append((sampler.products(factors, rows), sampler._local.array))

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert not np.shares_memory(other[0][1], sampler._local.array)
        assert np.shares_memory(other[0][0], other[0][1])
        assert_identical(other[0][0], mine)


def whole_batch_cells(sampler, seed, b, size):
    """One batch's cells from one whole ``(size, nkeys)`` draw and a cells-sized keys
    array, as ``Sampler.cells`` made them before it drew in chunks: its reference."""
    gen = _stream(seed, b)
    draw = np.empty((size, sampler.nkeys))
    gen.random(out=draw)
    keys = np.empty((sampler.nkeys, size))
    np.subtract(1.0, draw.T, out=keys)
    keys = keys.reshape(sampler.key_shape + (size,))
    cells = np.empty((sampler.rows, sampler.model.slots, size))
    for m, dist in enumerate(sampler.model.distributions):
        loc, scale = sampler.loc_scale[m]
        raw = dist.survival_quantile(keys[:, sampler.key_cols[m]])
        if sampler.symmetrized:
            np.divide(raw, scale, out=cells[:, m])
        else:
            np.subtract(raw, loc, out=cells[:, m])
            cells[:, m] /= scale
    if sampler.symmetrized:
        gen.random(out=draw)
        draw -= 0.5
        np.copysign(cells, draw.T.reshape(sampler.key_shape + (size,)), out=cells)
        sampler.modulate(cells)
    return cells


CHUNK_DISTS = [ParetoPower(6.0, standardized=True), Weibull(1.0, 1.5), LogPowerOnly(0.5)]
# (tag, sharing, direction, d, n, window): plain and symmetrised regimes, every
# sharing mode, both directions, and index windows
CHUNK_MODELS = [
    ("common_independent", "none", "forward", 3, 12, None),
    ("vector_independent", "none", "reverse", 2, 12, (3, 10)),
    ("inside_independent", "vectors", "forward", 3, 12, None),
    ("inside_independent", "all", "reverse", 2, 8, None),
    ("martingale", "none", "reverse", 2, 8, None),
    ("martingale", "vectors", "reverse", 3, 12, (2, 11)),
    ("martingale", "all", "forward", 3, 9, None),
]


class TestChunkedDraw:
    """``Sampler.cells`` draws each batch in chunks of at most BLOCK_ELEMENTS
    uniforms, each key's straight into the first cell it drives, and
    transforms it in bands; the cells equal those of one whole draw, byte for
    byte."""

    @staticmethod
    def sampler(tag, sharing, direction, d, n, window):
        model = common_model(d, n, CHUNK_DISTS[:d], sharing=sharing, tag=tag, direction=direction)
        return Sampler(model, window)

    @pytest.mark.parametrize("spec", CHUNK_MODELS, ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
    def test_cells_equal_one_whole_draw(self, spec, monkeypatch):
        from polymoment import polymodel

        sampler = self.sampler(*spec)
        # one chunk exactly and one chunk plus one row at the default block,
        # and slots transformed in bands of 3 rows, the last one ragged for 8 and 10 rows
        step = BLOCK_ELEMENTS // sampler.nkeys
        sizes = [1, 7, 1023, 1024, step, step + 1, 17_000]
        assert BLOCK_ELEMENTS // 17_000 == 3 < sampler.rows
        want = {size: whole_batch_cells(sampler, 5, 3, size) for size in sizes}
        # a row a chunk, a few rows and a ragged last chunk, one chunk a batch
        for block in (1, 7, 1000, BLOCK_ELEMENTS, 1 << 40):
            monkeypatch.setattr(polymodel, "BLOCK_ELEMENTS", block)
            for size in sizes:
                assert_identical(sampler.cells(5, 3, size), want[size])

    @pytest.mark.parametrize("spec", CHUNK_MODELS[:3], ids=lambda s: f"{s[0]}-{s[1]}")
    @pytest.mark.parametrize("block", [7, 1000])
    def test_ragged_last_batch(self, spec, block, monkeypatch):
        from polymoment import polymodel

        sampler = self.sampler(*spec[:5], None)
        assert batch_plan(3000) == [1024, 1024, 952]
        want = np.concatenate([
            whole_batch_cells(sampler, 8, b, size).transpose(2, 0, 1)
            for b, size in enumerate(batch_plan(3000))
        ])
        monkeypatch.setattr(polymodel, "BLOCK_ELEMENTS", block)
        assert_identical(sample_cells(sampler.model, 8, 3000), want)

    def test_each_cells_own_key_draws_no_keys_array(self):
        sampler = self.sampler(*CHUNK_MODELS[0])
        sampler.cells(5, 0, 4096)
        # the thread's scratch holds one draw chunk, not the batch's draw
        assert sampler._local.array.size == BLOCK_ELEMENTS // sampler.nkeys * sampler.nkeys

    @pytest.mark.parametrize("mult", [(2,), (1, 1), (2, 1), (3, 0, 1)])
    def test_factors_write_over_the_cells(self, mult):
        slots = len(mult)
        dists = [ParetoPower(8.0, centered=True), Weibull(1.0, 1.5), LogPowerOnly(0.5)]
        tensor = CoefficientTensor.random_unit(slots, 5, np.random.default_rng(6))
        sampler = Sampler(common_model(sum(mult), 5, dists[:slots], tensor=tensor,
                                       multiplicities=mult))
        cells = sampler.cells(13, 0, 3000)
        # the bits of factors made in a fresh array, as before, in the cells' own memory
        want = ref_factors(sampler.model, cells.transpose(2, 0, 1).copy())
        got = sampler.factors(cells)
        assert got is cells
        assert_identical(got.transpose(2, 0, 1), want)

    @pytest.mark.parametrize("block", [7, 1000])
    def test_factors_in_bands(self, block, monkeypatch):
        from polymoment import polymodel

        dists = [ParetoPower(8.0, centered=True), Weibull(1.0, 1.5)]
        sampler = Sampler(common_model(3, 5, dists, multiplicities=(2, 1)))
        cells = {size: sampler.cells(13, 0, size) for size in (1, 3, 300, 3000)}
        want = {size: ref_factors(sampler.model, c.transpose(2, 0, 1).copy()) for size, c in cells.items()}
        # 5 rows in one band, in bands of 2 (block 7, size 3) or 3 (block
        # 1000, size 300) rows with a ragged last, or a row a band
        monkeypatch.setattr(polymodel, "BLOCK_ELEMENTS", block)
        for size, c in cells.items():
            assert_identical(sampler.factors(c).transpose(2, 0, 1), want[size])

    @pytest.mark.parametrize("tag, sharing, mult", [
        ("common_independent", "none", None),
        ("martingale", "none", None),
        ("inside_independent", "vectors", None),
        ("martingale", "all", None),
        ("common_independent", "none", (2, 1)),
    ], ids=["common_independent", "martingale", "inside_independent-vectors", "martingale-all",
            "polynomial"])
    def test_one_batch_holds_one_cells_array(self, tag, sharing, mult):
        import tracemalloc

        from polymoment.mcverify import _batch_sums

        dists = [ParetoPower(6.0, centered=tag == "common_independent", standardized=True)] * 3
        # 96 rows: one slot's quantiles would exceed the bound below by far
        sampler = Sampler(common_model(3, 96, dists[:len(mult or dists)], sharing=sharing, tag=tag,
                                       multiplicities=mult))
        slots, size = sampler.model.slots, 10_000
        nbytes = sampler.rows * slots * size * 8
        tracemalloc.start()
        try:
            _batch_sums(sampler, 0, 0, size, ps=np.array([1.5, 3.0]), xs=(2.0,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the cells, a draw chunk and one band's temporaries (each at most
        # BLOCK_ELEMENTS doubles), and O(slots * size) for the modulators and
        # Q; a (keys, size) array and one slot's quantiles, rows * size doubles
        # each, would not fit
        assert peak <= nbytes + 8 * (3 * BLOCK_ELEMENTS + 8 * slots * size)


class TestBatchPlan:
    @pytest.mark.parametrize("replications, want", [
        (1, [1]),
        (1023, [1023]),
        (1024, [1024]),
        (1025, [1024, 1]),
        (200_000, [3125] * 64),
        (350_000, [5469] * 63 + [5453]),
        (64 * 65536 + 1, [65536] * 64 + [1]),
    ])
    def test_partition(self, replications, want):
        assert batch_plan(replications) == want

    def test_rejects_no_replications(self):
        with pytest.raises(ValueError, match="at least one"):
            batch_plan(0)


class TestLogPerturbedPareto:
    def test_run_experiment(self):
        dist = LogPerturbedPareto(6.0, 0.5, SlowlyVarying.log_power(1.0))
        model = common_model(1, 3, [dist], tensor=CoefficientTensor.uniform(1, 3))
        # Minkowski: |Q|_p <= sum_i b_i |X|_p = sqrt(3) |X|_p
        env = Scaled(natural_envelope(dist, "common_independent", points=17), math.sqrt(3.0))
        plan = ExperimentPlan(model=model, replications=20000, p_grid=(1.5, 2.5), bound=env)
        report = run_experiment(plan)
        assert report.passed
        assert all(math.isfinite(r.empirical) and r.empirical > 0 for r in report.moment_rows)


# ---------------------------------------------------------------------------
# the moment integrals against closed forms and public scipy quad, and the
# stratified estimator
# ---------------------------------------------------------------------------


def quad_moment(dist, p, loc=0.0, signed=False, u_max=1.0):
    """``E (X - loc)^p`` or ``E |X - loc|^p`` on ``{U < u_max}`` by public ``scipy.integrate.quad``.

    An independent oracle: adaptive Gauss-Kronrod over ``t = -log u``, broken
    where X crosses loc (``scipy.optimize.brentq``) and at 1, where a slowly
    varying factor is clamped.  Accurate where the moment integrand decays
    visibly before u underflows, i.e. for p well below the moment boundary.
    """
    from scipy import integrate, optimize

    t_lo = -math.log(u_max)

    def w(t):
        return float(dist.survival_quantile(np.array([math.exp(-t)]))[0]) - loc

    def f(t):
        if math.exp(-t) == 0.0:
            return 0.0
        x = w(t)
        val = math.exp(p * math.log(abs(x)) - t) if x != 0.0 else 0.0
        return -val if signed and x < 0.0 and int(p) % 2 == 1 else val

    breaks = [t_lo]
    if w(t_lo) < 0.0 < w(60.0):
        breaks.append(optimize.brentq(w, t_lo, 60.0, xtol=1e-15))
    breaks += [b for b in (1.0, 10.0, 100.0) if b > breaks[-1]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return sum(
            integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for a, b in zip(breaks, breaks[1:] + [math.inf])
        )


def ref_stratified(dist, p, reps, seed, delta=1e-3):
    """(value, stderr, power_mean, power_mean_stderr) with at least two body batches,
    each weighted by its size."""
    from polymoment.polymodel import _survival_integrals

    exact_tail = float(_survival_integrals(dist, np.array([p]), t_lo=-math.log(delta))[0])
    u = delta + (1.0 - delta) * _stream(seed, 0).random(reps)
    body = np.abs(dist.survival_quantile(u)) ** p
    batches = np.array_split(body, max(2, int(math.sqrt(reps))))
    m = exact_tail + (1.0 - delta) * float(body.mean())
    w = np.array([b.size for b in batches]) / reps
    dev = (1.0 - delta) * np.array([b.mean() for b in batches]) - (m - exact_tail)
    nb = len(batches)
    se_m = math.sqrt(float(np.sum((w * dev) ** 2)) * nb / (nb - 1))
    value = m ** (1.0 / p)
    return value, se_m * value / (p * m), m, se_m


STRATIFIED_DISTS = [
    ParetoPower(6.0),
    LogPerturbedPareto(r=5.0, kappa=0.5, slowvar=SlowlyVarying.log_power(1.0)),
]


class TestStratifiedMoment:
    @pytest.mark.parametrize("dist", STRATIFIED_DISTS)
    def test_top_region(self, dist):
        from polymoment.polymodel import _survival_integrals

        got = _survival_integrals(dist, np.array([1.5, 4.0]), t_lo=-math.log(1e-3)).tolist()
        want = [quad_moment(dist, p, u_max=1e-3) for p in (1.5, 4.0)]
        assert got == pytest.approx(want, rel=1e-11)
        if isinstance(dist, ParetoPower):
            # int_0^delta u^(-p/r) du
            exact = [1e-3 ** (1.0 - p / 6.0) / (1.0 - p / 6.0) for p in (1.5, 4.0)]
            assert got == pytest.approx(exact, rel=1e-13)

    def test_zero_replications_rejected(self):
        from polymoment import stratified_moment

        with pytest.raises(ValueError):
            stratified_moment(ParetoPower(6.0), 2.0, 0, 1)

    def test_one_replication_has_zero_stderr(self):
        from polymoment import stratified_moment

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = stratified_moment(ParetoPower(6.0), 2.0, 1, 1)
        assert math.isfinite(est.value) and est.value > 0
        assert est.stderr == 0.0 and est.power_mean_stderr == 0.0

    @pytest.mark.parametrize("reps", [4, 10000])
    @pytest.mark.parametrize("dist", STRATIFIED_DISTS)
    def test_matches_two_batch_reference(self, dist, reps):
        from polymoment import stratified_moment

        est = stratified_moment(dist, 2.5, reps, 3)
        want = ref_stratified(dist, 2.5, reps, 3)
        for got, ref in zip((est.value, est.stderr, est.power_mean, est.power_mean_stderr), want):
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# natural envelopes: the whole grid in one quadrature
# ---------------------------------------------------------------------------


def ref_cell_abs_moment(dist, p, symmetrized):
    loc, scale = cell_loc_scale(dist, symmetrized)
    if symmetrized or loc == 0.0:
        if isinstance(dist, LogPerturbedPareto):  # no closed form: the oracle
            m = math.inf if p >= dist.moment_boundary else quad_moment(dist, p)
        else:
            m = dist.raw_abs_moment(p)
        return m / scale ** p
    at = dist.atoms()
    if at is not None:
        vals, probs = at
        return float(np.sum(probs * np.abs(vals - loc) ** p)) / scale ** p
    return quad_moment(dist, p, loc=loc) / scale ** p


LPP_LOG = LogPerturbedPareto(
    6.0, 0.5, SlowlyVarying.log_power(1.0), centered=True, standardized=True
)


def three_atoms(u):
    u = np.asarray(u, dtype=float)
    return np.where(u <= 0.25, 3.0, np.where(u <= 0.75, 0.5, -1.0))


def atoms_input(**kw):
    """Three atoms with mean 0.75 and a negative value."""
    return CustomQuantile(
        quantile=three_atoms, atom_values=(-1.0, 0.5, 3.0), atom_probs=(0.25, 0.5, 0.25), **kw
    )


def ref_power_mean(model, slot):
    """The power mean with the oracle: atoms scaled before the power, else scipy quad."""
    from polymoment.polymodel import _is_symmetrized

    k = model.multiplicities[slot]
    dist = model.distributions[slot]
    loc, scale = cell_loc_scale(dist, _is_symmetrized(model.regime.tag))
    at = dist.atoms()
    if at is not None:
        vals, probs = at
        return float(np.sum(probs * ((vals - loc) / scale) ** k))
    return quad_moment(dist, float(k), loc=loc, signed=True) / scale ** k


# the inputs whose raw moments have closed forms: r/(r - p), and Gamma(2p + 1)
# for both X = t^2 of a standard exponential t
CLOSED_FORMS = {
    "pareto6": (ParetoPower(6.0), lambda p: 6.0 / (6.0 - p)),
    "pareto8": (ParetoPower(8.0), lambda p: 8.0 / (8.0 - p)),
    "weibull_half": (Weibull(1.0, 0.5), lambda p: math.gamma(2.0 * p + 1.0)),
    "log_power2": (LogPowerOnly(2.0), lambda p: math.gamma(2.0 * p + 1.0)),
}


class TestSurvivalQuadGrid:
    @pytest.mark.parametrize("name", list(CLOSED_FORMS))
    def test_raw_moments_match_closed_forms(self, name):
        from polymoment.polymodel import _moments

        dist, exact = CLOSED_FORMS[name]
        grid = natural_envelope(dist, "common_independent").p_grid.tolist()
        got = np.array(_moments(dist, grid))
        want = np.array([exact(p) for p in grid])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    @pytest.mark.parametrize("name", list(CLOSED_FORMS))
    def test_table_dominates_the_norm_between_nodes(self, name):
        # p log nu is convex (Lyapunov), so chords of the table lie above it
        dist, exact = CLOSED_FORMS[name]
        env = natural_envelope(dist, "common_independent")
        mid = 0.5 * (env.p_grid[1:] + env.p_grid[:-1])
        norms = np.array([exact(p) ** (1.0 / p) for p in mid])
        assert np.all(env.values_at(mid) >= norms)

    def test_centered_table_dominates_the_norm_between_nodes(self):
        dist = ParetoPower(6.0, centered=True, standardized=True)
        env = natural_envelope(dist, "common_independent", points=65)
        mid = 0.5 * (env.p_grid[1:] + env.p_grid[:-1])
        mid = mid[mid < 0.9 * 6.0]
        norms = np.array([ref_cell_abs_moment(dist, p, False) ** (1.0 / p) for p in mid])
        assert np.all(env.values_at(mid) >= norms * (1.0 - 1e-12))

    @pytest.mark.parametrize(
        "dist, tag, points",
        [
            (ParetoPower(6.0, centered=True, standardized=True), "common_independent", 257),
            (ParetoPower(8.0, centered=True), "inside_independent", 65),
            (LPP_LOG, "common_independent", 17),
            (LogPerturbedPareto(6.0, 0.5, standardized=True), "martingale", 17),
            (Rademacher(), "common_independent", 33),
            (DoubleExpDiscrete(r=4.0, centered=True), "common_independent", 33),
            (LogPerturbedPareto(6.0, 0.5, SlowlyVarying.log_power(1.0), standardized=True),
             "common_independent", 17),
            (DoubleExpDiscrete(r=4.0, standardized=True), "martingale", 33),
            (atoms_input(centered=True, standardized=True), "common_independent", 33),
            (Weibull(1.0, 0.5, centered=True), "common_independent", 33),
            (LogPowerOnly(2.0, centered=True, standardized=True), "inside_independent", 33),
        ],
        ids=["pareto6_centered", "pareto8_centered", "lpp_centered", "lpp_symmetrised",
             "rademacher", "double_exp_centered", "lpp_uncentered", "double_exp_symmetrised",
             "atoms_centered", "weibull_centered", "log_power_centered"],
    )
    def test_natural_envelope_matches_scipy_quad(self, dist, tag, points):
        from polymoment.polymodel import MODULATOR_HIGH, _is_symmetrized

        symmetrized = _is_symmetrized(tag)
        factor = MODULATOR_HIGH if symmetrized else 1.0
        env = natural_envelope(dist, tag, points=points)
        # below 0.9 r, where the oracle converges
        keep = env.p_grid < 0.9 * dist.moment_boundary
        grid = env.p_grid[keep]
        want = [factor * ref_cell_abs_moment(dist, float(p), symmetrized) ** (1.0 / p) for p in grid]
        assert env.values[keep] == pytest.approx(want, rel=1e-11)

    def test_signed_moments_and_variance(self):
        dist = LogPerturbedPareto(6.0, 0.5, SlowlyVarying.log_power(1.0))
        for k in (1, 2, 3):
            assert dist.signed_moment(k) == pytest.approx(quad_moment(dist, k, signed=True), rel=1e-12)
        mu = quad_moment(dist, 1.0, signed=True)
        assert dist.variance() == pytest.approx(quad_moment(dist, 2.0, signed=True) - mu * mu, rel=1e-11)
        assert cell_abs_moment(LPP_LOG, [2.0], symmetrized=False)[0] == pytest.approx(1.0, rel=1e-12)

    def test_signed_moments_over_a_grid(self):
        # each exponent decides its own sign: odd orders negate below loc, even ones do not
        from polymoment.polymodel import _moments

        # central moments of Pareto 6 from its raw moments 6/(6 - k)
        mu = 1.2
        got = _moments(ParetoPower(6.0), [1.0, 2.0, 3.0], loc=mu, signed=True)
        assert got[0] == pytest.approx(0.0, abs=1e-14)
        assert got[1:] == pytest.approx([1.5 - mu * mu, 2.0 - 3.0 * mu * 1.5 + 2.0 * mu ** 3], rel=1e-12)

    def test_overflowing_integrand_names_its_order(self):
        import re

        from polymoment.polymodel import InfiniteMomentQuadError

        # the quantile u^(-1/2) has moments only below 2, but claims them up to 10
        dist = CustomQuantile(quantile=lambda u: u ** -0.5, boundary=10.0)
        with pytest.raises(InfiniteMomentQuadError, match="the moment diverges") as err:
            natural_envelope(dist, "common_independent", points=9)
        p = float(re.search(r"at order p=(\S+);", str(err.value)).group(1))
        grid = np.linspace(1.0, 9.991, 9)  # points of the 9-point grid are in [1, 9.991]
        assert 2.0 <= p <= grid[-1]

    def test_moments_near_the_boundary(self):
        from polymoment.polymodel import _moments

        got = _moments(ParetoPower(6.0), [5.99, 5.995])
        assert got == pytest.approx([6.0 / 0.01, 6.0 / 0.005], rel=1e-12)

    @pytest.mark.parametrize("dist", STRATIFIED_DISTS)
    def test_stratified_top_region(self, dist):
        from polymoment import stratified_moment

        est = stratified_moment(dist, 2.5, 10000, 3)
        assert est.power_mean == ref_stratified(dist, 2.5, 10000, 3)[2]

    @pytest.mark.parametrize("tag", ["common_independent", "martingale"])
    def test_envelope_calls_the_quantile_on_whole_grids(self, tag):
        # quantile calls on the nodes of a block of exponents at once, and a
        # fixed number of bisection steps: far fewer calls than exponents
        def count(points):
            calls = [0]

            def quantile(u):
                calls[0] += 1
                return u ** (-1.0 / 6.0)

            dist = CustomQuantile(quantile=quantile, boundary=6.0, centered=True)
            cell_loc_scale.cache_clear()  # each count takes the mean too
            natural_envelope(dist, tag, points=points)
            return calls[0]

        assert 0 < count(17) < count(257) < 160

    def test_atoms_moments(self):
        dist = atoms_input()
        vals, probs = dist.atoms()
        for p in (1.0, 1.5, 2.0, 3.7):
            assert dist.raw_abs_moment(p) == float(np.sum(probs * np.abs(vals) ** p))
        for d_ in (dist, DoubleExpDiscrete(r=4.0)):
            vals, probs = d_.atoms()
            for k in (1, 2, 3):
                assert d_.signed_moment(k) == float(np.sum(probs * vals ** k))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "dist",
        [ParetoPower(6.0, centered=True, standardized=True),
         DoubleExpDiscrete(r=4.0, centered=True, standardized=True)],
        ids=["pareto6_centered", "double_exp_centered"],
    )
    def test_power_mean(self, dist, k):
        model = common_model(k, 5, [dist], multiplicities=(k,))
        assert power_mean(model, 0) == pytest.approx(ref_power_mean(model, 0), rel=1e-12)

    @pytest.mark.parametrize("dist", [
        ParetoPower(6.0), LogPerturbedPareto(5.0, 0.5, SlowlyVarying.log_power(1.0)),
        LogPerturbedPareto(5.0), LogPowerOnly(0.7), Weibull(2.0, 1.5),
    ], ids=["pareto", "lpp", "lpp_plain", "log_power", "weibull"])
    def test_log_survival_quantile_is_the_log_quantile(self, dist):
        t = np.array([0.3, 1.0, 2.5, 40.0, 700.0])
        want = np.log(dist.survival_quantile(np.exp(-t)))
        assert dist.log_survival_quantile(t) == pytest.approx(want, rel=1e-12)
        # the default reads the quantile, which gives out where u is subnormal
        base = InputDistribution.log_survival_quantile(dist, t)
        assert base == pytest.approx(want, rel=1e-12)
        assert InputDistribution.log_survival_quantile(dist, np.array([710.0]))[0] == -math.inf


class TestDoubleExponentialRule:
    """``de_integrals`` against integrals with closed forms, and its two errors."""

    def test_half_lines_and_finite_pieces(self):
        from polymoment.envelope import de_integrals

        lam = np.array([1e-3, 0.5, 1.0, 10.0])
        # int_0^inf e^(-lam t) dt and int_{-inf}^0 e^(lam t) dt are 1/lam
        got = de_integrals(lambda t, rows: -lam[rows, None] * np.abs(t), [-math.inf, 0.0, math.inf], lam)
        assert got == pytest.approx(np.vstack([1.0 / lam, 1.0 / lam]), rel=1e-14)
        # int_0^inf t^k e^(-t) dt = k!, a peak of width sqrt(k) at k
        ks = np.array([0.0, 3.0, 40.0, 128.0])
        got = de_integrals(lambda t, rows: ks[rows, None] * np.log(t) - t, [0.0, math.inf], ks)[0]
        assert got == pytest.approx([math.gamma(k + 1.0) for k in ks], rel=1e-13)
        # int_0^1 t^(1/2) dt = 2/3, with a singular derivative at 0
        got = de_integrals(lambda t, rows: 0.5 * np.log(t), [0.0, 1.0], [0.5])
        assert got[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_zero_integrand(self):
        from polymoment.envelope import de_integrals

        got = de_integrals(lambda t, rows: np.full(np.shape(t), -math.inf), [0.0, 3.0, math.inf], [1.0])
        assert got.tolist() == [[0.0], [0.0]]

    def test_a_jump_inside_a_piece_is_not_converged(self):
        from polymoment.envelope import de_integrals

        with pytest.raises(FloatingPointError, match="order p=2.5"):
            de_integrals(lambda t, rows: np.where(t < 1.3, 0.0, -1.0), [0.0, 3.0], [2.5])

    def test_overflow_names_the_lowest_order(self):
        from polymoment.envelope import InfiniteMomentError, de_integrals
        from polymoment.polymodel import InfiniteMomentQuadError

        ps = np.array([1.0, 3.0, 5.0])
        with pytest.raises(InfiniteMomentQuadError, match="order p=3.0") as err:
            de_integrals(lambda t, rows: (ps[rows, None] / 2.0 - 1.0) * t, [0.0, math.inf], ps)
        assert isinstance(err.value, OverflowError) and isinstance(err.value, InfiniteMomentError)
        # 70 orders span three blocks, and the converging ones below 2 have
        # centres of their own
        ps = np.linspace(1.0, 5.0, 70)
        with pytest.raises(InfiniteMomentQuadError, match=f"order p={ps[ps > 2.0][0]};"):
            de_integrals(lambda t, rows: (ps[rows, None] / 2.0 - 1.0) * t, [0.0, math.inf], ps)

    def test_rows_sharing_a_centre_keep_the_blockwise_bits(self, monkeypatch):
        from polymoment import polymodel, stratified_moment
        from polymoment.polymodel import _moments, _tabulate_natural

        calls = []
        shared = polymodel.de_integrals

        def both(log_f, breaks, orders):
            got = shared(log_f, breaks, orders)
            want = _blockwise_de_integrals(log_f, breaks, orders)
            calls.append(got.tobytes() == want.tobytes())
            return got

        monkeypatch.setattr(polymodel, "de_integrals", both)
        kinked = LogPerturbedPareto(6.0, 0.5, SlowlyVarying.log_power(1.0), centered=True)
        tables = [
            ParetoPower(4.5, centered=True, standardized=True),
            ParetoPower(6.0, centered=True, standardized=True),
            ParetoPower(6.0, centered=True),
            ParetoPower(8.0, centered=True, standardized=True),
            Weibull(0.5, centered=True),
            LogPowerOnly(2.0, centered=True),
            kinked,
        ]
        _tabulate_natural.cache_clear()
        cell_loc_scale.cache_clear()
        for dist in tables:
            natural_envelope(dist, "common_independent")
        _moments(kinked, [1.0, 2.0, 3.0, 4.5], loc=kinked.mean(), signed=True)
        stratified_moment(kinked, 3.0, 1000, 0)
        assert len(calls) >= len(tables) + 2 and all(calls)


def _blockwise_de_integrals(log_f, breaks, orders):
    """``de_integrals`` as it was before rows shared their nodes: each block of
    ``DE_BLOCK`` rows took every row's own nodes, a slice for its rows."""
    from polymoment.envelope import _DE_LOG_COSH, _DE_PROBE, _DE_S, DE_BLOCK, _de_nodes

    out = np.empty((len(breaks) - 1, len(orders)))
    err = np.zeros(len(orders))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, len(orders), DE_BLOCK):
            rows = slice(lo, min(lo + DE_BLOCK, len(orders)))
            shape = (rows.stop - lo, _DE_S.size)
            for i, (a, b) in enumerate(zip(breaks, breaks[1:])):
                t, log_dt = _de_nodes(_DE_PROBE, a, b)
                mass = np.broadcast_to(log_f(t[None, :], rows) + log_dt, (shape[0], t.size))
                centre = _DE_PROBE[np.argmax(mass, axis=1)]
                t, log_dt = _de_nodes(centre[:, None] + np.sinh(_DE_S), a, b)
                logs = np.broadcast_to(log_f(t, rows) + log_dt + _DE_LOG_COSH, shape)
                terms = np.exp(logs) / 64.0
                out[i, rows] = terms.sum(axis=1)
                err[rows] += (np.abs(2.0 * terms[:, ::2].sum(axis=1) - out[i, rows])
                              + terms[:, 0] + terms[:, -1])
    assert np.all(err <= 1e-12 * np.abs(out).sum(axis=0))
    return out


class TestEnvelopeCache:
    def test_quadrature_is_not_a_warning(self):
        dist = CustomQuantile(quantile=lambda u: u ** (-1.0 / 6.0), boundary=6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = natural_envelope(dist, "common_independent", points=17).values
        assert np.all(np.isfinite(values))

    def test_concurrent_first_calls_agree(self):
        import threading

        from polymoment.polymodel import _tabulate_natural

        dist = CustomQuantile(quantile=lambda u: u ** (-1.0 / 6.0), boundary=6.0)
        start = threading.Barrier(8)
        envs = [None] * 8
        ps = np.linspace(1.3, 5.9, 8)[[5, 0, 7, 2, 6, 1, 4, 3]]
        got = [None] * 8

        def first_call(i):
            start.wait(timeout=60)
            envs[i] = natural_envelope(dist, "common_independent", points=17)
            got[i] = envs[i](ps[i])

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        grid = tuple(envs[0].p_grid.tolist())
        want = _tabulate_natural.__wrapped__(dist, False, grid).values
        ref = Tabulated(np.array(grid), want, upper=6.0)
        assert got == [ref(p) for p in ps]
        for env in envs:
            assert np.array_equal(env.values, want)

    def test_diverging_table_raises_at_construction_every_time(self):
        from polymoment.polymodel import InfiniteMomentQuadError

        # the quantile u^(-1/2) has moments only below 2, but claims them up to 10;
        # a failed construction caches nothing, so the next call raises again
        dist = CustomQuantile(quantile=lambda u: u ** -0.5, boundary=10.0)
        for _ in range(2):
            with pytest.raises(InfiniteMomentQuadError, match="the moment diverges"):
                natural_envelope(dist, "common_independent", points=9)
        # the same input with its true boundary tabulates
        env = natural_envelope(CustomQuantile(quantile=lambda u: u ** -0.5, boundary=2.0),
                               "common_independent", points=9)
        assert np.all(np.isfinite(env.values))

    def test_repeated_call_returns_the_same_envelope(self):
        env = natural_envelope(ParetoPower(7.0, centered=True), "martingale", points=17)
        assert natural_envelope(ParetoPower(7.0, centered=True), "martingale", points=17) is env


def record_quadratures(monkeypatch):
    """Record (dist, exponents, signed) for every moment quadrature from here on."""
    from polymoment import polymodel

    calls = []
    integrals = polymodel._survival_integrals

    def recorded(dist, ps, loc=0.0, signed=False, t_lo=0.0):
        calls.append((dist, list(ps), signed))
        return integrals(dist, ps, loc, signed, t_lo)

    monkeypatch.setattr(polymodel, "_survival_integrals", recorded)
    return calls


class TestNaturalTables:
    """A natural table is computed whole, once per input, when it is built."""

    def common_plan(self, monkeypatch):
        from polymoment.cli import load_config
        from polymoment.mcverify import plan_from_config
        from polymoment.polymodel import _tabulate_natural

        _tabulate_natural.cache_clear()
        cell_loc_scale.cache_clear()
        calls = record_quadratures(monkeypatch)
        cfg = load_config(None, "pareto_d2_common")
        model = model_from_config(cfg["model"])
        return plan_from_config(dict(cfg["plan"], replications=2000), model), calls

    def test_chain_build_takes_one_quadrature_per_table(self, monkeypatch):
        # the two centered Pareto inputs: one whole 257-point grid each (their
        # means and variances have closed forms)
        _, calls = self.common_plan(monkeypatch)
        assert sorted((dist.r1, len(ps), signed) for dist, ps, signed in calls) == [
            (6.0, 257, False), (8.0, 257, False)]

    def test_centered_standardized_scale_takes_one_mean(self, monkeypatch):
        dist = LogPerturbedPareto(6.0, 0.5, SlowlyVarying.log_power(1.0), centered=True,
                                  standardized=True)
        calls = record_quadratures(monkeypatch)
        got = cell_loc_scale.__wrapped__(dist, False)
        assert [ps for _, ps, signed in calls if signed] == [[1.0], [2.0]]
        assert got == (dist.mean(), math.sqrt(dist.variance()))

    def test_run_experiment_runs_no_quadrature(self, monkeypatch):
        plan, calls = self.common_plan(monkeypatch)
        calls.clear()
        run_experiment(plan)
        assert calls == []

    def test_scaled_natural_envelope_keeps_the_array_path(self):
        from polymoment import EnvelopeDomainError

        inner = natural_envelope(ParetoPower(6.0, centered=True), "common_independent", points=65)
        grid = inner.p_grid
        env = Scaled(inner, 3.0)
        low = np.array([1.0, 1.5, 2.25, 3.0])
        got = env.values_at(low)
        assert got.tobytes() == np.array([3.0 * inner(p) for p in low]).tobytes()
        # beyond the grid end, at the declared upper and beyond it: +inf, as the scalar path
        qs = np.concatenate([low, grid[-1:], [5.999, 6.0, 7.5]])
        assert env.values_at(qs).tobytes() == np.array([env(p) for p in qs]).tobytes()
        assert np.isinf(env.values_at(qs[-3:])).all()
        for bad in ([2.0, 0.5], [2.0, math.nan], [math.inf]):
            with pytest.raises(EnvelopeDomainError) as array_err:
                env.values_at(bad)
            with pytest.raises(EnvelopeDomainError) as scalar_err:
                [env(p) for p in bad]
            assert str(array_err.value) == str(scalar_err.value)
