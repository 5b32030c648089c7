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
    Weibull,
    doob_experiment,
    empirical_moments,
    enumerate_indices,
    natural_envelope,
    natural_moments_pareto_power,
    normalize_model,
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

    def test_last_fixed(self):
        assert list(enumerate_indices(2, 3, last_fixed=3)) == [(1, 3), (2, 3)]

    def test_count(self):
        assert sum(1 for _ in enumerate_indices(3, 10)) == 120

    def test_singleton_family(self):
        assert list(enumerate_indices(1, 5, last_fixed=5)) == [(5,)]

    def test_errors(self):
        with pytest.raises(ValueError):
            list(enumerate_indices(4, 3))
        with pytest.raises(ValueError):
            list(enumerate_indices(2, 5, last_fixed=1))


class TestCoefficientTensor:
    def test_uniform_is_normalized(self):
        t = CoefficientTensor.uniform(2, 5)
        assert t.normalized
        assert t.is_uniform
        assert t.norm2() == pytest.approx(1.0)

    def test_single(self):
        t = CoefficientTensor.single(2, 5)
        assert t.entries == {(1, 2): 1.0}
        assert t.normalized

    def test_random_unit(self):
        t = CoefficientTensor.random_unit(2, 6, np.random.default_rng(1))
        assert t.norm2() == pytest.approx(1.0)
        assert not t.is_uniform

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


class TestNormalize:
    def test_idempotent_when_standardized(self):
        model = common_model(
            2, 4,
            [ParetoPower(6.0, centered=True, standardized=True),
             ParetoPower(8.0, centered=True, standardized=True)],
        )
        normed = normalize_model(model)
        assert normed.coefficients.entries == model.coefficients.entries
        q1 = sample_Q(model, 3, 20000)
        q2 = sample_Q(normed, 3, 20000)
        assert np.array_equal(q1, q2)

    def test_sigma_two_rescales_coefficients(self):
        # atoms +-2: sigma = 2 per cell; weighted-normalised tensor satisfies
        # sum b^2 sigma^4 = 1, so b = uniform / 4
        two = CustomQuantile(
            quantile=lambda u: np.where(u <= 0.5, 2.0, -2.0),
            atom_values=(-2.0, 2.0),
            atom_probs=(0.5, 0.5),
        )
        base = CoefficientTensor.uniform(2, 4)
        quarter = CoefficientTensor(2, 4, {k: v / 4.0 for k, v in base.entries.items()})
        model = common_model(2, 4, [two, two], tensor=quarter)
        normed = normalize_model(model)
        # coefficients scaled by sigma^2 = 4, inputs halved
        for key, val in normed.coefficients.entries.items():
            assert val == pytest.approx(base.entries[key], rel=1e-12)
        assert normed.coefficients.normalized
        q1 = sample_Q(model, 8, 20000)
        q2 = sample_Q(normed, 8, 20000)
        assert np.allclose(q1, q2, rtol=1e-12)
        assert q2.var() == pytest.approx(1.0, rel=0.05)

    def test_infinite_variance_rejected(self):
        model = common_model(1, 3, [ParetoPower(2.0)], tensor=CoefficientTensor.uniform(1, 3))
        with pytest.raises(ValueError):
            normalize_model(model)


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
    if tensor.is_uniform and tensor.d == slots and i_lo == 1 and rows == tensor.n:
        c = next(iter(tensor.entries.values()))
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
# the survival quadrature, one exponent per call, and the stratified estimator
# ---------------------------------------------------------------------------


def ref_survival_quad(dist, p, loc=0.0, signed=False, u_max=1.0):
    """One exponent per call, every node through the quantile: the loop the grid form replaces."""
    import warnings

    from scipy import integrate, optimize

    from polymoment.polymodel import InfiniteMomentQuadError

    def f(t):
        u = u_max * math.exp(-t)
        if u == 0.0:
            return 0.0
        w = float(dist.survival_quantile(np.array([u]))[0]) - loc
        mag = abs(w)
        if mag == 0.0:
            return 0.0
        log_term = p * math.log(mag) - t
        if log_term > 700.0:
            raise InfiniteMomentQuadError(f"moment integrand overflows at order p={p}")
        val = math.exp(log_term)
        if signed and w < 0.0 and (int(p) % 2 == 1):
            val = -val
        return val

    breaks = [0.0]
    if loc != 0.0:
        def h(t):
            return float(dist.survival_quantile(np.array([u_max * math.exp(-t)]))[0]) - loc

        try:
            if h(1e-9) * h(60.0) < 0:
                breaks.append(float(optimize.brentq(h, 1e-9, 60.0)))
        except ValueError:
            pass
    breaks = sorted(set(breaks + [50.0]))
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(breaks, breaks[1:]):
            piece, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=400)
            total += piece
        piece, _ = integrate.quad(f, breaks[-1], math.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    return u_max * (total + piece)


def ref_stratified(dist, p, reps, seed, delta=1e-3):
    """(value, stderr, power_mean, power_mean_stderr) with at least two body batches."""
    exact_tail = ref_survival_quad(dist, p, u_max=delta)
    u = delta + (1.0 - delta) * _stream(seed, 0).random(reps)
    body = np.abs(dist.survival_quantile(u)) ** p
    nb = max(2, int(math.sqrt(reps)))
    batch_means = np.array([b.mean() for b in np.array_split(body, nb)])
    m = exact_tail + (1.0 - delta) * float(body.mean())
    se_m = (1.0 - delta) * float(batch_means.std(ddof=1) / math.sqrt(nb))
    value = m ** (1.0 / p)
    return value, se_m * value / (p * m), m, se_m


STRATIFIED_DISTS = [
    ParetoPower(6.0),
    LogPerturbedPareto(r=5.0, kappa=0.5, slowvar=SlowlyVarying.log_power(1.0)),
]


class TestStratifiedMoment:
    @pytest.mark.parametrize("dist", STRATIFIED_DISTS)
    def test_survival_quad_top_region(self, dist):
        from polymoment.polymodel import _survival_quad

        got = _survival_quad(dist, [1.5, 4.0], u_max=1e-3).tolist()
        assert got == [ref_survival_quad(dist, p, u_max=1e-3) for p in (1.5, 4.0)]

    def test_zero_replications_rejected(self):
        from polymoment import stratified_moment

        with pytest.raises(ValueError):
            stratified_moment(ParetoPower(6.0), 2.0, 0, 1)

    def test_one_replication_has_zero_stderr(self):
        import warnings

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
# the survival quadrature over a whole exponent grid against the per-exponent loop
# ---------------------------------------------------------------------------


def ref_cell_abs_moment(dist, p, symmetrized):
    loc, scale = cell_loc_scale(dist, symmetrized)
    if symmetrized or loc == 0.0:
        if isinstance(dist, LogPerturbedPareto):  # no closed form: the generic quadrature
            m = math.inf if p >= dist.moment_boundary else ref_survival_quad(dist, p)
        else:
            m = dist.raw_abs_moment(p)
        return m / scale ** p
    at = dist.atoms()
    if at is not None:
        vals, probs = at
        return float(np.sum(probs * np.abs(vals - loc) ** p)) / scale ** p
    if p >= dist.moment_boundary:
        return math.inf
    return ref_survival_quad(dist, p, loc=loc) / scale ** p


def ref_natural_values(dist, tag, points):
    from polymoment.polymodel import MODULATOR_HIGH, _is_symmetrized

    symmetrized = _is_symmetrized(tag)
    factor = MODULATOR_HIGH if symmetrized else 1.0
    grid = natural_envelope(dist, tag, points=points).p_grid
    moments = [ref_cell_abs_moment(dist, float(p), symmetrized) for p in grid]
    return np.array([factor * m ** (1.0 / float(p)) for m, p in zip(moments, grid)])


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
    """The power mean with its own quadrature: atoms scaled before the power, else quad."""
    from polymoment.polymodel import _is_symmetrized

    k = model.multiplicities[slot]
    dist = model.distributions[slot]
    loc, scale = cell_loc_scale(dist, _is_symmetrized(model.regime.tag))
    at = dist.atoms()
    if at is not None:
        vals, probs = at
        return float(np.sum(probs * ((vals - loc) / scale) ** k))
    return ref_survival_quad(dist, float(k), loc=loc, signed=True) / scale ** k


class TestSurvivalQuadGrid:
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
        ],
        ids=["pareto6_centered", "pareto8_centered", "lpp_centered", "lpp_symmetrised",
             "rademacher", "double_exp_centered", "lpp_uncentered", "double_exp_symmetrised",
             "atoms_centered"],
    )
    def test_natural_envelope_matches_per_exponent_loop(self, dist, tag, points):
        got = natural_envelope(dist, tag, points=points).values
        assert np.array_equal(got, ref_natural_values(dist, tag, points))

    def test_signed_moments_and_variance(self):
        dist = LogPerturbedPareto(6.0, 0.5, SlowlyVarying.log_power(1.0))
        for k in (1, 2, 3):
            assert dist.signed_moment(k) == ref_survival_quad(dist, float(k), signed=True)
        mu = ref_survival_quad(dist, 1.0, signed=True)
        assert dist.variance() == ref_survival_quad(dist, 2.0, signed=True) - mu * mu
        assert cell_abs_moment(LPP_LOG, [2.0], symmetrized=False)[0] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("dist", STRATIFIED_DISTS)
    def test_stratified_top_region(self, dist):
        from polymoment import stratified_moment

        est = stratified_moment(dist, 2.5, 10000, 3)
        assert est.power_mean == ref_stratified(dist, 2.5, 10000, 3)[2]

    def test_one_envelope_reuses_quantile_nodes(self):
        calls = [0]

        def quantile(u):
            calls[0] += 1
            return u ** (-1.0 / 6.0)

        dist = CustomQuantile(quantile=quantile, boundary=6.0, centered=True)
        natural_envelope(dist, "common_independent")
        # the per-exponent loop evaluates the quantile over 500,000 times
        assert 0 < calls[0] < 50000

    def test_symmetrised_envelope_reuses_quantile_nodes(self):
        calls = [0]

        def quantile(u):
            calls[0] += 1
            return u ** (-1.0 / 6.0)

        natural_envelope(CustomQuantile(quantile=quantile, boundary=6.0), "martingale")
        # one quadrature per exponent evaluates the quantile over 500,000 times
        assert 0 < calls[0] < 50000

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
        assert power_mean(model, 0) == ref_power_mean(model, 0)


class TestEnvelopeCache:
    def test_quadrature_roundoff_is_not_a_warning(self):
        # QUADPACK reports roundoff on 4 of this envelope's quadratures; it is
        # returned, not warned, so no caller has to swap the process-global
        # warning filters to silence it
        dist = CustomQuantile(quantile=lambda u: u ** (-1.0 / 6.0), boundary=6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = natural_envelope(dist, "common_independent", points=17)
        assert np.all(np.isfinite(env.values))

    def test_concurrent_first_calls_agree(self):
        import threading

        from polymoment.polymodel import _tabulate_natural

        dist = CustomQuantile(quantile=lambda u: u ** (-1.0 / 6.0), boundary=6.0)
        start = threading.Barrier(8)
        envs = [None] * 8

        def first_call(i):
            start.wait(timeout=60)
            envs[i] = natural_envelope(dist, "common_independent", points=17)

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
        for env in envs:
            assert np.array_equal(env.values, want)

    def test_repeated_call_returns_the_same_envelope(self):
        env = natural_envelope(ParetoPower(7.0, centered=True), "martingale", points=17)
        assert natural_envelope(ParetoPower(7.0, centered=True), "martingale", points=17) is env
        assert natural_envelope(ParetoPower(7.0, centered=True), "martingale", p_grid=env.p_grid) is env
