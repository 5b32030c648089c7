import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import polymoment
from polymoment import (
    CoefficientTensor,
    CustomQuantile,
    DependenceRegime,
    ExperimentPlan,
    ParetoPower,
    PolynomialModel,
    Rademacher,
    brute_force_moments,
    convergence_diagnostics,
    doob_experiment,
    natural_zeta_chain,
    run_experiment,
    variance_of_Q,
)
from polymoment.mcverify import (
    DRIFT_SLOPE, auto_p_grid, host_class, plan_from_config, plan_to_config,
)
from polymoment.cli import load_config
from polymoment.polymodel import ConfigError, model_from_config

BUNDLED = sorted(
    p.name[: -len(".json")]
    for p in resources.files("polymoment").joinpath("scenarios").iterdir()
    if p.name.endswith(".json")
)


def rademacher_model(d, n, tag="common_independent"):
    return PolynomialModel(
        d=d,
        n=n,
        coefficients=CoefficientTensor.uniform(d, n),
        regime=DependenceRegime(tag),
        distributions=tuple(Rademacher() for _ in range(d)),
    )


def pareto_model(rs, n, tag="common_independent", sharing="none"):
    centered = tag in ("common_independent", "inside_independent")
    dists = tuple(
        ParetoPower(r, centered=centered, standardized=True) for r in rs
    )
    return PolynomialModel(
        d=len(rs),
        n=n,
        coefficients=CoefficientTensor.uniform(len(rs), n),
        regime=DependenceRegime(tag),
        distributions=dists,
        sharing=sharing,
    )


class TestBruteForce:
    def test_three_atom_hand_enumeration(self):
        # independent re-implementation over all 3^6 joint states
        atoms = CustomQuantile(
            quantile=lambda u: np.where(u < 0.25, 1.0, np.where(u < 0.75, 0.0, -1.0)),
            atom_values=(-1.0, 0.0, 1.0),
            atom_probs=(0.25, 0.5, 0.25),
        )
        model = PolynomialModel(
            2, 3, CoefficientTensor.uniform(2, 3),
            DependenceRegime("common_independent"), (atoms, atoms),
        )
        got = brute_force_moments(model, [1, 2, 3])

        vals = [-1.0, 0.0, 1.0]
        probs = {-1.0: 0.25, 0.0: 0.5, 1.0: 0.25}
        b = 1.0 / math.sqrt(3.0)
        tuples = [(1, 2), (1, 3), (2, 3)]
        want = np.zeros(3)
        for state in itertools.product(vals, repeat=6):
            cells = {(i, m): state[(i - 1) * 2 + m - 1] for i in (1, 2, 3) for m in (1, 2)}
            weight = 1.0
            for v in state:
                weight *= probs[v]
            q = sum(b * cells[(i1, 1)] * cells[(i2, 2)] for i1, i2 in tuples)
            for j, p in enumerate([1, 2, 3]):
                want[j] += weight * abs(q) ** p
        assert np.allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("tag, direction, sharing", [
        ("martingale", "forward", "none"),
        ("martingale", "reverse", "none"),
        ("vector_independent", "forward", "none"),
        ("vector_independent", "reverse", "none"),
        ("martingale", "forward", "vectors"),
        ("martingale", "reverse", "all"),
    ])
    def test_modulated_regimes_hand_enumeration(self, tag, direction, sharing):
        # independent walk over every (magnitude, sign) assignment of the
        # draws, applying the documented modulator 1 + 0.5 * (mean of earlier
        # signs): one state over all cells for the martingale, one per slot
        # for vector independence, earlier in reversed time for reverse models
        two = CustomQuantile(
            quantile=lambda u: np.where(u <= 0.25, -2.0, 1.0),
            atom_values=(-2.0, 1.0),
            atom_probs=(0.25, 0.75),
            standardized=True,
        )
        dists = (two, two) if sharing != "none" else (two, Rademacher())
        entries = {(1, 2): 0.3, (1, 3): -0.7, (2, 3): 1.1}
        model = PolynomialModel(
            2, 3, CoefficientTensor(2, 3, entries), DependenceRegime(tag, direction), dists,
            sharing=sharing,
        )
        ps = [1.0, 2.0, 3.5]
        got = brute_force_moments(model, ps)

        def options(dist):
            vals, probs = dist.atoms()
            scale = math.sqrt(sum(q * v * v for v, q in zip(vals, probs)))
            return [(s, abs(v) / scale, q / 2) for v, q in zip(vals, probs) for s in (-1.0, 1.0)]

        def key(i, m):
            return {"none": (i, m), "vectors": (i,), "all": ()}[sharing]

        keys = sorted({key(i, m) for i in range(3) for m in range(2)})
        times = [2, 1, 0] if direction == "reverse" else [0, 1, 2]
        want = np.zeros(len(ps))
        for state in itertools.product(*(options(dists[k[1] if len(k) > 1 else 0]) for k in keys)):
            draw = dict(zip(keys, state))
            weight = math.prod(q for _, _, q in state)
            cell = {}
            seen = {m: [] for m in range(2)}  # signs of earlier cells, per slot
            for i in times:
                for m in range(2):
                    earlier = seen[m] if tag == "vector_independent" else seen[0] + seen[1]
                    w = 1.0 + 0.5 * sum(earlier) / len(earlier) if earlier else 1.0
                    sign, mag, _ = draw[key(i, m)]
                    cell[i, m] = sign * mag * w
                for m in range(2):
                    seen[m].append(draw[key(i, m)][0])
            q = sum(b * cell[i1 - 1, 0] * cell[i2 - 1, 1] for (i1, i2), b in entries.items())
            want += weight * np.abs(q) ** np.array(ps)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_variance_consistency(self):
        model = rademacher_model(2, 3)
        assert brute_force_moments(model, [2])[0] == pytest.approx(1.0, rel=1e-12)
        assert variance_of_Q(model.coefficients, model.sigma_matrix()) == pytest.approx(1.0)

    def test_single_cell(self):
        model = PolynomialModel(
            1, 1, CoefficientTensor(1, 1, {(1,): 0.5}),
            DependenceRegime("common_independent"), (Rademacher(),),
        )
        got = brute_force_moments(model, [1, 3])
        assert got[0] == pytest.approx(0.5)
        assert got[1] == pytest.approx(0.125)


class TestRunExperiment:
    def test_rademacher_matches_enumeration(self):
        model = rademacher_model(2, 3)
        plan = ExperimentPlan(
            model=model,
            replications=200000,
            p_grid=np.array([2.0, 2.5, 3.0]),
            bound=natural_zeta_chain(model),
            seed=1,
        )
        report = run_experiment(plan)
        exact = brute_force_moments(model, [2.0, 2.5, 3.0])
        for row, e in zip(report.moment_rows, exact):
            want = e ** (1.0 / row.p)
            assert abs(row.empirical - want) <= 4 * max(row.stderr, 1e-4)
            assert row.passed
        assert report.passed

    def test_support_exceeded(self):
        model = pareto_model([6.0, 6.0], 4)
        chain = natural_zeta_chain(model)
        with pytest.raises(ValueError, match="support exceeded"):
            ExperimentPlan(
                model=model, replications=2000, p_grid=np.array([3.2]),
                bound=chain, seed=0,
            )

    def test_minimum_replications(self):
        model = rademacher_model(2, 3)
        with pytest.raises(ValueError):
            ExperimentPlan(
                model=model, replications=500, p_grid=np.array([2.0]),
                bound=natural_zeta_chain(model), seed=0,
            )

    def test_high_p_warning(self):
        model = pareto_model([6.0, 6.0], 4)
        chain = natural_zeta_chain(model)
        with pytest.warns(UserWarning) as record:
            ExperimentPlan(
                model=model, replications=2000, p_grid=np.array([2.7]),
                bound=chain, seed=0,
            )
        # attributed to the code that built the plan, not the generated __init__
        assert record[0].filename == __file__

    def test_deterministic_reports(self):
        model = pareto_model([6.0, 8.0], 4)
        chain = natural_zeta_chain(model)
        kwargs = dict(
            model=model, replications=4000, p_grid=auto_p_grid(model, points=3),
            bound=chain, x_grid=(5.0, 10.0), seed=99,
        )
        r1 = run_experiment(ExperimentPlan(**kwargs))
        r2 = run_experiment(ExperimentPlan(**kwargs))
        assert r1.result_payload() == r2.result_payload()

    def test_threads_do_not_change_results(self):
        model = pareto_model([6.0, 8.0], 4)
        chain = natural_zeta_chain(model)
        base = dict(
            model=model, replications=64000, p_grid=auto_p_grid(model, points=3),
            bound=chain, seed=7,
        )
        r1 = run_experiment(ExperimentPlan(**base, threads=1))
        r2 = run_experiment(ExperimentPlan(**base, threads=4))
        assert r1.result_payload() == r2.result_payload()

    def test_sweep_respects_bound_and_concentrates(self):
        model = pareto_model([6.0, 8.0], 5)
        chain = natural_zeta_chain(model)
        grid = auto_p_grid(model, points=4)
        plan = ExperimentPlan(
            model=model, replications=150000, p_grid=grid,
            bound=chain, seed=5, b_sweep=64,
        )
        report = run_experiment(plan)
        values = np.asarray(report.sweep["values"])  # (tensors, p)
        labels = report.sweep["labels"]
        bounds = np.array([chain.bound(float(p)) for p in grid])
        assert np.all(values <= bounds[None, :])
        # concentration maximises the ratio up to Monte Carlo resolution:
        # `single` sits at the top of the sweep (within noise of the best
        # random unit tensor) and clearly above the uniform tensor
        ratios = values[:, -1] / bounds[-1]
        single = ratios[labels.index("single")]
        uniform = ratios[labels.index("uniform")]
        assert single >= 0.9 * float(ratios.max())
        assert single > uniform


class TestChainCache:
    """A natural chain depends on the regime, the input tables, the grid and
    ``points`` only, so it is built once for every model that shares them."""

    def test_models_differing_in_n_share_one_chain(self):
        import dataclasses

        tensor = CoefficientTensor.random_unit(2, 20, np.random.default_rng(0))
        for tag in ("common_independent", "martingale"):
            short = pareto_model([6.0, 8.0], 5, tag=tag)
            long = dataclasses.replace(short, n=20, coefficients=tensor)
            grid = auto_p_grid(short, points=5, frac=0.9)
            chain = natural_zeta_chain(short, p_grid=grid)
            assert natural_zeta_chain(long, p_grid=grid) is chain
            assert natural_zeta_chain(long, p_grid=grid.tolist()) is chain
            assert natural_zeta_chain(short, scale=2.0) is natural_zeta_chain(long, scale=2.0)

    def test_anything_else_builds_another_chain(self):
        from polymoment.polymodel import _tabulate_natural

        model = pareto_model([6.0, 8.0], 5, tag="martingale")
        grid = auto_p_grid(model, points=5, frac=0.9)
        chain = natural_zeta_chain(model, p_grid=grid)
        # the vector regime and the reversed direction take the same tables
        vector = pareto_model([6.0, 8.0], 5, tag="vector_independent")
        reverse = PolynomialModel(2, 5, model.coefficients, DependenceRegime("martingale", "reverse"),
                                  model.distributions)
        others = [
            natural_zeta_chain(vector, p_grid=grid),
            natural_zeta_chain(reverse, p_grid=grid),
            natural_zeta_chain(model, p_grid=grid[:-1]),
            natural_zeta_chain(model),
            natural_zeta_chain(model, points=129),
            natural_zeta_chain(model, p_grid=grid, scale=2.0),
        ]
        assert len({id(c) for c in [chain, *others]}) == 7
        assert all(c.inputs == chain.inputs for c in others[:2])
        # a cleared table cache builds new tables, and so a new chain
        _tabulate_natural.cache_clear()
        rebuilt = natural_zeta_chain(model, p_grid=grid)
        assert rebuilt is not chain and rebuilt.inputs[0] is not chain.inputs[0]
        assert rebuilt.bound.values.tobytes() == chain.bound.values.tobytes()


class TestDoob:
    def test_path_enumeration_oracle(self):
        model = rademacher_model(1, 8, tag="common_independent")
        b = 1.0 / math.sqrt(8.0)
        # exact running-max moments over all 2^8 sign paths
        ps = [2.0, 3.0]
        exact = np.zeros(len(ps))
        for signs in itertools.product((-1.0, 1.0), repeat=8):
            s = 0.0
            best = 0.0
            for x in signs:
                s += b * x
                best = max(best, abs(s))
            for j, p in enumerate(ps):
                exact[j] += best ** p / 2.0 ** 8
        plan = ExperimentPlan(
            model=model, replications=200000, p_grid=np.array(ps),
            bound=natural_zeta_chain(model), seed=3, experiment="doob",
        )
        report = doob_experiment(plan)
        for row, e in zip(report.moment_rows, exact):
            want = e ** (1.0 / row.p)
            assert abs(row.empirical - want) <= 4 * max(row.stderr, 1e-4)
            assert row.passed

    def test_degenerate_zero_inputs(self):
        from polymoment import Indicator

        zero = CustomQuantile(
            quantile=lambda u: np.zeros_like(u),
            atom_values=(0.0,),
            atom_probs=(1.0,),
        )
        model = PolynomialModel(
            1, 4, CoefficientTensor.uniform(1, 4),
            DependenceRegime("common_independent"), (zero,),
        )
        # a zero input has no positive natural envelope; any bound works
        plan = ExperimentPlan(
            model=model, replications=2000, p_grid=np.array([2.0]),
            bound=Indicator(r=64.0), seed=0, experiment="doob",
        )
        report = doob_experiment(plan)
        assert report.moment_rows[0].empirical == 0.0
        assert report.passed

    def test_a_bound_without_a_conjugate_tail_fails_before_the_first_draw(self, monkeypatch):
        from polymoment import EnvelopeDomainError, Indicator, Scaled
        from polymoment.polymodel import Sampler

        model = PolynomialModel(
            1, 1, CoefficientTensor.uniform(1, 1), DependenceRegime("martingale"),
            (ParetoPower(12.0, standardized=True),),
        )
        # finite on the p grid, but the Doob factor p/(p-1) overflows it at
        # the conjugate grid's start, 1 + 1e-9
        plan = ExperimentPlan(
            model=model, replications=100_000, p_grid=np.array([2.0, 3.0]),
            bound=Scaled(Indicator(r=10.0), 1e300), x_grid=(5.0,), experiment="doob",
        )
        calls = []
        cells = Sampler.cells
        monkeypatch.setattr(Sampler, "cells", lambda s, *args: calls.append(args) or cells(s, *args))
        with pytest.raises(EnvelopeDomainError):
            doob_experiment(plan)
        assert calls == []

    def test_doob_requires_p_above_one(self):
        model = rademacher_model(1, 4)
        with pytest.raises(ValueError):
            ExperimentPlan(
                model=model, replications=2000, p_grid=np.array([1.0, 2.0]),
                bound=natural_zeta_chain(model), seed=0, experiment="doob",
            )


class TestConvergenceDiagnostics:
    def test_boundary_detection(self):
        # with every cell driven by one draw the sum reduces to a power of a
        # single Pareto variable and the moment boundary sits at 2; the trend
        # diagnostic separates 0.9r from 1.1r only over a wide schedule and
        # the slope distributions overlap across seeds at these offsets, so
        # this pins a representative seed
        model = PolynomialModel(
            2, 4, CoefficientTensor.uniform(2, 4),
            DependenceRegime("martingale"),
            (ParetoPower(4.0, standardized=True), ParetoPower(4.0, standardized=True)),
            sharing="all",
        )
        assert model.combined_r == pytest.approx(2.0)
        schedule = [4000 * 4 ** k for k in range(6)]
        below = convergence_diagnostics(model, 1.8, schedule, seed=1)
        above = convergence_diagnostics(model, 2.2, schedule, seed=1)
        assert not below.drifting
        assert above.drifting

    def test_rademacher_stabilizes(self):
        model = rademacher_model(2, 3)
        rep = convergence_diagnostics(model, 2.0, [2000, 8000, 32000], seed=1)
        assert not rep.drifting

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("p", [2.5, 3.5])
    def test_matches_a_running_loop_bit_for_bit(self, p, seed):
        # criterion 08's model and the head of its schedule: each segment is
        # its own batch_plan, its batches numbered on from the previous one,
        # and each prefix's estimate comes from running Python sums
        from polymoment.envelope import _moment_estimate
        from polymoment.polymodel import Sampler, batch_plan

        model = PolynomialModel(
            2, 10, CoefficientTensor.uniform(1, 10),
            DependenceRegime("common_independent"),
            (ParetoPower(6.0, centered=True, standardized=True),),
            multiplicities=(2,),
        )
        schedule = [20000, 80000, 320000]
        sampler = Sampler(model)
        batch_sums, batch_counts, estimates, stderrs = [], [], [], []
        done = global_batch = 0
        for target in schedule:
            for size in batch_plan(target - done):
                q = sampler.q(sampler.factors(sampler.cells(seed, global_batch, size)))
                batch_sums.append(float(np.sum(np.abs(q) ** p)))
                batch_counts.append(size)
                global_batch += 1
            done = target
            m = sum(batch_sums) / float(sum(batch_counts))
            est = _moment_estimate(
                m, np.array(batch_sums) / np.array(batch_counts), batch_counts, p
            )
            estimates.append(est.value)
            stderrs.append(est.stderr)
        logs_n = np.log(np.array(schedule, dtype=float))
        logs_v = np.log(np.maximum(np.array(estimates), 1e-300))
        slope = float(np.polyfit(logs_n, logs_v, 1)[0])

        rep = convergence_diagnostics(model, p, schedule, seed=seed)
        assert rep.estimates == tuple(estimates)
        assert rep.stderrs == tuple(stderrs)
        assert rep.slope == slope
        moved = estimates[-1] - estimates[0] > 2.0 * stderrs[-1]
        assert rep.drifting == (slope > DRIFT_SLOPE and moved)

    def test_schedule_validation(self):
        model = rademacher_model(2, 3)
        with pytest.raises(ValueError):
            convergence_diagnostics(model, 2.0, [1000], seed=0)
        with pytest.raises(ValueError):
            convergence_diagnostics(model, 2.0, [1000, 500], seed=0)


class TestReports:
    def _small_report(self):
        model = pareto_model([6.0, 8.0], 4)
        plan = plan_from_config(
            {
                "replications": 3000,
                "p_grid": {"kind": "auto", "points": 3},
                "x_grid": [5.0, 10.0],
                "seed": 17,
            },
            model,
        )
        return run_experiment(plan)

    def test_json_schema(self, tmp_path):
        report = self._small_report()
        path = tmp_path / "report.json"
        report.write_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "verification_report"
        assert {"p", "empirical", "stderr", "bound", "ratio", "pass"} <= set(doc["moments"][0])
        assert {"x", "empirical", "stderr", "bound", "pass"} <= set(doc["tails"][0])
        assert "config" in doc and "model" in doc["config"] and "plan" in doc["config"]

    def test_csv_contract(self, tmp_path):
        report = self._small_report()
        paths = report.write_csv(str(tmp_path / "rep"))
        moments = (tmp_path / "rep_moments.csv").read_text().splitlines()
        assert moments[0] == "p,empirical,stderr,bound,ratio,pass"
        assert len(moments) == 1 + len(report.moment_rows)
        tails = (tmp_path / "rep_tails.csv").read_text().splitlines()
        assert tails[0] == "x,empirical,stderr,bound,pass"

    def test_roundtrip_from_embedded_config(self):
        report = self._small_report()
        model = model_from_config(report.config["model"])
        plan = plan_from_config(report.config["plan"], model)
        rerun = run_experiment(plan)
        assert rerun.result_payload() == report.result_payload()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_plan_config_roundtrip(self, name):
        # a report's plan config, read back, writes the same config again
        cfg = load_config(None, name)
        model = model_from_config(cfg["model"])
        once = plan_to_config(plan_from_config(cfg["plan"], model))
        twice = plan_to_config(plan_from_config(json.loads(json.dumps(once)), model))
        assert json.dumps(twice) == json.dumps(once)
        for key, value in cfg["plan"].items():
            if key != "p_grid" or isinstance(value, list):
                assert once[key] == value, key

    def test_bound_object_is_not_embedded_as_a_recipe(self):
        # a chain on the plan's own grid differs from the recipe's default
        # grid, so the report must not claim it can rebuild the bound
        model = pareto_model([6.0, 8.0], 4)
        grid = auto_p_grid(model, points=3)
        plan = ExperimentPlan(
            model=model, replications=1000, p_grid=grid,
            bound=natural_zeta_chain(model, p_grid=grid),
        )
        cfg = plan_to_config(plan)
        assert "unserializable" in cfg["bound"]
        with pytest.raises(ConfigError, match="plan.bound"):
            plan_from_config(cfg, model)

    def test_host_class_in_metadata(self, monkeypatch):
        report = self._small_report()
        host = report.metadata["host"]
        assert host["numpy"] == np.__version__
        assert isinstance(host["simd"], list) and host["simd"]
        assert all(isinstance(target, str) for target in host["simd"])
        assert set(report.result_payload()) == {"moments", "tails", "sweep"}
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        # numpy's private module without its feature table: the guarded read gives up
        monkeypatch.delattr(umath, "__cpu_features__")
        assert host_class() == {"numpy": np.__version__, "simd": "unknown"}



_MARTINGALE_PAYLOAD = """
import json
from polymoment.cli import load_config
from polymoment.mcverify import plan_from_config, run_experiment
from polymoment.polymodel import model_from_config
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
cfg = load_config(None, "pareto_d2_martingale")
report = run_experiment(plan_from_config(dict(cfg["plan"]), model_from_config(cfg["model"])))
print(json.dumps({"avx512": bool(__cpu_features__.get("AVX512_SKX")),
                  "host": report.metadata["host"], "payload": report.result_payload()}))
"""


def test_payload_agrees_across_simd_dispatch():
    # numpy's AVX-512 kernels round differently from its other kernels, so
    # payloads are bit-identical only per host class; with those kernels off,
    # as on a host without them, counts and verdicts agree and moments nearly
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_MARTINGALE_PAYLOAD, {})
    here = json.loads(out.getvalue())
    if not here["avx512"]:
        pytest.skip("no AVX-512 kernels to disable on this host")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.path.dirname(os.path.dirname(polymoment.__file__))}
    run = subprocess.run([sys.executable, "-c", _MARTINGALE_PAYLOAD], env=env,
                         capture_output=True, text=True, timeout=300)
    if run.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in run.stderr:
        pytest.skip(f"numpy rejects the variable: {run.stderr.strip().splitlines()[-1]}")
    assert run.returncode == 0, run.stderr
    there = json.loads(run.stdout)
    if there["avx512"]:
        pytest.skip("numpy ignores the variable on this build")
    # the report names the host class its bits belong to
    assert here["host"]["numpy"] == there["host"]["numpy"]
    assert set(there["host"]["simd"]) < set(here["host"]["simd"])
    a, b = here["payload"], there["payload"]
    assert [row[1] for row in a["tails"]] == [row[1] for row in b["tails"]]  # empirical tails
    assert [row[-1] for row in a["tails"]] == [row[-1] for row in b["tails"]]
    assert [row[-1] for row in a["moments"]] == [row[-1] for row in b["moments"]]
    for ra, rb in zip(a["moments"] + a["tails"], b["moments"] + b["tails"]):
        assert len(ra) == len(rb)
        np.testing.assert_allclose(ra[:-1], rb[:-1], rtol=1e-12, atol=0.0)
