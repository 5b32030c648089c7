import functools
import json
import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

from polymoment.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnvelopeCommand:
    def test_eval_indicator(self, capsys):
        code, out, _ = run_cli(capsys, "envelope", "eval", "--name", "ind4", "--p", "3")
        assert code == 0
        assert out.splitlines()[1] == "3,1"

    def test_eval_beyond_support_prints_inf(self, capsys):
        code, out, _ = run_cli(capsys, "envelope", "eval", "--name", "ps_r6", "--p", "6")
        assert code == 0
        assert out.splitlines()[1] == "6,inf"

    def test_otimes_growth(self, capsys):
        code, out, _ = run_cli(
            capsys, "envelope", "otimes", "--a", "pgrow05", "--b", "pgrow05", "--p", "2"
        )
        assert code == 0
        p, value, split = out.splitlines()[1].split(",")
        assert float(value) == pytest.approx(4.0, rel=1e-6)
        assert float(split) == pytest.approx(0.5, abs=1e-4)

    def test_unresolved_name(self, capsys):
        code, _, err = run_cli(capsys, "envelope", "eval", "--name", "nosuch", "--p", "2")
        assert code == 2
        assert "unresolved" in err

    def test_config_defined_envelope(self, capsys, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({
            "envelopes": {
                "half": {"form": "scaled", "inner": "ind4", "factor": 0.5},
            }
        }))
        code, out, _ = run_cli(
            capsys, "envelope", "eval", "--name", "half", "--p", "2",
            "--config", str(cfg),
        )
        assert code == 0
        assert out.splitlines()[1] == "2,0.5"

    def test_full_precision_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "envelope", "eval", "--name", "ps_r6", "--p", "5.5"
        )
        value = out.splitlines()[1].split(",")[1]
        # full-precision decimal round-trips exactly
        assert float(value) == (6.0 - 5.5) ** (-1.0 / 6.0)
        assert len(value) >= 12


class TestZetaCommand:
    def test_common_independent_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeta", "--inputs", "ind8,ind8",
            "--regime", "common_independent", "--grid", "3",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        want = (0.87 * 3 / math.log(3.0)) * 3 * math.sqrt(2.0)
        assert float(row[-1]) == pytest.approx(want, rel=1e-3)

    def test_reverse_matches_forward_for_equal_inputs(self, capsys):
        code, fwd, _ = run_cli(
            capsys, "zeta", "--inputs", "ps_r6,ps_r6", "--regime", "martingale",
            "--grid", "1.2:2.6:6",
        )
        assert code == 0
        code, rev, _ = run_cli(
            capsys, "zeta", "--inputs", "ps_r6,ps_r6", "--regime", "martingale",
            "--direction", "reverse", "--grid", "1.2:2.6:6",
        )
        assert code == 0
        # final-stage columns identical
        for lf, lr in zip(fwd.splitlines()[1:], rev.splitlines()[1:]):
            assert lf.split(",")[-1] == lr.split(",")[-1]

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "zeta", "--inputs", "ind1.2,ind1.3", "--regime", "martingale",
            "--grid", "1.05",
        )
        assert code == 2
        assert "reciprocal" in err


class TestTailCommand:
    def test_indicator_inverse_power(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--name", "ind4", "--x", "10")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1e-4, rel=1e-9)

    def test_vacuous_marker(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--name", "ind4", "--x", "2")
        assert code == 0
        assert out.splitlines()[1] == "2,1,vacuous"

    def test_slope_matches_closed_form(self, capsys):
        # conjugate of the Pareto-power singularity decays with the same
        # leading exponent as the closed-form tail
        code, out, _ = run_cli(
            capsys, "tail", "--name", "ps_r4", "--x", "10,100,1000"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        xs = np.array([float(r[0]) for r in rows])
        ts = np.array([float(r[1]) for r in rows])
        slope = np.polyfit(np.log(xs), np.log(ts), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.25)


class TestVerifyCommand:
    def test_bundled_scenario_passes(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "rep")
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", "pareto_d2_common",
            "--reps", "4000", "--out", out_prefix,
        )
        assert code == 0
        assert "dominance: PASS" in out
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["schema_version"] == 1
        assert (tmp_path / "rep_moments.csv").exists()

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("name", ["pareto_d2_inside", "pareto_diagonal_degree2"])
    def test_bundled_grid_does_not_warn(self, capsys, tmp_path, name):
        # their grids end below HIGH_P_FRAC of the bound's support endpoint
        code, _, _ = run_cli(capsys, "verify", "--scenario", name, "--out", str(tmp_path / name))
        assert code == 0

    def test_broken_bound_exits_3(self, capsys, tmp_path):
        cfg = {
            "name": "broken",
            "model": {
                "d": 2, "n": 4,
                "regime": {"tag": "common_independent", "direction": "forward"},
                "sharing": "none",
                "coefficients": {"kind": "uniform"},
                "distributions": [
                    {"kind": "pareto_power", "r1": 6.0, "centered": True, "standardized": True},
                    {"kind": "pareto_power", "r1": 8.0, "centered": True, "standardized": True},
                ],
            },
            "plan": {
                "replications": 4000,
                "p_grid": {"kind": "auto", "points": 3},
                "bound": {"kind": "zeta_natural", "scale": 0.01},
                "seed": 5,
            },
            "output": {},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == 3
        assert "VIOLATION" in out

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--config", "/no/such/file.json")
        assert code == 2

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "bogus": 1}))
        code, _, err = run_cli(capsys, "verify", "--config", str(path))
        assert code == 2
        assert "unknown" in err.lower()

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--scenario", "nope")
        assert code == 2
        assert "bundled" in err

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "-1"), ("--seed", str(2 ** 64)), ("--threads", "0")]
    )
    def test_bad_seed_or_threads_flag_exits_2(self, capsys, flag, value):
        code, _, err = run_cli(
            capsys, "verify", "--scenario", "rademacher_d2_common", flag, value
        )
        assert code == 2
        assert flag[2:] in err

    def test_bad_seed_in_config_exits_2(self, capsys, tmp_path):
        cfg = {
            "name": "bad",
            "model": {
                "d": 1, "n": 3,
                "regime": {"tag": "common_independent", "direction": "forward"},
                "coefficients": {"kind": "uniform"},
                "distributions": [{"kind": "rademacher"}],
            },
            "plan": {"replications": 2000, "p_grid": [2.0], "seed": -1},
            "output": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "verify", "--config", str(path))
        assert code == 2
        assert "seed" in err

    def test_zero_threads_from_environment_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYMOMENT_THREADS", "0")
        code, _, err = run_cli(capsys, "verify", "--scenario", "rademacher_d2_common")
        assert code == 2
        assert "threads" in err

    def test_roundtrip_from_report(self, capsys, tmp_path):
        prefix = str(tmp_path / "first")
        code, _, _ = run_cli(
            capsys, "verify", "--scenario", "pareto_d2_common",
            "--reps", "3000", "--out", prefix,
        )
        assert code == 0
        doc = json.loads((tmp_path / "first.json").read_text())
        rerun_cfg = {
            "name": "rerun",
            "model": doc["config"]["model"],
            "plan": doc["config"]["plan"],
            "output": {},
        }
        path = tmp_path / "rerun.json"
        path.write_text(json.dumps(rerun_cfg))
        prefix2 = str(tmp_path / "second")
        code, _, _ = run_cli(capsys, "verify", "--config", str(path), "--out", prefix2)
        assert code == 0
        doc2 = json.loads((tmp_path / "second.json").read_text())
        assert doc["moments"] == doc2["moments"]
        assert doc["tails"] == doc2["tails"]

    def test_thread_env_var_honoured(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYMOMENT_THREADS", "2")
        prefix = str(tmp_path / "thr")
        code, _, _ = run_cli(
            capsys, "verify", "--scenario", "pareto_d2_common",
            "--reps", "2000", "--out", prefix,
        )
        assert code == 0
        doc = json.loads((tmp_path / "thr.json").read_text())
        assert doc["metadata"]["threads"] == 2
        # the flag overrides the environment
        code, _, _ = run_cli(
            capsys, "verify", "--scenario", "pareto_d2_common",
            "--reps", "2000", "--threads", "1", "--out", prefix,
        )
        doc = json.loads((tmp_path / "thr.json").read_text())
        assert doc["metadata"]["threads"] == 1


_SCIPY_FREE_CHECK = """
import contextlib, io, sys

import polymoment
import polymoment.cli

def scipy_free(what):
    assert "scipy" not in sys.modules, what + " imported scipy"

scipy_free("import")
assert "numpy.random" in sys.modules, "numpy.random is left to the first draw"
with contextlib.redirect_stdout(io.StringIO()):
    try:
        polymoment.cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
scipy_free("--help")
for name in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = polymoment.cli.main(
            ["verify", "--scenario", name, "--out", sys.argv[1] + "/" + name]
        )
    assert code == 0, name
    scipy_free(name)
"""


class TestImportHygiene:
    def test_scipy_waits_for_the_first_quadrature(self, tmp_path):
        # inputs with closed forms or atoms never need a quadrature, so these
        # scenarios run without loading scipy at all
        import polymoment

        src = os.path.dirname(os.path.dirname(polymoment.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        scenarios = [
            "pareto_d2_martingale", "pareto_d2_vector", "pareto_reverse_window",
            "rademacher_d1_doob", "rademacher_d2_common",
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_FREE_CHECK, str(tmp_path), *scenarios],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr


class TestSimulateCommand:
    def test_sample_export(self, capsys, tmp_path):
        cfg = {
            "name": "export",
            "model": {
                "d": 1, "n": 3,
                "regime": {"tag": "common_independent", "direction": "forward"},
                "sharing": "none",
                "coefficients": {"kind": "uniform"},
                "distributions": [{"kind": "rademacher"}],
            },
            "plan": {
                "replications": 2000,
                "p_grid": [2.0],
                "seed": 9,
            },
            "output": {
                "samples": str(tmp_path / "q.f64"),
                "samples_format": "f64",
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        values = np.fromfile(tmp_path / "q.f64", dtype="<f8")
        assert values.size == 2000

    def test_samples_follow_plan_window(self, capsys, tmp_path):
        from polymoment.cli import load_config
        from polymoment.polymodel import model_from_config, sample_Q, sample_reverse_V

        cfg = load_config(None, "pareto_reverse_window")
        assert cfg["plan"]["window"] == [2, 6]
        reps, seed = 3000, 17
        cfg["output"] = {"samples": str(tmp_path / "v.f64"), "samples_format": "f64"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(path), "--reps", str(reps), "--seed", str(seed)
        )
        assert code == 0
        values = np.fromfile(tmp_path / "v.f64", dtype="<f8")
        model = model_from_config(cfg["model"])
        assert np.array_equal(values, sample_reverse_V(model, seed, reps, 2, 6))
        assert not np.array_equal(values, sample_Q(model, seed, reps))


_DELETE = object()


def _edited_scenario(path=(), value=None):
    """rademacher_d2_common at 2,000 replications with the entry at ``path`` set or deleted."""
    from polymoment.cli import load_config

    cfg = load_config(None, "rademacher_d2_common")
    cfg["plan"]["replications"] = 2000
    if path:
        node = functools.reduce(operator.getitem, path[:-1], cfg)
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return cfg


# case -> (path, value, token the error line must name)
MALFORMED_CONFIGS = {
    "unknown_distribution_key": (
        ("model", "distributions", 0), {"kind": "rademacher", "bogus": 1}, "bogus"),
    "string_tail_index": (
        ("model", "distributions", 0), {"kind": "pareto_power", "r1": "abc"}, "r1"),
    "tail_index_below_one": (
        ("model", "distributions", 0), {"kind": "pareto_power", "r1": 0.5}, "0.5"),
    "scalar_multiplicities": (("model", "multiplicities"), 2, "multiplicities"),
    "short_window": (("plan", "window"), [1], "window"),
    "unknown_coefficients_key": (("model", "coefficients", "bogus"), 1, "bogus"),
    "unknown_grid_key": (("plan", "p_grid"), {"kind": "auto", "point": 9}, "point"),
    "unknown_slowvar_key": (
        ("model", "distributions", 0),
        {"kind": "log_perturbed_pareto", "slowvar": {"kind": "constant", "valu": 2.0}},
        "valu"),
    "missing_degree": (("model", "d"), _DELETE, "missing keys ['d']"),
    "entry_triple": (
        ("model", "coefficients"), {"kind": "entries", "entries": [[[1, 2], 1.0, 3]]}, "entries"),
    "tail_triple": (("plan", "bound"), {"kind": "dominant", "tails": [[6.0, 0.0, 1.0]]}, "tails"),
    "regime_string": (("model", "regime"), "martingale", "model.regime"),
    "zero_threshold": (("plan", "x_grid"), [0.0, 2.0], "thresholds"),
    "diverging_power_mean": (
        ("model",),
        {"d": 2, "n": 5, "regime": {"tag": "common_independent"}, "multiplicities": [2],
         "distributions": [{"kind": "pareto_power", "r1": 1.5, "centered": True}]},
        "E X^2 diverges"),
    "unstandardisable_input": (
        ("model", "distributions", 0),
        {"kind": "pareto_power", "r1": 1.5, "standardized": True},
        "cannot standardise"),
}


class TestMalformedInput:
    """Every malformed input exits 2 with one ``error:`` line naming it."""

    def _assert_config_error(self, code, err, token):
        assert code == 2
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert token in lines[0]

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_config(self, capsys, tmp_path, case):
        entry, value, token = MALFORMED_CONFIGS[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_edited_scenario(entry, value)))
        code, _, err = run_cli(capsys, "verify", "--config", str(path))
        self._assert_config_error(code, err, token)

    def test_bad_samples_format_fails_before_the_run(self, capsys, tmp_path):
        cfg = _edited_scenario(("output",), {
            "json": str(tmp_path / "rep.json"),
            "samples": str(tmp_path / "q.bin"),
            "samples_format": "xyz",
        })
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        self._assert_config_error(code, err, "xyz")
        assert out == ""
        assert not (tmp_path / "rep.json").exists()
        assert not (tmp_path / "q.bin").exists()

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["verify", "--config", "{tmp}"], "Is a directory"),
            (["envelope", "eval", "--name", "ind4", "--p", "a:b"], "a:b"),
            (["zeta", "--inputs", "ind8,ind8", "--grid", "3,2"], "grid"),
            (["tail", "--name", "ind4", "--x", "10", "--norm-factor", "0"], "--norm-factor"),
            (["envelope", "eval", "--name", "ps_r0", "--p", "2"], "ps_r0"),
            (["envelope", "eval", "--name", "ind4", "--p", "1:2:0"], "1:2:0"),
            (["tail", "--name", "ind4", "--x", "5:6:0"], "5:6:0"),
            (["zeta", "--inputs", "ps_r6,ps_r8", "--grid", "1:2:0"], "1:2:0"),
        ],
    )
    def test_flag(self, capsys, tmp_path, argv, token):
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run_cli(capsys, *argv)
        self._assert_config_error(code, err, token)

    def test_non_integer_thread_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYMOMENT_THREADS", "abc")
        code, _, err = run_cli(capsys, "verify", "--scenario", "rademacher_d2_common")
        self._assert_config_error(code, err, "POLYMOMENT_THREADS")

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch):
        def broken(plan):
            raise ValueError("internal bug")

        monkeypatch.setattr("polymoment.cli.run_experiment", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["verify", "--scenario", "rademacher_d2_common", "--reps", "2000"])

    @pytest.mark.parametrize(
        "flags, token",
        [(["--seed", "-1"], "plan: seed must lie in [0, 2^64), got -1"),
         (["--threads", "0"], "plan: threads must be at least 1, got 0")],
        ids=["seed", "threads"],
    )
    def test_run_scalars_are_checked_before_the_chain(self, capsys, monkeypatch, flags, token):
        def no_chain(*args, **kwargs):
            raise AssertionError("the bound chain was built")

        monkeypatch.setattr("polymoment.mcverify.natural_zeta_chain", no_chain)
        code, _, err = run_cli(capsys, "verify", "--scenario", "pareto_d2_inside", *flags)
        self._assert_config_error(code, err, token)


class TestNumericOverflow:
    """Overflowing float arithmetic exits 4 with one line and no traceback."""

    def _assert_numeric_failure(self, code, err):
        assert code == 4
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: ")

    @pytest.mark.parametrize(
        "argv",
        [["zeta", "--inputs", "big,ind8"], ["tail", "--name", "big", "--x", "10"]],
        ids=["zeta", "tail"],
    )
    def test_huge_slowvar_exponent(self, capsys, tmp_path, argv):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"envelopes": {"big": {
            "form": "power_singularity", "r": 6.0,
            "slowvar": {"kind": "log_power", "kappa": 1e9},
        }}}))
        code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
        self._assert_numeric_failure(code, err)

    def test_huge_dominant_tail_gamma(self, capsys, tmp_path):
        from polymoment.cli import load_config

        cfg = load_config(None, "pareto_diagonal_degree2")
        cfg["plan"]["bound"]["tails"][0][1] = 1e9
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "verify", "--config", str(path), "--reps", "2000")
        self._assert_numeric_failure(code, err)
