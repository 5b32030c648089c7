"""The names the benchmark harness in ``perfbench/`` reads from the package.

The harness times a run by replacing functions at the names the run looks
up (``perfbench/spans.py``), and its runners import the samplers and the
experiment entry points.  A rename or a dropped import in the package
breaks it without failing any other test, so the contract is checked here
against the harness's own tables, loaded from its file.
"""

import importlib
import importlib.util
import os

import pytest

import polymoment
from polymoment import cli, mcverify, polymodel

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["TRACE_POINTS", "RUN_POINTS"])
def test_patch_points_are_module_attributes(table):
    # Tracer._patch reads the original from the owner's __dict__, so an
    # attribute reached only through a base class or a lazy import would fail
    for module, attr, _ in getattr(_spans(), table):
        assert attr in vars(importlib.import_module(module)), (module, attr)


def test_imported_names_exist():
    for name in ("sample_Q", "sample_R", "sample_reverse_V", "doob_experiment", "run_experiment",
                 "ExperimentPlan", "auto_p_grid", "natural_zeta_chain"):
        assert callable(getattr(polymoment, name)), name
    for owner, name in ((cli, "load_config"), (mcverify, "plan_from_config"),
                        (mcverify, "batch_plan"), (polymodel, "model_from_config")):
        assert callable(vars(owner).get(name)), name
    assert "__call__" in vars(polymoment.MomentEnvelope)


@pytest.mark.parametrize("scenario", ["pareto_d2_martingale", "rademacher_d1_doob"])
def test_verify_makes_one_run_call(monkeypatch, tmp_path, capsys, scenario):
    # the harness times a scenario by the one span around cli's experiment call
    calls = []
    for name in ("run_experiment", "doob_experiment"):
        def counted(plan, _run=getattr(cli, name), _name=name):
            calls.append(_name)
            return _run(plan)

        monkeypatch.setattr(cli, name, counted)
    code = cli.main(["verify", "--scenario", scenario, "--reps", "1000",
                     "--out", str(tmp_path / scenario)])
    capsys.readouterr()
    assert code in (0, 3)
    assert len(calls) == 1, calls
