"""One fresh interpreter of a benchmark pass: ``child.py SPEC.json RESULT.json``.

Runs the cases the spec names, checks each verdict, hashes each result
payload, and writes timings (monotonic-clock stamps, comparable with the
parent's) to the result file.  With ``"trace": true`` in the spec it also
records spans on every layer and times the sampler on each case's model,
seed and replication count.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time
import warnings

import cases
from spans import RUN_POINTS, Tracer

X_GRID = (5.0, 10.0, 20.0, 50.0)


def digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def all_finite(payload: dict) -> bool:
    def walk(v):
        if isinstance(v, bool) or v is None or isinstance(v, str):
            return True
        if isinstance(v, (int, float)):
            return math.isfinite(v)
        if isinstance(v, dict):
            return all(walk(x) for x in v.values())
        return all(walk(x) for x in v)

    return walk(payload)


def payload_from_report_json(doc: dict) -> dict:
    """The ``result_payload()`` layout rebuilt from a written report file."""
    return {
        "moments": [
            [r["p"], r["empirical"], r["stderr"], r["bound"], r["ratio"], r["pass"]]
            for r in doc["moments"]
        ],
        "tails": [[r["x"], r["empirical"], r["stderr"], r["bound"], r["pass"]] for r in doc["tails"]],
        "sweep": doc["sweep"],
    }


def run_span(tracer: Tracer, since: int, name: str = "mcverify.run"):
    found = [s for s in tracer.spans[since:] if s[1] == name]
    if len(found) != 1:
        raise RuntimeError(f"expected one {name} span, found {len(found)}")
    return found[0]


def probe_sampler(tracer: Tracer, model, seed: int, reps: int, window) -> None:
    from polymoment import sample_Q, sample_R, sample_reverse_V

    if model.multiplicities is not None:
        tracer.span("polymodel.sample_q", sample_R, model, seed, reps)
    elif window is not None:
        tracer.span("polymodel.sample_q", sample_reverse_V, model, seed, reps, window[0], window[1])
    else:
        tracer.span("polymodel.sample_q", sample_Q, model, seed, reps)


def check(case: dict, passed: bool, payload: dict) -> None:
    case["finite"] = all_finite(payload)
    case["passed"] = bool(passed)
    case["ok"] = case["passed"] and case["finite"]
    case["digest"] = digest(payload)


def run_cli(spec: dict, tracer: Tracer) -> list:
    from polymoment import cli
    from polymoment.mcverify import plan_from_config
    from polymoment.polymodel import model_from_config

    tracer.install(RUN_POINTS)
    name, seed = spec["scenario"], spec["seed"]
    out = os.path.join(spec["tmp"], name)
    argv = ["verify", "--scenario", name, "--threads", "1", "--seed", str(seed), "--out", out]
    case = {"name": name, "start": time.monotonic()}
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    case["end"] = time.monotonic()
    _, _, start, end, _ = run_span(tracer, 0)
    case.update(setup_s=start - case["start"], run_s=end - start, rc=rc)
    with open(out + ".json") as fh:
        doc = json.load(fh)
    check(case, rc == 0, payload_from_report_json(doc))
    case["reps"] = doc["metadata"]["replications"]
    if spec["trace"]:
        cfg = cli.load_config(None, name)
        model = model_from_config(cfg["model"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            plan = plan_from_config(dict(cfg["plan"], seed=seed), model)
        probe_sampler(tracer, model, seed, plan.replications, plan.window)
    return [case]


def run_battery(spec: dict, tracer: Tracer) -> list:
    from polymoment import ExperimentPlan, auto_p_grid, natural_zeta_chain, run_experiment

    out = []
    for label, model in cases.battery_models():
        case = {"name": label, "start": time.monotonic()}
        grid = auto_p_grid(model, points=5, frac=0.9)
        chain = natural_zeta_chain(model, p_grid=grid)
        with warnings.catch_warnings():
            # the top grid point sits at 0.9x the combined exponent by design
            warnings.simplefilter("ignore", UserWarning)
            plan = ExperimentPlan(
                model=model, replications=spec["reps"], p_grid=grid, bound=chain,
                x_grid=X_GRID, fit_tail_rescale=True, seed=spec["seed"], threads=1,
            )
        case["setup_s"] = time.monotonic() - case["start"]
        since = len(tracer.spans)
        report = tracer.span("mcverify.run", run_experiment, plan)
        case["end"] = time.monotonic()
        _, _, start, end, _ = run_span(tracer, since)
        case.update(run_s=end - start, reps=plan.replications)
        check(case, report.passed, report.result_payload())
        if spec["trace"]:
            probe_sampler(tracer, model, plan.seed, plan.replications, None)
        out.append(case)
    return out


def run_general(spec: dict, tracer: Tracer) -> list:
    from polymoment import (
        ExperimentPlan, auto_p_grid, doob_experiment, natural_zeta_chain, run_experiment,
    )

    models = list(cases.general_models(spec["seed"]))  # tensors drawn before timing
    out = []
    for label, model, opts in models:
        case = {"name": label, "start": time.monotonic()}
        grid = auto_p_grid(model, points=5, frac=0.9)
        chain = natural_zeta_chain(model, p_grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            plan = ExperimentPlan(
                model=model, replications=opts["reps"], p_grid=grid, bound=chain,
                x_grid=X_GRID, fit_tail_rescale=True, seed=spec["seed"],
                threads=cases.GENERAL_THREADS, experiment=opts["experiment"],
                window=opts["window"], b_sweep=opts["b_sweep"],
            )
            serial = dataclasses.replace(plan, threads=1)
        run = doob_experiment if plan.experiment == "doob" else run_experiment
        case["setup_s"] = time.monotonic() - case["start"]
        since = len(tracer.spans)
        report = tracer.span("mcverify.run", run, plan)
        report_1t = tracer.span("mcverify.run_1t", run, serial)
        case["end"] = time.monotonic()
        _, _, start, end, _ = run_span(tracer, since)
        _, _, start1, end1, _ = run_span(tracer, since, "mcverify.run_1t")
        case.update(run_s=end - start, run_1t_s=end1 - start1, reps=plan.replications)
        check(case, report.passed and report_1t.passed, report.result_payload())
        case["digest_1t"] = digest(report_1t.result_payload())
        if spec["trace"]:
            probe_sampler(tracer, model, plan.seed, plan.replications, plan.window)
        out.append(case)
    return out


RUNNERS = {"cli": run_cli, "battery": run_battery, "general": run_general}


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer()
    t0 = time.monotonic()
    if spec["kind"] == "cli":
        import polymoment.cli
    else:
        import polymoment
    import_s = time.monotonic() - t0

    where = os.path.realpath(polymoment.__file__)
    if not where.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise RuntimeError(f"polymoment imported from {where}, not from {spec['src']}")
    if spec["trace"]:
        tracer.install_layers()
    result = {"import_s": import_s}
    try:
        result["cases"] = RUNNERS[spec["kind"]](spec, tracer)
    finally:
        tracer.uninstall()
    result["counts"] = tracer.counts()
    result["spans"] = tracer.spans
    result["versions"] = versions()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
