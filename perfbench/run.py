"""polymoment benchmark: cold CLI scenarios, the dominance battery, general tensors.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cli_scenarios --seed 0 --seconds 40 --trace 0

Workloads (closed loop, one client, cases run one after another):

* ``cli_scenarios`` - the 8 bundled scenarios, each as
  ``cli.main(["verify", "--scenario", NAME, "--threads", "1", ...])`` in its
  own fresh interpreter at the bundled 20,000 replications.  Mostly set-up:
  interpreter start, import, natural-envelope quadrature and chain building.
* ``battery`` - the 24 models of acceptance criterion 06 (uniform tensors,
  standardized Pareto inputs) through ``natural_zeta_chain`` ->
  ``ExperimentPlan`` -> ``run_experiment`` at ``threads=1``, one fresh
  interpreter per pass.  Bound by sampling (Philox, quantile transform,
  modulators, the uniform-tensor recursion).
* ``general_tensor`` - random unit-ball tensors (per-tuple Q loop, running
  max, reverse window, coefficient sweep) at ``threads=2``, each also run at
  ``threads=1`` to check that the payloads agree.

A pass runs every case of the workload once.  Passes repeat while the next
one fits into ``--seconds``; every pass starts from fresh interpreters, so the
module-level envelope caches are cold in each.  ``--seed`` is added to every
case's base seed: ``--seed 0`` reproduces the bundled and acceptance seeds.

End-to-end metrics (``--trace 0``), medians over passes:

* ``wall_s`` - one pass, summed over its processes (spawn to reap).
* ``setup_s`` - time before sampling starts, summed over cases: interpreter
  start, import, config, model, plan, natural envelopes and bound chain.
* ``run_s`` - time inside ``run_experiment`` / ``doob_experiment`` at the
  workload's thread count.
* ``reps_per_s`` - replications of the pass / ``run_s``.
* ``case_p50_s`` - median time of one process, i.e. one user invocation: a
  ``verify`` run on cli_scenarios, a whole pass on the other two (their
  per-model times are in the details file).
* ``peak_rss_mb`` - the largest child max-RSS of the pass (``os.wait4``).

Per-layer metrics (``--trace 1``) come from passes with spans on the public
functions (see ``spans.py``); times are self times, medians over traced
passes.  Untraced passes alternate with the traced ones and give
``trace_overhead_frac`` and ``mcverify.thread_speedup``.  What each should
move:

* ``cli.import_s`` -> ``setup_s``/``wall_s`` on cli_scenarios (8 imports per pass).
* ``polymodel.natural_envelope_s``/``_calls`` -> ``setup_s`` on cli_scenarios;
  on battery only the first models pay it (module cache).
* ``calculus.zeta_chain_s``, ``calculus.otimes_calls``, ``calculus.otimes_s``,
  ``calculus.dominant_envelope_s``, ``envelope.evals`` -> ``setup_s`` on
  cli_scenarios and battery (the d=3 chains).
* ``tails.*`` -> ``run_s`` on cli_scenarios; no change on the other two.
* ``polymodel.sample_q_s`` (``sample_Q``/``sample_R``/``sample_reverse_V``
  on each case's model, seed and replications) and ``polymodel.batches`` ->
  ``run_s``/``reps_per_s`` on battery and general_tensor.
* ``mcverify.run_s``; ``mcverify.overhead_s`` = run - sampling - tails.
* ``case_max_s`` - the slowest process of a pass (untraced passes).  It has
  no bound: on a shared 2-core host it spread more than any bound allows.
* ``mcverify.thread_speedup`` - run at 1 thread / run at the workload's
  thread count (1 where the workload runs one thread).
* ``trace_overhead_frac`` - traced ``wall_s`` / untraced ``wall_s`` - 1.
* ``verify.failed_frac``, ``verify.payload_mismatch`` - failed cases over
  attempted ones (exceptions, wrong verdicts, non-finite numbers, results that
  differ between passes or thread counts), and cases whose SHA-256 payload
  digest differs from the one pinned in ``digests.json`` for this seed.

Details of the last run (environment, every process with its CPU time, every
case, digests, spans) go to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
from spans import self_times, tails_in_runs  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
HARD_LIMIT_S = 165.0  # the whole run must end well inside 180 s

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "run_s": "s", "reps_per_s": "1/s",
    "case_p50_s": "s", "peak_rss_mb": "MB",
}
LAYER_SPANS = {  # metric -> (span name, field)
    "polymodel.natural_envelope_s": ("polymodel.natural_envelope", "self_s"),
    "polymodel.natural_envelope_calls": ("polymodel.natural_envelope", "calls"),
    "calculus.zeta_chain_s": ("calculus.zeta_chain", "self_s"),
    "calculus.otimes_calls": ("calculus.otimes", "calls"),
    "calculus.otimes_s": ("calculus.otimes", "self_s"),
    "calculus.dominant_envelope_s": ("calculus.dominant_envelope", "self_s"),
    "tails.conjugate_spec_s": ("tails.conjugate_spec", "self_s"),
    "tails.tail_from_envelope_calls": ("tails.tail_from_envelope", "calls"),
    "tails.tail_from_envelope_s": ("tails.tail_from_envelope", "self_s"),
    "tails.fit_tail_rescale_s": ("tails.fit_tail_rescale", "self_s"),
    "polymodel.sample_q_s": ("polymodel.sample_q", "total_s"),
    "mcverify.run_s": ("mcverify.run", "total_s"),
}
RATIOS = ("mcverify.thread_speedup", "trace_overhead_frac", "verify.failed_frac")


class Run:
    """One benchmark invocation: its passes, cases and correctness bookkeeping."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=self.out_dir)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("POLYMOMENT_")}
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
        )
        self.attempted = 0
        self.failures = []
        self.first_digest = {}
        self.versions = None
        with open(DIGESTS) as fh:
            self.pinned = json.load(fh).get(str(seed), {}).get(workload)
        self.mismatched = set()
        self.passes = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, spec: dict, tag: str) -> dict:
        """Run one child to completion; return its result plus parent-side stamps."""
        spec_path = os.path.join(self.tmp, f"{tag}.spec.json")
        result_path = os.path.join(self.tmp, f"{tag}.result.json")
        err_path = os.path.join(self.tmp, f"{tag}.stderr")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        with open(err_path, "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, spec_path, result_path],
                stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.root,
            )
            watchdog = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t_reaped = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        out = {
            "spawn": t_spawn, "reaped": t_reaped, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(err_path) as fh:
                tail = fh.read()[-2000:]
            out["error"] = f"exit {proc.returncode}: {tail}"
            return out
        with open(result_path) as fh:
            out.update(json.load(fh))
        return out

    def run_pass(self, traced: bool):
        """One pass over the workload's units; ``None`` when a process failed."""
        n = len(self.passes)
        units = []
        for k, spec in enumerate(cases.units(self.workload, self.seed)):
            spec = dict(spec, trace=traced, tmp=self.tmp, src=os.path.join(self.root, "src"))
            unit = self.spawn(spec, f"p{n}-u{k}")
            if "error" in unit:
                self.attempted += 1
                self.failures.append({"pass": n, "error": unit["error"]})
                return None
            units.append(unit)
        self.versions = units[0]["versions"]
        for u in units:
            for case in u["cases"]:
                self.account(n, case)
        probe = sum(end - start for u in units for _, name, start, end, _ in u["spans"]
                    if name == "polymodel.sample_q")
        p = {
            "traced": traced,
            "units": units,
            "wall_s": sum(u["reaped"] - u["spawn"] for u in units) - probe,
            "setup_s": sum(u["cases"][0]["start"] - u["spawn"] for u in units)
            + sum(c["setup_s"] for u in units for c in u["cases"]),
            "run_s": sum(c["run_s"] for u in units for c in u["cases"]),
            "run_1t_s": sum(c.get("run_1t_s", c["run_s"]) for u in units for c in u["cases"]),
            "reps": sum(c["reps"] for u in units for c in u["cases"]),
            "case_walls": [u["reaped"] - u["spawn"] for u in units],
            "rss_mb": max(u["rss_mb"] for u in units),
            "import_s": sum(u["import_s"] for u in units),
        }
        self.passes.append(p)
        return p

    def account(self, n: int, case: dict) -> None:
        self.attempted += 1
        name = case["name"]
        problems = []
        if not case["ok"]:
            problems.append(f"verdict passed={case['passed']} finite={case['finite']}")
        if "digest_1t" in case and case["digest_1t"] != case["digest"]:
            problems.append("payload differs between 1 and 2 threads")
        seen = self.first_digest.setdefault(name, case["digest"])
        if seen != case["digest"]:
            problems.append("payload differs from an earlier pass")
        if problems:
            self.failures.append({"pass": n, "case": name, "problems": problems})
        if self.pinned is not None and self.pinned.get(name) != case["digest"]:
            self.mismatched.add(name)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes) -> dict:
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median(p["setup_s"] for p in passes),
        "run_s": median(p["run_s"] for p in passes),
        "reps_per_s": median(p["reps"] / p["run_s"] for p in passes),
        "case_p50_s": median(w for p in passes for w in p["case_walls"]),
        "peak_rss_mb": median(p["rss_mb"] for p in passes),
    }


def per_layer(run: Run, traced, untraced) -> dict:
    rows = []
    for p in traced:
        # span ids are per process: derive self times unit by unit, then add
        times = [self_times(u["spans"]) for u in p["units"]]
        row = {
            m: sum(t.get(span, {}).get(field, 0) for t in times)
            for m, (span, field) in LAYER_SPANS.items()
        }
        row["cli.import_s"] = p["import_s"]
        row["envelope.evals"] = sum(u["counts"]["envelope.evals"] for u in p["units"])
        row["polymodel.batches"] = sum(u["counts"]["polymodel.batches"] for u in p["units"])
        row["mcverify.overhead_s"] = (
            row["mcverify.run_s"] - row["polymodel.sample_q_s"]
            - sum(tails_in_runs(u["spans"]) for u in p["units"])
        )
        rows.append(row)
    out = {m: median(r[m] for r in rows) for m in rows[0]}
    out["case_max_s"] = median(max(p["case_walls"]) for p in untraced)
    out["mcverify.thread_speedup"] = median(p["run_1t_s"] / p["run_s"] for p in untraced)
    out["trace_overhead_frac"] = (
        median(p["wall_s"] for p in traced) / median(p["wall_s"] for p in untraced) - 1.0
    )
    out["verify.failed_frac"] = len(run.failures) / max(run.attempted, 1)
    out["verify.payload_mismatch"] = len(run.mismatched)
    return out


def git_describe(root: str) -> str:
    try:
        res = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Run passes (untraced, or untraced/traced pairs) while the next one fits."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            if run.run_pass(traced) is None:
                return
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + took > seconds or took > run.remaining():
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polymoment", "__init__.py")):
        print("error: run from the root of a polymoment checkout (src/polymoment missing)",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)  # cold caches, warm bytecode

    run = Run(root, args.workload, args.seed)
    try:
        measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()
    untraced = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        for f in run.failures:
            print(f"FAILED {json.dumps(f)}", file=sys.stderr)
        print("error: no complete pass", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(run, traced, untraced)
        units = {
            m: "ratio" if m in RATIOS else "s" if m.endswith("_s") else "count" for m in values
        }
    else:
        values = end_to_end(untraced)
        units = END_TO_END
    env = {
        "nproc": os.cpu_count(), "git": git_describe(root), **(run.versions or {}),
        "workload": args.workload, "seed": args.seed, "passes": len(run.passes),
        "traced_passes": len(traced), "digests_pinned": run.pinned is not None,
    }
    detail = {
        "env": env, "metrics": values, "failures": run.failures,
        "mismatched": sorted(run.mismatched), "digests": run.first_digest,
        "passes": run.passes,
    }
    detail_path = os.path.join(
        run.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(detail_path, "w") as fh:
        json.dump(detail, fh)

    print(f"# env {json.dumps(env)}")
    for f in run.failures:
        print(f"# FAILED {json.dumps(f)}")
    for m, v in values.items():
        print(f"# {m:34s} {v:14.6g} {units[m]}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
