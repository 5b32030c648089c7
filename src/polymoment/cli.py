"""Command line front end.

Five subcommands:

* ``envelope`` - evaluate named envelopes or their composition on exponent grids
* ``zeta``     - build a bound chain and print every stage
* ``tail``     - conjugate tail bound of a named envelope on a threshold grid
* ``simulate`` - run a scenario, write reports and raw samples
* ``verify``   - run a scenario and gate the exit code on the dominance checks

Scenarios are JSON documents (see the bundled files under
``polymoment/scenarios/``); everything structured lives in the config file,
flags cover only grids, seeds, paths and thread counts.  Exit codes: 0 all
hard dominance checks pass, 2 configuration or file errors, 3 dominance
violation, 4 numeric failure.

Built-in envelope names (used when no config defines the name):
``ind<r>`` an indicator envelope with edge r, ``pgrow<digits>`` a power
growth envelope p^mu (digits with a leading 0 read as a decimal: pgrow05 is
mu = 0.5), and ``ps_r<r>`` the Pareto-power singularity (r - p)^(-1/r).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from importlib import resources
from typing import Dict, List, Optional, Sequence

import numpy as np

from .calculus import (
    ChainFeasibilityError,
    DependenceRegime,
    otimes,
    zeta_chain,
)
from .envelope import (
    EnvelopeDomainError,
    Indicator,
    MomentEnvelope,
    PowerGrowth,
    PowerSingularity,
    Product,
    Scaled,
    Tabulated,
)
from .mcverify import (
    NumericFailure,
    plan_from_config,
    run_experiment,
    doob_experiment,
)
from .polymodel import (
    _slowvar_from_config,
    iter_q_batches,
    model_from_config,
    save_samples,
)
from .tails import ConjugateSpec, tail_from_envelope

_E = math.e

_CONFIG_KEYS = {"name", "envelopes", "model", "plan", "output"}
_OUTPUT_KEYS = {"json", "csv_prefix", "samples", "samples_format"}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# envelope name resolution
# ---------------------------------------------------------------------------


def _digits_to_float(s: str) -> float:
    if s.startswith("0") and len(s) > 1:
        return float("0." + s[1:])
    return float(s)


_BUILTINS = [
    (re.compile(r"^ind(\d+(?:\.\d+)?)$"), lambda m: Indicator(r=float(m.group(1)))),
    (
        re.compile(r"^pgrow(\d+)$"),
        lambda m: PowerGrowth(growth=_digits_to_float(m.group(1))),
    ),
    (
        re.compile(r"^ps_r(\d+(?:\.\d+)?)$"),
        lambda m: PowerSingularity(r=float(m.group(1)), power=1.0 / float(m.group(1))),
    ),
]

_FORM_KEYS = {
    "indicator": {"form", "r", "lower"},
    "power_singularity": {"form", "r", "power", "scale", "slowvar", "lower"},
    "power_growth": {"form", "growth", "scale", "slowvar", "lower"},
    "tabulated": {"form", "p_grid", "values", "upper", "upper_closed"},
    "scaled": {"form", "inner", "factor"},
    "product": {"form", "factors"},
}


def envelope_from_config(cfg: dict, named: Dict[str, MomentEnvelope]) -> MomentEnvelope:
    form = cfg.get("form")
    if form not in _FORM_KEYS:
        raise ConfigError(f"unknown envelope form {form!r}")
    unknown = set(cfg) - _FORM_KEYS[form]
    if unknown:
        raise ConfigError(f"unknown keys for {form}: {sorted(unknown)}")
    if form == "indicator":
        return Indicator(r=float(cfg["r"]), lower=float(cfg.get("lower", 1.0)))
    if form == "power_singularity":
        return PowerSingularity(
            r=float(cfg["r"]),
            power=float(cfg.get("power", 1.0)),
            scale=float(cfg.get("scale", 1.0)),
            slowvar=_slowvar_from_config(cfg.get("slowvar")),
            lower=float(cfg.get("lower", 1.0)),
        )
    if form == "power_growth":
        return PowerGrowth(
            growth=float(cfg.get("growth", 0.5)),
            scale=float(cfg.get("scale", 1.0)),
            slowvar=_slowvar_from_config(cfg.get("slowvar")),
            lower=float(cfg.get("lower", 1.0)),
        )
    if form == "tabulated":
        return Tabulated(
            np.asarray(cfg["p_grid"], dtype=float),
            np.asarray(cfg["values"], dtype=float),
            upper=cfg.get("upper"),
            upper_closed=bool(cfg.get("upper_closed", True)),
        )
    if form == "scaled":
        inner = _resolve_ref(cfg["inner"], named)
        return Scaled(inner, float(cfg["factor"]))
    factors = tuple(_resolve_ref(f, named) for f in cfg["factors"])
    return Product(factors)


def _resolve_ref(ref, named: Dict[str, MomentEnvelope]) -> MomentEnvelope:
    if isinstance(ref, str):
        return resolve_envelope(ref, named)
    return envelope_from_config(ref, named)


def resolve_envelope(name: str, named: Dict[str, MomentEnvelope]) -> MomentEnvelope:
    if name in named:
        return named[name]
    for pattern, build in _BUILTINS:
        m = pattern.match(name)
        if m:
            return build(m)
    raise ConfigError(
        f"unresolved envelope name {name!r}; define it in the config or use a"
        " built-in pattern (ind<r>, pgrow<digits>, ps_r<r>)"
    )


def _named_envelopes(config: Optional[dict]) -> Dict[str, MomentEnvelope]:
    named: Dict[str, MomentEnvelope] = {}
    if not config:
        return named
    for name, cfg in config.get("envelopes", {}).items():
        named[name] = envelope_from_config(cfg, named)
    return named


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def load_config(path: Optional[str], scenario: Optional[str]) -> dict:
    if (path is None) == (scenario is None):
        raise ConfigError("provide exactly one of --config PATH or --scenario NAME")
    if scenario is not None:
        res = resources.files("polymoment").joinpath(f"scenarios/{scenario}.json")
        if not res.is_file():
            available = sorted(
                p.name[:-5]
                for p in resources.files("polymoment").joinpath("scenarios").iterdir()
                if p.name.endswith(".json")
            )
            raise ConfigError(f"unknown scenario {scenario!r}; bundled: {available}")
        text = res.read_text()
    else:
        with open(path) as fh:  # FileNotFoundError -> exit 2
            text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    out_cfg = cfg.get("output", {})
    unknown = set(out_cfg) - _OUTPUT_KEYS
    if unknown:
        raise ConfigError(f"unknown output keys: {sorted(unknown)}")
    return cfg


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n' into a linspace or a comma list into an array."""
    if ":" in spec:
        lo, hi, num = spec.split(":")
        return np.linspace(float(lo), float(hi), int(num))
    return np.asarray([float(v) for v in spec.split(",")], dtype=float)


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return format(float(v), ".17g")


def _emit(lines: List[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_envelope(args) -> int:
    config = load_config(args.config, None) if args.config else None
    named = _named_envelopes(config)
    if args.action == "eval":
        env = resolve_envelope(args.name, named)
        ps = _parse_grid(args.p)
        lines = ["p,value"]
        for p in ps:
            try:
                v = env(float(p))
            except EnvelopeDomainError as exc:
                raise ConfigError(str(exc)) from exc
            lines.append(f"{_fmt(p)},{_fmt(v)}")
        _emit(lines, args.out)
        return 0
    # otimes
    env_a = resolve_envelope(args.a, named)
    env_b = resolve_envelope(args.b, named)
    ps = _parse_grid(args.p)
    lines = ["p,value,split"]
    for p in ps:
        res = otimes(env_a, env_b, float(p), full_output=True)
        lines.append(f"{_fmt(p)},{_fmt(res.value)},{_fmt(res.split)}")
    _emit(lines, args.out)
    return 0


def cmd_zeta(args) -> int:
    config = load_config(args.config, None) if args.config else None
    named = _named_envelopes(config)
    inputs = [resolve_envelope(name.strip(), named) for name in args.inputs.split(",")]
    regime = DependenceRegime(args.regime, args.direction)
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = None
    if grid is not None and np.asarray(grid).size < 2:
        # single-exponent query: build on the default grid, evaluate at p
        chain = zeta_chain(regime, inputs)
        out_grid = np.asarray(grid, dtype=float)
    else:
        chain = zeta_chain(regime, inputs, p_grid=grid)
        out_grid = chain.stages[-1].p_grid if grid is None else np.asarray(grid, dtype=float)
    header = "p," + ",".join(f"zeta_{k + 1}" for k in range(chain.depth))
    lines = [header]
    for p in out_grid:
        row = [_fmt(p)]
        for stage in chain.stages:
            row.append(_fmt(stage(float(p))))
        lines.append(",".join(row))
    _emit(lines, args.out)
    return 0


def cmd_tail(args) -> int:
    config = load_config(args.config, None) if args.config else None
    named = _named_envelopes(config)
    env = resolve_envelope(args.name, named)
    spec = ConjugateSpec(env, norm_factor=args.norm_factor)
    xs = _parse_grid(args.x)
    lines = ["x,value,note"]
    for x in xs:
        v = tail_from_envelope(spec, float(x))
        note = "vacuous" if float(x) <= _E else ""
        lines.append(f"{_fmt(x)},{_fmt(v)},{note}")
    _emit(lines, args.out)
    return 0


def _run_scenario(args, simulate: bool) -> int:
    cfg = load_config(args.config, args.scenario)
    model = model_from_config(cfg["model"])
    plan_cfg = dict(cfg.get("plan", {}))
    if args.seed is not None:
        plan_cfg["seed"] = args.seed
    if args.reps is not None:
        plan_cfg["replications"] = args.reps
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("POLYMOMENT_THREADS", "1"))
    plan_cfg["threads"] = threads
    plan = plan_from_config(plan_cfg, model)

    report = doob_experiment(plan) if plan.experiment == "doob" else run_experiment(plan)

    out_cfg = dict(cfg.get("output", {}))
    json_path = args.out + ".json" if args.out else out_cfg.get("json")
    csv_prefix = args.out if args.out else out_cfg.get("csv_prefix")
    if json_path:
        report.write_json(json_path)
    if csv_prefix:
        report.write_csv(csv_prefix)
    if simulate and out_cfg.get("samples"):
        # one value per replication of the sum the report checked, window included
        batches = iter_q_batches(model, plan.seed, plan.replications, window=plan.window)
        values = np.concatenate(list(batches))
        save_samples(out_cfg["samples"], values, out_cfg.get("samples_format", "f64"))

    for r in report.moment_rows:
        status = "pass" if r.passed else "FAIL"
        print(
            f"moment p={r.p:g}: empirical={r.empirical:.6g} stderr={r.stderr:.3g}"
            f" bound={r.bound:.6g} ratio={r.ratio:.4g} [{status}]"
        )
    for r in report.tail_rows:
        status = "pass" if r.passed else "FAIL"
        print(
            f"tail x={r.x:g}: empirical={r.empirical:.6g} stderr={r.stderr:.3g}"
            f" bound={r.bound:.6g} [{status}]"
        )
    if report.metadata.get("tail_rescale_fitted"):
        print(f"tail rescale constant: {report.metadata['tail_rescale']:.6g}")
    print("dominance:", "PASS" if report.passed else "VIOLATION")
    return 0 if report.passed else 3


def cmd_simulate(args) -> int:
    return _run_scenario(args, simulate=True)


def cmd_verify(args) -> int:
    return _run_scenario(args, simulate=False)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymoment",
        description="moment envelopes and tail bounds for multilinear heavy-tailed sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_env = sub.add_parser("envelope", help="evaluate envelopes or their composition")
    env_sub = p_env.add_subparsers(dest="action", required=True)
    p_eval = env_sub.add_parser("eval", help="evaluate a named envelope")
    p_eval.add_argument("--name", required=True)
    p_eval.add_argument("--p", required=True, help="exponents: comma list or lo:hi:n")
    p_eval.add_argument("--config")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_envelope)
    p_ot = env_sub.add_parser("otimes", help="compose two envelopes")
    p_ot.add_argument("--a", required=True)
    p_ot.add_argument("--b", required=True)
    p_ot.add_argument("--p", required=True)
    p_ot.add_argument("--config")
    p_ot.add_argument("--out")
    p_ot.set_defaults(func=cmd_envelope)

    p_zeta = sub.add_parser("zeta", help="build a bound chain and print its stages")
    p_zeta.add_argument("--inputs", required=True, help="comma list of envelope names")
    p_zeta.add_argument(
        "--regime",
        default="martingale",
        choices=["martingale", "common_independent", "inside_independent", "vector_independent"],
    )
    p_zeta.add_argument("--direction", default="forward", choices=["forward", "reverse"])
    p_zeta.add_argument("--grid", help="exponent grid: comma list or lo:hi:n")
    p_zeta.add_argument("--config")
    p_zeta.add_argument("--out")
    p_zeta.set_defaults(func=cmd_zeta)

    p_tail = sub.add_parser("tail", help="conjugate tail bound of a named envelope")
    p_tail.add_argument("--name", required=True)
    p_tail.add_argument("--x", required=True, help="thresholds: comma list or lo:hi:n")
    p_tail.add_argument("--norm-factor", type=float, default=1.0)
    p_tail.add_argument("--config")
    p_tail.add_argument("--out")
    p_tail.set_defaults(func=cmd_tail)

    for name, fn, help_text in (
        ("simulate", cmd_simulate, "run a scenario and export reports plus raw samples"),
        ("verify", cmd_verify, "run a scenario and gate the exit code on dominance"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--config", help="scenario JSON path")
        p_run.add_argument("--scenario", help="bundled scenario name")
        p_run.add_argument("--seed", type=int)
        p_run.add_argument("--reps", type=int)
        p_run.add_argument("--threads", type=int, help="worker threads (default: POLYMOMENT_THREADS or 1)")
        p_run.add_argument("--out", help="output prefix for report JSON/CSV")
        p_run.set_defaults(func=fn)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericFailure, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ChainFeasibilityError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
