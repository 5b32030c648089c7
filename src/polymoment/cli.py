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
hard dominance checks pass, 2 configuration, domain, infeasible-chain or file
errors, 3 dominance violation, 4 numeric failure.  Any other exception is a
bug and propagates with its traceback.

Built-in envelope names (used when no config defines the name):
``ind<r>`` an indicator envelope with edge r, ``pgrow<digits>`` a power
growth envelope p^mu (digits with a leading 0 read as a decimal: pgrow05 is
mu = 0.5), and ``ps_r<r>`` the Pareto-power singularity (r - p)^(-1/r).
"""

from __future__ import annotations

import argparse
import functools
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
    _otimes_grid,
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
    SAMPLE_FORMATS,
    ConfigError,
    check_keys,
    config_build,
    config_call,
    config_list,
    config_select,
    config_value,
    field_types,
    iter_q_batches,
    model_from_config,
    save_samples,
)
from .tails import ConjugateSpec, tail_from_envelope

_E = math.e

_CONFIG_TYPES = {"name": str, "envelopes": dict, "model": dict, "plan": dict, "output": dict}
_OUTPUT_TYPES = dict.fromkeys(("json", "csv_prefix", "samples", "samples_format"), str)


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
        # r <= 1 leaves an empty support, which resolve_envelope rejects
        re.compile(r"^ps_r(\d+(?:\.\d+)?)$"),
        lambda m: PowerSingularity(r=float(m.group(1)), power=1.0 / max(float(m.group(1)), 1.0)),
    ),
]

# form -> (class, required keys); the other keys are the class's fields
_FORMS = {
    "indicator": (Indicator, ("r",)),
    "power_singularity": (PowerSingularity, ("r",)),
    "power_growth": (PowerGrowth, ()),
    "tabulated": (Tabulated, ("p_grid", "values")),
    "scaled": (Scaled, ("inner", "factor")),
    "product": (Product, ("factors",)),
}


def envelope_from_config(
    cfg: dict, named: Dict[str, MomentEnvelope], where: str = "envelope"
) -> MomentEnvelope:
    def ref(value, path):
        if isinstance(value, str):
            return resolve_envelope(value, named)
        return envelope_from_config(value, named, path)

    parsers = {
        "inner": ref,
        "factors": lambda v, w: tuple(config_list(v, w, ref)),
        "p_grid": lambda v, w: config_list(v, w, float),
        "values": lambda v, w: config_list(v, w, float),
        "upper": lambda v, w: None if v is None else config_value(v, w, float),
    }
    kinds = {
        form: (cls, {k: parsers.get(k, t) for k, t in field_types(cls).items()}, required)
        for form, (cls, required) in _FORMS.items()
    }
    return _checked(where, config_select(cfg, where, kinds, key="form"))


def _checked(where: str, env: MomentEnvelope) -> MomentEnvelope:
    # supports check their endpoints only when first asked for
    config_build(where, lambda: env.support)
    return env


def resolve_envelope(name: str, named: Dict[str, MomentEnvelope]) -> MomentEnvelope:
    if name in named:
        return named[name]
    for pattern, build in _BUILTINS:
        m = pattern.match(name)
        if m:
            return _checked(name, build(m))
    raise ConfigError(
        f"unresolved envelope name {name!r}; define it in the config or use a"
        " built-in pattern (ind<r>, pgrow<digits>, ps_r<r>)"
    )


def _named_envelopes(args) -> Dict[str, MomentEnvelope]:
    """The envelopes that the ``--config`` file defines, if one is given."""
    config = load_config(args.config, None) if args.config else {}
    named: Dict[str, MomentEnvelope] = {}
    for name, cfg in config.get("envelopes", {}).items():
        named[name] = envelope_from_config(cfg, named, f"envelopes.{name}")
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
        with open(path, "rb") as fh:  # OSError -> exit 2
            text = fh.read()
    try:
        cfg = config_call(dict, json.loads(text), "config", _CONFIG_TYPES)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    output = config_call(dict, cfg.get("output", {}), "output", _OUTPUT_TYPES)
    fmt = output.get("samples_format", "f64")
    if fmt not in SAMPLE_FORMATS:
        raise ConfigError(f"output.samples_format must be one of {SAMPLE_FORMATS}, got {fmt!r}")
    return cfg


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n' into a linspace or a comma list into an array; never empty."""
    try:
        if ":" in spec:
            lo, hi, num = spec.split(":")
            if int(num) < 1:
                raise ValueError(num)
            return np.linspace(float(lo), float(hi), int(num))
        return np.asarray([float(v) for v in spec.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"invalid grid {spec!r}; use a comma list or lo:hi:n with n >= 1") from None


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
    named = _named_envelopes(args)
    ps = _parse_grid(args.p)
    if args.action == "eval":
        env = resolve_envelope(args.name, named)
        lines = ["p,value"] + [f"{_fmt(p)},{_fmt(v)}" for p, v in zip(ps, env.values_at(ps))]
    else:
        env_a, env_b = resolve_envelope(args.a, named), resolve_envelope(args.b, named)
        values, splits = _otimes_grid(env_a, env_b, ps)
        lines = ["p,value,split"] + [
            f"{_fmt(p)},{_fmt(v)},{_fmt(a)}" for p, v, a in zip(ps, values, splits)
        ]
    _emit(lines, args.out)
    return 0


def cmd_zeta(args) -> int:
    named = _named_envelopes(args)
    inputs = [resolve_envelope(name.strip(), named) for name in args.inputs.split(",")]
    regime = DependenceRegime(args.regime, args.direction)
    grid = _parse_grid(args.grid) if args.grid else None
    # a single exponent is evaluated on a chain built on the default grid
    chain = zeta_chain(regime, inputs, p_grid=grid if grid is not None and grid.size > 1 else None)
    out_grid = chain.bound.p_grid if grid is None else grid
    header = "p," + ",".join(f"zeta_{k + 1}" for k in range(chain.depth))
    cols = [stage.values_at(out_grid) for stage in chain.stages]
    lines = [header] + [",".join(map(_fmt, [p, *row])) for p, *row in zip(out_grid, *cols)]
    _emit(lines, args.out)
    return 0


def cmd_tail(args) -> int:
    named = _named_envelopes(args)
    env = resolve_envelope(args.name, named)
    if not args.norm_factor > 0:
        raise ConfigError(f"--norm-factor must be positive, got {args.norm_factor:g}")
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
    cfg = check_keys(load_config(args.config, args.scenario), "config", _CONFIG_TYPES, ["model"])
    model = model_from_config(cfg["model"])
    plan_cfg = dict(cfg.get("plan", {}))
    if args.seed is not None:
        plan_cfg["seed"] = args.seed
    if args.reps is not None:
        plan_cfg["replications"] = args.reps
    # thread count: --threads, then POLYMOMENT_THREADS, then plan.threads, then 1
    env = os.environ.get("POLYMOMENT_THREADS")
    if args.threads is not None:
        plan_cfg["threads"] = args.threads
    elif env is not None:
        try:
            plan_cfg["threads"] = int(env)
        except ValueError:
            raise ConfigError(f"POLYMOMENT_THREADS must be an integer, got {env!r}") from None
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

    for name, help_text in (
        ("simulate", "run a scenario and export reports plus raw samples"),
        ("verify", "run a scenario and gate the exit code on dominance"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--config", help="scenario JSON path")
        p_run.add_argument("--scenario", help="bundled scenario name")
        p_run.add_argument("--seed", type=int)
        p_run.add_argument("--reps", type=int)
        p_run.add_argument("--threads", type=int, help="worker threads (default: POLYMOMENT_THREADS, plan.threads, 1)")
        p_run.add_argument("--out", help="output prefix for report JSON/CSV")
        p_run.set_defaults(func=functools.partial(_run_scenario, simulate=name == "simulate"))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericFailure, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, EnvelopeDomainError, ChainFeasibilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
