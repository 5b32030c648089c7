"""Monte Carlo verification of moment and tail bounds.

Runs batched, reproducible experiments over polynomial models, estimates
empirical moment and tail curves, and compares them against chain bounds:
a p-grid point passes when ``empirical - 2 * stderr <= bound``, so Monte
Carlo noise never produces a spurious failure while a real violation at
scale still registers.  Also provides exact enumeration oracles for
finitely supported inputs, a running-maximum experiment for the maximal
inequality, and stabilisation diagnostics that expose the moment-existence
boundary of heavy-tailed models.

Reports are plain data: JSON documents (schema version 1) plus flat CSV
tables with columns (p, empirical, stderr, bound, ratio, pass) and
(x, empirical, stderr, bound, pass).  Identical (plan, seed) inputs yield
bit-identical result sections.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__ as _pkg_version
from .calculus import (
    ZetaChain,
    doob_maximal_envelope,
    polynomial_dominant_envelope,
    zeta_chain,
)
from .envelope import MomentEnvelope, Scaled, _moment_estimate
from .polymodel import (
    CoefficientTensor,
    PolynomialModel,
    Sampler,
    _map_batches,
    _stream,
    _window,
    batch_plan,
    check_keys,
    config_build,
    config_call,
    config_list,
    config_select,
    config_value,
    enumerate_indices,
    model_to_config,
    natural_envelope,
)
from .tails import ConjugateSpec, dominance_check, fit_tail_rescale

__all__ = [
    "NumericFailure",
    "ExperimentPlan",
    "MomentRow",
    "VerificationReport",
    "run_experiment",
    "doob_experiment",
    "brute_force_moments",
    "convergence_diagnostics",
    "ConvergenceReport",
    "natural_zeta_chain",
    "plan_from_config",
    "plan_to_config",
    "auto_p_grid",
]

SCHEMA_VERSION = 1
# the version of a report's numbers for a fixed (plan, seed); README's
# "Reproducibility" says what each version changed
STREAM_VERSION = 4


def host_class() -> Dict:
    """The numpy version and its baseline and enabled dispatch SIMD targets: the host
    class on which a (plan, seed) fixes a report's bits.  numpy has no public getter,
    so the targets are ``"unknown"`` where its private module cannot be read."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):  # numpy 2, 1
        try:
            umath = importlib.import_module(name)
            enabled = umath.__cpu_features__
            simd = list(umath.__cpu_baseline__) + [t for t in umath.__cpu_dispatch__ if enabled.get(t)]
            return {"numpy": np.__version__, "simd": simd}
        except (ImportError, AttributeError, TypeError):
            pass
    return {"numpy": np.__version__, "simd": "unknown"}


class NumericFailure(RuntimeError):
    """Raised when an experiment produces non-finite statistics."""


def natural_zeta_chain(
    model: PolynomialModel,
    p_grid: Optional[Sequence[float]] = None,
    points: int = 257,
    scale: float = 1.0,
) -> ZetaChain:
    """Bound chain built from the tight envelopes of the model's own cells.

    The inputs' moment norms against their natural envelopes are exactly one,
    so the chain's final stage is directly comparable with empirical moments.
    ``scale`` multiplies every input envelope (useful to deliberately break a
    bound when testing failure paths).  Models that differ only in n or in
    their coefficients share one cached chain.
    """
    if model.multiplicities is not None:
        raise ValueError("chains apply to multilinear models; got a polynomial model")
    envs = [natural_envelope(dist, model.regime.tag) for dist in model.distributions]
    if scale != 1.0:
        envs = [Scaled(e, scale) for e in envs]
    grid = None if p_grid is None else tuple(np.asarray(p_grid, dtype=float).tolist())
    return _chain_on_tables(model.regime, tuple(envs), grid, points)


@functools.lru_cache(maxsize=64)
def _chain_on_tables(regime, envs: tuple, p_grid: Optional[tuple], points: int) -> ZetaChain:
    """The chain of ``envs``: a table is keyed by identity, a ``Scaled`` wrapper by value."""
    return zeta_chain(regime, envs, p_grid=p_grid, points=points)


# the default auto grid stays strictly below this fraction of the moment
# boundary; a plan warns for exponents at or beyond it
HIGH_P_FRAC = 0.9


def auto_p_grid(model: PolynomialModel, points: int = 5, frac: float = HIGH_P_FRAC) -> np.ndarray:
    """Exponent grid strictly inside (1, frac * combined moment boundary)."""
    r = model.combined_r
    if not math.isfinite(r):
        hi = 16.0
        return np.linspace(1.0, hi, points + 2)[1:-1]
    if r <= 1.0:
        raise ValueError(f"combined moment boundary {r:.6g} <= 1; no exponent grid exists")
    return np.linspace(1.0, frac * r, points + 2)[1:-1]


class MomentRow(NamedTuple):
    p: float
    empirical: float
    stderr: float
    bound: float
    ratio: float
    passed: bool


def _check_run_scalars(replications: int, seed: int = 0, threads: int = 1) -> None:
    if replications < 1000:
        raise ValueError("at least 10^3 replications are required")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Everything needed to reproduce one verification run."""

    model: PolynomialModel
    replications: int
    p_grid: np.ndarray
    bound: Union[ZetaChain, MomentEnvelope]
    x_grid: Tuple[float, ...] = ()
    fit_tail_rescale: bool = True
    seed: int = 0
    b_sweep: int = 0
    threads: int = 1
    experiment: str = "standard"
    window: Optional[Tuple[int, int]] = None  # index window for reverse sums
    bound_config: Optional[dict] = None  # recipe used to rebuild the bound

    def __post_init__(self):
        _check_run_scalars(self.replications, self.seed, self.threads)
        if self.window is not None:
            object.__setattr__(self, "window", _window(self.model, self.window))
        grid = np.asarray(self.p_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("empty exponent grid")
        object.__setattr__(self, "p_grid", grid)
        object.__setattr__(self, "x_grid", tuple(float(x) for x in self.x_grid))
        if not all(x > 0 for x in self.x_grid):
            raise ValueError(f"tail thresholds must be positive, got {list(self.x_grid)}")
        if self.experiment not in ("standard", "doob"):
            raise ValueError("experiment must be 'standard' or 'doob'")
        if self.experiment == "doob" and grid.min() <= 1.0:
            raise ValueError("the maximal-inequality factor requires p > 1")
        if self.window is not None and self.b_sweep:
            raise ValueError("coefficient sweeps are not supported on index windows")
        env = self.bound_envelope
        upper = env.support.upper
        for p in grid:
            if math.isinf(env(float(p))):
                raise ValueError(
                    f"support exceeded: bound is infinite at p={float(p):.6g}"
                    f" (support upper endpoint {upper:.6g})"
                )
            if math.isfinite(upper) and p >= HIGH_P_FRAC * upper:
                warnings.warn(
                    f"p={float(p):.4g} lies at or beyond {HIGH_P_FRAC}x the support endpoint"
                    f" {upper:.4g}; the moment estimate will be high-variance",
                    stacklevel=3,  # the caller of the generated __init__
                )

    @property
    def bound_envelope(self) -> MomentEnvelope:
        env = self.bound.bound if isinstance(self.bound, ZetaChain) else self.bound
        return doob_maximal_envelope(env) if self.experiment == "doob" else env


@dataclass(frozen=True, eq=False)
class VerificationReport:
    moment_rows: Tuple[MomentRow, ...]
    tail_rows: Tuple
    metadata: Dict
    config: Dict
    sweep: Optional[Dict] = None

    @property
    def moments_passed(self) -> bool:
        return all(r.passed for r in self.moment_rows)

    @property
    def tails_passed(self) -> bool:
        return all(r.passed for r in self.tail_rows)

    @property
    def passed(self) -> bool:
        # tails are gated only when the rescale constant was fitted; with the
        # raw constant 1 the comparison carries unspecified constants and is
        # reported but not fatal
        hard_tails = self.tails_passed if self.metadata.get("tail_rescale_fitted") else True
        return self.moments_passed and hard_tails

    def result_payload(self) -> Dict:
        """The deterministic part of the report (excludes wall time)."""
        return {
            "moments": [list(r) for r in self.moment_rows],
            "tails": [list(r) for r in self.tail_rows],
            "sweep": self.sweep,
        }

    def to_json_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification_report",
            "passed": self.passed,
            "moments_passed": self.moments_passed,
            "tails_passed": self.tails_passed,
            "metadata": self.metadata,
            "config": self.config,
            "moments": [dict(zip(_columns(r), r)) for r in self.moment_rows],
            "tails": [dict(zip(_columns(r), r)) for r in self.tail_rows],
            "sweep": self.sweep,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, prefix: str) -> List[str]:
        """``PREFIX_moments.csv`` and, when there are tail rows, ``PREFIX_tails.csv``."""
        paths = []
        for name, rows in (("moments", self.moment_rows), ("tails", self.tail_rows)):
            if rows:
                paths.append(f"{prefix}_{name}.csv")
                with open(paths[-1], "w") as fh:
                    fh.write(",".join(_columns(rows[0])) + "\n")
                    for r in rows:
                        cells = (str(int(v)) if isinstance(v, bool) else f"{v:.17g}" for v in r)
                        fh.write(",".join(cells) + "\n")
        return paths


def _columns(row: NamedTuple) -> List[str]:
    """Report column names: the row's fields, with ``passed`` written as ``pass``."""
    return ["pass" if f == "passed" else f for f in row._fields]


def _sweep_tensors(sampler: Sampler, count: int, seed: int):
    """Labels, flat tuple rows and the coefficient matrix of the sweep's unit tensors."""
    d_t, n = sampler.model.slots, sampler.model.n
    tuples = list(enumerate_indices(d_t, n))
    gen = _stream(seed, 1 << 32)
    tensors = [CoefficientTensor.uniform(d_t, n), CoefficientTensor.single(d_t, n)]
    tensors += [CoefficientTensor.random_unit(d_t, n, gen) for _ in range(count)]
    labels = ["uniform", "single"] + [f"random_{j}" for j in range(count)]
    matrix = np.array([[t.entries.get(I, 0.0) for I in tuples] for t in tensors])
    return labels, sampler.flat_rows(tuples), matrix


def _batch_sums(sampler: Sampler, seed: int, b: int, size: int, ps, xs=(), running_max=False, sweep=None):
    """Batch ``b``'s sums of |Q|^p for each p of ``ps``, its counts of |Q| >= x for each
    x of ``xs`` and, with a sweep, the (tensors, p) sums of each tensor's |Q|^p."""
    factors = sampler.factors(sampler.cells(seed, b, size))
    aq = np.abs(sampler.q(factors, running_max=running_max))
    powers = np.array([np.sum(aq ** p) for p in ps])
    tails = np.array([np.count_nonzero(aq >= x) for x in xs], dtype=float)
    if sweep is None:
        return powers, tails, None
    _, rows, matrix = sweep
    qs = np.abs(matrix @ sampler.products(factors, rows))  # (tensors, size)
    return powers, tails, np.stack([np.sum(qs ** p, axis=1) for p in ps], axis=1)


def _moment_rows(plan: ExperimentPlan, powers: np.ndarray, sizes: List[int], bound_env) -> List[MomentRow]:
    means = np.sum(powers, axis=0) / float(plan.replications)
    batch_means = powers / np.array(sizes)[:, None]
    rows = []
    for p, m, batch_mean in zip(plan.p_grid, means, batch_means.T):
        p = float(p)
        if not math.isfinite(m):
            raise NumericFailure(f"non-finite power mean at p={p}")
        est = _moment_estimate(m, batch_mean, sizes, p)
        bound = float(bound_env(p))
        ratio = est.value / bound if bound > 0 and math.isfinite(bound) else math.inf
        passed = (est.value - 2.0 * est.stderr) <= bound
        rows.append(MomentRow(p, est.value, est.stderr, bound, ratio, bool(passed)))
    return rows


def _tail_section(plan: ExperimentPlan, tails: np.ndarray, bound_tail: Optional[ConjugateSpec]):
    if bound_tail is None:
        return (), {}
    total = float(plan.replications)
    emp = np.sum(tails, axis=0) / total
    se = np.sqrt(emp * (1.0 - emp) / total)
    fitted = bool(plan.fit_tail_rescale and emp[0] > 0.0)
    rescale = fit_tail_rescale(bound_tail, plan.x_grid[0], float(emp[0])) if fitted else 1.0
    lookup = {float(x): (float(e), float(s)) for x, e, s in zip(plan.x_grid, emp, se)}
    report = dominance_check(bound_tail, lambda x: lookup[float(x)], plan.x_grid, rescale=rescale)
    return report.rows, {"tail_rescale": rescale, "tail_rescale_fitted": fitted}


def _run(plan: ExperimentPlan) -> VerificationReport:
    t0 = time.perf_counter()
    bound_env = plan.bound_envelope
    bound_tail = None  # built before the first draw, so a bound without a conjugate tail fails at once
    if plan.x_grid:
        bound_tail = ConjugateSpec(bound_env)
    sampler = Sampler(plan.model, plan.window)
    sweep = _sweep_tensors(sampler, plan.b_sweep, plan.seed) if plan.b_sweep else None
    batch = functools.partial(_batch_sums, sampler, plan.seed, ps=plan.p_grid, xs=plan.x_grid,
                              running_max=plan.experiment == "doob", sweep=sweep)
    sizes = batch_plan(plan.replications)
    powers, tails, sweeps = map(np.array, zip(*_map_batches(batch, sizes, plan.threads)))
    rows = _moment_rows(plan, powers, sizes, bound_env)
    tail_rows, tail_meta = _tail_section(plan, tails, bound_tail)

    sweep_section = None
    if sweep is not None:
        sums = np.sum(sweeps, axis=0)  # (tensors, p)
        values = (sums / float(plan.replications)) ** (1.0 / plan.p_grid[None, :])
        sweep_section = {
            "labels": sweep[0],
            "p_grid": [float(p) for p in plan.p_grid],
            "values": values.tolist(),
            "max_over_tensors": values.max(axis=0).tolist(),
        }

    metadata = {
        "regime": plan.model.regime.tag,
        "direction": plan.model.regime.direction,
        "d": plan.model.d,
        "n": plan.model.n,
        "sharing": plan.model.sharing,
        "replications": plan.replications,
        "seed": plan.seed,
        "experiment": plan.experiment,
        "combined_r": plan.model.combined_r,
        "window": list(plan.window) if plan.window else None,
        "threads": plan.threads,
        "version": _pkg_version,
        "stream_version": STREAM_VERSION,
        "host": host_class(),
        "wall_time_s": None,  # set below
        **tail_meta,
    }
    try:
        model_cfg = model_to_config(plan.model)
    except ValueError as exc:
        # custom quantiles cannot round-trip; keep the report usable
        model_cfg = {"unserializable": str(exc)}
    config = {"model": model_cfg, "plan": plan_to_config(plan)}
    metadata["wall_time_s"] = time.perf_counter() - t0
    return VerificationReport(tuple(rows), tuple(tail_rows), metadata, config, sweep_section)


def run_experiment(plan: ExperimentPlan) -> VerificationReport:
    """Simulate the plan's model and compare empirical curves against its bound."""
    if plan.experiment != "standard":
        raise ValueError("plan is configured for a different experiment kind")
    return _run(plan)


def doob_experiment(plan: ExperimentPlan) -> VerificationReport:
    """Compare running-maximum p-norms against the bound with the p/(p-1) factor."""
    if plan.experiment != "doob":
        raise ValueError("plan must set experiment='doob'")
    return _run(plan)


def brute_force_moments(model: PolynomialModel, p_list: Sequence[float]) -> np.ndarray:
    """Exact E|Q|^p by full enumeration of a finitely supported model."""
    sampler = Sampler(model)
    factors, probs = sampler.enumerate()
    aq = np.abs(sampler.q(factors))
    return np.array([float(np.sum(probs * aq ** float(p))) for p in p_list])


# convergence_diagnostics flags drift above this log-log slope of estimate on count
DRIFT_SLOPE = 0.08


@dataclass(frozen=True)
class ConvergenceReport:
    p: float
    counts: Tuple[int, ...]
    estimates: Tuple[float, ...]
    stderrs: Tuple[float, ...]
    slope: float
    drifting: bool


def convergence_diagnostics(
    model: PolynomialModel,
    p: float,
    schedule: Sequence[int],
    seed: int = 0,
) -> ConvergenceReport:
    """Empirical |Q|_p along nested prefixes of an increasing replication schedule.

    Heavy-tail moment explosion shows up as systematic growth of the estimate
    with the sample size; the report flags drift when the log-log regression
    slope of estimate against count exceeds ``DRIFT_SLOPE`` (0.08) and the total
    movement exceeds twice the final error bar.
    """
    schedule = [int(s) for s in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or len(schedule) < 2:
        raise ValueError("schedule must be strictly increasing with >= 2 points")
    p = float(p)
    # each segment's batches keep their global numbers and sizes
    segments = [batch_plan(hi - lo) for lo, hi in zip([0] + schedule, schedule)]
    sizes = [size for segment in segments for size in segment]
    batch = functools.partial(_batch_sums, Sampler(model), seed, ps=[p])
    sums = [float(powers[0]) for powers, _, _ in _map_batches(batch, sizes)]
    ests = []  # one per prefix, from the same Python sums as a running loop
    for end in np.cumsum([len(segment) for segment in segments]):
        m = sum(sums[:end]) / float(sum(sizes[:end]))
        ests.append(_moment_estimate(m, np.array(sums[:end]) / np.array(sizes[:end]), sizes[:end], p))
    estimates, stderrs = [e.value for e in ests], [e.stderr for e in ests]

    logs_n = np.log(np.array(schedule, dtype=float))
    logs_v = np.log(np.maximum(np.array(estimates), 1e-300))
    slope = float(np.polyfit(logs_n, logs_v, 1)[0])
    moved = estimates[-1] - estimates[0] > 2.0 * stderrs[-1]
    drifting = bool(slope > DRIFT_SLOPE and moved)
    return ConvergenceReport(
        p, tuple(schedule), tuple(estimates), tuple(stderrs), slope, drifting
    )


# ---------------------------------------------------------------------------
# plan (de)serialisation shared with the CLI
# ---------------------------------------------------------------------------


def _grid_from_config(cfg, model: PolynomialModel) -> np.ndarray:
    if isinstance(cfg, (list, tuple)):
        return np.asarray(config_list(cfg, "plan.p_grid", float), dtype=float)
    kinds = {
        "auto": (functools.partial(auto_p_grid, model), {"points": int, "frac": float}, ()),
        "linspace": (
            lambda lo, hi, num: np.linspace(lo, hi, num),
            {"lo": float, "hi": float, "num": int},
            ("lo", "hi", "num"),
        ),
    }
    return config_select(cfg, "plan.p_grid", kinds, "auto")


def _bound_from_config(cfg: dict, model: PolynomialModel):
    """The plan's bound; each kind returns a builder, so a chain is built outside config_build."""

    def zeta_natural(scale=1.0, points=257):
        if not (scale > 0 and points >= 2):
            raise ValueError(f"need scale > 0 and points >= 2, got {scale} and {points}")
        if model.multiplicities is not None:
            raise ValueError("zeta_natural needs a multilinear model; use dominant")
        return lambda: natural_zeta_chain(model, points=points, scale=scale)

    def dominant(tails, scale=1.0, points=129):
        env = polynomial_dominant_envelope(tails, model.d, scale=scale, points=points)
        return lambda: env

    def tails(value, where):
        return config_list(value, where, lambda t, w: tuple(config_list(t, w, float, length=2)))

    kinds = {
        "zeta_natural": (zeta_natural, {"scale": float, "points": int}, ()),
        "dominant": (dominant, {"scale": float, "points": int, "tails": tails}, ("tails",)),
    }
    return config_select(cfg, "plan.bound", kinds, "zeta_natural")()


def _plan_types(model: PolynomialModel) -> dict:
    """The config type of each plan key, in the order plan_to_config writes them."""
    return {
        "replications": int,
        "p_grid": lambda v, w: _grid_from_config(v, model),
        "x_grid": lambda v, w: config_list(v, w, float),
        "bound": lambda v, w: _bound_from_config(v, model),
        "fit_tail_rescale": bool, "seed": int, "b_sweep": int,
        "threads": int, "experiment": str,
        "window": lambda v, w: config_list(v, w, int, length=2),
    }


def plan_from_config(cfg: dict, model: PolynomialModel) -> ExperimentPlan:
    types = _plan_types(model)
    given = {k: v for k, v in check_keys(cfg, "plan", types).items() if v is not None}
    defaults = {"replications": 10000, "p_grid": {"kind": "auto"}, "bound": {"kind": "zeta_natural"}}
    cfg = {**defaults, **given}
    # the run's scalars are checked before the bound (a whole chain) is built
    scalars = {
        k: config_value(cfg[k], f"plan.{k}", int) for k in ("replications", "seed", "threads") if k in cfg
    }
    config_build("plan", _check_run_scalars, **scalars)

    def plan(**kwargs):
        return ExperimentPlan(model=model, bound_config=dict(cfg["bound"]), **kwargs)

    return config_call(plan, cfg, "plan", types)


def plan_to_config(plan: ExperimentPlan) -> dict:
    cfg = {key: getattr(plan, key) for key in _plan_types(plan.model)}
    cfg.update(
        p_grid=[float(p) for p in plan.p_grid],
        x_grid=list(plan.x_grid),
        bound=plan.bound_config or {"unserializable": "bound given as a Python object"},
        window=list(plan.window) if plan.window else None,
    )
    return cfg
