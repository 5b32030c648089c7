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

import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__ as _pkg_version
from .calculus import (
    GrowthConstant,
    ZetaChain,
    doob_maximal_envelope,
    zeta_chain,
)
from .envelope import MomentEnvelope, Scaled
from .polymodel import (
    CoefficientTensor,
    PolynomialModel,
    Sampler,
    _stream,
    batch_plan,
    enumerate_indices,
    model_from_config,
    model_to_config,
    natural_envelope,
    tuple_products,
)
from .tails import ConjugateSpec, ConjugateTail, dominance_check, fit_tail_rescale

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


class NumericFailure(RuntimeError):
    """Raised when an experiment produces non-finite statistics."""


def natural_zeta_chain(
    model: PolynomialModel,
    p_grid: Optional[Sequence[float]] = None,
    points: int = 257,
    scale: float = 1.0,
    K_M: Optional[GrowthConstant] = None,
    K_I: Optional[GrowthConstant] = None,
) -> ZetaChain:
    """Bound chain built from the tight envelopes of the model's own cells.

    The inputs' moment norms against their natural envelopes are exactly one,
    so the chain's final stage is directly comparable with empirical moments.
    ``scale`` multiplies every input envelope (useful to deliberately break a
    bound when testing failure paths).
    """
    if model.multiplicities is not None:
        raise ValueError("chains apply to multilinear models; got a polynomial model")
    envs = [natural_envelope(dist, model.regime.tag) for dist in model.distributions]
    if scale != 1.0:
        envs = [Scaled(e, scale) for e in envs]
    return zeta_chain(model.regime, envs, K_M=K_M, K_I=K_I, p_grid=p_grid, points=points)


def auto_p_grid(model: PolynomialModel, points: int = 5, frac: float = 0.9) -> np.ndarray:
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


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Everything needed to reproduce one verification run."""

    model: PolynomialModel
    replications: int
    p_grid: np.ndarray
    bound: Union[ZetaChain, MomentEnvelope]
    x_grid: Tuple[float, ...] = ()
    tail_norm_factor: float = 1.0
    fit_tail_rescale: bool = True
    seed: int = 0
    b_sweep: int = 0
    threads: int = 1
    experiment: str = "standard"
    window: Optional[Tuple[int, int]] = None  # index window for reverse sums
    bound_config: Optional[dict] = None  # recipe used to rebuild the bound

    def __post_init__(self):
        if self.replications < 1000:
            raise ValueError("at least 10^3 replications are required")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.window is not None:
            object.__setattr__(self, "window", (int(self.window[0]), int(self.window[1])))
        grid = np.asarray(self.p_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("empty exponent grid")
        object.__setattr__(self, "p_grid", grid)
        object.__setattr__(self, "x_grid", tuple(float(x) for x in self.x_grid))
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
            if math.isfinite(upper) and p > 0.8 * upper:
                warnings.warn(
                    f"p={float(p):.4g} lies beyond 0.8x the support endpoint"
                    f" {upper:.4g}; the moment estimate will be high-variance",
                    stacklevel=2,
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
            "moments": [
                {
                    "p": r.p,
                    "empirical": r.empirical,
                    "stderr": r.stderr,
                    "bound": r.bound,
                    "ratio": r.ratio,
                    "pass": r.passed,
                }
                for r in self.moment_rows
            ],
            "tails": [
                {
                    "x": r.x,
                    "empirical": r.empirical,
                    "stderr": r.stderr,
                    "bound": r.bound,
                    "pass": r.passed,
                }
                for r in self.tail_rows
            ],
            "sweep": self.sweep,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, prefix: str) -> List[str]:
        paths = []
        mpath = f"{prefix}_moments.csv"
        with open(mpath, "w") as fh:
            fh.write("p,empirical,stderr,bound,ratio,pass\n")
            for r in self.moment_rows:
                fh.write(
                    f"{r.p:.17g},{r.empirical:.17g},{r.stderr:.17g},"
                    f"{r.bound:.17g},{r.ratio:.17g},{int(r.passed)}\n"
                )
        paths.append(mpath)
        if self.tail_rows:
            tpath = f"{prefix}_tails.csv"
            with open(tpath, "w") as fh:
                fh.write("x,empirical,stderr,bound,pass\n")
                for r in self.tail_rows:
                    fh.write(
                        f"{r.x:.17g},{r.empirical:.17g},{r.stderr:.17g},"
                        f"{r.bound:.17g},{int(r.passed)}\n"
                    )
            paths.append(tpath)
        return paths


def _sweep_tensors(model: PolynomialModel, count: int, seed: int):
    """Structured extremes plus random unit tensors for the coefficient sweep."""
    d_t = model.coefficients.d
    tuples = list(enumerate_indices(d_t, model.n))
    labels = ["uniform", "single"]
    tensors = [CoefficientTensor.uniform(d_t, model.n), CoefficientTensor.single(d_t, model.n)]
    gen = _stream(seed, 1 << 32)
    for j in range(count):
        tensors.append(CoefficientTensor.random_unit(d_t, model.n, gen))
        labels.append(f"random_{j}")
    matrix = np.zeros((len(tensors), len(tuples)))
    index = {I: j for j, I in enumerate(tuples)}
    for t, tensor in enumerate(tensors):
        for I, b in tensor.entries.items():
            matrix[t, index[I]] = b
    return labels, tensors, tuples, matrix


def _batch_statistics(plan: ExperimentPlan, sampler: Sampler, b: int, size: int, sweep) -> Dict:
    """Sufficient statistics (sums of |Q|^p, tail exceedance counts) for one batch."""
    factors = sampler.factors(sampler.cells(plan.seed, b, size))
    q = sampler.q(factors, running_max=plan.experiment == "doob")
    aq = np.abs(q)
    powers = np.array([np.sum(aq ** p) for p in plan.p_grid])
    tails = np.array([np.count_nonzero(aq >= x) for x in plan.x_grid], dtype=float)
    out = {"powers": powers, "tails": tails, "count": size}
    if sweep is not None:
        _, _, tuples, matrix = sweep
        prods = tuple_products(factors, tuples)
        qs = np.abs(matrix @ prods)  # (tensors, size)
        out["sweep"] = np.stack([np.sum(qs ** p, axis=1) for p in plan.p_grid], axis=1)
    return out


def _gather_batches(plan: ExperimentPlan, sampler: Sampler, sweep) -> List[Dict]:
    sizes = batch_plan(plan.replications)
    if plan.threads > 1:
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            futures = [
                pool.submit(_batch_statistics, plan, sampler, b, size, sweep)
                for b, size in enumerate(sizes)
            ]
            return [f.result() for f in futures]
    return [_batch_statistics(plan, sampler, b, size, sweep) for b, size in enumerate(sizes)]


def _moment_rows(plan: ExperimentPlan, stats: List[Dict], bound_env) -> List[MomentRow]:
    total = float(sum(s["count"] for s in stats))
    sums = np.sum([s["powers"] for s in stats], axis=0)
    batch_means = np.array([s["powers"] / s["count"] for s in stats])
    nb = batch_means.shape[0]
    rows = []
    for j, p in enumerate(plan.p_grid):
        p = float(p)
        m = sums[j] / total
        if not math.isfinite(m):
            raise NumericFailure(f"non-finite power mean at p={p}")
        se_m = float(batch_means[:, j].std(ddof=1) / math.sqrt(nb)) if nb >= 2 else 0.0
        value = m ** (1.0 / p)
        stderr = se_m * value / (p * m) if m > 0 else 0.0
        bound = float(bound_env(p))
        ratio = value / bound if bound > 0 and math.isfinite(bound) else math.inf
        passed = (value - 2.0 * stderr) <= bound
        rows.append(MomentRow(p, value, stderr, bound, ratio, bool(passed)))
    return rows


def _tail_section(plan: ExperimentPlan, stats: List[Dict], bound_env):
    if not plan.x_grid:
        return (), {}
    total = float(sum(s["count"] for s in stats))
    counts = np.sum([s["tails"] for s in stats], axis=0)
    emp = counts / total
    se = np.sqrt(emp * (1.0 - emp) / total)
    spec = ConjugateSpec(bound_env, norm_factor=plan.tail_norm_factor)
    bound_tail = ConjugateTail(spec)
    rescale = 1.0
    fitted = False
    if plan.fit_tail_rescale and emp[0] > 0.0:
        rescale = fit_tail_rescale(bound_tail, plan.x_grid[0], float(emp[0]))
        fitted = True
    lookup = {float(x): (float(e), float(s)) for x, e, s in zip(plan.x_grid, emp, se)}
    report = dominance_check(
        bound_tail, lambda x: lookup[float(x)], plan.x_grid, rescale=rescale
    )
    meta = {"tail_rescale": rescale, "tail_rescale_fitted": fitted}
    return report.rows, meta


def _run(plan: ExperimentPlan) -> VerificationReport:
    t0 = time.perf_counter()
    bound_env = plan.bound_envelope
    sweep = _sweep_tensors(plan.model, plan.b_sweep, plan.seed) if plan.b_sweep else None
    sampler = Sampler(plan.model, plan.window)
    stats = _gather_batches(plan, sampler, sweep)
    rows = _moment_rows(plan, stats, bound_env)
    tail_rows, tail_meta = _tail_section(plan, stats, bound_env)

    sweep_section = None
    if sweep is not None:
        labels, _, _, _ = sweep
        total = float(sum(s["count"] for s in stats))
        sums = np.sum([s["sweep"] for s in stats], axis=0)  # (tensors, p)
        values = (sums / total) ** (1.0 / plan.p_grid[None, :])
        sweep_section = {
            "labels": labels,
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
    slope_threshold: float = 0.08,
) -> ConvergenceReport:
    """Empirical |Q|_p along nested prefixes of an increasing replication schedule.

    Heavy-tail moment explosion shows up as systematic growth of the estimate
    with the sample size; the report flags drift when the log-log regression
    slope of estimate against count exceeds ``slope_threshold`` and the total
    movement exceeds twice the final error bar.
    """
    schedule = [int(s) for s in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or len(schedule) < 2:
        raise ValueError("schedule must be strictly increasing with >= 2 points")
    p = float(p)
    batch_sums: List[float] = []
    batch_counts: List[int] = []
    estimates: List[float] = []
    stderrs: List[float] = []
    done = 0
    global_batch = 0
    sampler = Sampler(model)
    for target in schedule:
        need = target - done
        for size in batch_plan(need):
            q = sampler.q(sampler.factors(sampler.cells(seed, global_batch, size)))
            batch_sums.append(float(np.sum(np.abs(q) ** p)))
            batch_counts.append(size)
            global_batch += 1
        done = target
        total = float(sum(batch_counts))
        m = sum(batch_sums) / total
        means = np.array(batch_sums) / np.array(batch_counts)
        nb = means.size
        se_m = float(means.std(ddof=1) / math.sqrt(nb)) if nb >= 2 else 0.0
        value = m ** (1.0 / p)
        estimates.append(value)
        stderrs.append(se_m * value / (p * m) if m > 0 else 0.0)

    logs_n = np.log(np.array(schedule, dtype=float))
    logs_v = np.log(np.maximum(np.array(estimates), 1e-300))
    slope = float(np.polyfit(logs_n, logs_v, 1)[0])
    moved = estimates[-1] - estimates[0] > 2.0 * stderrs[-1]
    drifting = bool(slope > slope_threshold and moved)
    return ConvergenceReport(
        p, tuple(schedule), tuple(estimates), tuple(stderrs), slope, drifting
    )


# ---------------------------------------------------------------------------
# plan (de)serialisation shared with the CLI
# ---------------------------------------------------------------------------

_PLAN_KEYS = {
    "replications",
    "p_grid",
    "x_grid",
    "bound",
    "tail_norm_factor",
    "fit_tail_rescale",
    "seed",
    "b_sweep",
    "threads",
    "experiment",
    "window",
}


def _grid_from_config(cfg, model: PolynomialModel) -> np.ndarray:
    if isinstance(cfg, (list, tuple)):
        return np.asarray(cfg, dtype=float)
    if isinstance(cfg, dict):
        kind = cfg.get("kind", "auto")
        if kind == "auto":
            return auto_p_grid(
                model, points=int(cfg.get("points", 5)), frac=float(cfg.get("frac", 0.9))
            )
        if kind == "linspace":
            return np.linspace(float(cfg["lo"]), float(cfg["hi"]), int(cfg["num"]))
        raise ValueError(f"unknown grid kind {kind!r}")
    raise ValueError("p_grid must be a list or a grid specification object")


def _bound_from_config(cfg: Optional[dict], model: PolynomialModel, p_grid):
    cfg = dict(cfg or {"kind": "zeta_natural"})
    kind = cfg.get("kind", "zeta_natural")
    if kind == "zeta_natural":
        unknown = set(cfg) - {"kind", "scale", "points"}
        if unknown:
            raise ValueError(f"unknown bound keys: {sorted(unknown)}")
        scale = float(cfg.get("scale", 1.0))
        points = int(cfg.get("points", 257))
        return natural_zeta_chain(model, points=points, scale=scale), cfg
    if kind == "dominant":
        unknown = set(cfg) - {"kind", "scale", "tails", "points"}
        if unknown:
            raise ValueError(f"unknown bound keys: {sorted(unknown)}")
        from .calculus import polynomial_dominant_envelope

        tails = cfg.get("tails")
        if tails is None:
            raise ValueError("dominant bound requires explicit 'tails': [[r, gamma], ...]")
        params = [(float(r), float(g)) for r, g in tails]
        env = polynomial_dominant_envelope(
            params,
            model.d,
            scale=float(cfg.get("scale", 1.0)),
            points=int(cfg.get("points", 129)),
        )
        return env, cfg
    raise ValueError(f"unknown bound kind {kind!r}; use 'zeta_natural' or 'dominant'")


def plan_from_config(cfg: dict, model: PolynomialModel) -> ExperimentPlan:
    unknown = set(cfg) - _PLAN_KEYS
    if unknown:
        raise ValueError(f"unknown plan keys: {sorted(unknown)}")
    p_grid = _grid_from_config(cfg.get("p_grid", {"kind": "auto"}), model)
    bound, bound_cfg = _bound_from_config(cfg.get("bound"), model, p_grid)
    window = cfg.get("window")
    return ExperimentPlan(
        model=model,
        replications=int(cfg.get("replications", 10000)),
        p_grid=p_grid,
        bound=bound,
        x_grid=tuple(cfg.get("x_grid", ())),
        tail_norm_factor=float(cfg.get("tail_norm_factor", 1.0)),
        fit_tail_rescale=bool(cfg.get("fit_tail_rescale", True)),
        seed=int(cfg.get("seed", 0)),
        b_sweep=int(cfg.get("b_sweep", 0)),
        threads=int(cfg.get("threads", 1)),
        experiment=cfg.get("experiment", "standard"),
        window=tuple(window) if window else None,
        bound_config=bound_cfg,
    )


def plan_to_config(plan: ExperimentPlan) -> dict:
    return {
        "replications": plan.replications,
        "p_grid": [float(p) for p in plan.p_grid],
        "x_grid": list(plan.x_grid),
        "bound": plan.bound_config or {"kind": "zeta_natural"},
        "tail_norm_factor": plan.tail_norm_factor,
        "fit_tail_rescale": plan.fit_tail_rescale,
        "seed": plan.seed,
        "b_sweep": plan.b_sweep,
        "threads": plan.threads,
        "experiment": plan.experiment,
        "window": list(plan.window) if plan.window else None,
    }
