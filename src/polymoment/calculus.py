"""Composition calculus for moment envelopes.

The central operation is the infimal Hoelder composition

    (nu1 (x) nu2)(p) = inf { nu1(p/a) * nu2(p/b) : a, b > 0, a + b = 1 },

which bounds the moment function of a product of two variables by the
envelopes of its factors.  Iterating it, and interleaving growth constants
for martingale or independent sums, produces recursive bound chains for
multilinear sums ``sum b(I) prod_m xi(i_m, m)`` under four dependence
regimes, in both time directions.  The chains' final stage is an envelope
dominating ``sup_b |Q_d|_p`` over unit-norm coefficient tensors.

Also provided: the dominant-term envelope for arbitrary centered polynomials
of independent heavy-tailed variables, the Doob maximal-inequality factor
``p/(p-1)``, and the good-lambda envelope correction ``(r - p)^(-1/r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._optim import chebyshev_grid, golden_min_rows
from .envelope import (
    EnvelopeDomainError,
    MomentEnvelope,
    PowerSingularity,
    Product,
    SupportInterval,
    Tabulated,
)

__all__ = [
    "ChainFeasibilityError",
    "GrowthConstant",
    "DependenceRegime",
    "MARTINGALE",
    "COMMON_INDEPENDENT",
    "INSIDE_INDEPENDENT",
    "VECTOR_INDEPENDENT",
    "FORWARD",
    "REVERSE",
    "combined_exponent",
    "otimes",
    "OtimesResult",
    "otimes_chain",
    "ZetaChain",
    "zeta_chain",
    "polynomial_dominant_envelope",
    "DoobMaximal",
    "doob_maximal_envelope",
    "good_lambda_envelope",
]

MARTINGALE = "martingale"
COMMON_INDEPENDENT = "common_independent"
INSIDE_INDEPENDENT = "inside_independent"
VECTOR_INDEPENDENT = "vector_independent"
FORWARD = "forward"
REVERSE = "reverse"

_TAGS = (MARTINGALE, COMMON_INDEPENDENT, INSIDE_INDEPENDENT, VECTOR_INDEPENDENT)
_DIRECTIONS = (FORWARD, REVERSE)

# regimes whose recursion multiplies envelopes pointwise instead of composing
_PRODUCT_TAGS = (COMMON_INDEPENDENT, VECTOR_INDEPENDENT)


class ChainFeasibilityError(ValueError):
    """Raised when the combined singularity exponent does not exceed 1."""


@dataclass(frozen=True)
class DependenceRegime:
    """Dependence structure of the input family plus the time direction."""

    tag: str = MARTINGALE
    direction: str = FORWARD

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown dependence tag {self.tag!r}; expected one of {_TAGS}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; expected one of {_DIRECTIONS}"
            )

    @property
    def reverse(self) -> bool:
        return self.direction == REVERSE


@dataclass(frozen=True)
class GrowthConstant:
    """Exponent-dependent constant K(p) multiplying each chain stage.

    The martingale constant is ``p * sqrt(2)`` and the independent-sum
    constant ``0.87 * p / log p``, both stated for p >= 2.  Below 2 the
    argument is clamped to 2, which keeps chains finite on grids reaching
    down to p = 1 (the independent constant diverges as p -> 1).
    """

    kind: str = "martingale"
    fn: Optional[Callable[[float], float]] = None

    @classmethod
    def martingale(cls) -> "GrowthConstant":
        return cls(kind="martingale")

    @classmethod
    def independent(cls) -> "GrowthConstant":
        return cls(kind="independent")

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "GrowthConstant":
        return cls(kind="custom", fn=fn)

    def __call__(self, p: float) -> float:
        if self.kind == "custom":
            out = float(self.fn(p))
            if not (out > 0):
                raise ValueError(f"growth constant must be positive, got {out} at p={p}")
            return out
        q = max(float(p), 2.0)
        if self.kind == "martingale":
            return q * math.sqrt(2.0)
        return 0.87 * q / math.log(q)


def combined_exponent(uppers: Sequence[float]) -> float:
    """Harmonic combination ``(sum_m 1/r_m)^(-1)`` of singularity exponents."""
    s = 0.0
    for r in uppers:
        if r <= 0:
            raise ValueError(f"singularity exponents must be positive, got {r}")
        if math.isfinite(r):
            s += 1.0 / r
    return math.inf if s == 0.0 else 1.0 / s


class OtimesResult(NamedTuple):
    value: float
    split: float  # share of the exponent routed to the first envelope


_INSET = 1e-12  # relative inset from the open feasibility endpoints
_SCAN = 64  # evenly spaced scan points over the split interval


def otimes(
    nu1: MomentEnvelope,
    nu2: MomentEnvelope,
    p: float,
    full_output: bool = False,
):
    """Infimal Hoelder composition of two envelopes at exponent ``p``.

    Returns ``+inf`` when no feasible split exists, i.e. when
    ``p >= (1/r1 + 1/r2)^(-1)`` for the two singularity exponents.  The
    minimiser is located by a 64-point scan over the feasible interval
    ``[p/r1, 1 - p/r2]`` followed by golden-section refinement; the
    objective can be non-convex for exotic slowly varying factors, so
    bracket-then-refine is the robust choice.  This is a one-row call of the
    stage-grid search :func:`_otimes_grid`, about 3-4 ms a call; chain stages
    compose their whole exponent grids in one call of it.

    With ``full_output=True`` returns an :class:`OtimesResult` carrying the
    minimising share ``a`` of the exponent routed to ``nu1``.
    """
    values, splits = _otimes_grid(nu1, nu2, [float(p)])
    res = OtimesResult(float(values[0]), float(splits[0]))
    return res if full_output else res.value


def _otimes_grid(nu1: MomentEnvelope, nu2: MomentEnvelope, ps) -> Tuple[np.ndarray, np.ndarray]:
    """Values and minimising splits of ``nu1 (x) nu2`` at every exponent in ``ps``.

    The search for each exponent: rows with load ``p/r1 + p/r2 >= 1`` or an
    empty evaluable split interval are infeasible (value ``inf``, split NaN);
    the rest scan 64 points inset from the interval ends (only its midpoint
    when it is too narrow to inset), polish the first minimum of each row by
    :func:`golden_min_rows` in lockstep, and keep a closed evaluable endpoint
    where it is strictly better.  The split is the scan point, the polished
    point, the midpoint or the endpoint kept, as a share routed to ``nu1``.
    The split interval comes from the evaluable exponent ranges (tabulated
    envelopes may declare a wider support than they can evaluate); splits
    outside it are infinite anyway.  Envelopes are evaluated through
    :meth:`MomentEnvelope.values_at`.
    """
    ps = np.asarray(ps, dtype=float)
    bad = ps[~(np.isfinite(ps) & (ps >= 1.0))]
    if bad.size:
        raise EnvelopeDomainError(f"exponent must be finite and >= 1, got {bad[0]}")
    load = sum(ps / r for r in (nu1.support.upper, nu2.support.upper) if math.isfinite(r))
    # canonical argument order (smaller singularity exponent first) makes the
    # operation numerically symmetric: forward and mirrored chains then agree
    # exactly for equal inputs
    swapped = nu2.support.upper < nu1.support.upper
    if swapped:
        nu1, nu2 = nu2, nu1
    (r1, closed1), (r2, closed2) = nu1.evaluable_upper(), nu2.evaluable_upper()
    a_lo = ps / r1 if math.isfinite(r1) else 0.0 * ps
    a_hi = 1.0 - (ps / r2 if math.isfinite(r2) else 0.0 * ps)
    rows = np.flatnonzero((load < 1.0) & (a_lo < a_hi))
    p, a_lo, a_hi = ps[rows], a_lo[rows], a_hi[rows]

    def objective(i: np.ndarray, a: np.ndarray) -> np.ndarray:
        # row i's objective nu1(p/a) * nu2(p/(1-a)) at split a
        v = np.full(a.shape, math.inf)
        ok = np.flatnonzero((a > 0.0) & (a < 1.0))
        v1 = nu1.values_at(p[i[ok]] / a[ok])
        ok, v1 = ok[~np.isinf(v1)], v1[~np.isinf(v1)]
        v[ok] = v1 * nu2.values_at(p[i[ok]] / (1.0 - a[ok]))
        return v

    inset = np.maximum(_INSET * np.maximum(a_hi - a_lo, 1.0), 1e-300)
    lo, hi = a_lo + inset, a_hi - inset
    best, split = np.empty(rows.size), np.empty(rows.size)
    narrow = np.flatnonzero(~(lo < hi))
    split[narrow] = 0.5 * (a_lo[narrow] + a_hi[narrow])
    best[narrow] = objective(narrow, split[narrow])
    wide = np.flatnonzero(lo < hi)
    xs = lo[wide, None] + ((hi[wide] - lo[wide]) / (_SCAN - 1))[:, None] * np.arange(_SCAN)
    xs[:, -1] = hi[wide]
    ys = objective(np.repeat(wide, _SCAN), xs.ravel()).reshape(xs.shape)
    k = np.argmin(ys, axis=1)
    y = ys[np.arange(wide.size), k]
    best[wide], split[wide] = y, xs[np.arange(wide.size), k]
    fin = np.flatnonzero(~np.isinf(y))
    k, top = k[fin], xs[fin, np.minimum(k[fin] + 1, _SCAN - 1)]
    polish = wide[fin]
    x_ref, y_ref = golden_min_rows(
        lambda i, a: objective(polish[i], a),
        xs[fin, np.maximum(k - 1, 0)], top, 1e-12 * np.maximum(1.0, top),
    )
    keep = y[fin] < y_ref
    best[polish] = np.where(keep, y[fin], y_ref)
    split[polish] = np.where(keep, split[polish], x_ref)
    # closed evaluable endpoints are genuinely attainable; include them exactly
    for r, closed, a_end in ((r1, closed1, a_lo), (r2, closed2, a_hi)):
        if math.isfinite(r) and closed:
            at = np.flatnonzero((0.0 < a_end) & (a_end < 1.0))
            v = objective(at, a_end[at])
            better = v < best[at]
            best[at] = np.where(better, v, best[at])
            split[at] = np.where(better, a_end[at], split[at])
    values, splits = np.full(ps.shape, math.inf), np.full(ps.shape, math.nan)
    values[rows], splits[rows] = best, split
    return values, 1.0 - splits if swapped else splits


# smallest end of a growth (infinite-exponent) stage grid
_GROWTH_GRID_END = 64.0


def _stage_grid(
    eff_upper: float,
    declared_upper: float,
    points: int,
    p_max_hint: Optional[float],
    final: bool,
) -> np.ndarray:
    """Chebyshev exponent grid for materialising a chain stage.

    Intermediate stages extend almost to the effective (evaluable) combined
    exponent so later compositions can query them across their whole feasible
    range; the final stage keeps a wider safety margin below the declared
    combined exponent.  Growth stages (infinite exponent) get headroom above
    the caller's largest exponent because later compositions evaluate stages
    at ``p / a > p``.
    """
    if math.isfinite(eff_upper):
        tight = 1.0 + (1.0 - 1e-6) * (eff_upper - 1.0)
        if final and math.isfinite(declared_upper):
            hi = min(1.0 + 0.999 * (declared_upper - 1.0), tight)
        else:
            hi = tight
        return chebyshev_grid(1.0, hi, points)
    base = p_max_hint if p_max_hint is not None else _GROWTH_GRID_END
    if final:
        return chebyshev_grid(1.0, _GROWTH_GRID_END, points)
    # growth stages span a wide headroom range; densify to keep the
    # log-interpolation error small where later stages will query them
    return chebyshev_grid(1.0, max(_GROWTH_GRID_END, 16.0 * base), 4 * points - 3)


def otimes_chain(
    envs: Sequence[MomentEnvelope],
    p_grid: Optional[Sequence[float]] = None,
    points: int = 257,
) -> MomentEnvelope:
    """Left fold ``((nu1 (x) nu2) (x) ...) (x) nu_d`` materialised on a grid.

    Intermediate stages are tabulated on their own partial-exponent grids so
    that later compositions can evaluate them anywhere in their feasible
    range; each is composed in one lockstep search (:func:`_otimes_grid`).
    A single-element list returns the envelope unchanged.  Raises
    :class:`ChainFeasibilityError` when the combined exponent is <= 1.
    """
    envs = list(envs)
    if len(envs) == 0:
        raise ValueError("empty envelope list")
    if len(envs) == 1:
        return envs[0]
    uppers = [e.support.upper for e in envs]
    r_comb = combined_exponent(uppers)
    if r_comb <= 1.0:
        raise ChainFeasibilityError(
            f"combined singularity exponent {r_comb:.6g} <= 1: the composed envelope"
            " has empty exponent domain (reciprocal exponents sum to >= 1)"
        )
    final_grid = None if p_grid is None else np.asarray(p_grid, dtype=float)
    return _compose_stages(envs[0], uppers[0], envs[1:], final_grid, points)[-1]


def _stage_from_values(grid: np.ndarray, vals: np.ndarray, upper: float) -> Tabulated:
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise ChainFeasibilityError(
            "chain stage evaluated to a non-finite or non-positive value; the grid"
            f" must stay strictly inside the combined exponent {upper:.6g}"
        )
    return Tabulated(grid, vals, upper=upper if math.isfinite(upper) else None)


def _compose_stages(
    acc: MomentEnvelope,
    r_acc: float,
    nxts: Sequence[MomentEnvelope],
    final_grid: Optional[np.ndarray],
    points: int,
    K: Optional[GrowthConstant] = None,
) -> list:
    """Fold ``acc`` with each of ``nxts``: stage ``K(p) * (acc (x) nxt)(p)``.

    ``r_acc`` is the declared singularity exponent of ``acc``; it is passed
    explicitly because a tabulated first stage of an infinite-support input
    reports its finite grid end as ``support.upper``.  Each stage is
    tabulated on its own partial-exponent grid (the last one on
    ``final_grid`` when given) and becomes ``acc`` for the next factor.
    One :func:`_otimes_grid` call composes a stage's whole grid.  Returns the
    stages in fold order.
    """
    p_max_hint = None if final_grid is None else float(final_grid[-1])
    stages = []
    for k, nxt in enumerate(nxts, start=1):
        r_acc = combined_exponent([r_acc, nxt.support.upper])
        eff_acc = combined_exponent([acc.evaluable_upper()[0], nxt.evaluable_upper()[0]])
        last = k == len(nxts)
        if last and final_grid is not None:
            grid = final_grid
        else:
            grid = _stage_grid(eff_acc, r_acc, points, p_max_hint, final=last)
        vals = _otimes_grid(acc, nxt, grid)[0]
        if K is not None:
            vals = np.array([K(p) for p in grid]) * vals
        acc = _stage_from_values(grid, vals, r_acc)
        stages.append(acc)
    return stages


@dataclass(frozen=True)
class ZetaChain:
    """Recursive bound chain for a multilinear sum.

    ``stages`` are in computation order, so ``stages[-1]`` (also ``.bound``)
    is the envelope dominating ``sup_b |Q_d|_p`` regardless of direction; for
    reverse chains ``stages[k]`` refers to factor index ``d - k``.
    """

    stages: Tuple[MomentEnvelope, ...]
    regime: DependenceRegime
    inputs: Tuple[MomentEnvelope, ...]
    combined_r: float

    def __post_init__(self):
        if len(self.stages) != len(self.inputs):
            raise ValueError("one chain stage per input envelope required")
        # each stage must stay inside the partial combined exponent
        order = self.inputs if not self.regime.reverse else tuple(reversed(self.inputs))
        uppers = [env.support.upper for env in order]
        for k, stage in enumerate(self.stages):
            if stage.support.upper > combined_exponent(uppers[: k + 1]) * (1.0 + 1e-9):
                raise ValueError(
                    "chain stage support exceeds its partial combined exponent"
                )

    @property
    def bound(self) -> MomentEnvelope:
        return self.stages[-1]

    @property
    def depth(self) -> int:
        return len(self.stages)


def zeta_chain(
    regime: DependenceRegime,
    nus: Sequence[MomentEnvelope],
    K_M: Optional[GrowthConstant] = None,
    K_I: Optional[GrowthConstant] = None,
    p_grid: Optional[Sequence[float]] = None,
    points: int = 257,
) -> ZetaChain:
    """Build the recursive bound chain for a given dependence regime.

    Forward recursions (reverse chains run the same recursion over the
    reversed factor list, which is exactly the mirrored endpoint condition):

    * martingale:        z1 = K_M nu1,  z_{m+1} = K_M (z_m (x) nu_{m+1})
    * common independent: z1 = K_I nu1,  z_{m+1} = K_M z_m nu_{m+1}  (pointwise)
    * inside independent: z1 = K_I nu1,  z_{m+1} = K_M (z_m (x) nu_{m+1})
    * vector independent: z1 = K_M nu1,  z_{m+1} = K_M z_m nu_{m+1}  (pointwise)

    The final stage dominates ``sup_b |Q_d|_p`` on the grid.  Stages are
    materialised as tabulated envelopes; composition stages get their own
    partial-exponent grids so later stages can evaluate them off-grid.
    """
    nus = list(nus)
    if len(nus) == 0:
        raise ValueError("empty input envelope list")
    if K_M is None:
        K_M = GrowthConstant.martingale()
    if K_I is None:
        K_I = GrowthConstant.independent()

    uppers = [nu.support.upper for nu in nus]
    r_comb = combined_exponent(uppers)
    if r_comb <= 1.0:
        raise ChainFeasibilityError(
            f"combined singularity exponent {r_comb:.6g} <= 1: no exponent grid is"
            " feasible (reciprocal exponents sum to >= 1)"
        )

    order = nus if not regime.reverse else list(reversed(nus))

    # effective (evaluable) combined exponent, accounting for the small
    # inset each intermediate tabulation takes off its own evaluable range
    if regime.tag in _PRODUCT_TAGS:
        eff_comb = combined_exponent([nu.evaluable_upper()[0] for nu in nus])
    else:
        eff_comb = order[0].evaluable_upper()[0]
        if math.isinf(eff_comb) and math.isfinite(r_comb):
            # a growth first factor is tabulated up to its grid end, no further
            eff_comb = _GROWTH_GRID_END
        for nu in order[1:]:
            h = combined_exponent([eff_comb, nu.evaluable_upper()[0]])
            eff_comb = 1.0 + (1.0 - 1e-6) * (h - 1.0) if math.isfinite(h) else h

    if p_grid is None:
        final_grid = _stage_grid(eff_comb, r_comb, points, None, final=True)
    else:
        final_grid = np.asarray(p_grid, dtype=float)
        if final_grid.size == 0:
            raise ValueError("empty exponent grid")
        if final_grid[0] < 1.0 or final_grid[-1] >= r_comb or np.any(np.diff(final_grid) <= 0):
            raise EnvelopeDomainError(
                f"exponent grid must increase strictly inside [1, {r_comb:.6g}) for this chain"
            )

    init_K = K_M if regime.tag in (MARTINGALE, VECTOR_INDEPENDENT) else K_I
    if regime.tag in _PRODUCT_TAGS:
        # pointwise-product recursion: every stage lives on the final grid
        km_vals = np.array([K_M(p) for p in final_grid])
        vals = np.array([init_K(p) for p in final_grid]) * order[0].values_at(final_grid)
        stages = [_stage_from_values(final_grid, vals, r_comb)]
        for nu in order[1:]:
            vals = km_vals * vals * nu.values_at(final_grid)
            stages.append(_stage_from_values(final_grid, vals, r_comb))
    else:
        # composition recursion: stage m covers its partial combined exponent
        first, r_first = order[0], order[0].support.upper
        grid = final_grid
        if len(order) > 1:
            hint = float(final_grid[-1])
            grid = _stage_grid(first.evaluable_upper()[0], r_first, points, hint, final=False)
        vals = np.array([init_K(p) for p in grid]) * first.values_at(grid)
        stages = [_stage_from_values(grid, vals, r_first)]
        stages += _compose_stages(stages[0], r_first, order[1:], final_grid, points, K=K_M)

    return ZetaChain(tuple(stages), regime, tuple(nus), r_comb)


def polynomial_dominant_envelope(
    tail_params: Sequence[Tuple],
    d: int,
    scale: float = 1.0,
    p_grid: Optional[Sequence[float]] = None,
    points: int = 129,
) -> Tabulated:
    """Dominant-term moment envelope for an arbitrary centered polynomial.

    ``tail_params`` lists per-factor tail descriptors ``(r, gamma)`` for
    inputs with regular-variation tails ``x^(-r) (log x)^gamma``.  For a
    degree-``d`` polynomial of common independent such variables, the worst
    contribution comes from the d-th power of a variable with the smallest
    tail index ``r_min``, giving

        rho_d(p)^p  proportional to  (r_min/d - p)^(-(gamma_bar + 1))

    on ``[1, r_min/d)``, where ``gamma_bar`` maximises over the factors
    attaining ``r_min``.  The multiplicative constant is unspecified by the
    underlying inequality and defaults to 1 (shape-only bound).
    """
    if d < 1:
        raise ValueError("polynomial degree must be >= 1")
    if len(tail_params) == 0:
        raise ValueError("at least one tail descriptor required")
    parsed = [(float(r), float(gamma)) for r, gamma in tail_params]
    r_min = min(r for r, _ in parsed)
    if not (r_min > d):
        raise ValueError(
            f"smallest tail index {r_min} must exceed the degree {d} for a finite bound"
        )
    gamma_bar = max(g for r, g in parsed if math.isclose(r, r_min, rel_tol=1e-12))

    upper = r_min / d
    if p_grid is None:
        grid = chebyshev_grid(1.0, 1.0 + 0.999 * (upper - 1.0), points)
    else:
        grid = np.asarray(p_grid, dtype=float)
        if grid[-1] >= upper:
            raise EnvelopeDomainError(f"grid must stay below the support edge {upper:.6g}")

    def rho(p: float) -> float:
        gap = upper - p
        moment_bound = scale * gap ** (-(gamma_bar + 1.0))
        return moment_bound ** (1.0 / p)

    vals = np.array([rho(float(p)) for p in grid])
    return Tabulated(grid, vals, upper=upper, upper_closed=False)


@dataclass(frozen=True)
class DoobMaximal(MomentEnvelope):
    """Envelope for the running maximum: the inner bound times ``p/(p-1)``."""

    inner: MomentEnvelope = None

    @cached_property
    def support(self) -> SupportInterval:
        return self.inner.support

    def evaluable_upper(self):
        return self.inner.evaluable_upper()

    def __call__(self, p: float) -> float:
        p = float(p)
        if p <= 1.0:
            raise EnvelopeDomainError(
                f"the maximal-inequality factor p/(p-1) is undefined at p={p}"
            )
        return super().__call__(p)

    def _value(self, p: float) -> float:
        return self.inner(p) * p / (p - 1.0)


def doob_maximal_envelope(zeta: MomentEnvelope) -> DoobMaximal:
    """Pointwise multiply a bound envelope by the Doob factor ``p/(p-1)``."""
    return DoobMaximal(zeta)


def good_lambda_envelope(
    psi: MomentEnvelope,
    beta: float,
    epsilon: float,
) -> MomentEnvelope:
    """Envelope correction from a good-lambda distributional comparison.

    Two nonnegative variables linked by a good-lambda inequality with
    parameters ``beta > 1`` and ``epsilon in (0, 1)`` satisfy a moment-norm
    comparison up to the envelope ``psi(p) * (r - p)^(-1/r)`` with
    ``r = |log epsilon / log beta|``.  The comparison constant is not pinned
    down by the inequality and is taken as 1; wrap the result in
    :class:`~polymoment.envelope.Scaled` for another constant.  Requires
    ``r > 1``.
    """
    beta = float(beta)
    epsilon = float(epsilon)
    if not (beta > 1.0):
        raise ValueError(f"beta must exceed 1, got {beta}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    r = abs(math.log(epsilon) / math.log(beta))
    if not (r > 1.0):
        raise ValueError(f"derived exponent r={r:.6g} must exceed 1")
    correction = PowerSingularity(r=r, power=1.0 / r, lower=psi.support.lower)
    return Product((psi, correction))
