"""Tail bounds from moment envelopes by convex conjugation.

A variable whose p-th norms are dominated by ``k * nu(p)`` on an exponent
interval satisfies, for every p in that interval, the Markov bound
``P(|xi| >= x) <= (k nu(p) / x)^p``.  Optimising over p gives

    T(x) = inf_p (k nu(p) / x)^p
         = exp( - sup_p [ p log x - p log(k nu(p)) ] ),

the Young-Fenchel (Legendre) transform of ``p log(k nu(p))`` evaluated at
``log x``.  The bound is meaningful for x > e; below e it is reported as the
vacuous value 1.

Both equivalent forms are exposed (they share one optimiser over p, so the
identity between them is a pure formula check), together with the
regular-variation closed form and a dominance comparison against empirical
tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._optim import bracketed_min, chebyshev_grid, golden_min
from .calculus import DoobMaximal
from .envelope import (
    EnvelopeDomainError,
    MomentEnvelope,
    RegularVariationTail,
    Scaled,
    SlowlyVarying,
    Tabulated,
    TailBound,
)

__all__ = [
    "ConjugateSpec",
    "ConjugateTail",
    "tail_from_envelope",
    "log_tail_from_envelope",
    "tail_inf_form",
    "regular_variation_tail",
    "fit_tail_rescale",
    "dominance_check",
    "TailDominanceRow",
    "TailDominanceReport",
]

_E = math.e


def _default_conjugate_grid(env: MomentEnvelope, points: int = 129) -> np.ndarray:
    """Exponent grid covering the envelope where it is finite.

    Ends at the evaluable upper endpoint, included exactly when it is
    attained: for an indicator-type envelope the optimal exponent sits at
    the endpoint and must be reachable by the optimiser.
    """
    upper, closed = env.evaluable_upper()
    lo = max(1.0 + 1e-9, env.support.lower)
    if math.isinf(upper):
        hi = max(256.0, 8.0 * lo)
    elif closed:
        hi = upper
    else:
        hi = lo + 0.9999 * (upper - 1e-9 * max(1.0, upper) - lo)
    if hi <= lo:
        raise EnvelopeDomainError("envelope support too narrow for a conjugate grid")
    return chebyshev_grid(lo, hi, points)


@dataclass(frozen=True, eq=False)
class ConjugateSpec:
    """An envelope, a norm factor, and the exponent grid to optimise over.

    The norm factor is the moment norm multiplying the envelope: the tail of
    ``xi`` is bounded through ``k * nu`` where ``k = ||xi||`` in the
    envelope's moment norm.  Every grid point must give a finite positive
    envelope value.
    """

    envelope: MomentEnvelope
    norm_factor: float = 1.0
    p_grid: Optional[np.ndarray] = None
    _log_k: float = field(init=False, default=None, repr=False)
    _log_knu: np.ndarray = field(init=False, default=None, repr=False)
    _lines: Optional["_NodeLines"] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if not (self.norm_factor > 0):
            raise ValueError("norm factor must be positive")
        grid = (
            _default_conjugate_grid(self.envelope)
            if self.p_grid is None
            else np.asarray(self.p_grid, dtype=float)
        )
        if grid.size == 0:
            raise ValueError("empty exponent grid")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("exponent grid must be strictly increasing")
        log_k = math.log(self.norm_factor)
        vals = self.envelope.values_at(grid)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise EnvelopeDomainError(
                "conjugate grid must lie where the envelope is finite and positive"
            )
        object.__setattr__(self, "p_grid", grid)
        object.__setattr__(self, "_log_k", log_k)
        # math.log, as in log_knu: np.log may round differently
        object.__setattr__(self, "_log_knu", np.fromiter(map(math.log, vals), float) + log_k)
        env, doob = self.envelope, isinstance(self.envelope, DoobMaximal)
        env = env.inner if doob else env
        while isinstance(env, Scaled):  # a scaled table: its factors join the norm factor
            env, log_k = env.inner, log_k + math.log(env.factor)
        if isinstance(env, Tabulated) and grid.size > 1:
            object.__setattr__(self, "_lines", _NodeLines(env, grid, log_k, doob))

    def log_knu(self, p: float) -> float:
        v = self.envelope(float(p))
        if math.isinf(v):
            return math.inf
        return math.log(v) + self._log_k


class _NodeLines:
    """A table's ``c = p log(k nu(p))`` at its nodes ``ps`` strictly inside the
    grid's ends and at those ends, affine between them: the conjugate objective
    ``c - p s`` is lowest on one node's line.  The Doob factor adds the convex
    ``h(p) = p log(p/(p-1))``: a segment whose slope changes sign inside has its
    own minimum, where ``h'(p) = log(1 + u) - u = s - slope``, ``u = 1/(p-1)``.
    """

    def __init__(self, table: Tabulated, grid: np.ndarray, log_k: float, doob: bool):
        lo, hi, g = grid[0], grid[-1], table.p_grid
        ps = self.ps = np.concatenate([[lo], g[(g > lo) & (g < hi)], [hi]])
        c = self.c = np.interp(ps, g, table._log_moments) + ps * log_k
        self.slopes, self.doob, self.intercepts = np.diff(c) / np.diff(ps), doob, c
        self.bends = (self.slopes,)  # the s where the lowest line changes
        if doob:  # h at the nodes, and the objective's slopes at each segment's ends
            u = 1.0 / (ps - 1.0)
            self.intercepts, dh = c + ps * np.log1p(u), np.log1p(u) - u
            self.bends = self.slopes + dh[:-1], self.slopes + dh[1:]

    def minimum(self, s: float) -> Tuple[float, float]:
        """The optimal exponent and the objective there, at ``s = log x``."""
        obj = self.intercepts - self.ps * s
        i = int(np.argmin(obj))
        p_best, best = float(self.ps[i]), float(obj[i])
        inner = np.flatnonzero((self.bends[0] < s) & (s < self.bends[1])) if self.doob else ()
        for j in inner:
            # Newton from the segment's left end, its largest u: log(1 + u) - u
            # is concave and falls, so each step lowers u and stays above the
            # root, until roundoff stops it
            t, u, w = s - float(self.slopes[j]), math.inf, 1.0 / (float(self.ps[j]) - 1.0)
            while w < u:
                u, w = w, w + (math.log1p(w) - w - t) * (1.0 + w) / w
            p = min(1.0 + 1.0 / u, float(self.ps[j + 1]))
            v = float(self.c[j] + self.slopes[j] * (p - self.ps[j])) + p * (math.log1p(u) - s)
            if v < best:
                p_best, best = p, v
        return p_best, best


def _optimal_exponent(spec: ConjugateSpec, logx: float) -> float:
    """Exponent minimising ``p (log k nu(p) - logx)`` over the supplied range.

    A table's lowest node line (:class:`_NodeLines`); else a grid scan and golden
    polish (:func:`bracketed_min`), plus an expanding search above the grid when
    the scan's first minimum is its top point and the envelope remains finite
    there (growth envelopes at large x).
    """
    if spec._lines is not None:
        return spec._lines.minimum(logx)[0]
    grid = spec.p_grid
    obj_grid = grid * (spec._log_knu - logx)

    def objective(p: float) -> float:
        log_knu = spec.log_knu(p)
        return math.inf if math.isinf(log_knu) else p * (log_knu - logx)

    p_best, v_best = bracketed_min(objective, grid, obj_grid)

    if np.all(obj_grid[-1] < obj_grid[:-1]):  # the scan's first minimum is its top point
        sup = spec.envelope.support
        # expand beyond the grid while the envelope stays finite and the
        # objective keeps improving
        step = max(grid[-1] - grid[max(grid.size - 2, 0)], 1.0)
        p_lo = float(grid[-1])
        p_hi = p_lo
        while True:
            cand = p_hi + step
            if not sup.contains(cand):
                break
            v = objective(cand)
            if v >= v_best:
                p_hi = cand
                break
            p_hi = cand
            v_best = v
            step *= 2.0
        if p_hi > p_lo:
            p_ref, v_ref = golden_min(objective, p_lo, p_hi, tol=1e-10 * p_hi)
            if v_ref < v_best:
                p_best, v_best = p_ref, v_ref
    return p_best


def _threshold(x: float) -> float:
    x = float(x)
    if x != x:
        raise EnvelopeDomainError("tail threshold must not be NaN")
    return x


def log_tail_from_envelope(spec: ConjugateSpec, x: float) -> float:
    """Natural log of the conjugate tail bound (0 where the bound is vacuous).

    Stays meaningful where the probability itself underflows, e.g. for
    growth envelopes at large thresholds.  A NaN threshold raises
    :class:`EnvelopeDomainError`.
    """
    x = _threshold(x)
    return _log_tail(spec, math.log(x)) if x > _E else 0.0


def _log_tail(spec: ConjugateSpec, logx: float) -> float:
    """:func:`log_tail_from_envelope` at ``x = e^logx > e``, also where x overflows a float."""
    if spec._lines is not None:
        return min(0.0, spec._lines.minimum(logx)[1])
    p_star = _optimal_exponent(spec, logx)
    return min(0.0, p_star * (spec.log_knu(p_star) - logx))


def tail_from_envelope(spec: ConjugateSpec, x: float) -> float:
    """Conjugate tail bound ``exp(-(p log k nu(p))^*(log x))`` clamped to [0, 1].

    Vacuous (returns 1) for x <= e.  Non-increasing in x; refining the
    exponent grid can only decrease the value.
    """
    return math.exp(log_tail_from_envelope(spec, x))


def tail_inf_form(spec: ConjugateSpec, x: float) -> float:
    """The equivalent direct form ``min(1, inf_p (k nu(p)/x)^p)``.

    Shares the optimiser with :func:`tail_from_envelope`; the two results
    differ only by floating-point evaluation of the algebraically identical
    formulas.
    """
    x = _threshold(x)
    if x <= _E:
        return 1.0
    p_star = _optimal_exponent(spec, math.log(x))
    knu = spec.norm_factor * spec.envelope(p_star)
    return min(1.0, (knu / x) ** p_star)


@dataclass(frozen=True, eq=False)
class ConjugateTail(TailBound):
    """Tail bound evaluated on demand from a conjugate spec."""

    spec: ConjugateSpec = None

    @property
    def pareto_index(self) -> float:
        # the bound decays like x^(-p_max) with p_max the top of the grid
        return float(self.spec.p_grid[-1])

    def _raw(self, x: float) -> float:
        return tail_from_envelope(self.spec, x)

    def log_tail(self, s: float) -> float:
        return _log_tail(self.spec, s) if s > 1.0 else 0.0

    def kinks(self) -> Tuple[float, ...]:
        # vacuous up to s = 1; over a table the bound bends where its lowest line changes
        lines = self.spec._lines
        return (1.0, *(np.concatenate(lines.bends).tolist() if lines is not None else ()))


def regular_variation_tail(
    r: float,
    gamma: float,
    slowvar: Optional[SlowlyVarying],
    x: float,
) -> float:
    """Closed-form tail for an envelope with a regular-variation singularity.

    When the p-th moments grow like ``(r - p)^(-(gamma+1)) L(1/(r-p))``, the
    conjugate tail is of order ``x^(-r) (log x)^(gamma+1) L(log x)``, which is
    ``RegularVariationTail(r, gamma + 1, L)``; a ``slowvar`` of None means
    ``L = 1``.  The multiplicative constant is not determined by the moment
    bound and is taken as 1.  Defined for x > e only.
    """
    x = float(x)
    if x <= _E:
        raise ValueError(f"the closed-form tail is defined for x > e, got x={x}")
    return RegularVariationTail(r, gamma + 1.0, slowvar or SlowlyVarying.constant(1.0))(x)


_MAX_DOUBLINGS = 200  # bracket doublings before fit_tail_rescale gives up


def fit_tail_rescale(
    bound: Callable[[float], float],
    x_anchor: float,
    target: float,
) -> float:
    """Fit the single rescale constant C so that ``bound(x_anchor / C) = target``.

    The rescale absorbs the unspecified constants of the tail comparison; it
    is chosen to make the bound tight at the anchor (typically the smallest
    grid point).  Returns 1.0 when the target is not a probability in (0, 1]
    or the bound cannot reach it.
    """
    if not (0.0 < target <= 1.0):
        return 1.0
    y_lo = y_hi = float(x_anchor)
    # bracket: find y with bound(y) <= target <= bound(y') for y' smaller
    n = 0
    while bound(y_hi) > target:
        y_hi *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            return 1.0
    n = 0
    while bound(y_lo) < target and y_lo > 1e-12:
        y_lo *= 0.5
        n += 1
        if n > _MAX_DOUBLINGS:
            return 1.0
    for _ in range(200):
        mid = math.sqrt(y_lo * y_hi)
        if bound(mid) > target:
            y_lo = mid
        else:
            y_hi = mid
        if y_hi / y_lo < 1.0 + 1e-12:
            break
    y_star = math.sqrt(y_lo * y_hi)
    return x_anchor / y_star


class TailDominanceRow(NamedTuple):
    x: float
    empirical: float
    stderr: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class TailDominanceReport:
    rows: Tuple[TailDominanceRow, ...]
    rescale: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def violations(self) -> Tuple[float, ...]:
        return tuple(r.x for r in self.rows if not r.passed)


def dominance_check(
    tail_bound: Callable[[float], float],
    empirical_tail: Callable[[float], Tuple[float, float]],
    x_grid: Sequence[float],
    rescale: float = 1.0,
) -> TailDominanceReport:
    """Compare an empirical tail against a bound on a grid of thresholds.

    A point violates dominance when ``empirical - 2 * stderr > bound(x / rescale)``:
    the two-sigma slack sits on the empirical side only, so Monte Carlo noise
    never fails the check while a real violation at scale still does.  The
    rescale is the single slack constant of the tail comparison (default 1)
    and is recorded in the report.
    """
    rows: List[TailDominanceRow] = []
    for x in x_grid:
        x = float(x)
        est, se = empirical_tail(x)
        b = float(tail_bound(x / rescale))
        ok = (est - 2.0 * se) <= b
        rows.append(TailDominanceRow(x, float(est), float(se), b, bool(ok)))
    return TailDominanceReport(tuple(rows), float(rescale))
