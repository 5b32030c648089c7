"""Moment envelopes, moment norms, and tail bounds.

A moment envelope is a function ``nu(p)`` dominating the p-th norms
``|xi|_p = (E|xi|^p)^(1/p)`` of a random variable over an interval of
exponents.  Heavy-tailed variables have envelopes with a finite singularity
exponent ``r``: moments exist only for ``p < r`` and the envelope blows up at
the right edge of its support.  The norm ``sup_p |xi|_p / nu(p)`` turns each
envelope into a Banach-style moment norm; the variable's own moment function
(its "natural" envelope) always has norm exactly one.

This module provides

* the envelope forms used throughout the package (power singularity, power
  growth, indicator/Lebesgue, tabulated, scaled, product),
* the grid moment norm :func:`gls_norm`,
* exact moments for the benchmark Pareto-power family,
* moment recovery from a tail function by quadrature
  (:func:`moments_from_tail`),
* empirical moment estimation with batch-means error bars
  (:func:`empirical_moments`),
* tail-function objects (regular variation, Weibull type, tabulated) shared
  with :mod:`polymoment.tails`.

Extended reals are first class: evaluating an envelope outside its support
returns ``+inf`` and every composition propagates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EnvelopeDomainError",
    "InfiniteMomentError",
    "SupportInterval",
    "SlowlyVarying",
    "MomentEnvelope",
    "PowerSingularity",
    "PowerGrowth",
    "Indicator",
    "Tabulated",
    "Scaled",
    "Product",
    "TailBound",
    "RegularVariationTail",
    "WeibullTail",
    "TabulatedTail",
    "gls_norm",
    "natural_moments_pareto_power",
    "moments_from_tail",
    "empirical_moments",
    "MomentEstimate",
    "tabulate_envelope",
]

class EnvelopeDomainError(ValueError):
    """Raised for evaluation requests outside the legal exponent domain."""


class InfiniteMomentError(ValueError):
    """Raised when a requested moment provably diverges."""


@dataclass(frozen=True)
class SupportInterval:
    """Exponent interval on which an envelope is finite.

    ``upper_closed`` distinguishes envelopes that stay finite at the right
    endpoint (the variable still has an ``r``-th moment) from those that blow
    up there.
    """

    lower: float = 1.0
    upper: float = math.inf
    upper_closed: bool = False

    def __post_init__(self):
        if not (self.lower >= 1.0):
            raise ValueError(f"support lower endpoint must be >= 1, got {self.lower}")
        if not (self.lower < self.upper):
            raise ValueError(
                f"support must be a nondegenerate interval, got [{self.lower}, {self.upper}]"
            )

    def contains(self, p: float) -> bool:
        if p < self.lower:
            return False
        if self.upper_closed:
            return p <= self.upper
        return p < self.upper


@dataclass(frozen=True)
class SlowlyVarying:
    """A positive slowly varying modulation ``L(x)``, evaluated for x >= 1.

    Arguments below 1 are clamped to 1 (the germ at infinity is all that
    matters; clamping keeps compositions such as ``L(1/(r-p))`` well defined
    far from the singularity).
    """

    kind: str = "constant"
    value: float = 1.0
    kappa: float = 0.0
    fn: Optional[Callable[[float], float]] = None

    @classmethod
    def constant(cls, value: float = 1.0) -> "SlowlyVarying":
        if not (value > 0):
            raise ValueError("constant slowly varying function must be positive")
        return cls(kind="constant", value=value)

    @classmethod
    def log_power(cls, kappa: float) -> "SlowlyVarying":
        return cls(kind="log_power", kappa=kappa)

    @classmethod
    def from_callable(cls, fn: Callable[[float], float]) -> "SlowlyVarying":
        return cls(kind="custom", fn=fn)

    def __call__(self, x):
        """``L(x)`` for a scalar, or elementwise for an array."""
        if isinstance(x, np.ndarray) and x.ndim:
            return self._array(x.astype(float, copy=False))
        x = max(float(x), 1.0)
        if self.kind == "constant":
            return self.value
        if self.kind == "log_power":
            # (1 + log x)^kappa stays positive at x = 1 and has the same
            # asymptotic variation as (log x)^kappa.
            return (1.0 + math.log(x)) ** self.kappa
        out = float(self.fn(x))
        if not (out > 0):
            raise ValueError(f"slowly varying function returned non-positive value {out}")
        return out

    def _array(self, x: np.ndarray) -> np.ndarray:
        x = np.maximum(x, 1.0)
        if self.kind == "constant":
            return np.full(x.shape, self.value)
        if self.kind == "log_power":
            return (1.0 + np.log(x)) ** self.kappa
        return np.array([self(v) for v in x.ravel()]).reshape(x.shape)


class MomentEnvelope:
    """Base class for moment envelopes.

    Subclasses provide ``support`` and ``_value(p)`` for p inside the support.
    Calling an envelope validates the exponent, returns ``+inf`` outside the
    support, and otherwise delegates to ``_value``.
    """

    @property
    def support(self) -> SupportInterval:  # pragma: no cover - overridden
        raise NotImplementedError

    def _value(self, p: float) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def __call__(self, p: float) -> float:
        p = float(p)
        if not math.isfinite(p):
            raise EnvelopeDomainError(f"exponent must be finite, got {p}")
        if p < 1.0:
            raise EnvelopeDomainError(f"exponent must be >= 1, got {p}")
        if not self.support.contains(p):
            return math.inf
        return self._value(p)

    def values_at(self, ps) -> np.ndarray:
        """The envelope at each exponent of ``ps``, equal to the scalar call bit for bit."""
        ps = np.asarray(ps, dtype=float)
        return np.fromiter(map(self, ps), float, count=ps.size)

    def evaluable_upper(self) -> Tuple[float, bool]:
        """Largest exponent with a finite value, and whether it is attained.

        Coincides with the support endpoint for closed forms; tabulated
        envelopes may declare a larger support (the true singularity
        exponent) than their grid can evaluate.
        """
        sup = self.support
        return sup.upper, sup.upper_closed


@dataclass(frozen=True)
class PowerSingularity(MomentEnvelope):
    """``scale * (r - p)^(-power) * L(1/(r - p))`` on ``[lower, r)``.

    The canonical heavy-tail envelope: a Pareto-type variable with tail index
    ``r`` has moments growing like this as ``p`` approaches ``r``.
    """

    r: float = 2.0
    power: float = 1.0
    scale: float = 1.0
    slowvar: SlowlyVarying = SlowlyVarying.constant(1.0)
    lower: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError("scale must be positive")
        if not (self.power > 0):
            raise ValueError("singularity power must be positive")

    @cached_property
    def support(self) -> SupportInterval:
        return SupportInterval(self.lower, self.r, upper_closed=False)

    def _value(self, p: float) -> float:
        gap = self.r - p
        return self.scale * gap ** (-self.power) * self.slowvar(1.0 / gap)


@dataclass(frozen=True)
class PowerGrowth(MomentEnvelope):
    """``scale * p^growth * L(p)`` on ``[lower, inf)``.

    All moments finite; sub-gaussian corresponds to growth 1/2,
    sub-exponential to growth 1.
    """

    growth: float = 0.5
    scale: float = 1.0
    slowvar: SlowlyVarying = SlowlyVarying.constant(1.0)
    lower: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError("scale must be positive")

    @cached_property
    def support(self) -> SupportInterval:
        return SupportInterval(self.lower, math.inf, upper_closed=False)

    def _value(self, p: float) -> float:
        return self.scale * p ** self.growth * self.slowvar(p)


@dataclass(frozen=True)
class Indicator(MomentEnvelope):
    """Envelope equal to 1 on ``[lower, r]`` and ``+inf`` beyond.

    Its moment norm is exactly the classical ``L_r`` norm.
    """

    r: float = 2.0
    lower: float = 1.0

    @cached_property
    def support(self) -> SupportInterval:
        return SupportInterval(self.lower, self.r, upper_closed=True)

    def _value(self, p: float) -> float:
        return 1.0


@dataclass(frozen=True, eq=False)
class Tabulated(MomentEnvelope):
    """Envelope given by values on a grid, interpolated linearly in ``(p, p log nu)``.

    ``p log nu(p)`` is the log of the p-th moment, which Lyapunov's
    inequality makes convex in p (Hardy, Littlewood & Polya, *Inequalities*,
    1934), so between the nodes of a table of true norms every chord lies on
    or above the norm: the interpolated envelope still dominates.
    Evaluation outside the grid range returns ``+inf`` even when the
    declared ``upper`` extends beyond the last grid point (the declared upper
    is metadata recording the true singularity exponent).
    """

    p_grid: np.ndarray = None
    values: np.ndarray = None
    upper: Optional[float] = None
    upper_closed: bool = True
    _log_moments: np.ndarray = field(init=False, default=None, repr=False)
    support: SupportInterval = field(init=False, default=None, repr=False)

    def __post_init__(self):
        ps = np.array(self.p_grid, dtype=float)
        if ps.ndim != 1 or ps.size < 2:
            raise ValueError("tabulated envelope needs at least two grid points")
        if not np.all(np.diff(ps) > 0):
            raise ValueError("grid must be strictly increasing")
        if ps[0] < 1.0:
            raise ValueError("grid must start at an exponent >= 1")
        if self.upper is not None and self.upper < ps[-1]:
            raise ValueError("declared upper endpoint lies inside the grid")
        vals = np.array(self.values, dtype=float)
        if vals.shape != ps.shape:
            raise ValueError("grid and values must have identical shape")
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise ValueError("tabulated values must be finite and positive")
        # read-only copies: a caller's writes must not part them from the arrays derived here
        ps.flags.writeable = vals.flags.writeable = False
        object.__setattr__(self, "p_grid", ps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_log_moments", ps * np.log(vals))
        # every evaluation consults the support, so it is built once
        hi = self.upper if self.upper is not None else float(ps[-1])
        closed = self.upper_closed if self.upper is None else False
        object.__setattr__(self, "support", SupportInterval(float(ps[0]), hi, upper_closed=closed))

    def evaluable_upper(self) -> Tuple[float, bool]:
        # the grid end is attained unless the support is open there
        end = float(self.p_grid[-1])
        return end, self.support.contains(end)

    def _value(self, p: float) -> float:
        if p > self.p_grid[-1]:  # inside a declared upper, beyond the grid
            return math.inf
        return math.exp(np.interp(p, self.p_grid, self._log_moments) / p)

    def values_at(self, ps) -> np.ndarray:
        # one array interpolation; math.exp per element, since np.exp may
        # round differently from the scalar call
        ps = np.asarray(ps, dtype=float)
        if not np.all(np.isfinite(ps) & (ps >= 1.0)):
            return super().values_at(ps)  # raises the scalar domain error
        g = self.p_grid
        inside = (ps >= g[0]) & ((ps < g[-1]) | (ps == g[-1]) & self.support.contains(g[-1]))
        out = np.full(ps.shape, math.inf)
        q = ps[inside]
        logs = np.interp(q, g, self._log_moments) / q
        out[inside] = np.fromiter(map(math.exp, logs), float, count=logs.size)
        return out


@dataclass(frozen=True)
class Scaled(MomentEnvelope):
    """``factor * inner(p)`` with the inner support unchanged."""

    inner: MomentEnvelope = None
    factor: float = 1.0

    def __post_init__(self):
        if not (self.factor > 0):
            raise ValueError("scale factor must be positive")

    @cached_property
    def support(self) -> SupportInterval:
        return self.inner.support

    def evaluable_upper(self) -> Tuple[float, bool]:
        return self.inner.evaluable_upper()

    def _value(self, p: float) -> float:
        return self.factor * self.inner(p)

    def values_at(self, ps) -> np.ndarray:
        # the inner array path raises the scalar domain errors, and IEEE
        # multiplication by the factor keeps the scalar bits
        return self.factor * self.inner.values_at(ps)


@dataclass(frozen=True)
class Product(MomentEnvelope):
    """Pointwise product of envelopes; support is the intersection."""

    factors: Tuple[MomentEnvelope, ...] = ()

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ValueError("product of zero envelopes is undefined")
        object.__setattr__(self, "factors", tuple(self.factors))

    @cached_property
    def support(self) -> SupportInterval:
        lower = max(f.support.lower for f in self.factors)
        upper = min(f.support.upper for f in self.factors)
        closed = all(
            f.support.upper_closed or f.support.upper > upper for f in self.factors
        )
        return SupportInterval(lower, upper, upper_closed=closed)

    def evaluable_upper(self) -> Tuple[float, bool]:
        pairs = [f.evaluable_upper() for f in self.factors]
        upper = min(u for u, _ in pairs)
        closed = all(c or u > upper for u, c in pairs)
        return upper, closed

    def _value(self, p: float) -> float:
        out = 1.0
        for f in self.factors:
            v = f(p)
            if math.isinf(v):
                return math.inf
            out *= v
        return out


def tabulate_envelope(
    fn: Callable[[float], float],
    p_grid: Sequence[float],
    upper: Optional[float] = None,
    upper_closed: bool = True,
) -> Tabulated:
    """Sample a positive function of ``p`` on a grid into a Tabulated envelope."""
    ps = np.asarray(p_grid, dtype=float)
    vals = np.array([float(fn(p)) for p in ps])
    return Tabulated(ps, vals, upper=upper, upper_closed=upper_closed)


def gls_norm(
    moments: Callable[[float], float],
    env: MomentEnvelope,
    p_grid: Sequence[float],
) -> float:
    """Grid moment norm ``max_p moments(p) / nu(p)``.

    A grid lower bound of the true supremum; refining the grid can only
    increase the result.  ``moments`` must return finite p-th norms on the
    grid and every grid point must lie inside the envelope support.
    """
    grid = np.asarray(p_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty exponent grid")
    best = 0.0
    for p in grid:
        p = float(p)
        if not env.support.contains(p):
            raise EnvelopeDomainError(f"grid point p={p} outside envelope support")
        nu = env(p)
        m = float(moments(p))
        if not math.isfinite(m):
            raise ValueError(f"moment function not finite at p={p}")
        ratio = m / nu
        if ratio > best:
            best = ratio
    return best


def natural_moments_pareto_power(r1: float, p: float) -> float:
    """Exact p-th norm of the Pareto-power benchmark variable.

    The variable is ``eps**(1/r1)`` where ``P(eps > x) = 1/x`` for x > 1, so
    ``E|xi|^p = r1/(r1-p)`` and the p-th norm is ``(r1/(r1-p))**(1/p)``.
    Moments are finite exactly for p < r1.
    """
    r1 = float(r1)
    p = float(p)
    if not (r1 > 1.0):
        raise ValueError(f"tail index must exceed 1, got {r1}")
    if p >= r1:
        raise InfiniteMomentError(f"moment of order {p} diverges at tail index {r1}")
    if p <= 0.0:
        raise ValueError(f"moment order must be positive, got {p}")
    return (r1 / (r1 - p)) ** (1.0 / p)


class TailBound:
    """Base class for computable upper tail functions ``x -> P(|xi| >= x)``.

    A subclass gives ``_raw(x)`` or ``log_tail(log x)``; each defaults to the
    other.  Evaluations are clamped to [0, 1].
    """

    def _raw(self, x: float) -> float:
        return math.exp(self.log_tail(math.log(x))) if x > 0.0 else 1.0

    def log_tail(self, s: float) -> float:
        """``log T(e^s)``, -inf where it is 0: from ``T(e^s)``, which underflows,
        unless the subclass has a log form."""
        t = self(math.exp(s)) if s < 709.0 else 0.0
        return math.log(t) if t > 0.0 else -math.inf

    def kinks(self) -> Tuple[float, ...]:
        """The ``s`` where ``log_tail`` may bend or jump, besides where it leaves 0;
        :func:`moments_from_tail` integrates between them."""
        return ()

    def __call__(self, x: float) -> float:
        v = self._raw(float(x))
        if v != v or x != x:  # a NaN threshold or bound is an error, not a probability
            raise ValueError(f"tail bound evaluated to NaN at x={x}")
        return min(1.0, max(0.0, v))


@dataclass(frozen=True)
class RegularVariationTail(TailBound):
    """``x^(-r) * (log x)^gamma * L(log x)`` clamped to [0, 1].

    The formula is meaningful for x > e; below e the clamp keeps the bound
    vacuous where the log factor would misbehave, and x <= 1 always maps
    to 1.  With ``gamma = 0`` and constant L this is the exact Pareto tail
    ``min(1, x^-r)``.  There is no scale: multiply the tail for another.
    """

    r: float = 2.0
    gamma: float = 0.0
    slowvar: SlowlyVarying = SlowlyVarying.constant(1.0)

    def __post_init__(self):
        if not (self.r > 0):
            raise ValueError("tail index must be positive")

    @property
    def pareto_index(self) -> float:
        return self.r

    def log_tail(self, s: float) -> float:
        if s <= 0.0:
            return 0.0
        return min(0.0, -self.r * s + self.gamma * math.log(s) + math.log(self.slowvar(s)))


@dataclass(frozen=True)
class WeibullTail(TailBound):
    """``exp(-c * x^alpha)`` for x >= 0; all moments finite."""

    c: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not (self.c > 0 and self.alpha > 0):
            raise ValueError("Weibull tail needs positive rate and exponent")

    @property
    def pareto_index(self) -> float:
        return math.inf

    def log_tail(self, s: float) -> float:
        log_rate = math.log(self.c) + self.alpha * s
        return -math.exp(log_rate) if log_rate < 709.0 else -math.inf


@dataclass(frozen=True, eq=False)
class TabulatedTail(TailBound):
    """Tail given on a grid, log-log interpolated inside the grid.

    Below the first grid point the bound is vacuous (1); beyond the last the
    tail is taken to be the last tabulated value scaled by the fitted final
    power decay, or 0 when the last value is 0 (empirical tails).
    """

    x_grid: np.ndarray = None
    values: np.ndarray = None

    def __post_init__(self):
        xs, vals = np.array(self.x_grid, dtype=float), np.array(self.values, dtype=float)
        xs.flags.writeable = vals.flags.writeable = False  # read-only copies, as a Tabulated's
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("tabulated tail needs at least two grid points")
        if vals.shape != xs.shape:
            raise ValueError("grid and values must have identical shape")
        if not np.all(np.diff(xs) > 0) or xs[0] <= 0:
            raise ValueError("x grid must be positive and strictly increasing")
        if np.any(vals < 0) or np.any(vals > 1):
            raise ValueError("tail values must lie in [0, 1]")
        object.__setattr__(self, "x_grid", xs)
        object.__setattr__(self, "values", vals)

    @cached_property
    def pareto_index(self) -> float:
        xs, vals = self.x_grid, self.values
        pos = vals > 0
        if pos.sum() < 2:
            return math.inf
        x_pos, v_pos = xs[pos], vals[pos]
        slope = (math.log(v_pos[-1]) - math.log(v_pos[0])) / (
            math.log(x_pos[-1]) - math.log(x_pos[0])
        )
        return max(-slope, 0.0)

    def kinks(self) -> Tuple[float, ...]:
        return tuple(self._log_nodes[0].tolist())

    def log_tail(self, s: float) -> float:
        log_first, log_last, log_value = self._log_ends
        if s <= log_first:
            return 0.0
        if s >= log_last:
            if log_value == -math.inf:
                return -math.inf
            return log_value - self.pareto_index * (s - log_last)
        return float(np.interp(s, *self._log_nodes))

    @cached_property
    def _log_nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The logs of the grid and of the values (-inf at 0)."""
        vals = self.values
        with np.errstate(divide="ignore"):
            logv = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -math.inf)
        return np.log(self.x_grid), logv

    @cached_property
    def _log_ends(self) -> Tuple[float, float, float]:
        """``math.log`` (``np.log`` may round differently) of both grid ends and of the
        last value, -inf where the tail is 0 beyond the grid (no value or no decay)."""
        xs, last = self.x_grid, self.values[-1]
        zero = last == 0.0 or math.isinf(self.pareto_index)
        return math.log(xs[0]), math.log(xs[-1]), -math.inf if zero else math.log(last)


# Double-exponential quadrature (Takahasi & Mori, Publ. RIMS 9, 1974).  Each
# piece of an integral is mapped to y = log(t - a), log(b - t) or
# logit((t - a)/(b - a)), and each row's nodes are y = centre + sinh(s), for s
# in steps of 1/64 on [-4.25, 4.25]: y then spans centre -+ 35.  The sum is
# checked against the one at steps of 1/32 and against its end terms.
_DE_S = np.arange(-272, 273) / 64.0
_DE_SINH = np.sinh(_DE_S)
_DE_LOG_COSH = np.log(np.cosh(_DE_S))
# the y grid on which each row's centre, its integrand's largest mass per
# unit y, is found
_DE_PROBE = np.arange(-30.0, 30.125, 0.25)
DE_REL_TOL = 1e-12
# exponents per block: a block's arrays of nodes stay near 140 KB
DE_BLOCK = 32


class InfiniteMomentQuadError(InfiniteMomentError, OverflowError):
    """A moment integrand overflows a float: the moment of the named order diverges."""


def _de_nodes(y: np.ndarray, a: float, b: float):
    """Nodes ``t`` at ``y`` on the piece from ``a`` to ``b``, and ``log dt/dy``."""
    if b == math.inf:
        return a + np.exp(y), y
    if a == -math.inf:
        return b - np.exp(y), y
    log_1p_exp = np.logaddexp(0.0, y)
    return a + (b - a) * np.exp(y - log_1p_exp), math.log(b - a) + y - 2.0 * log_1p_exp


def de_integrals(log_f: Callable, breaks: Sequence[float], orders: Sequence[float]) -> np.ndarray:
    """``int exp(log_f(t, rows)) dt`` over each piece between consecutive ``breaks``, one row per order.

    ``log_f(t, rows)`` maps nodes ``t`` of shape (1, k) to the log of the
    integrand of the orders ``orders[rows]``, shape (1, k) or (len(rows), k),
    where ``rows`` is an index array (callers read ``ps[rows, None]``); -inf
    is a zero.  Only the first break may be -inf and only the last +inf.
    Each row's nodes are centred where its integrand carries the most mass
    per unit y, so a decay as slow as ``e^(-t/1000)`` and a peak as narrow
    as ``t^128 e^(-t)`` both take the same 545 nodes.  Rows that share a
    centre share their nodes, and go in blocks of ``DE_BLOCK``, which bounds
    the arrays.  Returns a (pieces, rows) array.

    Raises :class:`InfiniteMomentQuadError`, naming the order, when a term
    overflows, and ``FloatingPointError`` when a row's half-step sums
    differ by more than ``DE_REL_TOL`` of the sum of its pieces' sizes.
    """
    out = np.empty((len(breaks) - 1, len(orders)))
    err = np.zeros(len(orders))
    centres = np.empty(len(orders))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, (a, b) in enumerate(zip(breaks, breaks[1:])):
            t, log_dt = _de_nodes(_DE_PROBE, a, b)
            for lo in range(0, len(orders), DE_BLOCK):
                rows = np.arange(lo, min(lo + DE_BLOCK, len(orders)))
                mass = np.broadcast_to(log_f(t[None, :], rows) + log_dt, (rows.size, t.size))
                centres[rows] = _DE_PROBE[np.argmax(mass, axis=1)]
            for centre in sorted(set(centres.tolist())):
                t, log_dt = _de_nodes(centre + _DE_SINH, a, b)
                group = np.flatnonzero(centres == centre)
                for lo in range(0, group.size, DE_BLOCK):
                    rows = group[lo:lo + DE_BLOCK]
                    logs = log_f(t[None, :], rows) + log_dt + _DE_LOG_COSH
                    logs = np.broadcast_to(logs, (rows.size, t.size))
                    over = np.flatnonzero(np.any(logs > 700.0, axis=1))
                    if over.size:
                        raise InfiniteMomentQuadError(
                            f"moment integrand overflows at order p={orders[rows[over[0]]]}; "
                            "the moment diverges"
                        )
                    terms = np.exp(logs) / 64.0
                    out[i, rows] = total = terms.sum(axis=1)
                    err[rows] += np.abs(2.0 * terms[:, ::2].sum(axis=1) - total) + terms[:, 0] + terms[:, -1]
    bad = np.flatnonzero(~(err <= DE_REL_TOL * np.abs(out).sum(axis=0)))
    if bad.size:
        raise FloatingPointError(
            f"double-exponential rule not converged at order p={orders[bad[0]]}: "
            f"half-step difference {err[bad[0]]:.3g} against DE_REL_TOL {DE_REL_TOL:g}"
        )
    return out


def moments_from_tail(tail, p: float) -> float:
    """p-th norm recovered from a tail function by quadrature.

    ``E|xi|^p`` is ``int p e^(p s) T(e^s) ds`` over the whole line in
    ``s = log u``, taken in log space through :meth:`TailBound.log_tail` by
    :func:`de_integrals`.  A tail with a log form never underflows there, so
    moments up to its tail index keep all their mass.  The pieces break at
    ``s = 0``, where the tail leaves 1 (found by bisection), and at the
    tail's declared :meth:`TailBound.kinks`.

    Raises :class:`InfiniteMomentError` when the integral provably diverges:
    beyond a declared tail index, or, for a tail that declares none, where
    its decay between 1e6 and 2e6 is not faster than ``u^(-p)``.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError(f"moment order must be >= 1, got {p}")

    if isinstance(tail, RegularVariationTail):
        r = tail.r
        if p > r or (p == r and tail.gamma >= -1.0):
            raise InfiniteMomentError(
                f"moment of order {p} diverges for a regular-variation tail of index {r}"
            )
    elif getattr(tail, "pareto_index", None) is not None:
        idx = tail.pareto_index
        if math.isfinite(idx) and p >= idx:
            raise InfiniteMomentError(
                f"moment of order {p} diverges: tail decays with index {idx}"
            )
    else:
        # probe the decay of a tail that declares no index at two large points
        t1 = float(tail(1e6))
        t2 = float(tail(2e6))
        if t1 > 0.0 and t2 > 0.0:
            slope = math.log(t2 / t1) / math.log(2.0)
            if p + slope >= -1e-6:
                raise InfiniteMomentError(
                    f"moment of order {p} diverges: empirical tail decay index {-slope:.4f}"
                )

    # a plain callable takes the generic log form
    log_tail = tail.log_tail if isinstance(tail, TailBound) else partial(TailBound.log_tail, tail)
    breaks = {0.0, *(tail.kinks() if isinstance(tail, TailBound) else ())}
    if log_tail(0.0) == 0.0:
        # the clamp to 1 bends the tail where it leaves 1
        lo, hi = 0.0, 1.0
        while log_tail(hi) == 0.0 and hi < 1e3:
            lo, hi = hi, 2.0 * hi
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if log_tail(mid) == 0.0 else (lo, mid)
        breaks.add(hi)
    log_t = np.vectorize(log_tail, otypes=[float])
    log_p = math.log(p)
    pieces = de_integrals(lambda s, rows: log_p + p * s + log_t(s),
                          [-math.inf, *sorted(breaks), math.inf], [p])
    return float(pieces.sum()) ** (1.0 / p)


class MomentEstimate(NamedTuple):
    """Empirical p-th norm with batch-means uncertainty.

    ``power_mean`` is the mean of |x|^p whose standard error is estimated by
    batch means; ``stderr`` is the delta-method error of the p-th root.
    ``high_variance`` flags estimates beyond half the declared tail index,
    where the power mean has infinite variance and error bars are indicative
    only.
    """

    value: float
    stderr: float
    power_mean: float
    power_mean_stderr: float
    high_variance: bool = False


def empirical_moments(
    sample: Sequence[float], p: float, tail_index: Optional[float] = None
) -> MomentEstimate:
    """Empirical p-th norm ``(mean |x|^p)^(1/p)`` with batch-means stderr.

    Uses about sqrt(N) batches: heavy tails invalidate naive CLT error bars
    and batching is the standard hedge.  With fewer than two batches the
    standard error is reported as 0.
    """
    a = np.asarray(sample, dtype=float)
    if a.size == 0:
        raise ValueError("empty sample")
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"moment order must be positive, got {p}")
    powers = np.abs(a) ** p
    batches = np.array_split(powers, int(math.sqrt(a.size)))
    flagged = bool(tail_index is not None and p > 0.5 * tail_index)
    return _moment_estimate(float(powers.mean()), [b.mean() for b in batches],
                            [b.size for b in batches], p, flagged)


def _moment_estimate(
    m: float, batch_means: Sequence[float], counts: Sequence[int], p: float,
    high_variance: bool = False,
) -> MomentEstimate:
    """The p-th norm ``m^(1/p)`` of a power mean ``m`` with its batch-means error.

    ``batch_means`` are per-batch estimates of ``m`` over ``counts``
    replications each, weighted by their share ``w = count / total``.  The
    variance of ``m`` is ``sum w^2 (mean - m)^2 * B / (B - 1)`` over the B
    batches (for equal batches, their ddof=1 variance over B), or 0 with
    fewer than two batches; the delta method carries its root to the p-th
    root.
    """
    nb = len(batch_means)
    if nb >= 2:
        w = np.asarray(counts, dtype=float) / float(np.sum(counts))
        var_m = float(np.sum((w * (np.asarray(batch_means) - m)) ** 2)) * nb / (nb - 1)
        se_m = math.sqrt(var_m)
    else:
        se_m = 0.0
    value = m ** (1.0 / p) if m > 0 else 0.0
    se_value = se_m * value / (p * m) if m > 0 else 0.0
    return MomentEstimate(value, se_value, m, se_m, high_variance)
