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
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._optim import chebyshev_grid

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

_E = math.e


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

    @property
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

    @property
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

    @property
    def support(self) -> SupportInterval:
        return SupportInterval(self.lower, self.r, upper_closed=True)

    def _value(self, p: float) -> float:
        return 1.0


@dataclass(frozen=True, eq=False)
class Tabulated(MomentEnvelope):
    """Envelope given by values on a grid, log-linearly interpolated.

    Interpolation is linear in ``(p, log nu)``; envelopes are close to
    log-convex near singularities, so log-space interpolation is the stable
    choice.  Evaluation outside the grid range returns ``+inf`` even when the
    declared ``upper`` extends beyond the last grid point (the declared upper
    is metadata recording the true singularity exponent).
    """

    p_grid: np.ndarray = None
    values: np.ndarray = None
    upper: Optional[float] = None
    upper_closed: bool = True
    _log_values: np.ndarray = field(init=False, default=None, repr=False)
    support: SupportInterval = field(init=False, default=None, repr=False)

    def __post_init__(self):
        ps = np.asarray(self.p_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ps.ndim != 1 or ps.size < 2:
            raise ValueError("tabulated envelope needs at least two grid points")
        if vals.shape != ps.shape:
            raise ValueError("grid and values must have identical shape")
        if not np.all(np.diff(ps) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise ValueError("tabulated values must be finite and positive")
        if ps[0] < 1.0:
            raise ValueError("grid must start at an exponent >= 1")
        object.__setattr__(self, "p_grid", ps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_log_values", np.log(vals))
        if self.upper is not None and self.upper < ps[-1]:
            raise ValueError("declared upper endpoint lies inside the grid")
        # every evaluation consults the support, so it is built once
        hi = self.upper if self.upper is not None else float(ps[-1])
        closed = self.upper_closed if self.upper is None else False
        object.__setattr__(self, "support", SupportInterval(float(ps[0]), hi, upper_closed=closed))

    def evaluable_upper(self) -> Tuple[float, bool]:
        # the grid end is attained unless the support is open there
        end = float(self.p_grid[-1])
        return end, self.support.contains(end)

    def _value(self, p: float) -> float:
        ps = self.p_grid
        if p < ps[0] or p > ps[-1]:
            return math.inf
        return float(math.exp(np.interp(p, ps, self._log_values)))

    def values_at(self, ps) -> np.ndarray:
        # one array interpolation; math.exp per element, since np.exp may
        # round differently from the scalar call
        ps = np.asarray(ps, dtype=float)
        if not np.all(np.isfinite(ps) & (ps >= 1.0)):
            return super().values_at(ps)  # raises the scalar domain error
        g = self.p_grid
        inside = (ps >= g[0]) & ((ps < g[-1]) | (ps == g[-1]) & self.support.contains(g[-1]))
        out = np.full(ps.shape, math.inf)
        logs = np.interp(ps[inside], g, self._log_values)
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

    @property
    def support(self) -> SupportInterval:
        return self.inner.support

    def evaluable_upper(self) -> Tuple[float, bool]:
        return self.inner.evaluable_upper()

    def _value(self, p: float) -> float:
        return self.factor * self.inner(p)


@dataclass(frozen=True)
class Product(MomentEnvelope):
    """Pointwise product of envelopes; support is the intersection."""

    factors: Tuple[MomentEnvelope, ...] = ()

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ValueError("product of zero envelopes is undefined")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
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


def default_norm_grid(env: MomentEnvelope, points: int = 65) -> np.ndarray:
    """Default exponent grid for :func:`gls_norm`.

    Starts at 2 (the classical moment-norm convention) unless the support
    forces a higher start; ends just inside an open upper endpoint.
    """
    sup = env.support
    lo = max(2.0, sup.lower)
    if math.isinf(sup.upper):
        hi = max(32.0, 4.0 * lo)
    elif sup.upper_closed:
        hi = sup.upper
    else:
        hi = sup.lower + 0.999 * (sup.upper - sup.lower)
    if hi <= lo:
        lo = sup.lower
    if hi <= lo:
        raise EnvelopeDomainError("support too narrow for a default norm grid")
    return chebyshev_grid(lo, hi, points)


def gls_norm(
    moments: Callable[[float], float],
    env: MomentEnvelope,
    p_grid: Optional[Sequence[float]] = None,
) -> float:
    """Grid moment norm ``max_p moments(p) / nu(p)``.

    A grid lower bound of the true supremum; refining the grid can only
    increase the result.  ``moments`` must return finite p-th norms on the
    grid and every grid point must lie inside the envelope support.
    """
    if p_grid is None:
        grid = default_norm_grid(env)
    else:
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

    Evaluations are clamped to [0, 1].
    """

    def _raw(self, x: float) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        v = self._raw(float(x))
        if v != v:  # NaN guard
            raise ValueError("tail bound evaluated to NaN")
        return min(1.0, max(0.0, v))


@dataclass(frozen=True)
class RegularVariationTail(TailBound):
    """``scale * x^(-r) * (log x)^gamma * L(log x)`` clamped to [0, 1].

    The formula is meaningful for x > e; below e the clamp keeps the bound
    vacuous where the log factor would misbehave, and x <= 1 always maps
    to 1.  With ``gamma = 0`` and constant L this is the exact Pareto tail
    ``min(1, scale * x^-r)``.
    """

    r: float = 2.0
    gamma: float = 0.0
    slowvar: SlowlyVarying = SlowlyVarying.constant(1.0)
    scale: float = 1.0

    def __post_init__(self):
        if not (self.r > 0):
            raise ValueError("tail index must be positive")
        if not (self.scale > 0):
            raise ValueError("scale must be positive")

    @property
    def pareto_index(self) -> float:
        return self.r

    def _raw(self, x: float) -> float:
        if x <= 1.0:
            return 1.0
        lx = math.log(x)
        return self.scale * x ** (-self.r) * lx ** self.gamma * self.slowvar(lx)


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

    def _raw(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        return math.exp(-self.c * x ** self.alpha)


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
        xs = np.asarray(self.x_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
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

    @property
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

    def _raw(self, x: float) -> float:
        xs, vals = self.x_grid, self.values
        if x <= xs[0]:
            return 1.0
        if x >= xs[-1]:
            if vals[-1] == 0.0:
                return 0.0
            idx = self.pareto_index
            if math.isinf(idx):
                return 0.0
            return float(vals[-1]) * (x / xs[-1]) ** (-idx)
        with np.errstate(divide="ignore"):
            logv = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -math.inf)
        out = np.interp(math.log(x), np.log(xs), logv)
        return 0.0 if out == -math.inf else float(math.exp(out))


def _rv_tail_remainder(tail: RegularVariationTail, p: float, x_from: float) -> float:
    """Exact remainder integral of ``p u^(p-1) T(u)`` on ``[x_from, inf)``.

    Uses the substitution t = log u, turning the heavy-tail integrand into an
    exponentially decaying one that adaptive quadrature handles well.
    """
    from scipy import integrate

    r, gamma = tail.r, tail.gamma

    def g(t: float) -> float:
        return math.exp((p - r) * t) * t ** gamma * tail.slowvar(t)

    val = integrate.quad(
        g, math.log(x_from), math.inf, full_output=1, epsabs=0.0, epsrel=1e-11, limit=400
    )[0]
    return p * tail.scale * val


def moments_from_tail(tail, p: float, rel_tol: float = 1e-9) -> float:
    """p-th norm recovered from a tail function by quadrature.

    Integrates ``p * u^(p-1) * T(u)`` over ``[0, inf)`` and returns the p-th
    root.  For regular-variation tails the integral is truncated at an
    adaptively chosen point and completed with an exact log-substituted
    remainder so the truncation bias stays below ``rel_tol`` of the total.

    Raises :class:`InfiniteMomentError` when the integral provably diverges
    (the integrand does not decay faster than ``u^(-1)``).
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
    else:
        idx = getattr(tail, "pareto_index", None)
        if idx is not None and math.isfinite(idx) and p >= idx:
            raise InfiniteMomentError(
                f"moment of order {p} diverges: tail decays with index {idx}"
            )
        # probe the decay of unknown tails at two large points
        u_probe = 1e6
        t1 = float(tail(u_probe))
        t2 = float(tail(2.0 * u_probe))
        if t1 > 0.0 and t2 > 0.0:
            slope = math.log(t2 / t1) / math.log(2.0)
            if p + slope >= -1e-6:
                raise InfiniteMomentError(
                    f"moment of order {p} diverges: empirical tail decay index {-slope:.4f}"
                )

    def f(u: float) -> float:
        t = float(tail(u))
        if t <= 0.0:
            return 0.0
        if u <= 0.0:
            return p * t if p == 1.0 else 0.0
        # assemble in log space: u^(p-1) alone can overflow where the full
        # integrand is still tiny
        log_term = (p - 1.0) * math.log(u) + math.log(t)
        if log_term > 700.0:
            raise InfiniteMomentError(
                f"integrand overflows at u={u:.3g}; the moment of order {p} diverges"
            )
        return p * math.exp(log_term)

    from scipy import integrate

    def piece(a: float, b: float) -> float:
        # full_output returns QUADPACK's roundoff message instead of warning,
        # which would need the process-global warning filters to silence
        return integrate.quad(f, a, b, full_output=1, epsabs=0.0, epsrel=1e-11, limit=400)[0]

    total = piece(0.0, 1.0) + piece(1.0, _E)
    if isinstance(tail, RegularVariationTail):
        x_max = 10.0 * _E
        prev = _E
        while True:
            total += piece(prev, x_max)
            rem = _rv_tail_remainder(tail, p, x_max)
            if rem <= rel_tol * max(total + rem, 1e-300) or x_max > 1e280:
                total += rem
                break
            prev = x_max
            x_max *= 4.0
    else:
        total += piece(_E, math.inf)

    if total < 0.0:
        total = 0.0
    return total ** (1.0 / p)


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
    batch_means = [b.mean() for b in np.array_split(powers, int(math.sqrt(a.size)))]
    flagged = bool(tail_index is not None and p > 0.5 * tail_index)
    return _moment_estimate(float(powers.mean()), batch_means, p, flagged)


def _moment_estimate(
    m: float, batch_means: Sequence[float], p: float, high_variance: bool = False
) -> MomentEstimate:
    """The p-th norm ``m^(1/p)`` of a power mean ``m`` with its batch-means error.

    ``batch_means`` are per-batch estimates of ``m``, weighted equally.  The
    standard error of ``m`` is their ddof=1 standard deviation over
    sqrt(batches), or 0 with fewer than two batches; the delta method carries
    it to the p-th root.
    """
    nb = len(batch_means)
    se_m = float(np.asarray(batch_means).std(ddof=1) / math.sqrt(nb)) if nb >= 2 else 0.0
    value = m ** (1.0 / p) if m > 0 else 0.0
    se_value = se_m * value / (p * m) if m > 0 else 0.0
    return MomentEstimate(value, se_value, m, se_m, high_variance)
