"""Concrete probabilistic models for multilinear heavy-tailed sums.

A model describes the random polynomial

    Q_d = sum_{1 <= i_1 < ... < i_d <= n}  b(i_1..i_d) * prod_m xi(i_m, m)

through a coefficient tensor over strictly increasing index tuples, one input
distribution per factor slot m, a dependence regime, and a sharing rule that
says which cells (i, m) are driven by the same underlying uniform draw.

Sampling is inverse-quantile from explicit uniforms produced by counter-based
(Philox) streams keyed on (seed, batch): results are reproducible and
embarrassingly parallel over batches.  Martingale-type dependence is realised
constructively: cells are sign-symmetrised heavy-tailed draws multiplied by a
bounded, past-measurable modulator, so the defining conditional-mean-zero
property holds by construction rather than by assumption.

Also here: the exact variance identity for Q, samplers for arbitrary centered
polynomials (diagonal powers included) and for reverse-window sums, model
standardisation, finite-support enumeration hooks used by the brute-force
oracles, and natural (tight) moment envelopes of the sampled cells for use as
chain inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from math import comb
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not at the first draw

from .calculus import (
    COMMON_INDEPENDENT,
    MARTINGALE,
    VECTOR_INDEPENDENT,
    DependenceRegime,
    combined_exponent,
)
from .envelope import (
    InfiniteMomentQuadError,
    MomentEstimate,
    SlowlyVarying,
    Tabulated,
    _moment_estimate,
    de_integrals,
)
from ._optim import chebyshev_grid

__all__ = [
    "IndexTuple",
    "enumerate_indices",
    "CoefficientTensor",
    "InputDistribution",
    "ParetoPower",
    "LogPerturbedPareto",
    "LogPowerOnly",
    "DoubleExpDiscrete",
    "Weibull",
    "Rademacher",
    "CustomQuantile",
    "PolynomialModel",
    "Sampler",
    "variance_of_Q",
    "sample_cells",
    "sample_Q",
    "sample_R",
    "sample_reverse_V",
    "normalize_model",
    "natural_envelope",
    "cell_sigma",
    "stratified_moment",
    "batch_plan",
    "iter_q_batches",
    "save_samples",
    "model_to_config",
    "model_from_config",
    "MODULATOR_HIGH",
]

IndexTuple = Tuple[int, ...]

SHARING_MODES = ("none", "vectors", "all")

# past-measurable modulator w = 1 + 0.5 * (running sign average) stays in
# [0.5, MODULATOR_HIGH]; the high end scales the bound envelopes
MODULATOR_HIGH = 1.5

_SYMMETRIZED_TAGS = (MARTINGALE, VECTOR_INDEPENDENT)


def enumerate_indices(
    d: int, n: int, last_fixed: Optional[int] = None
) -> Iterator[IndexTuple]:
    """Strictly increasing d-tuples in {1..n}, lexicographically.

    With ``last_fixed = k`` only tuples ending at k are produced (the
    boundary sub-family used in martingale-difference decompositions); for
    d = 1 that family degenerates to the single tuple ``(k,)``.
    """
    from itertools import combinations

    if d < 1:
        raise ValueError("tuple length must be >= 1")
    if d > n:
        raise ValueError(f"cannot draw {d} strictly increasing indices from 1..{n}")
    if last_fixed is None:
        yield from combinations(range(1, n + 1), d)
        return
    k = int(last_fixed)
    if not (d <= k <= n):
        raise ValueError(f"last index {k} incompatible with d={d}, n={n}")
    if d == 1:
        yield (k,)
        return
    for head in combinations(range(1, k), d - 1):
        yield head + (k,)


@dataclass(frozen=True, eq=False)
class CoefficientTensor:
    """Sparse coefficients b(I) over strictly increasing d-tuples in {1..n}.

    Absent tuples are zero.  ``normalized`` records whether sum b^2 = 1 holds
    (within 1e-12), the usual normalisation of the unit coefficient ball.
    """

    d: int
    n: int
    entries: Dict[IndexTuple, float]
    normalized: bool = field(init=False, default=False)

    def __eq__(self, other):
        if not isinstance(other, CoefficientTensor):
            return NotImplemented
        return (self.d, self.n, self.entries) == (other.d, other.n, other.entries)

    def __hash__(self):
        return hash((self.d, self.n, frozenset(self.entries.items())))

    def __post_init__(self):
        if self.d < 1 or self.n < self.d:
            raise ValueError(f"invalid tensor shape d={self.d}, n={self.n}")
        clean: Dict[IndexTuple, float] = {}
        for key, val in self.entries.items():
            key = tuple(int(i) for i in key)
            if len(key) != self.d:
                raise ValueError(f"index tuple {key} has length != {self.d}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"index tuple {key} is not strictly increasing")
            if key[0] < 1 or key[-1] > self.n:
                raise ValueError(f"index tuple {key} outside 1..{self.n}")
            clean[key] = float(val)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "normalized", abs(self.norm2() - 1.0) <= 1e-12)

    @classmethod
    def uniform(cls, d: int, n: int) -> "CoefficientTensor":
        tuples = list(enumerate_indices(d, n))
        return cls(d, n, dict.fromkeys(tuples, 1.0 / math.sqrt(len(tuples))))

    @classmethod
    def single(cls, d: int, n: int, index: Optional[IndexTuple] = None) -> "CoefficientTensor":
        if index is None:
            index = tuple(range(1, d + 1))
        return cls(d, n, {tuple(index): 1.0})

    @classmethod
    def random_unit(cls, d: int, n: int, rng: np.random.Generator) -> "CoefficientTensor":
        tuples = list(enumerate_indices(d, n))
        raw = rng.standard_normal(len(tuples))
        raw /= math.sqrt(float(raw @ raw))
        return cls(d, n, dict(zip(tuples, raw.tolist())))

    def norm2(self) -> float:
        return float(sum(v * v for v in self.entries.values()))

    @property
    def is_uniform(self) -> bool:
        if len(self.entries) != comb(self.n, self.d):
            return False
        vals = list(self.entries.values())
        return all(v == vals[0] for v in vals)

    def items_sorted(self) -> List[Tuple[IndexTuple, float]]:
        return sorted(self.entries.items())

    def restrict(self, i_lo: int, i_hi: int) -> "CoefficientTensor":
        """Sub-tensor of entries whose indices all lie in [i_lo, i_hi]."""
        kept = {
            I: v for I, v in self.entries.items() if I[0] >= i_lo and I[-1] <= i_hi
        }
        return CoefficientTensor(self.d, self.n, kept)


# ---------------------------------------------------------------------------
# input distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputDistribution:
    """Base class for sampler inputs.

    ``survival_quantile(u)`` maps a survival uniform u in (0, 1] to a value;
    heavy right tails correspond to blowup as u -> 0.  ``centered`` and
    ``standardized`` describe how sampled cells are affinely transformed for
    the non-symmetrised regimes; symmetrised regimes ignore ``centered`` (the
    independent sign does the centering) and standardise by sqrt(E X^2).
    """

    centered: bool = field(default=False, kw_only=True)
    standardized: bool = field(default=False, kw_only=True)

    # --- to override -------------------------------------------------------
    def survival_quantile(self, u: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def log_survival_quantile(self, t: np.ndarray) -> np.ndarray:
        """``log|X|`` at the survival uniform ``u = e^(-t)``, for t >= 0.

        The subclasses that override it with a closed form are positive
        inputs.  This default reads ``survival_quantile`` and is -inf beyond
        ``T_NORMAL``, where u is no longer a normal float: an input without a
        closed form gets moments cut off there.
        """
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            lx = np.log(np.abs(self.survival_quantile(np.exp(-np.minimum(t, T_NORMAL)))))
        return np.where(t <= T_NORMAL, lx, -math.inf)

    def kinks(self) -> Tuple[float, ...]:
        """The t where ``log_survival_quantile`` bends; the moment integrals break there."""
        return ()

    @property
    def moment_boundary(self) -> float:
        """Supremum of p with E|X|^p finite."""
        return math.inf

    def atoms(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(values, probabilities) for finitely supported inputs, else None."""
        return None

    # --- generic moment machinery -----------------------------------------
    def raw_abs_moment(self, p: float) -> float:
        """E |X|^p of the untransformed variable."""
        return _moments(self, [p])[0]

    def signed_moment(self, k: int) -> float:
        """E X^k for integer k."""
        return _moments(self, [k], signed=True)[0]

    def mean(self) -> float:
        return self.signed_moment(1)

    def variance(self) -> float:
        m2 = self.signed_moment(2)
        if math.isinf(m2):
            return math.inf
        mu = self.mean()
        return m2 - mu * mu


# beyond this t, u = e^(-t) is no longer a normal float
T_NORMAL = -math.log(sys.float_info.min)


def _moments(
    dist: InputDistribution, ps: Sequence[float], loc: float = 0.0, signed: bool = False
) -> List[float]:
    """``E (X - loc)^p`` (signed) or ``E |X - loc|^p`` for each p of ``ps``.

    A sum over the atoms of a finitely supported input, else one
    ``_survival_integrals`` call for every p below the moment boundary (inf
    above).
    """
    at = dist.atoms()
    if at is not None:
        vals, probs = at
        w = vals - loc if signed else np.abs(vals - loc)
        return [float(np.sum(probs * w ** p)) for p in ps]
    r = dist.moment_boundary
    orders = np.array([p for p in ps if p < r], dtype=float)
    finite = iter(_survival_integrals(dist, orders, loc, signed).tolist())
    return [next(finite) if p < r else math.inf for p in ps]


def _survival_integrals(
    dist: InputDistribution, ps: np.ndarray, loc: float = 0.0, signed: bool = False, t_lo: float = 0.0
) -> np.ndarray:
    """``int exp(p log|X - loc| - t) dt`` over ``t = -log u`` from ``t_lo``, for each p of ``ps``,
    by :func:`de_integrals`; from ``t_lo = -log u_max``, the expectation on {U < u_max}.

    The pieces break where X crosses 0 and loc (found by bisection) and at
    the input's kinks, and end at infinity for an input with a closed
    ``log_survival_quantile``, else at ``T_NORMAL``.  Signed moments of odd
    order negate the pieces where X < loc.
    """
    if ps.size == 0:
        return ps
    closed = type(dist).log_survival_quantile is not InputDistribution.log_survival_quantile

    def x_at(t: float) -> float:
        return float(dist.survival_quantile(np.array([math.exp(-t)]))[0])

    def log_dist(t: np.ndarray) -> np.ndarray:
        """``log|X - loc|`` at u = e^(-t)."""
        if loc == 0.0:
            return dist.log_survival_quantile(t)
        if closed:
            # a positive input, whose loc (its mean) is positive: the log
            # form keeps X - loc where X overflows a float
            lx, ll = dist.log_survival_quantile(t), math.log(loc)
            return np.maximum(lx, ll) + np.log1p(-np.exp(-np.abs(lx - ll)))
        return np.log(np.abs(dist.survival_quantile(np.exp(-t)) - loc))

    end = math.inf if closed else T_NORMAL
    breaks = {t_lo, *(k for k in dist.kinks() if t_lo < k < end)}
    for level in {0.0, loc}:
        lo, hi = t_lo, 700.0
        if x_at(lo) < level <= x_at(hi):  # X is nondecreasing in t
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if x_at(mid) < level else (lo, mid)
            breaks.add(hi)
    breaks = [*sorted(breaks), end]
    pieces = de_integrals(lambda t, rows: ps[rows, None] * log_dist(t) - t, breaks, ps.tolist())
    if signed:
        odd = ps % 2 == 1
        for k, (a, b) in enumerate(zip(breaks, breaks[1:])):
            if x_at(0.5 * (a + b) if b < math.inf else a + 1.0) < loc:
                pieces[k, odd] *= -1.0
    return pieces.sum(axis=0)


# stratified_moment integrates this top share of the survival-uniform range exactly
STRATIFIED_TOP_FRACTION = 1e-3


def stratified_moment(
    dist: InputDistribution,
    p: float,
    replications: int,
    seed: int,
) -> MomentEstimate:
    """Variance-reduced estimate of the p-th norm of a raw input variable.

    The top ``STRATIFIED_TOP_FRACTION`` (1e-3) of the survival-uniform range,
    which can carry most of a heavy moment and all of the estimator variance,
    is integrated exactly through the closed-form quantile; Monte Carlo covers
    only the bounded remainder, so batch-means error bars are trustworthy even
    for orders close to the moment boundary.  The body uses about
    sqrt(replications) batches; with fewer than two the stderr is 0.
    """
    p = float(p)
    if p >= dist.moment_boundary:
        raise ValueError(f"moment of order {p} diverges for {dist}")
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    delta = STRATIFIED_TOP_FRACTION
    exact_tail = float(_survival_integrals(dist, np.array([p]), t_lo=-math.log(delta))[0])
    gen = _stream(seed, 0)
    u = delta + (1.0 - delta) * gen.random(replications)
    body = np.abs(dist.survival_quantile(u)) ** p
    m = exact_tail + (1.0 - delta) * float(body.mean())
    batches = np.array_split(body, int(math.sqrt(replications)))
    return _moment_estimate(m, [exact_tail + (1.0 - delta) * b.mean() for b in batches],
                            [b.size for b in batches], p)


@dataclass(frozen=True)
class ParetoPower(InputDistribution):
    """``U^(-1/r1)`` for a survival uniform U: P(X > x) = x^(-r1) for x > 1.

    The benchmark heavy-tailed variable; E X^p = r1/(r1 - p) exactly, finite
    iff p < r1.
    """

    r1: float = 4.0

    def __post_init__(self):
        if not (self.r1 > 1.0):
            raise ValueError(f"tail index must exceed 1, got {self.r1}")

    def survival_quantile(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float) ** (-1.0 / self.r1)

    def log_survival_quantile(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=float) / self.r1

    @property
    def moment_boundary(self) -> float:
        return self.r1

    def raw_abs_moment(self, p: float) -> float:
        if p >= self.r1:
            return math.inf
        return self.r1 / (self.r1 - p)

    def signed_moment(self, k: int) -> float:
        return self.raw_abs_moment(float(k))


@dataclass(frozen=True)
class LogPerturbedPareto(InputDistribution):
    """``w^(-1/r) |log w|^kappa L(|log w|)`` on a uniform w in (0, 1]."""

    r: float = 4.0
    kappa: float = 0.0
    slowvar: SlowlyVarying = SlowlyVarying.constant(1.0)

    def __post_init__(self):
        if not (self.r > 1.0):
            raise ValueError(f"tail index must exceed 1, got {self.r}")

    def survival_quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        lg = np.abs(np.log(u))
        return u ** (-1.0 / self.r) * lg ** self.kappa * self.slowvar(lg)

    def log_survival_quantile(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        log_power = self.kappa * np.log(t) if self.kappa else 0.0  # t^0 is 1 at t = 0
        return t / self.r + log_power + np.log(self.slowvar(t))

    def kinks(self) -> Tuple[float, ...]:
        # L is clamped to L(1) below 1
        return () if self.slowvar.kind == "constant" else (1.0,)

    @property
    def moment_boundary(self) -> float:
        return self.r


@dataclass(frozen=True)
class LogPowerOnly(InputDistribution):
    """``|log w|^mu`` on a uniform w: all moments finite, E X^p = Gamma(mu p + 1)."""

    mu: float = 1.0

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError("exponent mu must be positive")

    def survival_quantile(self, u: np.ndarray) -> np.ndarray:
        return np.abs(np.log(np.asarray(u, dtype=float))) ** self.mu

    def log_survival_quantile(self, t: np.ndarray) -> np.ndarray:
        return self.mu * np.log(np.asarray(t, dtype=float))

    def raw_abs_moment(self, p: float) -> float:
        return _gamma(self.mu * p + 1.0)

    def signed_moment(self, k: int) -> float:
        return self.raw_abs_moment(float(k))


@dataclass(frozen=True)
class DoubleExpDiscrete(InputDistribution):
    """Discrete variable with atoms exp(e^k), k = 1, 2, ...

    P(X = exp(e^k)) is proportional to exp(beta r k - r e^k); the series
    converges doubly exponentially, so the support is truncated where terms
    drop below 1e-300.  Moments are finite for p < r but the moment function
    has a pure power singularity while the tail keeps log-periodic spikes:
    the standard example of the logarithmic gap between moment and tail
    descriptions.
    """

    r: float = 4.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.r > 1.0 and self.beta > 0):
            raise ValueError("need r > 1 and beta > 0")

    def _log_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        ks = []
        logw = []
        k = 1
        while True:
            lw = self.beta * self.r * k - self.r * math.exp(k)
            if lw < math.log(1e-300) and k > 1:
                break
            ks.append(k)
            logw.append(lw)
            k += 1
            if k > 700:
                break
        return np.array(ks), np.array(logw)

    def atoms(self) -> Tuple[np.ndarray, np.ndarray]:
        ks, logw = self._log_weights()
        w = np.exp(logw - logw.max())
        probs = w / w.sum()
        vals = np.exp(np.exp(ks.astype(float)))
        return vals, probs

    def survival_quantile(self, u: np.ndarray) -> np.ndarray:
        vals, probs = self.atoms()
        # inverse survival: the largest atom v with P(X >= v) >= u
        cum = np.cumsum(probs[::-1])[::-1]  # P(X >= vals[k]), decreasing
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(-cum, -u, side="right") - 1
        idx = np.clip(idx, 0, len(vals) - 1)
        return vals[idx]

    @property
    def moment_boundary(self) -> float:
        return self.r

    def raw_abs_moment(self, p: float) -> float:
        if p >= self.r:
            return math.inf
        ks, logw = self._log_weights()
        log_terms = logw + p * np.exp(ks.astype(float))
        return float(np.exp(np.logaddexp.reduce(log_terms) - np.logaddexp.reduce(logw)))


@dataclass(frozen=True)
class Weibull(InputDistribution):
    """``P(X > x) = exp(-c x^alpha)``; light-tailed, all moments finite."""

    c: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not (self.c > 0 and self.alpha > 0):
            raise ValueError("need positive rate and exponent")

    def survival_quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return (-np.log(u) / self.c) ** (1.0 / self.alpha)

    def log_survival_quantile(self, t: np.ndarray) -> np.ndarray:
        return (np.log(np.asarray(t, dtype=float)) - math.log(self.c)) / self.alpha

    def raw_abs_moment(self, p: float) -> float:
        return self.c ** (-p / self.alpha) * _gamma(1.0 + p / self.alpha)

    def signed_moment(self, k: int) -> float:
        return self.raw_abs_moment(float(k))


def _gamma(x: float) -> float:
    """Gamma(x) for x > 0, inf where it overflows a float."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Rademacher(InputDistribution):
    """Symmetric signs +-1; already centered and standardized."""

    def survival_quantile(self, u: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(u, dtype=float) <= 0.5, 1.0, -1.0)

    def atoms(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])


@dataclass(frozen=True, eq=False)
class CustomQuantile(InputDistribution):
    """User-supplied survival quantile with an optional finite atom list.

    Compares and hashes by identity, as the quantile callable cannot be
    compared: each instance gets its own cached ``(loc, scale)`` and natural
    table, and :meth:`Sampler.enumerate` shares draws across slots only when
    each slot holds the same object.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    quantile: Callable[[np.ndarray], np.ndarray] = None
    boundary: float = math.inf
    atom_values: Optional[Tuple[float, ...]] = None
    atom_probs: Optional[Tuple[float, ...]] = None

    def survival_quantile(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.quantile(np.asarray(u, dtype=float)), dtype=float)

    @property
    def moment_boundary(self) -> float:
        return self.boundary

    def atoms(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if self.atom_values is None:
            return None
        vals = np.asarray(self.atom_values, dtype=float)
        probs = np.asarray(self.atom_probs, dtype=float)
        if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
            raise ValueError("atom probabilities must be a distribution")
        return vals, probs


# ---------------------------------------------------------------------------
# transforms shared by sampler, enumeration and envelope construction
# ---------------------------------------------------------------------------


def _is_symmetrized(tag: str) -> bool:
    return tag in _SYMMETRIZED_TAGS


@functools.lru_cache(maxsize=64)  # each envelope fill and Sampler asks; it may cost quadratures
def cell_loc_scale(dist: InputDistribution, symmetrized: bool) -> Tuple[float, float]:
    """Affine transform (loc, scale) applied to raw draws for this cell."""
    if symmetrized:
        loc = 0.0
        if dist.standardized:
            m2 = dist.raw_abs_moment(2.0)
            if not (m2 > 0) or math.isinf(m2):
                raise ValueError(f"cannot standardise {dist}: E X^2 is zero or infinite")
            scale = math.sqrt(m2)
        else:
            scale = 1.0
        return loc, scale
    loc = dist.mean() if dist.centered else 0.0
    if dist.standardized:
        # InputDistribution.variance, with the one mean of a centered input
        mu = loc if dist.centered else dist.mean()
        var = dist.signed_moment(2) - mu * mu
        if not (var > 0) or math.isinf(var):
            raise ValueError(f"cannot standardise {dist}: variance is zero or infinite")
        scale = math.sqrt(var)
    else:
        scale = 1.0
    return loc, scale


def cell_sigma(dist: InputDistribution, symmetrized: bool) -> float:
    """Standard deviation of the sampled cell (modulator excluded).

    A symmetrised cell has mean 0; any other cell has the input's variance.
    """
    _, scale = cell_loc_scale(dist, symmetrized)
    var = dist.raw_abs_moment(2.0) if symmetrized else dist.variance()
    return math.inf if math.isinf(var) else math.sqrt(var) / scale


def cell_abs_moment(dist: InputDistribution, ps: Sequence[float], symmetrized: bool) -> np.ndarray:
    """E |cell|^p of the sampled cell before any modulator, for each p of ``ps``.

    An uncentered cell (symmetrised cells always are) uses the input's closed
    form when it has one; everything else goes through ``_moments``.
    """
    ps = [float(p) for p in ps]
    loc, scale = cell_loc_scale(dist, symmetrized)
    if loc == 0.0 and type(dist).raw_abs_moment is not InputDistribution.raw_abs_moment:
        moments = [dist.raw_abs_moment(p) for p in ps]
    else:
        moments = _moments(dist, ps, loc)
    return np.array([m / scale ** p for m, p in zip(moments, ps)])


@functools.lru_cache(maxsize=64)
def _tabulate_natural(dist: InputDistribution, symmetrized: bool, grid: Tuple[float, ...]) -> Tabulated:
    r = dist.moment_boundary
    factor = MODULATOR_HIGH if symmetrized else 1.0
    ps = np.array(grid)
    values = factor * cell_abs_moment(dist, grid, symmetrized) ** (1.0 / ps)
    return Tabulated(ps, values, upper=r if math.isfinite(r) else None)


def natural_envelope(
    dist: InputDistribution,
    regime_tag: str,
    points: int = 257,
) -> Tabulated:
    """Tight moment envelope of the sampled cells for one factor slot.

    Tabulates ``p -> |cell|_p`` over the cell's finite-moment range.  In
    modulated (martingale-type) regimes the bounded modulator inflates the
    p-th norms by at most ``MODULATOR_HIGH``, which is folded in so the
    envelope dominates the cells actually produced by the sampler.

    The whole table is computed at construction, in one quadrature call for
    an input without closed-form moments; ``InfiniteMomentQuadError`` names
    the lowest grid exponent whose moment integral overflows.
    """
    symmetrized = _is_symmetrized(regime_tag)
    r = dist.moment_boundary
    hi = 1.0 + 0.999 * (r - 1.0) if math.isfinite(r) else 64.0
    return _tabulate_natural(dist, symmetrized, tuple(chebyshev_grid(1.0, hi, points).tolist()))


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialModel:
    """Full specification of a multilinear sum and how to sample it.

    ``sharing`` maps cells to underlying uniforms: "none" gives every cell
    its own draw, "vectors" shares one draw per index i across the factor
    slots (coinciding factor vectors), "all" drives every cell from a single
    draw (the degenerate coincidence used to probe the combined moment
    boundary).  ``multiplicities`` switches the model to an arbitrary
    centered polynomial: slot l contributes ``X^k(l) - E X^k(l)`` and the
    coefficient tensor runs over tuples of length ``len(multiplicities)``.
    """

    d: int
    n: int
    coefficients: CoefficientTensor
    regime: DependenceRegime
    distributions: Tuple[InputDistribution, ...]
    sharing: str = "none"
    multiplicities: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "distributions", tuple(self.distributions))
        if self.sharing not in SHARING_MODES:
            raise ValueError(f"sharing must be one of {SHARING_MODES}")
        if self.multiplicities is not None:
            mult = tuple(int(k) for k in self.multiplicities)
            object.__setattr__(self, "multiplicities", mult)
            if sum(mult) != self.d:
                raise ValueError("multiplicities must sum to the polynomial degree")
            if any(k < 0 for k in mult):
                raise ValueError("multiplicities must be nonnegative")
            if self.regime.tag != COMMON_INDEPENDENT:
                raise ValueError("arbitrary centered polynomials require common independence")
            slots = len(mult)
        else:
            slots = self.d
        if len(self.distributions) != slots:
            raise ValueError(f"need one distribution per factor slot ({slots})")
        if self.coefficients.d != slots or self.coefficients.n != self.n:
            raise ValueError("coefficient tensor shape does not match the model")
        if self.regime.tag == COMMON_INDEPENDENT and self.sharing != "none":
            raise ValueError("common independence requires sharing='none'")
        if self.regime.tag == VECTOR_INDEPENDENT and self.sharing != "none":
            raise ValueError("vector independence requires sharing='none'")

    @property
    def slots(self) -> int:
        if self.multiplicities is not None:
            return len(self.multiplicities)
        return self.d

    @property
    def combined_r(self) -> float:
        """Harmonic combination of the per-factor moment boundaries."""
        if self.multiplicities is None:
            return combined_exponent([d_.moment_boundary for d_ in self.distributions])
        uppers = []
        for k, d_ in zip(self.multiplicities, self.distributions):
            if k == 0:
                continue
            r = d_.moment_boundary
            uppers.append(r / k if math.isfinite(r) else math.inf)
        return combined_exponent(uppers)

    def sigma_matrix(self) -> np.ndarray:
        """Per-cell standard deviations, shape (n, slots), for :func:`variance_of_Q`.

        Defined only where its variance identity holds: a multilinear model
        (no ``multiplicities``) in a regime without history-dependent
        modulators, whose cells all have mean 0.  Anything else raises
        ``ValueError``.
        """
        if _is_symmetrized(self.regime.tag):
            raise ValueError(
                "modulated regimes have history-dependent cell variances;"
                " the static variance identity does not apply"
            )
        if self.multiplicities is not None:
            raise ValueError("the static variance identity needs a multilinear model")
        if any(not d_.centered and d_.mean() != 0.0 for d_ in self.distributions):
            raise ValueError("cells with a nonzero mean break the static variance identity")
        sig = np.array(
            [cell_sigma(d_, False) for d_ in self.distributions], dtype=float
        )
        return np.tile(sig, (self.n, 1))


def variance_of_Q(coefficients: CoefficientTensor, sigmas: np.ndarray) -> float:
    """Exact variance ``sum_I b(I)^2 prod_m sigma(i_m, m)^2``.

    Equals 1 for a unit-norm tensor with all sigmas one.  ``sigmas`` has one
    row per index i and one column per factor slot m.
    """
    sig = np.asarray(sigmas, dtype=float)
    if sig.ndim != 2 or sig.shape[0] < coefficients.n or sig.shape[1] < coefficients.d:
        raise ValueError(
            f"sigma array of shape {sig.shape} does not cover n={coefficients.n},"
            f" d={coefficients.d}"
        )
    total = 0.0
    for I, b in coefficients.entries.items():
        prod = 1.0
        for m, i in enumerate(I):
            prod *= sig[i - 1, m] ** 2
        total += b * b * prod
    return total


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _stream(seed: int, batch_index: int) -> np.random.Generator:
    """Independent counter-based stream for one batch of replications."""
    key = np.array([np.uint64(seed), np.uint64(batch_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# batch_plan aims at this many batches, each of 1024 to 65536 replications
TARGET_BATCHES = 64


def batch_plan(replications: int) -> List[int]:
    """Deterministic partition of a replication count into stream batches."""
    if replications < 1:
        raise ValueError("need at least one replication")
    size = min(65536, max(1024, -(-replications // TARGET_BATCHES)))
    full, rest = divmod(replications, size)
    return [size] * full + ([rest] if rest else [])


def _map_batches(fn: Callable[[int, int], object], sizes: Sequence[int], threads: int = 1) -> Iterable:
    """``fn(b, size)`` for batch ``b`` of each size, in batch order: lazily on one
    thread, else all submitted to a pool of ``threads`` and gathered before it shuts down."""
    if threads == 1:
        return map(fn, range(len(sizes)), sizes)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes))


def _window(model: PolynomialModel, window: Optional[Tuple[int, int]]) -> Tuple[int, int]:
    if window is None:
        return 1, model.n
    lo, hi = int(window[0]), int(window[1])
    slots = model.slots
    if not (1 <= lo and hi <= model.n and lo <= hi - slots + 1):
        raise ValueError(f"index window ({lo}, {hi}) too small for {slots} factors")
    return lo, hi


def power_mean(model: PolynomialModel, slot: int) -> float:
    """E[cell^k] for the given factor slot of a polynomial model."""
    k = model.multiplicities[slot]
    dist = model.distributions[slot]
    loc, scale = cell_loc_scale(dist, _is_symmetrized(model.regime.tag))
    if dist.atoms() is None and k >= dist.moment_boundary:
        raise ValueError(f"E X^{k} diverges for {dist}")
    return _moments(dist, [k], loc, signed=True)[0] / scale ** k


# term products per gathered block (general-tensor Q, sweep products) and
# uniforms per draw chunk (at least one row): a 64K double block and its
# gather block (1 MB) stay in one core's L2 cache
BLOCK_ELEMENTS = 1 << 16


def _draw_rows(gen: np.random.Generator, draw: np.ndarray, size: int) -> Iterator[Tuple[int, np.ndarray]]:
    """``(lo, chunk)``: rows ``lo:lo + len(chunk)`` of one ``(size, keys)`` uniform
    draw, drawn into ``draw`` ``len(draw)`` rows at a time; Philox makes them the
    numbers of one whole draw."""
    for lo in range(0, size, len(draw)):
        chunk = draw[:size - lo]
        gen.random(out=chunk)
        yield lo, chunk


def _term_products(source, rows, out, gather, coefs=None) -> np.ndarray:
    """``out[k] = ((coefs[k] * source[rows[0, k]]) * source[rows[1, k]]) * ...``, left to right.

    Each later factor is gathered into ``gather[:len(out)]``; mode "clip"
    gathers straight into out, "raise" would buffer it.
    """
    gather = gather[:len(out)]
    np.take(source, rows[0], axis=0, out=out, mode="clip")
    if coefs is not None:
        out *= coefs
    for m in range(1, len(rows)):
        out *= np.take(source, rows[m], axis=0, out=gather, mode="clip")
    return out


class Sampler:
    """Sampling and Q evaluation for one model, prepared once and shared by all batches.

    Cells are time-major, shape ``(rows, slots, size)``, so each time step is
    one contiguous block in the order the modulators and the Q recursion
    consume them.  Batch ``b`` of ``size`` replications draws
    ``gen.random((size, nkeys))`` survival uniforms (and as many sign uniforms
    in symmetrised regimes) from the Philox stream keyed on ``(seed, b)``.
    Key ``i * slots + m`` drives cell (i, m) under sharing "none", key ``i``
    drives row i under "vectors" and key 0 drives every cell under "all", so
    the transposed draw is a ``key_shape + (size,)`` block that broadcasts
    against the cells.  Each draw comes in stream order in chunks of at most
    ``BLOCK_ELEMENTS`` uniforms (or one row), the numbers of one whole draw
    under Philox; survival chunks go straight into the cells where each cell
    has its own key, else into a ``(nkeys, size)`` keys array.  Everything
    that does not depend on the draw is computed here: per-slot (loc, scale),
    power means, the key layout, the window-restricted tensor and whether the
    uniform-tensor recursion applies.
    Batches only read this state, so one sampler serves concurrent batches.
    Each thread keeps one scratch array, grown to its largest request, for
    the draw chunks and shared keys, Q's term blocks and ``products``' result;
    that result stays valid until the same thread's next sampler call.
    ``cells`` and ``q`` return fresh arrays.
    """

    def __init__(self, model: PolynomialModel, window: Optional[Tuple[int, int]] = None):
        self.model = model
        self.i_lo, i_hi = _window(model, window)
        self.rows = i_hi - self.i_lo + 1
        slots = model.slots
        self.symmetrized = _is_symmetrized(model.regime.tag)
        self.loc_scale = [cell_loc_scale(d_, self.symmetrized) for d_ in model.distributions]
        self.key_shape = {
            "none": (self.rows, slots),
            "vectors": (self.rows, 1),
            "all": (1, 1),
        }[model.sharing]
        self.nkeys = self.key_shape[0] * self.key_shape[1]
        self.key_cols = list(range(slots)) if model.sharing == "none" else [0] * slots
        self.powers = None
        if model.multiplicities is not None:
            self.powers = [
                (k, power_mean(model, l) if k else 0.0)
                for l, k in enumerate(model.multiplicities)
            ]
        tensor = model.coefficients
        if window is not None:
            tensor = tensor.restrict(self.i_lo, i_hi)
        # uniform over the window's own indices, which restrict keeps numbered in 1..n
        values = set(tensor.entries.values())
        uniform = len(values) == 1 and len(tensor.entries) == comb(self.rows, slots)
        self.coef = values.pop() if uniform else None
        if self.coef is None:
            # general tensors: the lexicographic terms as flat rows and a
            # (K, 1) coefficient column, and the same per last-index group
            # (in increasing order) for the running maximum
            items = tensor.items_sorted()
            flat = self.flat_rows([I for I, _ in items])
            coefs = np.array([b for _, b in items]).reshape(-1, 1)
            self.terms = [(flat, coefs)]
            # not np.unique: its first call imports numpy.ma (15-30 ms)
            last = flat[-1] // slots
            self.terms_by_last = [
                (flat[:, last == k], coefs[last == k]) for k in sorted(set(last.tolist()))
            ]
        self._local = threading.local()

    def flat_rows(self, tuples: Sequence[IndexTuple]) -> np.ndarray:
        """Tuples as (slots, K) rows ``(i - i_lo) * slots + m`` of the (rows * slots, size) factors."""
        slots = self.model.slots
        rows = np.array(tuples, dtype=np.intp).reshape(len(tuples), slots).T - self.i_lo
        return np.ascontiguousarray(rows * slots + np.arange(slots).reshape(-1, 1))

    def _scratch(self, *shapes: Tuple[int, ...]) -> List[np.ndarray]:
        """C-contiguous views of ``shapes``, back to back in this thread's one scratch array."""
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        if getattr(self._local, "array", np.empty(0)).size < ends[-1]:
            self._local.array = None  # drop the old array before making a larger one
            self._local.array = np.empty(ends[-1])
        return [self._local.array[a:b].reshape(t) for a, b, t in zip([0] + ends, ends, shapes)]

    def cells(self, seed: int, batch_index: int, size: int) -> np.ndarray:
        """One batch of transformed cells, time-major, before power centering."""
        gen = _stream(seed, batch_index)
        cells = np.empty((self.rows, self.model.slots, size))
        step = min(size, max(1, BLOCK_ELEMENTS // self.nkeys))
        if self.nkeys == cells.shape[0] * cells.shape[1]:
            # each cell has its own key: the survival uniforms go straight into the cells
            (draw,), keys = self._scratch((step, self.nkeys)), cells.reshape(self.nkeys, size)
        else:
            draw, keys = self._scratch((step, self.nkeys), (self.nkeys, size))
        for lo, chunk in _draw_rows(gen, draw, size):
            np.subtract(1.0, chunk.T, out=keys[:, lo:lo + len(chunk)])  # survival uniforms in (0, 1]
        keys = keys.reshape(self.key_shape + (size,))
        for m, dist in enumerate(self.model.distributions):
            loc, scale = self.loc_scale[m]
            raw = dist.survival_quantile(keys[:, self.key_cols[m]])
            if self.symmetrized:
                # the magnitude is |raw| / scale; its sign is set below
                np.divide(raw, scale, out=cells[:, m])
            else:
                np.subtract(raw, loc, out=cells[:, m])
                cells[:, m] /= scale
            del raw  # one slot's quantiles at a time
        if self.symmetrized:
            # negative exactly when the cell's sign uniform is below 0.5
            for lo, chunk in _draw_rows(gen, draw, size):
                chunk -= 0.5
                block = cells[..., lo:lo + len(chunk)]
                np.copysign(block, chunk.T.reshape(self.key_shape + (len(chunk),)), out=block)
            self.modulate(cells)
        return cells

    def modulate(self, cells: np.ndarray) -> None:
        """Multiply symmetrised time-major cells in place by past-measurable modulators.

        The modulator for row i is ``1 + 0.5 * mean(signs of all previously
        generated cells)``; "previous" follows time order, which is reversed for
        reverse-filtration models.  Vector-independent models keep one running
        state per factor slot so the vectors stay mutually independent; the
        martingale model couples everything through a single global state.
        """
        rows, slots, size = cells.shape
        vector = self.model.regime.tag == VECTOR_INDEPENDENT
        total = np.zeros((slots, size) if vector else size)
        step = 1 if vector else slots
        order = range(rows - 1, -1, -1) if self.model.regime.reverse else range(rows)
        for k, i in enumerate(order):
            signs = np.sign(cells[i])
            if k:
                cells[i] *= 1.0 + 0.5 * total / (k * step)
            total += signs if vector else signs.sum(axis=0)

    def factors(self, cells: np.ndarray) -> np.ndarray:
        """Cells as Q factors: ``cell^k(l) - E cell^k(l)`` for polynomial models.

        Consumes ``cells``: the factors are written over it and returned.
        """
        if self.powers is not None:
            for l, (k, mean) in enumerate(self.powers):
                cells[:, l] = cells[:, l] ** k - mean if k else 1.0
        return cells

    def q(self, factors: np.ndarray, running_max: bool = False) -> np.ndarray:
        """Q for each replication, or the running maximum of |Q| over time."""
        size = factors.shape[-1]
        best = np.zeros(size)
        if self.coef is not None:
            # P[m] sums the m-fold products over increasing indices seen so far
            slots = self.model.slots
            P = np.zeros((slots + 1, size))
            P[0] = 1.0
            for k in range(self.rows):
                for m in range(min(k + 1, slots), 0, -1):
                    P[m] += P[m - 1] * factors[k, m - 1]
                if running_max:
                    np.maximum(best, np.abs(self.coef * P[slots]), out=best)
            return best if running_max else self.coef * P[slots]
        # blocks of at most BLOCK_ELEMENTS term products, built in this
        # thread's scratch and each summed in order onto q: bit for bit the
        # term-by-term loop q += ((b*f0)*f1)...  (size 1 takes one term a
        # block: a (K, 1) reduce would sum pairwise)
        block = max(1, min(BLOCK_ELEMENTS // size, len(self.terms[0][1]))) if size > 1 else 1
        prod, gather = self._scratch((block, size), (block, size))
        source = factors.reshape(-1, size)
        q = np.zeros(size)
        for rows, coefs in self.terms_by_last if running_max else self.terms:
            for lo in range(0, len(coefs), block):
                b = coefs[lo:lo + block]
                t = _term_products(source, rows[:, lo:lo + block], prod[:len(b)], gather, b)
                t[0] += q
                q = np.add.reduce(t, axis=0)
            if running_max:
                np.maximum(best, np.abs(q), out=best)
        return best if running_max else q

    def products(self, factors: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Unweighted products at the flat ``rows``, (K, size) in this thread's scratch,
        gathered in blocks of at most BLOCK_ELEMENTS products."""
        size, count = factors.shape[-1], rows.shape[1]
        block = max(1, min(BLOCK_ELEMENTS // size, count))
        out, gather = self._scratch((count, size), (block, size))
        source = factors.reshape(-1, size)
        for lo in range(0, count, block):
            _term_products(source, rows[:, lo:lo + block], out[lo:lo + block], gather)
        return out

    def enumerate(self, limit: int = 1 << 24) -> Tuple[np.ndarray, np.ndarray]:
        """Exact joint states of a finitely supported model as time-major factors.

        The sharing rule reduces the state space to one coordinate per
        distinct underlying draw; sharing across slots requires identical
        distributions in those slots.  Returns ``(factors, probs)``.
        """
        model = self.model
        if model.sharing != "none" and len(set(model.distributions)) > 1:
            raise ValueError("shared draws require identical distributions across slots")
        atom_vals: List[np.ndarray] = []
        atom_probs: List[np.ndarray] = []
        total = 1
        for j in range(self.nkeys):
            m = j % self.key_shape[1]  # the key's slot; shared keys have identical slots
            dist = model.distributions[m]
            at = dist.atoms()
            if at is None:
                raise ValueError(f"{dist} has no finite support; enumeration impossible")
            vals, probs = at
            loc, scale = self.loc_scale[m]
            if self.symmetrized:
                mags = np.abs(vals) / scale
                vals2 = np.concatenate([-mags, mags])
                probs2 = np.concatenate([probs, probs]) * 0.5
            else:
                vals2 = (vals - loc) / scale
                probs2 = probs
            atom_vals.append(vals2)
            atom_probs.append(probs2)
            total *= len(vals2)
            if total > limit:
                raise ValueError(f"state space of size > {limit} is too large to enumerate")

        # mixed-radix enumeration of all joint key states
        radices = [len(v) for v in atom_vals]
        states = np.indices(radices).reshape(self.nkeys, -1)  # (nkeys, total)
        key_values = np.empty((self.nkeys, total))
        probs = np.ones(total)
        for k in range(self.nkeys):
            key_values[k] = atom_vals[k][states[k]]
            probs *= atom_probs[k][states[k]]

        key_values = key_values.reshape(self.key_shape + (total,))
        cells = np.empty((self.rows, model.slots, total))
        cells[:] = key_values
        if self.symmetrized:
            self.modulate(cells)
        return self.factors(cells), probs


def iter_q_batches(
    model: PolynomialModel,
    seed: int,
    replications: int,
    running_max: bool = False,
    window: Optional[Tuple[int, int]] = None,
) -> Iterator[np.ndarray]:
    """Yield batches of realisations; the partition is a pure function of the count."""
    sampler = Sampler(model, window)
    yield from _map_batches(
        lambda b, size: sampler.q(sampler.factors(sampler.cells(seed, b, size)), running_max),
        batch_plan(replications),
    )


def sample_cells(
    model: PolynomialModel, seed: int, replications: int
) -> np.ndarray:
    """Materialise transformed cells, shape (replications, n, slots)."""
    sampler = Sampler(model)
    return np.concatenate(list(_map_batches(
        lambda b, size: sampler.cells(seed, b, size).transpose(2, 0, 1), batch_plan(replications)
    )))


def sample_Q(model: PolynomialModel, seed: int, replications: int) -> np.ndarray:
    """Replications of Q_d; deterministic in (seed, replication partition)."""
    if model.multiplicities is not None:
        raise ValueError("model declares multiplicities; use sample_R")
    return np.concatenate(list(iter_q_batches(model, seed, replications)))


def sample_R(model: PolynomialModel, seed: int, replications: int) -> np.ndarray:
    """Replications of the arbitrary centered polynomial (diagonal terms allowed)."""
    if model.multiplicities is None:
        raise ValueError("model declares no multiplicities; use sample_Q")
    return np.concatenate(list(iter_q_batches(model, seed, replications)))


def sample_reverse_V(
    model: PolynomialModel,
    seed: int,
    replications: int,
    n_start: int,
    N: int,
) -> np.ndarray:
    """Replications of the reverse-window sum over tuples in [n_start, N].

    With window (1, n) and independent inputs this reproduces ``sample_Q``
    draw for draw (the reindexing equivalence of reverse-time sums).
    """
    return np.concatenate(
        list(iter_q_batches(model, seed, replications, window=(n_start, N)))
    )


def normalize_model(model: PolynomialModel) -> PolynomialModel:
    """Standardise inputs and rescale coefficients so Q is unchanged.

    Each coefficient is multiplied by the product of the per-slot scales that
    standardisation divides out of the cells.  If the original tensor
    satisfied the weighted normalisation ``sum b^2 prod sigma^2 = 1`` the new
    tensor is exactly unit-norm, and the standardized model has unit variance
    whenever the regime factorises.  Fails for inputs with zero or infinite
    variance.
    """
    symmetrized = _is_symmetrized(model.regime.tag)
    scales = []
    new_dists = []
    for dist in model.distributions:
        _, old_scale = cell_loc_scale(dist, symmetrized)
        std_dist = replace(dist, standardized=True)
        _, new_scale = cell_loc_scale(std_dist, symmetrized)
        scales.append(new_scale / old_scale)
        new_dists.append(std_dist)
    factor = 1.0
    for s in scales:
        factor *= s
    new_entries = {I: b * factor for I, b in model.coefficients.entries.items()}
    new_tensor = CoefficientTensor(model.coefficients.d, model.coefficients.n, new_entries)
    return replace(model, coefficients=new_tensor, distributions=tuple(new_dists))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


SAMPLE_FORMATS = ("f64", "csv")


def save_samples(path: str, values: np.ndarray, fmt: str = "f64") -> None:
    """Write a sample array as little-endian float64 binary or CSV."""
    arr = np.asarray(values, dtype="<f8")
    if fmt == "f64":
        arr.tofile(path)
    elif fmt == "csv":
        np.savetxt(path, arr, fmt="%.17g", delimiter=",")
    else:
        raise ValueError(f"unknown sample format {fmt!r}; use one of {SAMPLE_FORMATS}")


class ConfigError(ValueError):
    """A config value that cannot become a library object; the message names its path."""


_JSON_TYPES = {
    float: numbers.Real, int: numbers.Integral, bool: bool, str: str, list: (list, tuple), dict: dict
}


def config_value(value, where: str, typ):
    """``value`` checked to be of JSON type ``typ``, or parsed by ``typ(value, where)``."""
    if not isinstance(typ, type):
        return typ(value, where)
    if not isinstance(value, _JSON_TYPES[typ]) or (isinstance(value, bool) and typ is not bool):
        raise ConfigError(f"{where} must be {typ.__name__}, got {value!r}")
    return typ(value) if typ in (float, int) else value


def config_list(value, where: str, typ=None, length: Optional[int] = None) -> list:
    """``value`` checked to be a list (of ``length`` entries, each parsed as ``typ``)."""
    value = config_value(value, where, list)
    if length is not None and len(value) != length:
        raise ConfigError(f"{where} must have {length} entries, got {len(value)}")
    return [v if typ is None else config_value(v, f"{where}[{i}]", typ) for i, v in enumerate(value)]


def check_keys(cfg, where: str, allowed: Sequence[str], required: Sequence[str] = ()) -> dict:
    """``cfg`` checked to be an object with only ``allowed`` keys and every ``required`` one."""
    unknown = sorted(set(config_value(cfg, where, dict)) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return cfg


def config_build(where: str, factory: Callable, *args, **kwargs):
    """``factory(*args, **kwargs)``, its domain errors (``ValueError``) raised as ConfigError."""
    try:
        return factory(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_call(factory: Callable, cfg, where: str, types: dict, required=(), selector=None):
    """``factory(**kwargs)`` from the keys of object ``cfg`` (but ``selector``), parsed by ``types``."""
    check_keys(cfg, where, (selector, *types), required)
    kwargs = {k: config_value(v, f"{where}.{k}", types[k]) for k, v in cfg.items() if k != selector}
    return config_build(where, factory, **kwargs)


def config_select(cfg, where: str, kinds: dict, default: Optional[str] = None, key: str = "kind"):
    """config_call with the ``(factory, types, required)`` entry of ``kinds`` named by ``cfg[key]``."""
    kind = config_value(config_value(cfg, where, dict).get(key, default), f"{where}.{key}", str)
    if kind not in kinds:
        raise ConfigError(f"{where}.{key} must be one of {sorted(kinds)}, got {kind!r}")
    factory, types, required = kinds[kind]
    return config_call(factory, cfg, where, types, required, key)


def field_types(cls) -> dict:
    """The config type of each init field of dataclass ``cls``: the type of its default."""
    return {
        f.name: _slowvar_from_config if isinstance(f.default, SlowlyVarying) else type(f.default)
        for f in dataclasses.fields(cls)
        if f.init
    }


# kind -> (factory, types, required keys); the types' one key is also written back
_SLOWVAR_KINDS = {
    "constant": (SlowlyVarying.constant, {"value": float}, ()),
    "log_power": (SlowlyVarying.log_power, {"kappa": float}, ("kappa",)),
}


def _slowvar_to_config(L: SlowlyVarying) -> dict:
    if L.kind not in _SLOWVAR_KINDS:
        raise ValueError("custom slowly varying functions are not serialisable")
    (key,) = _SLOWVAR_KINDS[L.kind][1]
    return {"kind": L.kind, key: getattr(L, key)}


def _slowvar_from_config(cfg: Optional[dict], where: str = "slowvar") -> SlowlyVarying:
    if cfg is None:
        return SlowlyVarying.constant(1.0)
    return config_select(cfg, where, _SLOWVAR_KINDS, "constant")


_DIST_KINDS = {
    "pareto_power": ParetoPower,
    "log_perturbed_pareto": LogPerturbedPareto,
    "log_power": LogPowerOnly,
    "double_exp_discrete": DoubleExpDiscrete,
    "weibull": Weibull,
    "rademacher": Rademacher,
}


def dist_to_config(dist: InputDistribution) -> dict:
    kinds = {cls: kind for kind, cls in _DIST_KINDS.items()}
    if type(dist) not in kinds:
        raise ValueError(f"distribution {dist} is not serialisable")
    cfg = {"kind": kinds[type(dist)]}
    for f in sorted(dataclasses.fields(dist), key=lambda f: f.kw_only):
        value = getattr(dist, f.name)
        cfg[f.name] = _slowvar_to_config(value) if isinstance(value, SlowlyVarying) else value
    return cfg


def dist_from_config(cfg: dict, where: str = "distribution") -> InputDistribution:
    kinds = {kind: (cls, field_types(cls), ()) for kind, cls in _DIST_KINDS.items()}
    return config_select(cfg, where, kinds)


def _tensor_to_config(tensor: CoefficientTensor) -> dict:
    # "uniform" rebuilds 1/sqrt(C(n, d)) entries: only that exact tensor may say so
    if tensor == CoefficientTensor.uniform(tensor.d, tensor.n):
        return {"kind": "uniform"}
    if len(tensor.entries) == 1:
        (I, v), = tensor.entries.items()
        if v == 1.0:
            return {"kind": "single", "index": list(I)}
    return {
        "kind": "entries",
        "entries": [[list(I), v] for I, v in tensor.items_sorted()],
    }


def _index(value, where: str) -> IndexTuple:
    return tuple(config_list(value, where, int))


def _entry(value, where: str) -> Tuple[IndexTuple, float]:
    index, b = config_list(value, where, length=2)
    return _index(index, f"{where}[0]"), config_value(b, f"{where}[1]", float)


def _tensor_from_config(cfg: dict, d: int, n: int, where: str) -> CoefficientTensor:
    kinds = {
        "uniform": (lambda: CoefficientTensor.uniform(d, n), {}, ()),
        "single": (
            lambda index=(): CoefficientTensor.single(d, n, index or None), {"index": _index}, ()
        ),
        "entries": (
            lambda entries: CoefficientTensor(d, n, dict(entries)),
            {"entries": lambda v, w: config_list(v, w, _entry)},
            ("entries",),
        ),
    }
    return config_select(cfg, where, kinds, "uniform")


def model_to_config(model: PolynomialModel) -> dict:
    cfg = {
        "d": model.d,
        "n": model.n,
        "regime": {"tag": model.regime.tag, "direction": model.regime.direction},
        "sharing": model.sharing,
        "coefficients": _tensor_to_config(model.coefficients),
        "distributions": [dist_to_config(d_) for d_ in model.distributions],
    }
    if model.multiplicities is not None:
        cfg["multiplicities"] = list(model.multiplicities)
    return cfg


def model_from_config(cfg: dict) -> PolynomialModel:
    def build(d, n, distributions, regime=DependenceRegime(), sharing="none", coefficients=None,
              multiplicities=None):
        slots = d if multiplicities is None else len(multiplicities)
        tensor = _tensor_from_config(coefficients or {}, slots, n, "model.coefficients")
        return PolynomialModel(d, n, tensor, regime, distributions, sharing, multiplicities)

    types = {
        "d": int, "n": int, "sharing": str, "coefficients": dict, "multiplicities": _index,
        "regime": lambda v, w: config_call(DependenceRegime, v, w, field_types(DependenceRegime)),
        "distributions": lambda v, w: tuple(config_list(v, w, dist_from_config)),
    }
    model = config_call(build, cfg, "model", types, required=("d", "n", "distributions"))
    # a model the sampler cannot set up (a cell that cannot be standardised,
    # a diverging power mean) is a config fault: find it here, not mid-run
    config_build("model", Sampler, model)
    return model
