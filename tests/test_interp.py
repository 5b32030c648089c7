"""Scalar interpolation against array ``np.interp``, bit for bit.

A scalar call of a ``Tabulated`` envelope must equal ``values_at``, and a
``TabulatedTail`` inside its grid the log-log ``np.interp`` of its values,
including the NaN fallback that tables holding ``-inf`` (zero values) reach.
The conjugate tails fitted in a verification must not depend on the scalar
path.
"""

import functools
import math
from importlib import resources

import numpy as np
import pytest

from polymoment import (
    ConjugateSpec,
    ConjugateTail,
    Tabulated,
    TabulatedTail,
    fit_tail_rescale,
    tail_from_envelope,
)
from polymoment.cli import load_config
from polymoment.mcverify import plan_from_config
from polymoment.polymodel import ParetoPower, Weibull, model_from_config, natural_envelope

SCENARIOS = sorted(
    p.name[: -len(".json")]
    for p in resources.files("polymoment").joinpath("scenarios").iterdir()
    if p.name.endswith(".json")
)


@functools.lru_cache(maxsize=None)
def scenario_plan(name):
    cfg = load_config(None, name)
    return plan_from_config(dict(cfg.get("plan", {})), model_from_config(cfg["model"]))


def bound_tables():
    envs = [scenario_plan(name).bound_envelope for name in SCENARIOS]
    return [env for env in envs if isinstance(env, Tabulated)]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def old_value(env, p):
    """``Tabulated._value`` as a one-point ``np.interp``."""
    ps = env.p_grid
    if p < ps[0] or p > ps[-1]:
        return math.inf
    return float(math.exp(np.interp(p, ps, env._log_moments) / p))


def probe_points(xs, rng, count=400):
    """Random points, every node, both float neighbours of each node, and both ends."""
    xs = np.asarray(xs, dtype=float)
    return np.concatenate([
        rng.uniform(xs[0], xs[-1], count),
        xs,
        np.nextafter(xs, -math.inf),
        np.nextafter(xs, math.inf),
        [xs[0] - 1.0, xs[-1] + 1.0, -math.inf, math.inf, math.nan],
    ])


class TestTabulatedTail:
    def test_equals_log_log_np_interp(self):
        # zero values are -inf logs: numpy's NaN fallback next to a finite
        # node, and between two of them
        rng = np.random.default_rng(1)
        for i in range(300):
            xs = np.unique(rng.uniform(0.5, 50.0, int(rng.integers(2, 12))))
            if xs.size < 2:
                continue
            vals = np.exp(-rng.uniform(0.0, 8.0, xs.size))
            vals[rng.random(xs.size) < 0.4] = 0.0
            if i % 10 == 0:
                vals[:2] = 0.0
            tail = TabulatedTail(xs, vals)
            with np.errstate(divide="ignore"):
                logs = np.log(xs), np.log(vals)
            s = probe_points(logs[0], rng, count=40)
            s = s[(s > logs[0][0]) & (s < logs[0][-1])]
            got = bits([tail.log_tail(float(v)) for v in s])
            assert np.array_equal(got, bits([float(np.interp(v, *logs)) for v in s])), (xs, vals)


class TestTabulatedScalarCall:
    def test_equals_the_np_interp_form(self):
        rng = np.random.default_rng(2)
        tables = bound_tables() + [
            natural_envelope(ParetoPower(6.0, centered=True), "martingale"),
            natural_envelope(Weibull(0.5), "common_independent"),
        ]
        for env in tables:
            ps = probe_points(env.p_grid, rng)
            ps = ps[np.isfinite(ps) & (ps >= 1.0)]
            got = bits([env(p) for p in ps])
            want = bits([old_value(env, p) if env.support.contains(p) else math.inf for p in ps])
            assert np.array_equal(got, want)
            assert np.array_equal(got, bits(env.values_at(ps)))

    def test_open_grid_end_is_infinite(self):
        env = Tabulated(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.5, 2.5]), upper_closed=False)
        assert env(3.0) == math.inf
        assert env(math.nextafter(3.0, 0.0)) == old_value(env, math.nextafter(3.0, 0.0))
        assert env.values_at([2.5, 3.0])[1] == math.inf


RESCALED = [
    name for name in SCENARIOS
    if scenario_plan(name).x_grid and scenario_plan(name).fit_tail_rescale
]


@pytest.mark.parametrize("name", RESCALED)
def test_fitted_tails_keep_their_bits(monkeypatch, name):
    plan = scenario_plan(name)

    def fitted():
        spec = ConjugateSpec(plan.bound_envelope, norm_factor=plan.tail_norm_factor)
        tail = ConjugateTail(spec)
        rescales = [fit_tail_rescale(tail, plan.x_grid[0], t) for t in (0.3, 1e-2, 1e-4)]
        values = [tail_from_envelope(spec, x / c) for x in plan.x_grid for c in (1.0, *rescales)]
        return rescales + values

    new = fitted()
    monkeypatch.setattr(Tabulated, "_value", old_value)
    assert np.array_equal(bits(new), bits(fitted()))
