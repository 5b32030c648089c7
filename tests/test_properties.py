"""Property tests over the model space: a drawn valid model verifies with the
same ``result_payload()`` at 1 and 2 threads and with the sampler's draws and
term blocks cut into tiny chunks."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polymoment import (
    CoefficientTensor,
    DependenceRegime,
    ExperimentPlan,
    Indicator,
    LogPowerOnly,
    ParetoPower,
    PolynomialModel,
    Rademacher,
    Scaled,
    Weibull,
    doob_experiment,
    run_experiment,
)
from polymoment import polymodel

# the sharing modes each regime allows
SHARING = {
    "common_independent": ("none",),
    "vector_independent": ("none",),
    "inside_independent": ("none", "vectors", "all"),
    "martingale": ("none", "vectors", "all"),
}
DISTS = (ParetoPower(6.0, standardized=True), Weibull(1.0, 1.5), LogPowerOnly(0.5), Rademacher())


@st.composite
def plans(draw):
    tag = draw(st.sampled_from(sorted(SHARING)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, d + 3))
    tensor = CoefficientTensor.uniform(d, n)
    if draw(st.booleans()):
        tensor = CoefficientTensor.random_unit(d, n, np.random.default_rng(draw(st.integers(0, 9))))
    model = PolynomialModel(
        d, n, tensor, DependenceRegime(tag, draw(st.sampled_from(("forward", "reverse")))),
        tuple(draw(st.sampled_from(DISTS)) for _ in range(d)),
        draw(st.sampled_from(SHARING[tag])),
    )
    window = None
    if draw(st.booleans()):
        lo = draw(st.integers(1, n - d + 1))
        window = (lo, draw(st.integers(lo + d - 1, n)))
    experiment = draw(st.sampled_from(("standard", "doob")))
    return dict(
        model=model, replications=draw(st.sampled_from((1000, 1025, 2100))),
        p_grid=(1.5, 3.0), x_grid=(1.0, 4.0), bound=Scaled(Indicator(r=10.0), 1e6),
        seed=draw(st.integers(0, 2 ** 64 - 1)), experiment=experiment, window=window,
        b_sweep=0 if window else draw(st.integers(0, 2)),
    )


def payload(**plan):
    experiment = doob_experiment if plan["experiment"] == "doob" else run_experiment
    return experiment(ExperimentPlan(**plan)).result_payload()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans())
def test_payload_ignores_threads_and_block_size(plan):
    want = payload(**plan, threads=1)
    assert payload(**plan, threads=2) == want
    with pytest.MonkeyPatch.context() as mp:
        # a draw chunk of one row and term blocks of one product
        mp.setattr(polymodel, "BLOCK_ELEMENTS", 1)
        assert payload(**plan, threads=1) == want
