"""The robustness table: every documented input family, regime, sharing mode,
direction and experiment samples and verifies through the config path, and
its result does not depend on the thread count.

Each row is a d = 1, 2 or 3 model at n = 4.  The 56 rows cross the 7 input
families with the 8 (regime, sharing) pairs the model allows; the direction,
the experiment, the degree and the tensor kind rotate with the row number so
that each family and each pair meets both directions, both experiments and
all three degrees.  One reverse index-window row and one multiplicities row
complete it.
"""

import numpy as np
import pytest

from polymoment import (
    CoefficientTensor,
    CustomQuantile,
    DependenceRegime,
    DoubleExpDiscrete,
    LogPerturbedPareto,
    LogPowerOnly,
    ParetoPower,
    PolynomialModel,
    Rademacher,
    SlowlyVarying,
    Weibull,
    doob_experiment,
    run_experiment,
)
from polymoment.mcverify import plan_from_config
from polymoment.polymodel import model_from_config, model_to_config

FAMILIES = {
    "pareto_power": ParetoPower(4.0, centered=True, standardized=True),
    "log_perturbed_pareto": LogPerturbedPareto(4.0, 0.5, SlowlyVarying.log_power(1.0)),
    "log_power": LogPowerOnly(0.7),
    "double_exp_discrete": DoubleExpDiscrete(),
    "weibull": Weibull(1.0, 2.0),
    "rademacher": Rademacher(),
    # Pareto 4's survival quantile, given as a function: not serialisable
    "custom_quantile": CustomQuantile(quantile=lambda u: u ** -0.25, boundary=4.0),
}
REGIMES = [
    ("common_independent", "none"),
    ("vector_independent", "none"),
    ("inside_independent", "none"),
    ("inside_independent", "vectors"),
    ("inside_independent", "all"),
    ("martingale", "none"),
    ("martingale", "vectors"),
    ("martingale", "all"),
]


def table():
    rows = []
    for j, (tag, sharing) in enumerate(REGIMES):
        for i, family in enumerate(FAMILIES):
            k = i + len(FAMILIES) * j
            rows.append(dict(
                family=family, tag=tag, sharing=sharing,
                direction=("forward", "reverse")[k % 2],
                experiment=("standard", "doob")[k // 2 % 2],
                d=1 + k % 3, general=k // 4 % 2 == 1,
            ))
    rows.append(dict(family="pareto_power", tag="martingale", sharing="none", direction="reverse",
                     experiment="standard", d=2, general=False, window=[2, 4]))
    rows.append(dict(family="pareto_power", tag="common_independent", sharing="none",
                     direction="forward", experiment="standard", d=3, general=True,
                     multiplicities=(2, 1)))
    return rows


def row_id(row):
    extra = "-window" if "window" in row else "-mult" if "multiplicities" in row else ""
    kind = "general" if row["general"] else "uniform"
    return (f"{row['family']}-{row['tag']}-{row['sharing']}-{row['direction']}"
            f"-{row['experiment']}-d{row['d']}-{kind}{extra}")


def model_and_plan(row):
    """The row's model, through a config round trip where it serialises, and its plan config."""
    mult = row.get("multiplicities")
    slots = len(mult) if mult else row["d"]
    tensor = CoefficientTensor.uniform(slots, 4)
    if row["general"]:
        tensor = CoefficientTensor.random_unit(slots, 4, np.random.default_rng(slots))
    model = PolynomialModel(
        row["d"], 4, tensor, DependenceRegime(row["tag"], row["direction"]),
        (FAMILIES[row["family"]],) * slots, row["sharing"], mult,
    )
    if row["family"] != "custom_quantile":
        model = model_from_config(model_to_config(model))
    bound = {"kind": "zeta_natural", "points": 65}
    if mult:
        bound = {"kind": "dominant", "scale": 400.0, "tails": [[4.0, 0.0]] * 3}
    plan = {
        "replications": 2000, "p_grid": {"kind": "auto", "points": 3}, "x_grid": [2.0, 10.0],
        "bound": bound, "seed": 7, "experiment": row["experiment"],
        "b_sweep": 0 if "window" in row else 2, "window": row.get("window"),
    }
    return model, plan


def payload(model, plan, threads):
    plan = plan_from_config({**plan, "threads": threads}, model)
    report = doob_experiment(plan) if plan.experiment == "doob" else run_experiment(plan)
    return report.result_payload()


@pytest.mark.parametrize("row", table(), ids=row_id)
def test_row_verifies_alike_at_one_and_two_threads(row):
    # every row verifies: none raises, not even one of README's documented
    # bad-input or numeric-failure exceptions
    model, plan = model_and_plan(row)
    assert payload(model, plan, 1) == payload(model, plan, 2)


def test_the_table_covers_every_documented_combination():
    rows = table()
    for key, values in [("direction", ("forward", "reverse")),
                        ("experiment", ("standard", "doob")), ("d", (1, 2, 3))]:
        for family in FAMILIES:
            assert {r[key] for r in rows if r["family"] == family} == set(values)
        for pair in REGIMES:
            assert {r[key] for r in rows if (r["tag"], r["sharing"]) == pair} == set(values)
    for pair in REGIMES:
        assert {r["family"] for r in rows if (r["tag"], r["sharing"]) == pair} == set(FAMILIES)
    assert {r["general"] for r in rows} == {False, True}
