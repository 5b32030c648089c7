"""Workload definitions: which cases one pass runs, and in how many processes.

A *unit* is one fresh interpreter; a *case* is one verification inside it.
Every seed offset is added to the case's base seed, so ``--seed 0``
reproduces the bundled scenario seeds and the acceptance battery seed.
"""

SEED_MOD = 1 << 63

SCENARIOS = (
    ("pareto_d2_common", 20260808),
    ("pareto_d2_inside", 20260810),
    ("pareto_d2_martingale", 20260812),
    ("pareto_d2_vector", 20260811),
    ("pareto_diagonal_degree2", 20260814),
    ("pareto_reverse_window", 20260815),
    ("rademacher_d1_doob", 20260813),
    ("rademacher_d2_common", 20260809),
)

# Pareto tail indices of the inputs, by degree, as in the acceptance battery
PARETO_TAILS = {1: [6.0], 2: [6.0, 8.0], 3: [6.0, 8.0, 6.0]}

# criterion 06 of the acceptance suite: 4 regimes x d in {1,2,3} x n in {5,20};
# the replication count keeps run_s above 2/3 of wall_s, so sampling dominates
BATTERY_SEED = 20260806
BATTERY_REPS = 350_000
BATTERY_REGIMES = ("common_independent", "inside_independent", "vector_independent", "martingale")

# non-uniform tensors: (label, d, n, regime, direction, experiment, window, b_sweep, reps)
GENERAL_SEED = 20260816
GENERAL_THREADS = 2
GENERAL_CASES = (
    ("martingale_d3_n20", 3, 20, "martingale", "forward", "standard", None, 0, 80_000),
    ("vector_d3_n20", 3, 20, "vector_independent", "forward", "standard", None, 0, 80_000),
    ("doob_d2_n12", 2, 12, "martingale", "forward", "doob", None, 0, 200_000),
    ("reverse_window_d2_n12", 2, 12, "martingale", "reverse", "standard", (3, 12), 0, 200_000),
    ("sweep_d2_n12", 2, 12, "common_independent", "forward", "standard", None, 8, 200_000),
)


def case_seed(base: int, offset: int) -> int:
    return (base + offset) % SEED_MOD


def units(workload: str, seed: int) -> list:
    """The child-process specs of one pass, in run order."""
    if workload == "cli_scenarios":
        return [
            {"kind": "cli", "scenario": name, "seed": case_seed(base, seed)}
            for name, base in SCENARIOS
        ]
    if workload == "battery":
        return [{"kind": "battery", "seed": case_seed(BATTERY_SEED, seed), "reps": BATTERY_REPS}]
    if workload == "general_tensor":
        return [{"kind": "general", "seed": case_seed(GENERAL_SEED, seed)}]
    raise KeyError(workload)


WORKLOADS = ("cli_scenarios", "battery", "general_tensor")


def pareto_inputs(tag: str, d: int) -> tuple:
    """Standardized Pareto-power inputs, centered in the independent regimes."""
    from polymoment import ParetoPower

    centered = tag in ("common_independent", "inside_independent")
    return tuple(ParetoPower(r, centered=centered, standardized=True) for r in PARETO_TAILS[d])


def battery_models():
    """Regimes x degrees x horizons with standardized Pareto-power inputs."""
    from polymoment import CoefficientTensor, DependenceRegime, PolynomialModel

    for tag in BATTERY_REGIMES:
        for d in (1, 2, 3):
            for n in (5, 20):
                dists = pareto_inputs(tag, d)
                sharing = "vectors" if tag == "inside_independent" else "none"
                model = PolynomialModel(
                    d, n, CoefficientTensor.uniform(d, n),
                    DependenceRegime(tag), dists, sharing=sharing,
                )
                yield f"{tag}_d{d}_n{n}", model


def general_models(seed: int):
    """Models with random unit-ball tensors drawn from ``seed``."""
    import numpy as np

    from polymoment import CoefficientTensor, DependenceRegime, PolynomialModel

    rng = np.random.default_rng(seed)
    for label, d, n, tag, direction, experiment, window, b_sweep, reps in GENERAL_CASES:
        model = PolynomialModel(
            d, n, CoefficientTensor.random_unit(d, n, rng),
            DependenceRegime(tag, direction), pareto_inputs(tag, d),
        )
        yield label, model, {
            "experiment": experiment, "window": window, "b_sweep": b_sweep, "reps": reps,
        }
