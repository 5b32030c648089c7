"""Moment envelopes and tail bounds for multilinear heavy-tailed sums.

The package is organised as a small calculus:

* :mod:`polymoment.envelope` - moment envelopes (the ``nu(p)`` functions),
  moment norms, exact benchmark moments, moment/tail conversions and
  empirical estimation;
* :mod:`polymoment.calculus` - the infimal Hoelder composition of envelopes
  and the recursive bound chains for four dependence regimes, forward and
  reverse, plus maximal-inequality and good-lambda helpers;
* :mod:`polymoment.tails` - tail bounds by convex conjugation of envelopes;
* :mod:`polymoment.polymodel` - concrete sampled models of the multilinear
  sums the bounds apply to;
* :mod:`polymoment.mcverify` - the Monte Carlo verification engine and exact
  small-instance oracles;
* :mod:`polymoment.cli` - the ``polymoment`` command line front end.
"""

__version__ = "0.1.0"

from .envelope import (  # noqa: F401
    EnvelopeDomainError,
    Indicator,
    InfiniteMomentError,
    MomentEnvelope,
    MomentEstimate,
    PowerGrowth,
    PowerSingularity,
    Product,
    RegularVariationTail,
    Scaled,
    SlowlyVarying,
    SupportInterval,
    Tabulated,
    TabulatedTail,
    TailBound,
    WeibullTail,
    empirical_moments,
    gls_norm,
    moments_from_tail,
    natural_moments_pareto_power,
    tabulate_envelope,
)
from .calculus import (  # noqa: F401
    COMMON_INDEPENDENT,
    FORWARD,
    INSIDE_INDEPENDENT,
    MARTINGALE,
    REVERSE,
    VECTOR_INDEPENDENT,
    ChainFeasibilityError,
    DependenceRegime,
    GrowthConstant,
    OtimesResult,
    ZetaChain,
    combined_exponent,
    doob_maximal_envelope,
    good_lambda_envelope,
    otimes,
    otimes_chain,
    polynomial_dominant_envelope,
    zeta_chain,
)
from .tails import (  # noqa: F401
    ConjugateSpec,
    TailDominanceReport,
    dominance_check,
    fit_tail_rescale,
    log_tail_from_envelope,
    regular_variation_tail,
    tail_from_envelope,
    tail_inf_form,
)
from .polymodel import (  # noqa: F401
    CoefficientTensor,
    CustomQuantile,
    DoubleExpDiscrete,
    InputDistribution,
    LogPerturbedPareto,
    LogPowerOnly,
    ParetoPower,
    PolynomialModel,
    Rademacher,
    Weibull,
    enumerate_indices,
    natural_envelope,
    sample_Q,
    sample_R,
    sample_cells,
    sample_reverse_V,
    save_samples,
    stratified_moment,
    variance_of_Q,
)
from .mcverify import (  # noqa: F401
    ConvergenceReport,
    ExperimentPlan,
    MomentRow,
    NumericFailure,
    VerificationReport,
    auto_p_grid,
    brute_force_moments,
    convergence_diagnostics,
    doob_experiment,
    natural_zeta_chain,
    run_experiment,
)
