"""From moment envelopes to tail bounds by convex conjugation.

Markov's inequality at every admissible exponent gives
P(|xi| >= x) <= inf_p (k nu(p) / x)^p, the Young-Fenchel transform of
p log(k nu(p)) in disguise.  Heavier envelopes conjugate to fatter tails.
"""

import math

import numpy as np

from polymoment import (
    ConjugateSpec,
    Indicator,
    PowerGrowth,
    SlowlyVarying,
    Tabulated,
    dominance_check,
    log_tail_from_envelope,
    natural_moments_pareto_power,
    regular_variation_tail,
    tabulate_envelope,
    tail_from_envelope,
)

# An indicator envelope (a plain L_r bound) conjugates to the Tchebychev
# tail x^(-r); at x = 10 with r = 4 that is exactly 1e-4.
spec = ConjugateSpec(Indicator(r=4.0))
print("L_4 bound conjugates to x^-4:")
for x in [2.0, 10.0, 100.0]:
    note = " (vacuous below e)" if x <= math.e else ""
    print(f"  T({x}) = {tail_from_envelope(spec, x):.3e}{note}")

# A sub-gaussian envelope sqrt(p) conjugates to exp(-x^2/(2e)).
gauss = ConjugateSpec(PowerGrowth(growth=0.5), p_grid=np.geomspace(1.001, 4000, 300))
print("\nsub-gaussian envelope: log T(x) / x^2 approaches -1/(2e) =",
      f"{-1 / (2 * math.e):.5f}")
for x in [10.0, 40.0, 80.0]:
    print(f"  x={x:<5} log T / x^2 = {log_tail_from_envelope(gauss, x) / x**2:.5f}")

# The closed regular-variation form: moments growing like
# (r-p)^(-(gamma+1)) L give tails of order x^-r (log x)^(gamma+1) L(log x).
print("\nclosed-form regular-variation tail (r=4, gamma=0):")
for x in [10.0, 100.0, 1000.0]:
    print(f"  T({x}) = {regular_variation_tail(4.0, 0.0, None, x):.3e}")

# Dominance check: compare an empirical tail of the Pareto-power benchmark
# against the conjugate of its natural envelope; the spec is the tail bound.
rng = np.random.default_rng(7)
xs = (1.0 - rng.random(500000)) ** (-0.25)
env = tabulate_envelope(
    lambda p: natural_moments_pareto_power(4.0, p), np.linspace(1.0, 3.996, 257)
)
bench = ConjugateSpec(env)


def empirical(x):
    est = float(np.mean(xs >= x))
    return est, math.sqrt(est * (1.0 - est) / xs.size)


report = dominance_check(bench, empirical, [5.0, 10.0, 20.0, 50.0])
print("\nempirical Pareto-power tail vs conjugate bound:")
for row in report.rows:
    print(f"  x={row.x:<5} empirical {row.empirical:.2e}  bound {row.bound:.2e}"
          f"  {'pass' if row.passed else 'VIOLATION'}")
print("all pass:", report.passed)
