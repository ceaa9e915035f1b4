"""Projective gamma-divergences: no normalizers needed.

D_gamma is invariant under independent rescaling of its arguments and tends
to the KL divergence as gamma -> 0, which makes it the tool of choice for
densities whose normalizer is unknown, like polynomial exponential families.
"""

import math

import numpy as np

from geojsd import (
    EstimatorConfig,
    ExpFamily,
    ExpFamilyDensity,
    GaussianParams,
    MeanSpec,
    SampledDensity,
    gamma_divergence,
    gaussian_family,
    gaussian_sampled,
    gjsd_gaussian,
    js_m_gamma,
    kl_gaussian,
    natural_flat,
    skew_jensen,
)

fam = gaussian_family(1)
g1 = GaussianParams.univariate(0.0, 1.0)
g2 = GaussianParams.univariate(1.0, 2.0)
e1 = ExpFamilyDensity(fam, natural_flat(g1))
e2 = ExpFamilyDensity(fam, natural_flat(g2))

print("gamma -> 0 recovers the KL divergence (closed-form route):")
kl_exact = kl_gaussian(g1, g2)
for gamma in (1e-1, 1e-2, 1e-3, 1e-4):
    value = gamma_divergence(e1, e2, gamma)
    print(f"  gamma = {gamma:7.4f}  D_gamma = {value:.6f}  "
          f"|D_gamma - KL| = {abs(value - kl_exact):.2e}")
print(f"  KL = {kl_exact:.6f}")
print()

scaled1 = ExpFamilyDensity(fam, e1.theta, log_scale=math.log(2.0))
scaled2 = ExpFamilyDensity(fam, e2.theta, log_scale=math.log(3.0))
print("projectivity: D_gamma(2 q1, 3 q2) - D_gamma(q1, q2) =",
      f"{gamma_divergence(scaled1, scaled2, 0.5) - gamma_divergence(e1, e2, 0.5):.2e}")
print()

print("projective M-JSD at gamma = 1e-3 vs the normalized geometric JSD:")
approx = js_m_gamma(e1, e2, MeanSpec.geometric(), 1e-3)
exact = gjsd_gaussian(g1, g2)
print(f"  js_m_gamma = {approx:.6f}, gjsd = {exact:.6f}, "
      f"diff = {abs(approx - exact):.2e}")
print()

# A quartic polynomial exponential family: the cumulant has no closed form,
# so the family carries cumulant=None and every query goes through sampled
# densities and Monte Carlo moment integrals.
quartic = ExpFamily(dim=4, cumulant=None, name="polynomial_quartic")
try:
    skew_jensen(quartic, np.zeros(4), np.zeros(4))
except ValueError as exc:
    print(f"closed-form route refuses the quartic family:\n  {exc}")
print()


def quartic_log_density(theta):
    def log_q(x):
        x = np.asarray(x, dtype=float)
        return (theta[0] * x + theta[1] * x ** 2 + theta[2] * x ** 3
                + theta[3] * x ** 4)

    return log_q


t1 = np.array([0.0, 0.5, 0.0, -0.25])
t2 = np.array([0.3, 0.3, 0.05, -0.25])
q1 = SampledDensity(quartic_log_density(t1))
q2 = SampledDensity(quartic_log_density(t2))
proposal = gaussian_sampled(GaussianParams.univariate(0.0, 2.0))
cfg = EstimatorConfig(samples=400_000, seed=31)
mc = gamma_divergence(q1, q2, 0.5, "monte_carlo", cfg=cfg, proposal=proposal)
quad = gamma_divergence(q1, q2, 0.5, "quadrature", support=(-8.0, 8.0))
print("gamma-divergence between two unnormalized quartic densities:")
print(f"  Monte Carlo = {mc:.6f}")
print(f"  quadrature  = {quad:.6f}")
print(f"  difference  = {abs(mc - quad):.2e}")
