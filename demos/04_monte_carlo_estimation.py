"""Monte Carlo estimation of extended divergences and mixture normalizers.

The estimators are deterministic functions of (samples, seed, chunk_size):
chunk k draws from a generator seeded with the k-th child that
numpy's SeedSequence(seed).spawn hands out, so nearby seeds give independent
streams, and partial sums merge in chunk order, so thread counts never change
the bits.
"""

import math

from geojsd import (
    EstimatorConfig,
    GaussianParams,
    MeanSpec,
    arithmetic_mixture_proposal,
    bhattacharyya_gaussian,
    estimate_js_m_extended,
    estimate_z,
    gaussian_sampled,
    gjsd_extended_gaussian,
)

g1 = GaussianParams.univariate(0.0, 1.0)
g2 = GaussianParams.univariate(1.0, 1.0)
d1, d2 = gaussian_sampled(g1), gaussian_sampled(g2)
geometric = MeanSpec.geometric()

z_exact = math.exp(-bhattacharyya_gaussian(g1, g2))
js_exact = gjsd_extended_gaussian(g1, g2)
print(f"N(0,1) vs N(1,1): exact Z_G = {z_exact:.6f}, "
      f"exact extended G-JSD = {js_exact:.6f}")
print()

print("estimate of the geometric normalizer, growing sample sizes:")
print(f"{'samples':>9}  {'estimate':>10}  {'std error':>10}  {'true error':>10}")
for samples in (1_000, 10_000, 100_000, 1_000_000):
    cfg = EstimatorConfig(samples=samples, seed=2024)
    estimate, stderr = estimate_z(d1, d2, geometric, cfg)
    print(f"{samples:>9}  {estimate:10.6f}  {stderr:10.6f}  "
          f"{abs(estimate - z_exact):10.6f}")
print("(standard error follows the 1/sqrt(s) law)")
print()

cfg = EstimatorConfig(samples=1_000_000, seed=2024)
estimate, stderr = estimate_js_m_extended(d1, d2, geometric, cfg)
print(f"extended geometric JSD estimate = {estimate:.6f} +- {stderr:.6f}")
print(f"closed form                     = {js_exact:.6f}  "
      f"({abs(estimate - js_exact) / stderr:.2f} standard errors away)")
print()

# a proposal exactly matched to the arithmetic mixture integrand has zero
# variance: every sample contributes the identical value 1
cfg = EstimatorConfig(samples=10_000, seed=5)
matched = arithmetic_mixture_proposal(d1, d2)
print("matched-proposal estimate of the arithmetic normalizer:",
      estimate_z(d1, d2, MeanSpec.arithmetic(), cfg, proposal=matched))
print()

cfg = EstimatorConfig(samples=300_000, seed=99)
serial = estimate_js_m_extended(d1, d2, geometric, cfg, workers=1)
threaded = estimate_js_m_extended(d1, d2, geometric, cfg, workers=8)
print(f"1 worker : {serial}")
print(f"8 workers: {threaded}")
print(f"bit-identical: {serial == threaded}")
