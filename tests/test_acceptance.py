"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The checks run at their stated tolerances against this module's own corpus
generators and the quadrature oracle; run with ``pytest -s`` to see the
per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

import geojsd as gj
from geojsd import DiscreteDensity, GaussianParams, MeanSpec
from geojsd.verification import gaussian_quadrature_oracles

GEO = MeanSpec.geometric()
ARITH = MeanSpec.arithmetic()

ACCEPTANCE_MEANS = (
    ARITH,
    GEO,
    MeanSpec.power(-2.0),
    MeanSpec.power(-0.5),
    MeanSpec.power(0.5),
    MeanSpec.power(2.0),
    MeanSpec.minimum(),
    MeanSpec.maximum(),
)

TRIPLE = (DiscreteDensity.probability([0.55, 0.45]),
          DiscreteDensity.probability([0.002, 0.998]),
          DiscreteDensity.probability([0.045, 0.955]))


def _gate(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


def _random_pairs(seed: int, count: int, max_size: int = 64):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        size = int(rng.integers(2, max_size + 1))
        w1 = rng.uniform(0.05, 1.0, size)
        w2 = rng.uniform(0.05, 1.0, size)
        pairs.append((DiscreteDensity.probability(w1 / w1.sum()),
                      DiscreteDensity.probability(w2 / w2.sum())))
    return pairs, rng


def _timed_triple(fn):
    """Distances and defect for the counterexample triple plus best runtime."""
    p1, p2, p3 = TRIPLE
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        d12, d13, d32 = fn(p1, p2), fn(p1, p3), fn(p3, p2)
        best = min(best, time.perf_counter() - start)
    return (d12, d13, d32, d12 - d13 - d32), best


def test_criterion_1_gjsd_metric_counterexample():
    # summed (two-term) symmetrization in nats, matching the references
    values, runtime = _timed_triple(
        lambda a, b: math.sqrt(2.0 * gj.js_m(a, b, GEO)))
    reference = (1.0263227, 0.63852342, 0.19794622, 0.1898531)
    worst = max(abs(v - r) for v, r in zip(values, reference))
    _gate("criterion 1: sqrt geometric JSD triangle counterexample",
          worst < 1e-6 and runtime < 1e-3,
          f"max deviation {worst:.2e}, runtime {runtime * 1e3:.3f} ms")


def test_criterion_2_extended_gjsd_counterexample():
    values, runtime = _timed_triple(
        lambda a, b: math.sqrt(2.0 * gj.js_m_extended(a, b, GEO)))
    reference = (1.0788275, 0.6691922, 0.1984633, 0.2111719)
    worst = max(abs(v - r) for v, r in zip(values, reference))
    _gate("criterion 2: sqrt extended geometric JSD counterexample",
          worst < 1e-6 and runtime < 1e-3,
          f"max deviation {worst:.2e}, runtime {runtime * 1e3:.3f} ms")


def test_criterion_3_mixture_kl_counterexample():
    values, runtime = _timed_triple(
        lambda a, b: math.sqrt(gj.kl_between_mixtures(a, b, ARITH, GEO)))
    # references ordered as (p1,p2), (p1,p3), (p3,p2)
    reference = (0.5374165, 0.1759400, 0.08485931, 0.2766171)
    worst = max(abs(v - r) for v, r in zip(values, reference))
    _gate("criterion 3: sqrt KL between A- and G-mixtures counterexample",
          worst < 1e-6 and runtime < 1e-3,
          f"max deviation {worst:.2e}, runtime {runtime * 1e3:.3f} ms")


def test_criterion_4_identity_suite():
    start = time.perf_counter()
    pairs, _ = _random_pairs(seed=1404, count=1000)
    worst = 0.0
    for p1, p2 in pairs:
        plain_js = gj.js(p1, p2)
        entropy_avg = 0.5 * (gj.shannon_entropy(p1) + gj.shannon_entropy(p2))
        a_mix, _ = gj.m_mixture(p1, p2, ARITH)
        for mean in ACCEPTANCE_MEANS:
            value = gj.js_m(p1, p2, mean)
            extended = gj.js_m_extended(p1, p2, mean)
            mix, z = gj.m_mixture(p1, p2, mean)
            worst = max(
                worst,
                abs(extended - value - (z - math.log(z) - 1.0)),
                abs(value - plain_js - gj.kl(a_mix, mix)),
                abs(value - (gj.cross_entropy(a_mix, mix) - entropy_avg)),
            )
        quarter_j = 0.25 * gj.jeffreys(p1, p2)
        bc = gj.bhattacharyya_coefficient(p1, p2)
        worst = max(
            worst,
            abs(gj.js_m(p1, p2, GEO) - (quarter_j - gj.bhattacharyya(p1, p2))),
            abs(gj.js_m_extended(p1, p2, GEO) - (quarter_j + bc - 1.0)),
            abs(gj.f_divergence(p1, p2, gj.F_EXTENDED_GJS)
                - gj.js_m_extended(p1, p2, GEO)),
        )
    elapsed = time.perf_counter() - start
    _gate("criterion 4: identity suite over 1000 random pairs",
          worst < 1e-12 and elapsed < 5.0,
          f"max residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_5_bound_suite():
    start = time.perf_counter()
    pairs, _ = _random_pairs(seed=1405, count=1000)
    slack = 1e-12  # floating-point rounding allowance
    violations = 0
    for p1, p2 in pairs:
        tv = gj.total_variation(p1, p2)
        plain_js = gj.js(p1, p2)
        quarter_j = 0.25 * gj.jeffreys(p1, p2)
        for mean in ACCEPTANCE_MEANS:
            _, z = gj.m_mixture(p1, p2, mean)
            if not (1.0 - tv - slack <= z <= 1.0 + tv + slack):
                violations += 1
            value = gj.js_m(p1, p2, mean)
            if value < plain_js - slack:
                violations += 1
            if gj.js_m_extended(p1, p2, mean) < value - slack:
                violations += 1
        if gj.js_m_extended(p1, p2, MeanSpec.maximum()) > tv + slack:
            violations += 1
        if math.isfinite(quarter_j) and \
                gj.js_m_extended(p1, p2, MeanSpec.minimum()) \
                < quarter_j - tv - slack:
            violations += 1
        if gj.f_divergence(p1, p2, gj.F_BHATTACHARYYA_COEFF) > 1.0 + slack:
            violations += 1
    elapsed = time.perf_counter() - start
    _gate("criterion 5: bound suite over 1000 random pairs",
          violations == 0 and elapsed < 5.0,
          f"{violations} violations, {elapsed:.2f} s")


def test_criterion_6_information_monotonicity():
    start = time.perf_counter()
    pairs, rng = _random_pairs(seed=1406, count=500, max_size=32)
    generators = (gj.F_JS, gj.F_EXTENDED_GJS, gj.F_JEFFREYS, gj.F_TANEJA)
    worst_slack = 0.0
    for p1, p2 in pairs:
        size = p1.size
        n_bins = int(rng.integers(1, size))
        binmap = np.concatenate([np.arange(n_bins),
                                 rng.integers(0, n_bins, size - n_bins)])
        rng.shuffle(binmap)
        c1, c2 = gj.coarse_grain(p1, binmap), gj.coarse_grain(p2, binmap)
        for gen in generators:
            drop = gj.f_divergence(p1, p2, gen) - gj.f_divergence(c1, c2, gen)
            worst_slack = min(worst_slack, drop)
    elapsed = time.perf_counter() - start
    _gate("criterion 6: information monotonicity under coarse-graining",
          worst_slack >= -1e-12 and elapsed < 5.0,
          f"min slack {worst_slack:.2e}, {elapsed:.2f} s")


def test_criterion_7_gaussian_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1407)

    worst_quad = 0.0
    for _ in range(20):
        m1, m2 = rng.uniform(-3.0, 3.0, 2)
        s1, s2 = rng.uniform(0.3, 2.5, 2)
        g1 = GaussianParams.univariate(m1, s1 ** 2)
        g2 = GaussianParams.univariate(m2, s2 ** 2)
        oracle = gaussian_quadrature_oracles(m1, s1, m2, s2)
        worst_quad = max(
            worst_quad,
            abs(gj.kl_gaussian(g1, g2) - oracle["kl"]),
            abs(gj.jeffreys_gaussian(g1, g2) - oracle["jeffreys"]),
            abs(gj.bhattacharyya_gaussian(g1, g2) - oracle["bhattacharyya"]),
            abs(gj.gjsd_gaussian(g1, g2) - oracle["gjsd"]),
            abs(gj.gjsd_extended_gaussian(g1, g2) - oracle["gjsd_extended"]),
            abs(gj.tv_gaussian_1d(m1, s1, m2, s2) - oracle["tv"]),
        )

    def random_gaussian(d):
        mu = rng.uniform(-3.0, 3.0, d)
        a = rng.normal(size=(d, d))
        return GaussianParams(mu, a @ a.T + (0.4 + rng.uniform()) * np.eye(d))

    worst_routes = 0.0
    for d in (2, 3):
        for _ in range(10):
            g1, g2 = random_gaussian(d), random_gaussian(d)
            identity_route = (0.25 * gj.jeffreys_gaussian(g1, g2)
                              - gj.bhattacharyya_gaussian(g1, g2))
            alpha = float(rng.uniform(0.1, 0.9))
            jensen = gj.skew_jensen(gj.gaussian_family(d),
                                    gj.natural_flat(g1), gj.natural_flat(g2),
                                    alpha)
            worst_routes = max(
                worst_routes,
                abs(gj.gjsd_gaussian(g1, g2) - identity_route),
                abs(gj.bhattacharyya_gaussian(g1, g2, alpha) - jensen),
            )

    worst_affine = 0.0
    for d in (1, 2, 3):
        for _ in range(5):
            g1, g2 = random_gaussian(d), random_gaussian(d)
            a = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            b = rng.uniform(-2.0, 2.0, d)
            t1 = GaussianParams(a @ g1.mu + b, a @ g1.sigma @ a.T)
            t2 = GaussianParams(a @ g2.mu + b, a @ g2.sigma @ a.T)
            for fn in (gj.kl_gaussian, gj.jeffreys_gaussian,
                       gj.bhattacharyya_gaussian, gj.gjsd_gaussian,
                       gj.gjsd_extended_gaussian):
                worst_affine = max(worst_affine, abs(fn(t1, t2) - fn(g1, g2)))

    elapsed = time.perf_counter() - start
    _gate("criterion 7: Gaussian closed forms vs oracle and cross-routes",
          worst_quad < 1e-6 and worst_routes < 1e-10
          and worst_affine < 1e-9 and elapsed < 30.0,
          f"quadrature {worst_quad:.2e}, routes {worst_routes:.2e}, "
          f"affine {worst_affine:.2e}, {elapsed:.1f} s")


def test_criterion_8_chernoff_equalizer():
    start = time.perf_counter()
    pairs, _ = _random_pairs(seed=1408, count=100, max_size=32)
    grid = np.arange(1e-3, 1.0, 1e-3)
    worst_gap = 0.0
    worst_excess = 0.0
    for p1, p2 in pairs:
        value, alpha_star = gj.chernoff(p1, p2)
        mix, _ = gj.m_mixture(p1, p2, MeanSpec.geometric(alpha_star))
        worst_gap = max(worst_gap, abs(gj.kl(mix, p1) - gj.kl(mix, p2)))
        log_w1, log_w2 = np.log(p1.weights), np.log(p2.weights)
        coeffs = np.exp(np.outer(grid, log_w1)
                        + np.outer(1.0 - grid, log_w2)).sum(axis=1)
        worst_excess = max(worst_excess,
                           float((-np.log(coeffs)).max()) - value)
    elapsed = time.perf_counter() - start
    _gate("criterion 8: Chernoff equalizer and grid dominance (100 pairs)",
          worst_gap < 1e-8 and worst_excess <= 1e-12 and elapsed < 10.0,
          f"max equalizer gap {worst_gap:.2e}, grid excess {worst_excess:.2e}, "
          f"{elapsed:.2f} s")


def test_criterion_9_monte_carlo_convergence():
    start = time.perf_counter()
    g1 = GaussianParams.univariate(0.0, 1.0)
    g2 = GaussianParams.univariate(1.0, 1.0)
    d1, d2 = gj.gaussian_sampled(g1), gj.gaussian_sampled(g2)
    closed = gj.gjsd_extended_gaussian(g1, g2)

    cfg = gj.EstimatorConfig(samples=1_000_000, seed=1409)
    estimate, stderr = gj.estimate_js_m_extended(d1, d2, GEO, cfg)
    within_band = abs(estimate - closed) <= 4.0 * stderr

    sizes = [1_000, 10_000, 100_000, 1_000_000]
    errors = [gj.estimate_js_m_extended(
        d1, d2, GEO, gj.EstimatorConfig(samples=s, seed=1409))[1]
        for s in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    _gate("criterion 9: Monte Carlo band and 1/sqrt(s) convergence",
          within_band and -0.6 <= slope <= -0.4 and elapsed < 60.0,
          f"|est-closed| = {abs(estimate - closed):.2e} vs 4se = "
          f"{4 * stderr:.2e}, slope {slope:.3f}, {elapsed:.1f} s")


def test_criterion_10_gamma_approximation():
    start = time.perf_counter()
    gammas = (1e-2, 1e-3, 1e-4)

    p1 = DiscreteDensity.probability([0.5, 0.3, 0.2])
    p2 = DiscreteDensity.probability([0.2, 0.5, 0.3])
    kl_discrete = gj.kl(p1, p2)
    discrete_gaps = [abs(gj.gamma_divergence(p1, p2, g) - kl_discrete)
                     for g in gammas]

    g1 = GaussianParams.univariate(0.0, 1.0)
    g2 = GaussianParams.univariate(1.0, 2.0)
    fam = gj.gaussian_family(1)
    e1 = gj.ExpFamilyDensity(fam, gj.natural_flat(g1))
    e2 = gj.ExpFamilyDensity(fam, gj.natural_flat(g2))
    kl_gauss = gj.kl_gaussian(g1, g2)
    gauss_gaps = [abs(gj.gamma_divergence(e1, e2, g) - kl_gauss)
                  for g in gammas]

    monotone = (discrete_gaps[0] > discrete_gaps[1] > discrete_gaps[2]
                and gauss_gaps[0] > gauss_gaps[1] > gauss_gaps[2])
    close = discrete_gaps[1] < 5e-3 and gauss_gaps[1] < 5e-3
    elapsed = time.perf_counter() - start
    _gate("criterion 10: gamma-divergence converges to KL",
          monotone and close and elapsed < 10.0,
          f"discrete gaps {discrete_gaps[1]:.2e}, gaussian {gauss_gaps[1]:.2e}, "
          f"{elapsed:.2f} s")


def test_criterion_11_determinism():
    start = time.perf_counter()
    g1 = GaussianParams.univariate(0.0, 1.0)
    g2 = GaussianParams.univariate(1.0, 1.0)
    d1, d2 = gj.gaussian_sampled(g1), gj.gaussian_sampled(g2)
    cfg = gj.EstimatorConfig(samples=250_000, seed=1411, chunk_size=8192)

    identical = True
    for fn in (lambda w: gj.estimate_z(d1, d2, GEO, cfg, workers=w),
               lambda w: gj.estimate_kl_extended(d1, d2, GEO, cfg, workers=w),
               lambda w: gj.estimate_js_m_extended(d1, d2, GEO, cfg, workers=w)):
        runs = [fn(workers) for workers in (1, 8, 1, 8)]
        identical = identical and len(set(runs)) == 1

    mc_cfg = gj.EstimatorConfig(samples=100_000, seed=1411)
    proposal = gj.arithmetic_mixture_proposal(d1, d2)
    mc_runs = {gj.gamma_divergence(d1, d2, 0.5, "monte_carlo", cfg=mc_cfg,
                                   proposal=proposal, workers=w)
               for w in (1, 8, 1, 8)}
    identical = identical and len(mc_runs) == 1
    elapsed = time.perf_counter() - start
    _gate("criterion 11: bit-identical estimates across runs and threads",
          identical and elapsed < 30.0,
          f"{elapsed:.1f} s")
