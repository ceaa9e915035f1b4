"""Self-verification suites: identities, bounds, counterexamples, oracles.

Every computable claim the library rests on is re-checked here at runtime:
algebraic identities between divergences on random corpora, normalizer and
divergence bounds, the triangle-inequality counterexamples with their
reference defects, closed-form Gaussian formulas against an independent
adaptive-Simpson quadrature oracle, and the Monte Carlo convergence laws.

The suites back ``geojsd verify`` and the acceptance tests.  Checks are
deterministic: corpora come from seeded generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import discrete, estimate, expfam, gaussian
from ._kernels import logsumexp
from ._suites import SUITE_NAMES
from .discrete import DiscreteDensity
from .logbase import BITS
from .means import MeanSpec

__all__ = [
    "Check",
    "adaptive_simpson",
    "gaussian_quadrature_oracles",
    "random_pair",
    "run_suite",
    "SUITES",
    "COUNTEREXAMPLE_TRIPLE",
]

DEFAULT_SEED = 20250810

# Triple of two-atom densities on which sqrt of the (summed, two-term,
# natural-log) geometric JSDs violates the triangle inequality, with the
# reference distances and defects they must reproduce to 1e-6.
COUNTEREXAMPLE_TRIPLE = (
    (0.55, 0.45),
    (0.002, 0.998),
    (0.045, 0.955),
)
REFERENCE_SUMMED_GJSD = (1.0263227, 0.63852342, 0.19794622, 0.1898531)
REFERENCE_SUMMED_EXTENDED_GJSD = (1.0788275, 0.6691922, 0.1984633, 0.2111719)
REFERENCE_KL_ARITH_GEO = (0.5374165, 0.1759400, 0.08485931, 0.2766171)

IDENTITY_MEANS = (
    MeanSpec.arithmetic(),
    MeanSpec.geometric(),
    MeanSpec.power(-2.0),
    MeanSpec.power(-0.5),
    MeanSpec.power(0.5),
    MeanSpec.power(2.0),
    MeanSpec.minimum(),
    MeanSpec.maximum(),
)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _check_residual(name: str, residual: float, tol: float) -> Check:
    return Check(name, bool(residual < tol), f"max residual {residual:.3e} (tol {tol:g})")


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN if any is NaN (``max`` would pass a NaN
    over, and a check whose two sides are NaN would pass)."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


# ---------------------------------------------------------------------------
# Quadrature oracle (independent of every closed form it checks)
# ---------------------------------------------------------------------------

def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-9,
                     max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature with Richardson correction."""

    def simpson(a: float, fa: float, mid: float, fm: float, b: float,
                fb: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, mid, fm, whole, eps, depth):
        left_mid = 0.5 * (a + mid)
        right_mid = 0.5 * (mid + b)
        f_lm, f_rm = f(left_mid), f(right_mid)
        left = simpson(a, fa, left_mid, f_lm, mid, fm)
        right = simpson(mid, fm, right_mid, f_rm, b, fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half_eps = 0.5 * eps
        return (recurse(a, fa, mid, fm, left_mid, f_lm, left, half_eps, depth - 1)
                + recurse(mid, fm, b, fb, right_mid, f_rm, right, half_eps,
                          depth - 1))

    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = f(lo), f(mid), f(hi)
    whole = simpson(lo, f_lo, mid, f_mid, hi, f_hi)
    return recurse(lo, f_lo, hi, f_hi, mid, f_mid, whole, tol, max_depth)


def _gauss_log_pdf(mu: float, sd: float):
    log_norm = -0.5 * math.log(2.0 * math.pi) - math.log(sd)

    def log_pdf(x: float) -> float:
        z = (x - mu) / sd
        return log_norm - 0.5 * z * z

    return log_pdf


def gaussian_quadrature_oracles(m1: float, s1: float, m2: float, s2: float,
                                tol: float = 1e-9) -> dict[str, float]:
    """Quadrature values of all 1-D closed forms for one Gaussian pair.

    Integrates over [min mu - 12 max sigma, max mu + 12 max sigma], where the
    tails are below 1e-30.  Returns kl, jeffreys, bhattacharyya, gjsd,
    gjsd_extended, and tv (all in nats).
    """
    lp1 = _gauss_log_pdf(m1, s1)
    lp2 = _gauss_log_pdf(m2, s2)
    lo = min(m1, m2) - 12.0 * max(s1, s2)
    hi = max(m1, m2) + 12.0 * max(s1, s2)

    def integrate(f):
        return adaptive_simpson(f, lo, hi, tol)

    def kl_term(x):
        a, b = lp1(x), lp2(x)
        return math.exp(a) * (a - b)

    def kl_term_rev(x):
        a, b = lp1(x), lp2(x)
        return math.exp(b) * (b - a)

    kl = integrate(kl_term)
    kl_rev = integrate(kl_term_rev)
    z_g = integrate(lambda x: math.exp(0.5 * (lp1(x) + lp2(x))))
    b_half = -math.log(z_g)
    log_zg = math.log(z_g)

    def gjsd_term(x):
        a, b = lp1(x), lp2(x)
        lg = 0.5 * (a + b) - log_zg
        return 0.5 * (math.exp(a) * (a - lg) + math.exp(b) * (b - lg))

    def gjsd_ext_term(x):
        a, b = lp1(x), lp2(x)
        lg = 0.5 * (a + b)
        g = math.exp(lg)
        return 0.5 * (math.exp(a) * (a - lg) + math.exp(b) * (b - lg)
                      + 2.0 * g - math.exp(a) - math.exp(b))

    tv = 0.5 * integrate(lambda x: abs(math.exp(lp1(x)) - math.exp(lp2(x))))
    return {
        "kl": kl,
        "jeffreys": kl + kl_rev,
        "bhattacharyya": b_half,
        "gjsd": integrate(gjsd_term),
        "gjsd_extended": integrate(gjsd_ext_term),
        "tv": tv,
    }


# ---------------------------------------------------------------------------
# Random corpora
# ---------------------------------------------------------------------------

def random_pair(rng: np.random.Generator, size: int,
                floor: float = 0.05) -> tuple[DiscreteDensity, DiscreteDensity]:
    """A strictly positive normalized pair on a common support."""
    w1 = rng.uniform(floor, 1.0, size)
    w2 = rng.uniform(floor, 1.0, size)
    return (DiscreteDensity.probability(w1 / w1.sum()),
            DiscreteDensity.probability(w2 / w2.sum()))


def random_gaussian(rng: np.random.Generator, d: int) -> gaussian.GaussianParams:
    mu = rng.uniform(-3.0, 3.0, d)
    a = rng.normal(size=(d, d))
    sigma = a @ a.T + (0.4 + rng.uniform()) * np.eye(d)
    return gaussian.GaussianParams(mu, sigma)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def counterexamples() -> list[Check]:
    """Triangle-inequality failures with frozen reference distances.

    The geometric-JSD distances here use the summed two-term symmetrization
    (no 1/2 averaging) in nats, matching the reference values; the
    mixture-vs-mixture KL uses its plain definition.
    """
    p1, p2, p3 = (DiscreteDensity.probability(w) for w in COUNTEREXAMPLE_TRIPLE)
    geo = MeanSpec.geometric()
    checks = []

    def triple_check(name, fn, reference):
        d12, d13, d32 = fn(p1, p2), fn(p1, p3), fn(p3, p2)
        defect = d12 - d13 - d32
        values = (d12, d13, d32, defect)
        worst = _worst(*(abs(v - r) for v, r in zip(values, reference)))
        ok = worst < 1e-6 and defect > 0.0
        checks.append(Check(
            name, ok,
            f"distances ({d12:.7f}, {d13:.7f}, {d32:.7f}), defect {defect:.7f}, "
            f"max deviation from reference {worst:.2e}"))

    triple_check(
        "sqrt summed geometric JSD violates triangle inequality",
        lambda a, b: math.sqrt(2.0 * discrete.js_m(a, b, geo)),
        REFERENCE_SUMMED_GJSD)
    triple_check(
        "sqrt summed extended geometric JSD violates triangle inequality",
        lambda a, b: math.sqrt(2.0 * discrete.js_m_extended(a, b, geo)),
        REFERENCE_SUMMED_EXTENDED_GJSD)
    triple_check(
        "sqrt KL between arithmetic and geometric mixtures violates triangle inequality",
        lambda a, b: math.sqrt(discrete.kl_between_mixtures(
            a, b, MeanSpec.arithmetic(), geo)),
        REFERENCE_KL_ARITH_GEO)
    return checks


def identities(pairs: int = 1000, seed: int = DEFAULT_SEED) -> list[Check]:
    """Algebraic identities on a random corpus, residual tolerance 1e-12."""
    rng = np.random.default_rng(seed)
    geo = MeanSpec.geometric()
    arith = MeanSpec.arithmetic()
    res = {key: 0.0 for key in
           ("gap", "regularization", "cross_entropy", "gjsd_identity",
            "extended_identity", "f_equivalence", "taneja")}

    for _ in range(pairs):
        size = int(rng.integers(2, 65))
        p1, p2 = random_pair(rng, size)
        entropy_avg = 0.5 * (discrete.shannon_entropy(p1)
                             + discrete.shannon_entropy(p2))
        plain_js = discrete.js(p1, p2)
        a_mix, _ = discrete.m_mixture(p1, p2, arith)

        for mean in IDENTITY_MEANS:
            js_m = discrete.js_m(p1, p2, mean)
            js_m_ext = discrete.js_m_extended(p1, p2, mean)
            mix, z = discrete.m_mixture(p1, p2, mean)
            res["gap"] = _worst(res["gap"], abs(
                js_m_ext - js_m - (z - math.log(z) - 1.0)))
            res["regularization"] = _worst(res["regularization"], abs(
                js_m - plain_js - discrete.kl(a_mix, mix)))
            res["cross_entropy"] = _worst(res["cross_entropy"], abs(
                js_m - (discrete.cross_entropy(a_mix, mix) - entropy_avg)))

        quarter_j = 0.25 * discrete.jeffreys(p1, p2)
        b_half = discrete.bhattacharyya(p1, p2)
        bc = discrete.bhattacharyya_coefficient(p1, p2)
        js_g = discrete.js_m(p1, p2, geo)
        js_g_ext = discrete.js_m_extended(p1, p2, geo)
        res["gjsd_identity"] = _worst(res["gjsd_identity"],
                                      abs(js_g - (quarter_j - b_half)))
        res["extended_identity"] = _worst(res["extended_identity"],
                                          abs(js_g_ext - (quarter_j + bc - 1.0)))
        res["f_equivalence"] = _worst(res["f_equivalence"], abs(
            discrete.f_divergence(p1, p2, discrete.F_EXTENDED_GJS) - js_g_ext))
        res["taneja"] = _worst(res["taneja"], abs(
            discrete.taneja_t(p1, p2)
            - (discrete.kl_between_mixtures(p1, p2, arith, geo) - math.log(bc))))

    labels = {
        "gap": "extended minus normalized M-JSD equals Z - log Z - 1",
        "regularization": "M-JSD equals JSD plus KL(arithmetic mixture, M-mixture)",
        "cross_entropy": "M-JSD cross-entropy decomposition",
        "gjsd_identity": "geometric JSD equals jeffreys/4 - bhattacharyya",
        "extended_identity": "extended geometric JSD equals jeffreys/4 + BC - 1",
        "f_equivalence": "extended geometric JSD equals its f-divergence",
        "taneja": "taneja T equals KL(A,G mixtures) minus log BC",
    }
    checks = [_check_residual(labels[k], v, 1e-12) for k, v in res.items()]
    checks.append(_chernoff_equalizer(rng))
    return checks


def _chernoff_equalizer(rng: np.random.Generator, pairs: int = 100) -> Check:
    worst_gap = 0.0
    worst_opt = 0.0
    grid = np.arange(1e-3, 1.0, 1e-3)
    for _ in range(pairs):
        size = int(rng.integers(2, 33))
        p1, p2 = random_pair(rng, size)
        value, alpha_star = discrete.chernoff(p1, p2)
        mix, _ = discrete.m_mixture(p1, p2, MeanSpec.geometric(alpha_star))
        worst_gap = _worst(worst_gap, abs(discrete.kl(mix, p1)
                                          - discrete.kl(mix, p2)))
        log_w1 = np.log(p1.weights)
        log_w2 = np.log(p2.weights)
        scan = -logsumexp(np.outer(grid, log_w1)
                          + np.outer(1.0 - grid, log_w2), axis=1)
        worst_opt = _worst(worst_opt, float(scan.max()) - value)
    passed = worst_gap < 1e-8 and worst_opt < 1e-12
    return Check(
        "chernoff skew equalizes the two reverse KL terms and beats a grid scan",
        passed,
        f"max equalizer gap {worst_gap:.3e} (tol 1e-8), "
        f"max grid excess {worst_opt:.3e}")


def bounds(pairs: int = 1000, seed: int = DEFAULT_SEED,
           monotonicity_cases: int = 500) -> list[Check]:
    """Normalizer and divergence bounds on a random corpus.

    All comparisons allow 1e-12 slack for floating-point rounding; the
    reported violation count must be zero.
    """
    rng = np.random.default_rng(seed)
    slack = 1e-12
    violations = {key: 0 for key in
                  ("z_bounds", "js_lower", "max_upper", "min_lower",
                   "gap_nonneg", "bc_bounded", "z_extremes", "bits_gap_sign",
                   "js_triangle")}

    for _ in range(pairs):
        size = int(rng.integers(2, 65))
        p1, p2 = random_pair(rng, size)
        tv = discrete.total_variation(p1, p2)
        plain_js = discrete.js(p1, p2)
        quarter_j = 0.25 * discrete.jeffreys(p1, p2)

        for mean in IDENTITY_MEANS:
            _, z = discrete.m_mixture(p1, p2, mean)
            if not (1.0 - tv - slack <= z <= 1.0 + tv + slack):
                violations["z_bounds"] += 1
            js_m = discrete.js_m(p1, p2, mean)
            if js_m < plain_js - slack:
                violations["js_lower"] += 1
            gap = discrete.js_m_extended(p1, p2, mean) - js_m
            if gap < -slack:
                violations["gap_nonneg"] += 1

        _, z_min = discrete.m_mixture(p1, p2, MeanSpec.minimum())
        _, z_max = discrete.m_mixture(p1, p2, MeanSpec.maximum())
        if abs(z_min - (1.0 - tv)) > 1e-12 or abs(z_max - (1.0 + tv)) > 1e-12:
            violations["z_extremes"] += 1
        if discrete.js_m_extended(p1, p2, MeanSpec.maximum()) > tv + slack:
            violations["max_upper"] += 1
        if discrete.js_m_extended(p1, p2, MeanSpec.minimum()) \
                < quarter_j - tv - slack:
            violations["min_lower"] += 1
        if discrete.f_divergence(p1, p2, discrete.F_BHATTACHARYYA_COEFF) \
                > 1.0 + slack:
            violations["bc_bounded"] += 1
        # in bits the gap is nonnegative exactly when Z <= 1
        for mean in (MeanSpec.minimum(), MeanSpec.maximum()):
            _, z = discrete.m_mixture(p1, p2, mean)
            gap_bits = (discrete.js_m_extended(p1, p2, mean, base=BITS)
                        - discrete.js_m(p1, p2, mean, base=BITS))
            if (z <= 1.0 and gap_bits < -slack) or \
                    (z > 1.0 + 1e-9 and gap_bits > slack):
                violations["bits_gap_sign"] += 1

    for _ in range(200):
        size = int(rng.integers(2, 33))
        p1, p2 = random_pair(rng, size)
        p3, _ = random_pair(rng, size)
        lhs = math.sqrt(discrete.js(p1, p2))
        rhs = math.sqrt(discrete.js(p1, p3)) + math.sqrt(discrete.js(p3, p2))
        if lhs > rhs + slack:
            violations["js_triangle"] += 1

    checks = [Check(label, count == 0, f"{count} violations")
              for label, count in (
                  ("normalizer Z within [1-TV, 1+TV]", violations["z_bounds"]),
                  ("M-JSD dominates the plain JSD", violations["js_lower"]),
                  ("extended max-JSD bounded by TV", violations["max_upper"]),
                  ("extended min-JSD at least jeffreys/4 - TV",
                   violations["min_lower"]),
                  ("gap nonnegative in nats", violations["gap_nonneg"]),
                  ("Bhattacharyya f-coefficient at most 1",
                   violations["bc_bounded"]),
                  ("Z_min = 1 - TV and Z_max = 1 + TV", violations["z_extremes"]),
                  ("bits gap sign matches Z <= 1", violations["bits_gap_sign"]),
                  ("sqrt JSD satisfies the triangle inequality",
                   violations["js_triangle"]),
              )]
    checks.append(_information_monotonicity(rng, monotonicity_cases))
    checks.append(_generator_convexity())
    return checks


def _information_monotonicity(rng: np.random.Generator, cases: int) -> Check:
    generators = (discrete.F_JS, discrete.F_EXTENDED_GJS, discrete.F_JEFFREYS,
                  discrete.F_TANEJA)
    violations = 0
    for _ in range(cases):
        size = int(rng.integers(3, 33))
        p1, p2 = random_pair(rng, size)
        n_bins = int(rng.integers(2, size))
        binmap = np.concatenate([np.arange(n_bins),
                                 rng.integers(0, n_bins, size - n_bins)])
        rng.shuffle(binmap)
        c1 = discrete.coarse_grain(p1, binmap)
        c2 = discrete.coarse_grain(p2, binmap)
        for gen in generators:
            fine = discrete.f_divergence(p1, p2, gen)
            coarse = discrete.f_divergence(c1, c2, gen)
            if coarse > fine + 1e-12:
                violations += 1
    return Check("f-divergences never increase under coarse-graining",
                 violations == 0, f"{violations} violations")


def _generator_convexity() -> Check:
    """f(1) = 0 and positive second differences on a log-spaced grid."""
    grid = np.logspace(-6.0, 6.0, 241)
    gen = discrete.F_EXTENDED_GJS
    at_one = float(gen.f(np.asarray(1.0), 1.0))
    values = gen.f(grid, 1.0)
    second = values[:-2] - 2.0 * values[1:-1] + values[2:]
    ok = abs(at_one) < 1e-15 and bool(np.all(second > 0.0))
    return Check("extended geometric JSD generator is convex with f(1) = 0",
                 ok, f"f(1) = {at_one:.1e}, min second difference "
                     f"{float(second.min()):.3e}")


def gaussian_oracle(cases: int = 20, seed: int = DEFAULT_SEED) -> list[Check]:
    """Closed-form Gaussians against quadrature, cross-routes, invariances."""
    rng = np.random.default_rng(seed)
    checks = []

    worst = {key: 0.0 for key in
             ("kl", "jeffreys", "bhattacharyya", "gjsd", "gjsd_extended", "tv")}
    for _ in range(cases):
        m1, m2 = rng.uniform(-3.0, 3.0, 2)
        s1, s2 = rng.uniform(0.3, 2.5, 2)
        g1 = gaussian.GaussianParams.univariate(m1, s1 ** 2)
        g2 = gaussian.GaussianParams.univariate(m2, s2 ** 2)
        oracle = gaussian_quadrature_oracles(m1, s1, m2, s2)
        closed = {
            "kl": gaussian.kl_gaussian(g1, g2),
            "jeffreys": gaussian.jeffreys_gaussian(g1, g2),
            "bhattacharyya": gaussian.bhattacharyya_gaussian(g1, g2),
            "gjsd": gaussian.gjsd_gaussian(g1, g2),
            "gjsd_extended": gaussian.gjsd_extended_gaussian(g1, g2),
            "tv": gaussian.tv_gaussian_1d(m1, s1, m2, s2),
        }
        for key in worst:
            worst[key] = _worst(worst[key], abs(closed[key] - oracle[key]))
    for key, value in worst.items():
        checks.append(_check_residual(
            f"closed-form {key} matches quadrature (d=1)", value, 1e-6))

    cross = {"two_route_gjsd": 0.0, "expfam_gjsd": 0.0, "skew_jensen_route": 0.0,
             "cumulant_routes": 0.0, "round_trip": 0.0}
    for d in (2, 3):
        for _ in range(cases // 2):
            g1 = random_gaussian(rng, d)
            g2 = random_gaussian(rng, d)
            identity_route = (0.25 * gaussian.jeffreys_gaussian(g1, g2)
                              - gaussian.bhattacharyya_gaussian(g1, g2))
            mix = gaussian.geometric_mixture_params(g1, g2, 0.5)
            routes = [gaussian.gjsd_gaussian(g1, g2), identity_route, 0.5 * (
                gaussian.kl_gaussian(g1, mix) + gaussian.kl_gaussian(g2, mix))]
            cross["two_route_gjsd"] = _worst(cross["two_route_gjsd"],
                                             _worst(*routes) - min(routes))
            alpha = float(rng.uniform(0.1, 0.9))
            fam = expfam.gaussian_family(d)
            t1, t2 = gaussian.natural_flat(g1), gaussian.natural_flat(g2)
            jensen = expfam.skew_jensen(fam, t1, t2, alpha)
            cross["expfam_gjsd"] = _worst(
                cross["expfam_gjsd"],
                abs(expfam.gjsd_ef(fam, t1, t2) - gaussian.gjsd_gaussian(g1, g2)),
                abs(expfam.gjsd_extended_ef(fam, t1, t2)
                    - gaussian.gjsd_extended_gaussian(g1, g2)))
            cross["skew_jensen_route"] = _worst(cross["skew_jensen_route"], abs(
                gaussian.bhattacharyya_gaussian(g1, g2, alpha) - jensen))
            n1 = gaussian.to_natural(g1)
            cross["cumulant_routes"] = _worst(cross["cumulant_routes"], abs(
                gaussian.cumulant(n1) - gaussian.cumulant_ordinary(g1)))
            back = gaussian.from_natural(n1)
            cross["round_trip"] = _worst(
                cross["round_trip"],
                float(np.abs(back.mu - g1.mu).max()),
                float(np.abs(back.sigma - g1.sigma).max()))
    checks.append(_check_residual(
        "geometric JSD: KL-to-mixture route matches jeffreys/4 - bhattacharyya",
        cross["two_route_gjsd"], 1e-10))
    checks.append(_check_residual(
        "gjsd_ef and gjsd_extended_ef match the Gaussian closed forms",
        cross["expfam_gjsd"], 1e-10))
    checks.append(_check_residual(
        "skew bhattacharyya matches the skew Jensen divergence route",
        cross["skew_jensen_route"], 1e-10))
    checks.append(_check_residual(
        "cumulant agrees across parameterizations", cross["cumulant_routes"],
        1e-10))
    checks.append(_check_residual(
        "natural-parameter round trip", cross["round_trip"], 1e-10))

    worst_affine = 0.0
    for d in (1, 2, 3):
        for _ in range(5):
            g1 = random_gaussian(rng, d)
            g2 = random_gaussian(rng, d)
            a = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            b = rng.uniform(-2.0, 2.0, d)
            t1 = gaussian.GaussianParams(a @ g1.mu + b, a @ g1.sigma @ a.T)
            t2 = gaussian.GaussianParams(a @ g2.mu + b, a @ g2.sigma @ a.T)
            for fn in (gaussian.kl_gaussian, gaussian.jeffreys_gaussian,
                       gaussian.bhattacharyya_gaussian, gaussian.gjsd_gaussian,
                       gaussian.gjsd_extended_gaussian):
                worst_affine = _worst(worst_affine,
                                      abs(fn(g1, g2) - fn(t1, t2)))
    checks.append(_check_residual(
        "divergences invariant under joint affine maps", worst_affine, 1e-9))

    worst_interp = 0.0
    g1 = random_gaussian(rng, 2)
    g2 = random_gaussian(rng, 2)
    near1 = gaussian.geometric_mixture_params(g1, g2, 1.0 - 1e-9)
    near0 = gaussian.geometric_mixture_params(g1, g2, 1e-9)
    worst_interp = _worst(float(np.abs(near1.mu - g1.mu).max()),
                          float(np.abs(near1.sigma - g1.sigma).max()),
                          float(np.abs(near0.mu - g2.mu).max()),
                          float(np.abs(near0.sigma - g2.sigma).max()))
    checks.append(_check_residual(
        "geometric mixture interpolates to its endpoints", worst_interp, 1e-6))

    sep = gaussian.tv_gaussian_1d(0.0, 1.0, 100.0, 1.0)
    checks.append(Check("TV saturates at large separation", sep > 1.0 - 1e-12,
                        f"TV at separation 100 = {sep}"))
    return checks


def mc_convergence(seed: int = DEFAULT_SEED) -> list[Check]:
    """Monte Carlo bands, the 1/sqrt(s) law, gamma limits, determinism."""
    checks = []
    g1 = gaussian.GaussianParams.univariate(0.0, 1.0)
    g2 = gaussian.GaussianParams.univariate(1.0, 1.0)
    d1 = estimate.gaussian_sampled(g1)
    d2 = estimate.gaussian_sampled(g2)
    geo = MeanSpec.geometric()
    closed = gaussian.gjsd_extended_gaussian(g1, g2)

    cfg = estimate.EstimatorConfig(samples=1_000_000, seed=seed)
    value, stderr = estimate.estimate_js_m_extended(d1, d2, geo, cfg)
    checks.append(Check(
        "extended geometric JSD estimate within 4 standard errors",
        abs(value - closed) <= 4.0 * stderr,
        f"estimate {value:.6f} vs closed form {closed:.6f} "
        f"(|diff| = {abs(value - closed):.2e}, 4se = {4.0 * stderr:.2e})"))

    sizes = [1_000, 10_000, 100_000, 1_000_000]
    errors = []
    for s in sizes:
        _, se = estimate.estimate_js_m_extended(
            d1, d2, geo, estimate.EstimatorConfig(samples=s, seed=seed))
        errors.append(se)
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    checks.append(Check(
        "standard error follows the 1/sqrt(s) law",
        -0.6 <= slope <= -0.4, f"log-log slope {slope:.3f}"))

    zero_var = estimate.estimate_z(
        d1, d2, MeanSpec.arithmetic(),
        estimate.EstimatorConfig(samples=20_000, seed=seed),
        proposal=estimate.arithmetic_mixture_proposal(d1, d2))
    checks.append(Check(
        "matched arithmetic proposal gives a zero-variance Z estimate",
        zero_var == (1.0, 0.0), f"estimate {zero_var}"))

    z_est, z_se = estimate.estimate_z(
        d1, d2, geo, estimate.EstimatorConfig(samples=1_000_000, seed=seed))
    z_exact = math.exp(-gaussian.bhattacharyya_gaussian(g1, g2))
    checks.append(Check(
        "geometric normalizer estimate within 4 standard errors",
        abs(z_est - z_exact) <= 4.0 * z_se,
        f"estimate {z_est:.6f} vs exact {z_exact:.6f}"))

    fam = expfam.gaussian_family(1)
    e1 = expfam.ExpFamilyDensity(fam, gaussian.natural_flat(g1))
    e3 = expfam.ExpFamilyDensity(
        fam, gaussian.natural_flat(gaussian.GaussianParams.univariate(1.0, 2.0)))
    kl_exact = gaussian.kl_gaussian(
        g1, gaussian.GaussianParams.univariate(1.0, 2.0))
    gaps = [abs(estimate.gamma_divergence(e1, e3, g) - kl_exact)
            for g in (1e-2, 1e-3, 1e-4)]
    checks.append(Check(
        "gamma-divergence converges monotonically to KL",
        gaps[0] > gaps[1] > gaps[2] and gaps[1] < 5e-3,
        f"|D_gamma - KL| = {gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e}"))

    cfg_det = estimate.EstimatorConfig(samples=200_000, seed=seed)
    runs = {workers: estimate.estimate_js_m_extended(d1, d2, geo, cfg_det,
                                                     workers=workers)
            for workers in (1, 8)}
    repeat = estimate.estimate_js_m_extended(d1, d2, geo, cfg_det, workers=1)
    checks.append(Check(
        "estimates are bit-identical across runs and thread counts",
        runs[1] == runs[8] == repeat,
        f"workers=1 {runs[1]}, workers=8 {runs[8]}"))
    return checks


# each suite is the function of its name
SUITES = {name: globals()[name] for name in SUITE_NAMES}


def run_suite(name: str) -> list[Check]:
    """Run one named suite with its defaults, or every suite for ``'all'``."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    return SUITES[name]()
