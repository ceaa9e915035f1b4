import dataclasses
import math

import numpy as np
import pytest

from geojsd import means
from geojsd import estimate as estimate_module
from geojsd import (
    DiscreteDensity,
    DivergentIntegral,
    DomainViolation,
    EstimatorConfig,
    ExpFamilyDensity,
    GaussianParams,
    MeanSpec,
    ProposalSupportViolation,
    SampledDensity,
    arithmetic_mixture_proposal,
    bhattacharyya_gaussian,
    categorical_family,
    categorical_sampled,
    estimate_js_m_extended,
    estimate_kl_extended,
    estimate_z,
    gamma_divergence,
    gaussian_family,
    gaussian_sampled,
    geometric_mixture_params,
    gjsd_extended_gaussian,
    gjsd_gaussian,
    js_m,
    js_m_extended,
    js_m_gamma,
    kl,
    kl_extended,
    kl_gaussian,
    m_mixture,
    natural_flat,
)

import oracles

QUAD_EPS = 1.49e-8      # the kernel's epsabs and epsrel, quad's defaults

GEO = MeanSpec.geometric()
ARITH = MeanSpec.arithmetic()

N01 = GaussianParams.univariate(0.0, 1.0)
N11 = GaussianParams.univariate(1.0, 1.0)
N12 = GaussianParams.univariate(1.0, 2.0)


def expfam_density(g: GaussianParams, log_scale: float = 0.0) -> ExpFamilyDensity:
    return ExpFamilyDensity(gaussian_family(g.dim), natural_flat(g), log_scale)


def random_gaussian(rng: np.random.Generator, d: int,
                    cond: float | None = None) -> GaussianParams:
    """A d-dimensional Gaussian; with ``cond``, its covariance has that
    condition number (eigenvalues log-spaced from 1 down to 1/cond)."""
    mu = rng.uniform(-0.5, 0.5, d)
    if cond is None:
        a = rng.normal(size=(d, d)) * (0.3 / math.sqrt(d))
        return GaussianParams(mu, a @ a.T + rng.uniform(0.7, 1.3) * np.eye(d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    sigma = (q * np.logspace(0.0, -math.log10(cond), d)) @ q.T
    return GaussianParams(mu, 0.5 * (sigma + sigma.T))


def d8_pair() -> tuple[SampledDensity, SampledDensity]:
    rng = np.random.default_rng(8)
    return (gaussian_sampled(random_gaussian(rng, 8)),
            gaussian_sampled(random_gaussian(rng, 8)))


def broken_proposal(density: SampledDensity) -> SampledDensity:
    """``density``'s sampler with zero claimed density on half its draws."""
    def broken_log_density(x):
        return np.where(np.asarray(x) < 0.0, -np.inf, density.log_density(x))

    return SampledDensity(broken_log_density, density.sampler)


def hexes(result) -> tuple[str, ...]:
    values = result if isinstance(result, tuple) else (result,)
    return tuple(float(v).hex() for v in values)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(samples=0)
        with pytest.raises(ValueError):
            EstimatorConfig(samples=10, chunk_size=0)
        with pytest.raises(ValueError):
            EstimatorConfig(samples=10, seed=-1)


class TestEstimateZ:
    def test_identical_densities_exact_one(self):
        d = gaussian_sampled(N01)
        cfg = EstimatorConfig(samples=5_000, seed=3)
        assert estimate_z(d, d, GEO, cfg) == (1.0, 0.0)

    def test_matched_arithmetic_proposal_zero_variance(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        cfg = EstimatorConfig(samples=20_000, seed=9)
        proposal = arithmetic_mixture_proposal(d1, d2)
        assert estimate_z(d1, d2, ARITH, cfg, proposal=proposal) == (1.0, 0.0)

    def test_geometric_z_within_band(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        cfg = EstimatorConfig(samples=1_000_000, seed=20240501)
        estimate, stderr = estimate_z(d1, d2, GEO, cfg)
        exact = math.exp(-bhattacharyya_gaussian(N01, N11))
        assert stderr > 0.0
        assert abs(estimate - exact) <= 4.0 * stderr

    def test_second_argument_proposal(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        cfg = EstimatorConfig(samples=200_000, seed=4)
        estimate, stderr = estimate_z(d1, d2, GEO, cfg, proposal=d2)
        exact = math.exp(-0.125)
        assert abs(estimate - exact) <= 4.0 * stderr

    def test_proposal_support_violation(self):
        rng_density = gaussian_sampled(N01)
        d2 = gaussian_sampled(N11)
        cfg = EstimatorConfig(samples=1_000, seed=0)
        with pytest.raises(ProposalSupportViolation):
            estimate_z(rng_density, d2, GEO, cfg,
                       proposal=broken_proposal(rng_density))

    def test_missing_sampler_rejected(self):
        no_sampler = SampledDensity(gaussian_sampled(N01).log_density)
        d2 = gaussian_sampled(N11)
        with pytest.raises(ValueError):
            estimate_z(no_sampler, d2, GEO, EstimatorConfig(samples=10))


class TestEstimateKLExtended:
    def test_identical_densities_exact_zero(self):
        d = gaussian_sampled(N01)
        cfg = EstimatorConfig(samples=5_000, seed=11)
        assert estimate_kl_extended(d, d, GEO, cfg) == (0.0, 0.0)

    def test_matches_closed_form(self):
        # KL+(p1, Z*mix) = KL(p1, mix) - log Z + Z - 1 for the geometric mean
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        cfg = EstimatorConfig(samples=1_000_000, seed=77)
        estimate, stderr = estimate_kl_extended(d1, d2, GEO, cfg)
        z = math.exp(-bhattacharyya_gaussian(N01, N12))
        mix = geometric_mixture_params(N01, N12)
        closed = kl_gaussian(N01, mix) - math.log(z) + z - 1.0
        assert abs(estimate - closed) <= 4.0 * stderr

    def test_error_shrinks_with_sample_size(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        small = estimate_kl_extended(d1, d2, GEO,
                                     EstimatorConfig(samples=50_000, seed=5))
        large = estimate_kl_extended(d1, d2, GEO,
                                     EstimatorConfig(samples=200_000, seed=5))
        ratio = large[1] / small[1]
        assert ratio == pytest.approx(0.5, rel=0.2)

    def test_proposal_matches_closed_form(self):
        # the importance-weighted branch: draws from another density
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        cfg = EstimatorConfig(samples=1_000_000, seed=77)
        z = math.exp(-bhattacharyya_gaussian(N01, N12))
        mix = geometric_mixture_params(N01, N12)
        closed = kl_gaussian(N01, mix) - math.log(z) + z - 1.0
        for proposal in (d2, arithmetic_mixture_proposal(d1, d2)):
            estimate, stderr = estimate_kl_extended(d1, d2, GEO, cfg,
                                                    proposal=proposal)
            assert 0.0 < stderr < 1e-4
            assert abs(estimate - closed) <= 4.0 * stderr

    def test_proposal_support_violation(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        cfg = EstimatorConfig(samples=1_000, seed=0)
        with pytest.raises(ProposalSupportViolation):
            estimate_kl_extended(d1, d2, GEO, cfg, proposal=broken_proposal(d1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mean", ["geometric", "arithmetic", "power:-0.5", "min"])
    def test_draws_where_p1_is_zero_add_no_log_term(self, mean):
        # draws from p2 land on the atom p1 leaves empty: there the weight
        # p1/r is 0 and 0 log(0/M) = 0, as in the exact sum
        q1 = DiscreteDensity.probability([0.0, 0.3, 0.3, 0.4])
        q2 = DiscreteDensity.probability([0.25] * 4)
        spec = MeanSpec.parse(mean)
        exact = kl_extended(q1, m_mixture(q1, q2, spec, normalize=False)[0])
        estimate, stderr = estimate_kl_extended(
            categorical_sampled(q1), categorical_sampled(q2), spec,
            EstimatorConfig(samples=200_000, seed=3),
            proposal=categorical_sampled(q2))
        assert 0.0 < stderr < 1e-3
        assert abs(estimate - exact) <= 4.0 * stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mixture_zero_where_p1_has_mass_is_infinite(self):
        # the min-mixture is 0 on the atom p2 leaves empty, where p1 is not
        q1 = categorical_sampled(DiscreteDensity.probability([0.25] * 4))
        q2 = categorical_sampled(DiscreteDensity.probability([0.0, 0.3, 0.3, 0.4]))
        cfg = EstimatorConfig(samples=4_096, seed=3, chunk_size=1_024)
        assert estimate_kl_extended(q1, q2, MeanSpec.minimum(), cfg) == (math.inf,
                                                                          math.inf)


    def test_underflowed_weight_is_not_a_zero_of_p1(self):
        # p1 is positive left of 0, where p1/r underflows to 0 and the
        # min-mixture is 0: the term there is 0 * log(p1/0), undefined, and
        # must not take the 0 log 0 convention of a true zero of p1
        p1 = SampledDensity(lambda x: np.where(x < 0.0, -800.0, 0.0))
        p2 = SampledDensity(lambda x: np.where(x < 0.0, -np.inf, 0.0))
        with pytest.warns(RuntimeWarning):
            estimate, _ = estimate_kl_extended(
                p1, p2, MeanSpec.minimum(), EstimatorConfig(samples=64, seed=0),
                proposal=gaussian_sampled(N01))
        assert math.isnan(estimate)


class TestEstimateJSMExtended:
    def test_identical_densities_exact_zero(self):
        d = gaussian_sampled(N01)
        cfg = EstimatorConfig(samples=2_000, seed=13)
        assert estimate_js_m_extended(d, d, GEO, cfg) == (0.0, 0.0)

    def test_gaussian_geometric_within_band(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        cfg = EstimatorConfig(samples=1_000_000, seed=20240502)
        estimate, stderr = estimate_js_m_extended(d1, d2, GEO, cfg)
        closed = gjsd_extended_gaussian(N01, N11)
        assert abs(estimate - closed) <= 4.0 * stderr

    def test_skew_mean_uses_swapped_weights(self):
        # alpha != 1/2 exercises the argument swap in the second KL term
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        mean = MeanSpec.geometric(alpha=0.3)
        cfg = EstimatorConfig(samples=500_000, seed=6)
        estimate, stderr = estimate_js_m_extended(d1, d2, mean, cfg)
        # closed form for normalized inputs: js_m + Z - log Z - 1 with
        # Z = exp(-B_alpha) and js_m = beta-averaged KL to the skew mixture
        mix = geometric_mixture_params(N01, N11, 0.3)
        z = math.exp(-bhattacharyya_gaussian(N01, N11, 0.3))
        js_skew = 0.5 * (kl_gaussian(N01, mix) + kl_gaussian(N11, mix))
        closed = js_skew + z - math.log(z) - 1.0
        assert abs(estimate - closed) <= 4.0 * stderr

    def test_categorical_embedding_matches_discrete(self):
        p1 = DiscreteDensity.probability([0.5, 0.3, 0.2])
        p2 = DiscreteDensity.probability([0.2, 0.5, 0.3])
        d1, d2 = categorical_sampled(p1), categorical_sampled(p2)
        cfg = EstimatorConfig(samples=400_000, seed=101)
        estimate, stderr = estimate_js_m_extended(d1, d2, GEO, cfg)
        exact = js_m_extended(p1, p2, GEO)
        assert abs(estimate - exact) <= 4.0 * stderr

    def test_requires_samplers(self):
        d1 = SampledDensity(gaussian_sampled(N01).log_density)
        d2 = gaussian_sampled(N11)
        with pytest.raises(ValueError):
            estimate_js_m_extended(d1, d2, GEO, EstimatorConfig(samples=10))


class TestDeterminism:
    def test_bit_identical_across_workers_and_runs(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        cfg = EstimatorConfig(samples=150_000, seed=99, chunk_size=4096)
        serial = estimate_js_m_extended(d1, d2, GEO, cfg, workers=1)
        threaded = estimate_js_m_extended(d1, d2, GEO, cfg, workers=8)
        repeat = estimate_js_m_extended(d1, d2, GEO, cfg, workers=8)
        assert serial == threaded == repeat

    @pytest.mark.parametrize("estimator", ["estimate_z", "estimate_js_m_extended",
                                           "gamma_divergence"])
    def test_bit_identical_across_workers_at_d8(self, estimator):
        # d > 1 densities whiten each chunk with a matmul: the bits must
        # still not depend on how many threads share the chunks
        d1, d2 = d8_pair()
        cfg = EstimatorConfig(samples=20_000, seed=41, chunk_size=2048)
        if estimator == "gamma_divergence":
            proposal = arithmetic_mixture_proposal(d1, d2)

            def run(workers):
                return gamma_divergence(d1, d2, 0.5, "monte_carlo", cfg=cfg,
                                        proposal=proposal, workers=workers)
        else:
            fn = getattr(estimate_module, estimator)

            def run(workers):
                return fn(d1, d2, MeanSpec.power(-0.5), cfg, workers=workers)

        serial = hexes(run(1))
        assert all(math.isfinite(float.fromhex(h)) for h in serial)
        assert hexes(run(2)) == serial
        assert hexes(run(8)) == serial

    def test_seed_changes_stream(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        a = estimate_z(d1, d2, GEO, EstimatorConfig(samples=10_000, seed=1))
        b = estimate_z(d1, d2, GEO, EstimatorConfig(samples=10_000, seed=2))
        assert a != b

    def test_chunk_streams_are_spawned_children(self):
        # XOR seeding (seed ^ k) would make chunk 1 of seed 0 replay chunk 0
        # of seed 1
        base = gaussian_sampled(N01)

        def draws(seed, estimator=estimate_z):
            seen = []

            def sampler(rng, n):
                seen.append(base.sampler(rng, n))
                return seen[-1]

            d = SampledDensity(base.log_density, sampler)
            estimator(d, d, GEO, EstimatorConfig(samples=64, seed=seed,
                                                 chunk_size=16))
            return seen

        seed0, seed1 = draws(0), draws(1)
        assert len(seed0) == 4
        children = np.random.SeedSequence(0).spawn(4)
        for chunk, child in zip(seed0, children):
            np.testing.assert_array_equal(
                chunk, base.sampler(np.random.default_rng(child), 16))
        chunks = [c.tobytes() for c in seed0 + seed1]
        assert len(set(chunks)) == len(chunks)
        # the extended M-JSD's second estimate runs on streams of its own
        both = [c.tobytes() for c in draws(0, estimate_js_m_extended)]
        assert both[:4] == chunks[:4]
        assert len(set(both)) == 8


def lu_log_density(g: GaussianParams, x: np.ndarray) -> np.ndarray:
    """The former d > 1 log-density: an LU solve of every batch against L."""
    chol = g._chol
    log_norm = -0.5 * g.dim * math.log(2.0 * math.pi) - float(np.log(np.diag(chol)).sum())
    z = np.linalg.solve(chol, (np.atleast_2d(x) - g.mu).T).T
    return log_norm - 0.5 * (z * z).sum(axis=1)


class TestGaussianWhitening:
    # One tolerance for every case.  The well-conditioned cases land near
    # 3e-16.  At condition number 1e12 (1e6 for L) both routes lose up to
    # about cond(L) * eps: here 2.8e-11 with the inverse factor and 2.7e-11
    # with the LU solve, and on other seeds the inverse up to 1e-11 where the
    # LU solve gave a few times less.
    RTOL = 1e-10
    CASES = {"d2": (2, None), "d8": (8, None), "d64": (64, None),
             "d8-cond1e12": (8, 1e12)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_log_density_matches_mpmath(self, case):
        d, cond = self.CASES[case]
        rng = np.random.default_rng([13, d])
        g = random_gaussian(rng, d, cond)
        if cond is not None:
            assert np.linalg.cond(g.sigma) == pytest.approx(cond, rel=0.05)
        density = gaussian_sampled(g)
        x = density.sampler(rng, 16)
        x[8:] = g.mu + 4.0 * (x[8:] - g.mu)      # half of them far in the tails
        expected = np.array(oracles.gaussian_log_density_oracle(g.mu, g._chol, x))
        # the same tolerance holds for the LU route it replaced
        for got in (density.log_density(x), lu_log_density(g, x)):
            np.testing.assert_allclose(got, expected, rtol=self.RTOL, atol=0.0)


class TestLogDensityReuse:
    """A chunk evaluates each distinct density once: the log-density of a
    proposal that is the first argument (the default) or the second is
    already in hand, and a distinct proposal object is evaluated apart, even
    for the same density."""

    SIZES = [1024] * 9 + [784]      # 10,000 samples in chunks of 1,024
    # log-density calls per chunk of the first argument, the second and a
    # distinct proposal built on the first argument's density
    PER_CHUNK = {"default": (1, 1, 0), "distinct": (1, 1, 1), "second": (1, 1, 0)}

    @staticmethod
    def counted(density: SampledDensity, calls: list) -> SampledDensity:
        def log_density(x):
            calls.append(len(x))
            return density.log_density(x)

        return SampledDensity(log_density, density.sampler)

    @pytest.mark.parametrize("estimator", ["estimate_z", "estimate_kl_extended",
                                           "gamma_divergence"])
    @pytest.mark.parametrize("proposal", ["default", "distinct", "second"])
    def test_log_density_calls_per_chunk(self, estimator, proposal):
        d1, d2 = d8_pair()
        cfg = EstimatorConfig(samples=10_000, seed=6, chunk_size=1024)
        if estimator == "gamma_divergence":
            def run(p1, p2, r):
                return gamma_divergence(p1, p2, 0.5, "monte_carlo", cfg=cfg,
                                        proposal=r)
        else:
            fn = getattr(estimate_module, estimator)

            def run(p1, p2, r):
                return fn(p1, p2, MeanSpec.power(-0.5), cfg, proposal=r)

        calls = ([], [], [])
        first, second, apart = (self.counted(d, c)
                                for d, c in zip((d1, d2, d1), calls))
        r = {"default": None, "distinct": apart, "second": second}[proposal]
        got = run(first, second, r)
        assert list(calls) == [[n for n in self.SIZES for _ in range(k)]
                               for k in self.PER_CHUNK[proposal]]
        # the uncounted run draws from the same proposal density
        assert hexes(got) == hexes(run(d1, d2, d2 if proposal == "second" else None))


class TestProposalContract:
    """One rule, checked in one chunk body for every estimator: the
    proposal's log-density is finite at each of its own draws."""

    CFG = EstimatorConfig(samples=4_096, seed=0, chunk_size=1_024)

    @classmethod
    def run(cls, estimator, p1, p2, proposal=None, workers=1):
        cfg = cls.CFG
        if estimator == "gamma_divergence":
            return gamma_divergence(p1, p2, 0.5, "monte_carlo", cfg=cfg,
                                    proposal=proposal, workers=workers)
        if estimator == "js_m_gamma":
            return js_m_gamma(p1, p2, GEO, 0.5, "monte_carlo", cfg=cfg,
                              proposal=proposal, workers=workers)
        return getattr(estimate_module, estimator)(p1, p2, GEO, cfg,
                                                   proposal=proposal,
                                                   workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("estimator", ["gamma_divergence", "js_m_gamma"])
    def test_gamma_route_rejects_broken_proposal(self, estimator, workers):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        with pytest.raises(ProposalSupportViolation):
            self.run(estimator, d1, d2, broken_proposal(d1), workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("estimator", ["estimate_z", "estimate_kl_extended",
                                           "gamma_divergence"])
    def test_first_density_as_proposal_keeps_the_contract(self, estimator, workers):
        # with no proposal= the first density is the proposal, so its
        # log-density must be finite at its own draws too
        broken = broken_proposal(gaussian_sampled(N01))
        with pytest.raises(ProposalSupportViolation):
            self.run(estimator, broken, gaussian_sampled(N12), workers=workers)


class TestGammaDivergence:
    def test_zero_at_identity_all_routes(self):
        p = DiscreteDensity.probability([0.4, 0.6])
        assert gamma_divergence(p, p, 0.5) == pytest.approx(0.0, abs=1e-12)
        e = expfam_density(N01)
        assert gamma_divergence(e, e, 0.5) == pytest.approx(0.0, abs=1e-12)
        d = gaussian_sampled(N01)
        assert gamma_divergence(d, d, 0.5, "quadrature",
                                support=(-12.0, 12.0)) == pytest.approx(
            0.0, abs=1e-9)

    def test_projective_scaling_invariance(self):
        e1, e2 = expfam_density(N01), expfam_density(N12)
        s1 = expfam_density(N01, math.log(2.0))
        s2 = expfam_density(N12, math.log(3.0))
        assert gamma_divergence(s1, s2, 0.7) == pytest.approx(
            gamma_divergence(e1, e2, 0.7), abs=1e-10)

    def test_discrete_projective(self):
        p1 = DiscreteDensity.probability([0.5, 0.5])
        p2 = DiscreteDensity.probability([0.25, 0.75])
        scaled1 = DiscreteDensity.positive(2.0 * p1.weights)
        scaled2 = DiscreteDensity.positive(3.0 * p2.weights)
        assert gamma_divergence(scaled1, scaled2, 0.3) == pytest.approx(
            gamma_divergence(p1, p2, 0.3), abs=1e-12)

    def test_quadrature_projective(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        scaled1 = SampledDensity(lambda x: d1.log_density(x) + math.log(2.0))
        scaled2 = SampledDensity(lambda x: d2.log_density(x) + math.log(3.0))
        support = (-20.0, 20.0)
        plain = gamma_divergence(d1, d2, 0.5, "quadrature", support=support)
        scaled = gamma_divergence(scaled1, scaled2, 0.5, "quadrature",
                                  support=support)
        assert scaled == pytest.approx(plain, abs=1e-10)

    def test_gamma_to_zero_recovers_kl_discrete(self):
        p1 = DiscreteDensity.probability([0.5, 0.5])
        p2 = DiscreteDensity.probability([0.25, 0.75])
        exact = kl(p1, p2)
        gaps = [abs(gamma_divergence(p1, p2, g) - exact)
                for g in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] < 5e-3

    def test_gamma_to_zero_recovers_kl_gaussian(self):
        e1, e2 = expfam_density(N01), expfam_density(N12)
        exact = kl_gaussian(N01, N12)
        assert gamma_divergence(e1, e2, 1e-3) == pytest.approx(exact, abs=1e-3)

    def test_quadrature_matches_closed_form(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        closed = gamma_divergence(expfam_density(N01), expfam_density(N12), 0.5)
        quad = gamma_divergence(d1, d2, 0.5, "quadrature",
                                support=(-20.0, 20.0))
        assert quad == pytest.approx(closed, abs=1e-7)

    def test_monte_carlo_route(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        closed = gamma_divergence(expfam_density(N01), expfam_density(N12), 0.5)
        cfg = EstimatorConfig(samples=400_000, seed=8)
        mc = gamma_divergence(d1, d2, 0.5, "monte_carlo", cfg=cfg,
                              proposal=arithmetic_mixture_proposal(d1, d2))
        assert mc == pytest.approx(closed, abs=5e-3)

    def test_domain_exit_raises(self):
        # gamma large enough that theta1 + gamma*theta2 stays PD is fine;
        # a negative-definite direction must raise instead
        fam = gaussian_family(1)
        good = expfam_density(N01)
        bad = ExpFamilyDensity(fam, np.array([0.0, -0.4]))
        with pytest.raises(DivergentIntegral):
            gamma_divergence(good, bad, 2.0, "closed_form")

    def test_rejects_nonpositive_gamma(self):
        p = DiscreteDensity.probability([0.5, 0.5])
        with pytest.raises(ValueError):
            gamma_divergence(p, p, 0.0)

    def test_closed_form_rejects_wrong_size_theta(self):
        # categorical_family(3) has dim 2: a 3-entry theta must not be read
        c = ExpFamilyDensity(categorical_family(3), [0.1, 0.2, 0.3])
        with pytest.raises(DomainViolation, match="size 3, family expects 2"):
            gamma_divergence(c, c, 0.5)

    def test_closed_form_rejects_mixed_sizes(self):
        fam = categorical_family(3)
        good = ExpFamilyDensity(fam, [0.1, 0.2])
        bad = ExpFamilyDensity(fam, [0.1, 0.2, 0.3])
        with pytest.raises(DomainViolation, match="size 3, family expects 2"):
            gamma_divergence(good, bad, 0.5)
        with pytest.raises(DomainViolation, match="size 3, family expects 2"):
            js_m_gamma(good, bad, GEO, 0.5)

    def test_closed_form_rejects_mixed_families(self):
        # the family is checked before either theta is read or mixed
        one, two = expfam_density(N01), expfam_density(GaussianParams(np.zeros(2),
                                                                      np.eye(2)))
        with pytest.raises(ValueError, match="densities of one family"):
            gamma_divergence(one, two, 0.5)
        with pytest.raises(ValueError, match="densities of one family"):
            js_m_gamma(one, two, GEO, 0.5)

    def test_closed_form_rejects_wrong_size_gaussian_theta(self):
        # gaussian_family(1) has dim 2 (theta_v and theta_M)
        good = expfam_density(N01)
        bad = ExpFamilyDensity(good.family, [0.0, 0.5, 0.5])
        with pytest.raises(DomainViolation, match="size 3, family expects 2"):
            gamma_divergence(good, bad, 0.5, "closed_form")

    def test_closed_form_needs_a_cumulant(self):
        # the same error skew_jensen and bregman raise, not a TypeError
        fam = dataclasses.replace(gaussian_family(1), cumulant=None)
        e = ExpFamilyDensity(fam, natural_flat(N01))
        with pytest.raises(ValueError, match="needs a closed-form cumulant"):
            gamma_divergence(e, e, 0.1, "closed_form")


class TestJsMGamma:
    def test_zero_at_identity(self):
        p = DiscreteDensity.probability([0.3, 0.7])
        assert js_m_gamma(p, p, GEO, 1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_discrete_approximates_js_m(self):
        p1 = DiscreteDensity.probability([0.5, 0.5])
        p2 = DiscreteDensity.probability([0.25, 0.75])
        for mean in (GEO, MeanSpec.power(2.0), ARITH):
            approx = js_m_gamma(p1, p2, mean, 1e-3)
            assert approx == pytest.approx(js_m(p1, p2, mean), abs=5e-3)

    def test_gaussian_geometric_closed_form(self):
        e1, e2 = expfam_density(N01), expfam_density(N11)
        approx = js_m_gamma(e1, e2, GEO, 1e-3, "closed_form")
        assert approx == pytest.approx(gjsd_gaussian(N01, N11), abs=5e-3)

    def test_gaussian_quadrature_route(self):
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N11)
        approx = js_m_gamma(d1, d2, GEO, 1e-3, "quadrature",
                            support=(-14.0, 15.0))
        assert approx == pytest.approx(gjsd_gaussian(N01, N11), abs=5e-3)

    @pytest.mark.parametrize("mean", ["power", "geometric"])
    def test_monte_carlo_route(self, mean):
        # the other routes' values; over seeds 1-5 the estimates spread by
        # about 1.7e-4 (power) and 1e-4 (geometric)
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        if mean == "power":
            spec = MeanSpec.power(0.5)
            reference = js_m_gamma(d1, d2, spec, 0.5, "quadrature",
                                   support=(-14.0, 16.0))
        else:
            spec = GEO
            reference = js_m_gamma(expfam_density(N01), expfam_density(N12),
                                   spec, 0.5)
        cfg = EstimatorConfig(samples=400_000, seed=8)
        mc = js_m_gamma(d1, d2, spec, 0.5, "monte_carlo", cfg=cfg)
        assert mc == pytest.approx(reference, abs=6e-4)

    def test_monte_carlo_halves_share_chunk_streams(self):
        # common random numbers: chunk k of each half is drawn, by that
        # half's own sampler, from the same generator state
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        states = {"p1": [], "p2": []}

        def recording(density, key):
            def sampler(rng, n):
                states[key].append(rng.bit_generator.state)
                return density.sampler(rng, n)

            return SampledDensity(density.log_density, sampler)

        cfg = EstimatorConfig(samples=10_000, seed=3, chunk_size=2500)
        js_m_gamma(recording(d1, "p1"), recording(d2, "p2"),
                   MeanSpec.power(0.5), 0.5, "monte_carlo", cfg=cfg)
        assert len(states["p1"]) == 4
        assert states["p1"] == states["p2"]
        assert states["p1"][0] != states["p1"][1]

    def test_expfam_rejects_non_geometric(self):
        e1, e2 = expfam_density(N01), expfam_density(N11)
        with pytest.raises(ValueError):
            js_m_gamma(e1, e2, ARITH, 1e-3)

    @pytest.mark.parametrize("gamma", [1e-3, 0.5])
    def test_halves_share_the_mixture_moment(self, gamma):
        # the same bits as two gamma_divergence calls, on every route but
        # Monte Carlo
        p1 = DiscreteDensity.probability([0.1, 0.2, 0.7])
        p2 = DiscreteDensity.probability([0.5, 0.0, 0.5])
        power = MeanSpec.power(0.5)
        mix, _ = m_mixture(p1, p2, power, normalize=False)
        e1, e2 = expfam_density(N01), expfam_density(N12)
        e_mix = ExpFamilyDensity(e1.family, 0.5 * e1.theta + 0.5 * e2.theta)
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        d_mix = SampledDensity(lambda x: means.log_evaluate(
            power, d1.log_density(x), d2.log_density(x)))
        support = (-14.0, 15.0)
        cases = [(p1, p2, power, mix, "exact", {}),
                 (e1, e2, GEO, e_mix, "closed_form", {}),
                 (d1, d2, power, d_mix, "quadrature", {"support": support})]
        for a, b, mean, m, route, kw in cases:
            halves = 0.5 * (gamma_divergence(a, m, gamma, route, **kw)
                            + gamma_divergence(b, m, gamma, route, **kw))
            assert js_m_gamma(a, b, mean, gamma, route, **kw) == halves, route

    def test_quadrature_runs_five_integrals(self, monkeypatch):
        calls = []
        kernel = estimate_module.gauss_kronrod

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(estimate_module, "gauss_kronrod", counted)
        d1, d2 = gaussian_sampled(N01), gaussian_sampled(N12)
        js_m_gamma(d1, d2, MeanSpec.power(0.5), 1e-3, "quadrature",
                   support=(-14.0, 15.0))
        assert len(calls) == 5


# (m1, v1, m2, v2, power of the balanced mean, support): a narrow peak
# against a unit Gaussian, a separated pair and an unequal-variance pair
QUADRATURE_PAIRS = {
    "narrow_peak": (6.0, 0.01, 0.0, 1.0, -0.5, (-13.0, 19.0)),
    "separated": (0.0, 1.0, 8.0, 1.0, 0.5, (-13.0, 21.0)),
    "unequal_variance": (0.0, 1.0, 0.5, 25.0, 0.5, (-65.0, 65.5)),
}


def quadrature_pair(name):
    m1, v1, m2, v2, power, support = QUADRATURE_PAIRS[name]
    d1 = gaussian_sampled(GaussianParams.univariate(m1, v1))
    d2 = gaussian_sampled(GaussianParams.univariate(m2, v2))
    return d1, d2, MeanSpec.power(power), support


class TestQuadratureRoute:
    """The Gauss-Kronrod route against mpmath, and how it calls the densities."""

    @pytest.mark.parametrize("gamma", [1e-3, 0.3])
    @pytest.mark.parametrize("name", sorted(QUADRATURE_PAIRS))
    def test_matches_mpmath(self, name, gamma):
        d1, d2, mean, support = quadrature_pair(name)
        m1, v1, m2, v2, power, _ = QUADRATURE_PAIRS[name]
        expected = oracles.power_mixture_log_moments_oracle(
            m1, v1, m2, v2, power, gamma, support)

        def log_mix(x):
            return means.log_evaluate(mean, d1.log_density(x), d2.log_density(x))

        named = {"1": d1.log_density, "2": d2.log_density, "m": log_mix}
        for key, log_i in expected.items():
            got = estimate_module._log_i_quadrature(named[key[0]], named[key[1]],
                                                    gamma, support)
            # a relative error eps in I is an error of about eps in log I
            assert got == pytest.approx(log_i, abs=2.0 * QUAD_EPS), key

        def divergence(a):
            return (expected[a + a] / (gamma * (1.0 + gamma))
                    - expected[a + "m"] / gamma + expected["mm"] / (1.0 + gamma))

        reference = 0.5 * (divergence("1") + divergence("2"))
        value = js_m_gamma(d1, d2, mean, gamma, "quadrature", support=support)
        assert value == pytest.approx(reference, abs=2.0 * QUAD_EPS / gamma)

    def test_log_densities_see_few_1d_arrays(self):
        shapes = []

        def counted(d):
            def log_density(x):
                shapes.append(np.shape(x))
                return d.log_density(x)

            return SampledDensity(log_density)

        d1, d2, mean, support = quadrature_pair("narrow_peak")
        js_m_gamma(counted(d1), counted(d2), mean, 0.3, "quadrature",
                   support=support)
        assert shapes and all(len(shape) == 1 for shape in shapes)
        # five integrals, each evaluating one of the densities and the mixture
        # of both (three calls) on its shift grid, its first partition and at
        # most six refinement rounds; point-by-point calls would be ~10^4
        assert len(shapes) <= 5 * 3 * 8

    def test_rejects_unbounded_or_empty_support(self):
        d = gaussian_sampled(N01)
        for support in ((-math.inf, 1.0), (0.0, math.nan), (1.0, 1.0), (2.0, -2.0)):
            with pytest.raises(ValueError, match="finite interval"):
                gamma_divergence(d, d, 0.5, "quadrature", support=support)


class TestStableMerge:
    def test_tiny_spread_keeps_its_standard_error(self):
        # terms exp(-1e-9 sin x) over 16 chunks: a sum-of-squares merge
        # cancels the whole spread away and reports a standard error of 0
        base = gaussian_sampled(N01)
        draws = []

        def sampler(rng, n):
            x = base.sampler(rng, n)
            draws.append(x)
            return x

        proposal = SampledDensity(
            lambda x: base.log_density(x) + 1e-9 * np.sin(x), sampler)
        cfg = EstimatorConfig(samples=1_000_000, seed=5, chunk_size=62_500)
        mean, stderr = estimate_z(base, base, GEO, cfg, proposal=proposal)
        x = np.concatenate(draws)
        g = np.exp(base.log_density(x) - proposal.log_density(x))
        assert len(draws) == 16
        assert mean == pytest.approx(g.mean(), rel=1e-15)
        assert stderr == pytest.approx(g.std(ddof=1) / math.sqrt(g.size), rel=0.01)
        assert estimate_z(base, base, GEO, cfg, proposal=proposal,
                          workers=2) == (mean, stderr)
