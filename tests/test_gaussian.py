import math
from functools import partial

import numpy as np
import pytest

import oracles
from geojsd import (
    GaussianNatural,
    GaussianParams,
    InvalidAlpha,
    InvalidDensity,
    NotPositiveDefinite,
    bhattacharyya_gaussian,
    cumulant,
    cumulant_ordinary,
    from_natural,
    geometric_mixture_params,
    gjsd_extended_gaussian,
    gjsd_gaussian,
    jeffreys_gaussian,
    kl_gaussian,
    to_natural,
    tv_gaussian_1d,
)
from geojsd.verification import adaptive_simpson

N01 = GaussianParams.univariate(0.0, 1.0)
N11 = GaussianParams.univariate(1.0, 1.0)
N04 = GaussianParams.univariate(0.0, 4.0)
N12 = GaussianParams.univariate(1.0, 2.0)


# correlation 1 - 1e-9: condition number about 2e9
RHO = 1.0 - 1e-9
NEAR_SINGULAR = GaussianParams(np.array([0.3, -0.2]),
                               np.array([[1.0, RHO], [RHO, 1.0]]))

CLOSED_FORMS = {
    "kl": kl_gaussian,
    "jeffreys": jeffreys_gaussian,
    "bhattacharyya": bhattacharyya_gaussian,
    "bhattacharyya_skew": partial(bhattacharyya_gaussian, alpha=0.3),
    "gjsd": gjsd_gaussian,
    "gjsd_skew": partial(gjsd_gaussian, alpha=0.3, beta=0.8),
    "gjsd_extended": gjsd_extended_gaussian,
}


def random_gaussian(rng, d, spread=2.0):
    mu = rng.uniform(-spread, spread, d)
    a = rng.normal(size=(d, d))
    return GaussianParams(mu, a @ a.T + (0.5 + rng.uniform()) * np.eye(d))


class TestParams:
    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianParams(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianParams(np.zeros(3), np.eye(2))

    def test_natural_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianNatural(np.zeros(1), np.array([[-0.5]]))

    @pytest.mark.parametrize("mu, sigma", [([np.nan], [[1.0]]),
                                           ([0.0], [[np.inf]])])
    def test_rejects_nonfinite(self, mu, sigma):
        with pytest.raises(InvalidDensity, match="finite"):
            GaussianParams(np.array(mu), np.array(sigma))


class TestPairInputs:
    @pytest.mark.parametrize("fn", [kl_gaussian, jeffreys_gaussian,
                                    bhattacharyya_gaussian, gjsd_gaussian,
                                    gjsd_extended_gaussian,
                                    geometric_mixture_params])
    def test_pair_of_different_dimensions_is_invalid_input(self, fn):
        # an input error, not a mathematical one (NotPositiveDefinite)
        with pytest.raises(InvalidDensity, match="dimension mismatch: 1 vs 2"):
            fn(GaussianParams.standard(1), GaussianParams.standard(2))


class TestNaturalConversion:
    def test_standard_normal(self):
        n = to_natural(GaussianParams.standard(2))
        np.testing.assert_allclose(n.theta_v, np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(n.theta_m, 0.5 * np.eye(2), atol=1e-15)

    def test_univariate_example(self):
        n = to_natural(GaussianParams.univariate(2.0, 4.0))
        assert n.theta_v[0] == pytest.approx(0.5, abs=1e-14)
        assert n.theta_m[0, 0] == pytest.approx(0.125, abs=1e-14)

    def test_round_trip(self, rng):
        for d in (1, 2, 3):
            for _ in range(10):
                g = random_gaussian(rng, d)
                back = from_natural(to_natural(g))
                np.testing.assert_allclose(back.mu, g.mu, rtol=1e-10,
                                           atol=1e-12)
                np.testing.assert_allclose(back.sigma, g.sigma, rtol=1e-10,
                                           atol=1e-12)


class TestCumulant:
    def test_standard_normal_value(self):
        # d/2 * log(2*pi), frozen: 0.9189385332046727 for d=1
        assert cumulant_ordinary(GaussianParams.standard(1)) == pytest.approx(
            0.9189385332046727, abs=1e-15)
        assert cumulant(to_natural(GaussianParams.standard(1))) == \
            pytest.approx(0.9189385332046727, abs=1e-12)

    def test_parameterization_routes_agree(self, rng):
        for d in (1, 2, 3):
            for _ in range(10):
                g = random_gaussian(rng, d)
                assert cumulant(to_natural(g)) == pytest.approx(
                    cumulant_ordinary(g), abs=1e-10)


class TestKL:
    def test_identity(self):
        assert kl_gaussian(N01, N01) == pytest.approx(0.0, abs=1e-14)

    def test_unit_shift(self):
        assert kl_gaussian(N01, N11) == pytest.approx(0.5, abs=1e-14)
        assert kl_gaussian(N01, N11) == pytest.approx(
            oracles.gaussian_kl_quad(0.0, 1.0, 1.0, 1.0), abs=1e-10)

    def test_variance_change(self):
        # (1/4 - 1 + log 4)/2, frozen 0.31814718055994531
        assert kl_gaussian(N01, N04) == pytest.approx(0.31814718055994531,
                                                      abs=1e-14)

    def test_nonnegative(self, rng):
        for _ in range(30):
            g1 = random_gaussian(rng, 2)
            g2 = random_gaussian(rng, 2)
            assert kl_gaussian(g1, g2) >= 0.0


class TestJeffreys:
    def test_unit_shift(self):
        assert jeffreys_gaussian(N01, N11) == pytest.approx(1.0, abs=1e-14)

    def test_formula_matches_kl_sum(self, rng):
        for _ in range(20):
            g1 = random_gaussian(rng, 3)
            g2 = random_gaussian(rng, 3)
            assert jeffreys_gaussian(g1, g2) == pytest.approx(
                kl_gaussian(g1, g2) + kl_gaussian(g2, g1), abs=1e-10)


class TestBhattacharyya:
    def test_identity(self):
        assert bhattacharyya_gaussian(N01, N01) == pytest.approx(0.0,
                                                                 abs=1e-14)

    def test_unit_shift_is_eighth(self):
        assert bhattacharyya_gaussian(N01, N11) == pytest.approx(0.125,
                                                                 abs=1e-14)
        assert bhattacharyya_gaussian(N01, N11) == pytest.approx(
            oracles.gaussian_bhattacharyya_quad(0.0, 1.0, 1.0, 1.0), abs=1e-9)

    def test_balanced_matches_average_covariance_formula(self, rng):
        # classic half-skew form: (m1-m2)' S^-1 (m1-m2)/8 + log(det S /
        # sqrt(det S1 det S2))/2 with S the average covariance
        for d in (1, 2, 3):
            g1 = random_gaussian(rng, d)
            g2 = random_gaussian(rng, d)
            avg = 0.5 * (g1.sigma + g2.sigma)
            diff = g1.mu - g2.mu
            expected = (0.125 * float(diff @ np.linalg.solve(avg, diff))
                        + 0.5 * math.log(np.linalg.det(avg) / math.sqrt(
                            np.linalg.det(g1.sigma) * np.linalg.det(g2.sigma))))
            assert bhattacharyya_gaussian(g1, g2) == pytest.approx(
                expected, abs=1e-10)

    def test_skew_symmetry(self, rng):
        g1 = random_gaussian(rng, 2)
        g2 = random_gaussian(rng, 2)
        assert bhattacharyya_gaussian(g1, g2, 0.3) == pytest.approx(
            bhattacharyya_gaussian(g2, g1, 0.7), abs=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(InvalidAlpha):
            bhattacharyya_gaussian(N01, N11, alpha=1.0)


class TestGeometricMixture:
    def test_idempotent(self):
        mix = geometric_mixture_params(N12, N12, 0.5)
        np.testing.assert_allclose(mix.mu, N12.mu, atol=1e-14)
        np.testing.assert_allclose(mix.sigma, N12.sigma, atol=1e-14)

    def test_equal_covariance_midpoint(self):
        g1 = GaussianParams(np.array([0.0, 0.0]), np.eye(2))
        g2 = GaussianParams(np.array([2.0, -1.0]), np.eye(2))
        mix = geometric_mixture_params(g1, g2, 0.5)
        np.testing.assert_allclose(mix.sigma, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(mix.mu, [1.0, -0.5], atol=1e-14)

    def test_univariate_harmonic_variance(self):
        g1 = GaussianParams.univariate(0.0, 1.0)
        g2 = GaussianParams.univariate(1.0, 4.0)
        mix = geometric_mixture_params(g1, g2, 0.5)
        assert mix.sigma[0, 0] == pytest.approx(1.6, abs=1e-14)
        assert mix.mu[0] == pytest.approx((0.0 * 1.0 + 1.0 * 0.25) / 1.25,
                                          abs=1e-14)

    def test_matches_grid_renormalization(self):
        # pointwise sqrt(p1 p2)/Z on a fine grid vs the mixture's own pdf
        g1, g2 = N01, N12
        mix = geometric_mixture_params(g1, g2, 0.5)

        def log_pdf(g, x):
            var = g.sigma[0, 0]
            return (-0.5 * math.log(2.0 * math.pi * var)
                    - 0.5 * (x - g.mu[0]) ** 2 / var)

        z = adaptive_simpson(
            lambda x: math.exp(0.5 * (log_pdf(g1, x) + log_pdf(g2, x))),
            -14.0, 15.0, tol=1e-12)
        for x in np.linspace(-4.0, 5.0, 41):
            target = math.exp(0.5 * (log_pdf(g1, x) + log_pdf(g2, x))) / z
            assert math.exp(log_pdf(mix, x)) == pytest.approx(target,
                                                              rel=1e-9)

    def test_interpolates_to_endpoints(self):
        # the residual at alpha = 1 -/+ eps is eps * |first derivative|,
        # which for this unit-scale pair stays within a few eps
        g1 = GaussianParams(np.zeros(2), np.eye(2))
        g2 = GaussianParams(np.array([1.0, 0.0]),
                            np.array([[1.0, 0.2], [0.2, 2.0]]))
        near1 = geometric_mixture_params(g1, g2, 1.0 - 1e-9)
        near0 = geometric_mixture_params(g1, g2, 1e-9)
        assert float(np.abs(near1.mu - g1.mu).max()) < 5e-9
        assert float(np.abs(near1.sigma - g1.sigma).max()) < 5e-9
        assert float(np.abs(near0.mu - g2.mu).max()) < 5e-9
        assert float(np.abs(near0.sigma - g2.sigma).max()) < 5e-9


class TestGJSD:
    def test_identity(self):
        assert gjsd_gaussian(N01, N01) == pytest.approx(0.0, abs=1e-14)

    def test_quadrature(self):
        assert gjsd_gaussian(N01, N12) == pytest.approx(
            oracles.gaussian_gjsd_quad(0.0, 1.0, 1.0, math.sqrt(2.0)),
            abs=1e-9)

    def test_identity_route_agreement(self, rng):
        for _ in range(20):
            g1 = random_gaussian(rng, 3)
            g2 = random_gaussian(rng, 3)
            identity_route = (0.25 * jeffreys_gaussian(g1, g2)
                              - bhattacharyya_gaussian(g1, g2))
            assert gjsd_gaussian(g1, g2) == pytest.approx(identity_route,
                                                          abs=1e-10)
            mix = geometric_mixture_params(g1, g2)
            mixture_route = 0.5 * (kl_gaussian(g1, mix) + kl_gaussian(g2, mix))
            assert mixture_route == pytest.approx(identity_route, abs=1e-10)

    def test_skew_display_formula(self, rng):
        # trace/log-det/quadratic closed form for beta = alpha
        for _ in range(10):
            g1 = random_gaussian(rng, 2)
            g2 = random_gaussian(rng, 2)
            alpha = float(rng.uniform(0.1, 0.9))
            mix = geometric_mixture_params(g1, g2, alpha)
            prec = np.linalg.inv(mix.sigma)
            avg = alpha * g1.sigma + (1.0 - alpha) * g2.sigma
            d1, d2 = mix.mu - g1.mu, mix.mu - g2.mu
            expected = 0.5 * (
                float(np.trace(prec @ avg))
                + math.log(np.linalg.det(mix.sigma)
                           / (np.linalg.det(g1.sigma) ** alpha
                              * np.linalg.det(g2.sigma) ** (1.0 - alpha)))
                + alpha * float(d1 @ prec @ d1)
                + (1.0 - alpha) * float(d2 @ prec @ d2)
                - g1.dim)
            assert gjsd_gaussian(g1, g2, alpha, alpha) == pytest.approx(
                expected, abs=1e-10)

    def test_symmetry_balanced(self, rng):
        g1 = random_gaussian(rng, 2)
        g2 = random_gaussian(rng, 2)
        assert gjsd_gaussian(g1, g2) == pytest.approx(gjsd_gaussian(g2, g1),
                                                      rel=1e-10)

    def test_extended_frozen_value(self):
        # jeffreys/4 + exp(-1/8) - 1 = 0.1324969025845954
        assert gjsd_extended_gaussian(N01, N11) == pytest.approx(
            0.1324969025845954, abs=1e-14)
        assert gjsd_extended_gaussian(N01, N11) == pytest.approx(
            oracles.gaussian_gjsd_extended_quad(0.0, 1.0, 1.0, 1.0), abs=1e-9)

    def test_extended_gap_identity(self, rng):
        for _ in range(20):
            g1 = random_gaussian(rng, 2)
            g2 = random_gaussian(rng, 2)
            z = math.exp(-bhattacharyya_gaussian(g1, g2))
            gap = gjsd_extended_gaussian(g1, g2) - gjsd_gaussian(g1, g2)
            assert gap == pytest.approx(z - math.log(z) - 1.0, abs=1e-12)


class TestTotalVariation1D:
    def test_identical(self):
        assert tv_gaussian_1d(0.0, 1.0, 0.0, 1.0) == 0.0

    def test_equal_variance_frozen(self):
        expected = math.erf(1.0 / (2.0 * math.sqrt(2.0)))
        assert tv_gaussian_1d(0.0, 1.0, 1.0, 1.0) == pytest.approx(
            expected, abs=1e-14)
        assert tv_gaussian_1d(0.0, 1.0, 1.0, 1.0) == pytest.approx(
            oracles.gaussian_tv_quad(0.0, 1.0, 1.0, 1.0), abs=1e-8)

    def test_unequal_variance_vs_quadrature(self):
        got = tv_gaussian_1d(0.0, 1.0, 0.0, 2.0)
        assert got == pytest.approx(0.32267456883476866, abs=1e-12)
        assert got == pytest.approx(oracles.gaussian_tv_quad(0.0, 1.0, 0.0, 2.0),
                                    abs=1e-8)
        shifted = tv_gaussian_1d(0.3, 0.7, -0.5, 1.9)
        assert shifted == pytest.approx(
            oracles.gaussian_tv_quad(0.3, 0.7, -0.5, 1.9), abs=1e-8)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(50):
            m1, m2 = rng.uniform(-4.0, 4.0, 2)
            s1, s2 = rng.uniform(0.2, 3.0, 2)
            v = tv_gaussian_1d(m1, s1, m2, s2)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(tv_gaussian_1d(m2, s2, m1, s1),
                                      abs=1e-12)

    def test_affine_invariance(self, rng):
        for _ in range(20):
            m1, m2 = rng.uniform(-2.0, 2.0, 2)
            s1, s2 = rng.uniform(0.3, 2.0, 2)
            a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0))
            assert tv_gaussian_1d(m1, s1, m2, s2) == pytest.approx(
                tv_gaussian_1d(a * m1 + b, a * s1, a * m2 + b, a * s2),
                abs=1e-12)

    def test_saturates(self):
        assert tv_gaussian_1d(0.0, 1.0, 100.0, 1.0) > 1.0 - 1e-12

    def test_near_equal_sigma_routed(self):
        # sigma gap below threshold goes through the equal-variance branch
        v = tv_gaussian_1d(0.0, 1.0, 1.0, 1.0 + 1e-14)
        assert v == pytest.approx(math.erf(1.0 / (2.0 * math.sqrt(2.0))),
                                  abs=1e-10)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(NotPositiveDefinite):
            tv_gaussian_1d(0.0, 0.0, 1.0, 1.0)


class TestAffineInvariance:
    def test_all_divergences(self, rng):
        for d in (1, 2, 3):
            for _ in range(5):
                g1 = random_gaussian(rng, d)
                g2 = random_gaussian(rng, d)
                a = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
                b = rng.uniform(-1.0, 1.0, d)
                t1 = GaussianParams(a @ g1.mu + b, a @ g1.sigma @ a.T)
                t2 = GaussianParams(a @ g2.mu + b, a @ g2.sigma @ a.T)
                for fn in (kl_gaussian, jeffreys_gaussian,
                           bhattacharyya_gaussian, gjsd_gaussian,
                           gjsd_extended_gaussian):
                    assert fn(t1, t2) == pytest.approx(fn(g1, g2), abs=1e-9)


class TestExactZerosAndSign:
    @pytest.mark.parametrize("fn", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
    @pytest.mark.parametrize("g", [N12, NEAR_SINGULAR],
                             ids=["univariate", "near_singular"])
    def test_identical_inputs_are_exactly_zero(self, fn, g):
        copy = GaussianParams(g.mu.copy(), g.sigma.copy())
        assert fn(g, g) == 0.0
        assert fn(g, copy) == 0.0

    @pytest.mark.parametrize("fn", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
    @pytest.mark.parametrize("eps", [1e-12, 1e-10])
    def test_near_identical_ill_conditioned_pair_is_nonnegative(self, fn, eps):
        g = NEAR_SINGULAR
        moved = GaussianParams(g.mu + eps, g.sigma * (1.0 + eps))
        assert fn(g, moved) >= 0.0
        assert fn(moved, g) >= 0.0

    # variance ratios far from 1: each closed form against the moment-form
    # values at 50 digits (no cancellation to hide behind)
    @pytest.mark.parametrize("ratio", [1e12, 1e-12, 1e17, 1e-17, 1e160, 1e-160,
                                       1e300, 1e-300])
    @pytest.mark.parametrize("dm", [0.0, 0.7])
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.3, 0.8)])
    def test_wide_variance_ratio_matches_moment_form(self, ratio, dm, alpha, beta):
        g1 = GaussianParams.univariate(0.0, 1.0 / math.sqrt(ratio))
        g2 = GaussianParams.univariate(dm, math.sqrt(ratio))
        want = oracles.gaussian_closed_forms_oracle(
            0.0, 1.0 / math.sqrt(ratio), dm, math.sqrt(ratio), alpha, beta)
        got = {
            "kl": kl_gaussian(g1, g2),
            "jeffreys": jeffreys_gaussian(g1, g2),
            "bhattacharyya": bhattacharyya_gaussian(g1, g2, alpha),
            "gjsd": gjsd_gaussian(g1, g2, alpha, beta),
            "gjsd_extended": gjsd_extended_gaussian(g1, g2),
        }
        for name, value in got.items():
            assert value == pytest.approx(want[name], rel=1e-12), name

    def test_wide_mean_shift_matches_moment_form(self):
        # the shift is 1e155 first-variance units, so delta^2 in the pair
        # basis overflows although KL and B are finite
        g1 = GaussianParams.univariate(0.0, 1e-300)
        g2 = GaussianParams.univariate(1e5, 1.0)
        want = oracles.gaussian_closed_forms_oracle(0.0, 1e-300, 1e5, 1.0)
        assert kl_gaussian(g1, g2) == pytest.approx(want["kl"], rel=1e-12)
        assert bhattacharyya_gaussian(g1, g2) == pytest.approx(
            want["bhattacharyya"], rel=1e-12)
