import math

import numpy as np
import pytest

import oracles
from geojsd import (
    DiscreteDensity,
    DivergentIntegral,
    DomainViolation,
    ExpFamily,
    GaussianParams,
    InvalidAlpha,
    MeanSpec,
    bhattacharyya,
    bhattacharyya_gaussian,
    bregman,
    categorical_family,
    categorical_theta,
    dual_gjsd_ef,
    gaussian_family,
    gjsd_ef,
    gjsd_extended_ef,
    js_m,
    kl_gaussian,
    natural_flat,
    skew_jensen,
    to_natural,
)
from geojsd import estimate, gaussian
from geojsd.expfam import (ExpFamilyDensity, pack_gaussian_theta,
                           unpack_gaussian_theta)


@pytest.fixture
def quadratic_family():
    """F(theta) = ||theta||^2 / 2, the squared-Euclidean Bregman case."""

    def cumulant(t, gradient=False):
        f = 0.5 * float(t @ t)
        return (f, t.copy()) if gradient else f

    return ExpFamily(dim=2, cumulant=cumulant, name="quadratic")


@pytest.fixture
def gauss1d():
    return gaussian_family(1)


def random_gaussian(rng, d):
    mu = rng.uniform(-2.0, 2.0, d)
    a = rng.normal(size=(d, d))
    return GaussianParams(mu, a @ a.T + (0.5 + rng.uniform()) * np.eye(d))


class TestPacking:
    def test_round_trip(self, rng):
        for d in (1, 2, 4):
            v = rng.normal(size=d)
            m = rng.normal(size=(d, d))
            m = 0.5 * (m + m.T)
            flat = pack_gaussian_theta(v, m)
            assert flat.size == d + d * (d + 1) // 2
            v2, m2 = unpack_gaussian_theta(flat, d)
            np.testing.assert_allclose(v2, v, atol=1e-15)
            np.testing.assert_allclose(m2, m, atol=1e-15)

    def test_gradient_packing_reproduces_matrix_inner_product(self, rng):
        # <grad, dtheta> over the flat packing must equal the full-matrix
        # Frobenius pairing: off-diagonal gradient entries carry a factor 2
        d = 3
        fam = gaussian_family(d)
        g1 = random_gaussian(rng, d)
        theta = natural_flat(g1)
        f0, grad = fam.cumulant(theta, gradient=True)
        direction = rng.normal(size=theta.size) * 1e-6
        f1 = fam.cumulant(theta + direction)
        assert f1 - f0 == pytest.approx(float(grad @ direction), rel=5e-4)


class TestGaussianDomain:
    """gaussian_family(d) reads theta through gaussian.GaussianNatural."""

    INDEFINITE = pack_gaussian_theta([0.3, -0.2], np.diag([1.0, -0.1]))

    def test_cumulant_and_gradient_raise_domain_violation(self):
        fam = gaussian_family(2)
        nan_theta = pack_gaussian_theta([np.nan, 0.0], np.eye(2))
        for theta in (nan_theta, self.INDEFINITE):
            with pytest.raises(DomainViolation):
                fam.cumulant(theta)
            with pytest.raises(DomainViolation):
                fam.cumulant(theta, gradient=True)
        valid = pack_gaussian_theta([0.3, -0.2], np.eye(2))
        f, grad = fam.cumulant(valid, gradient=True)
        assert math.isfinite(f) and f.hex() == fam.cumulant(valid).hex()
        assert np.all(np.isfinite(grad))

    def test_gamma_route_reports_divergent_integral(self):
        # theta1 + gamma theta2 is inside the domain, so the moment of e1
        # with itself, at (1 + gamma) theta1, is the one that raises
        fam = gaussian_family(2)
        e1 = ExpFamilyDensity(fam, self.INDEFINITE)
        e2 = ExpFamilyDensity(fam, pack_gaussian_theta([0.0, 0.0], np.eye(2)))
        with pytest.raises(DivergentIntegral):
            estimate.gamma_divergence(e1, e2, 1.0, "closed_form")
        with pytest.raises(DivergentIntegral):
            estimate.js_m_gamma(e1, e2, MeanSpec.geometric(), 1.0, "closed_form")

    @pytest.mark.parametrize("d", [0, -1])
    def test_family_needs_a_dimension(self, d):
        # as categorical_family refuses fewer than two atoms
        with pytest.raises(ValueError, match="at least one dimension"):
            gaussian_family(d)

    def test_family_cumulant_is_gaussian_cumulant(self, rng):
        g = random_gaussian(rng, 2)
        n = to_natural(g)
        assert (gaussian_family(2).cumulant(natural_flat(g))
                == gaussian.cumulant(n))
        # natural_flat packs the same arrays to_natural validates
        assert (natural_flat(g).tobytes()
                == pack_gaussian_theta(n.theta_v, n.theta_m).tobytes())


class TestSkewJensen:
    def test_zero_at_identity(self, gauss1d):
        theta = natural_flat(GaussianParams.univariate(0.3, 1.2))
        assert skew_jensen(gauss1d, theta, theta, 0.4) == pytest.approx(
            0.0, abs=1e-15)

    def test_endpoint_degeneracy(self, gauss1d):
        t1 = natural_flat(GaussianParams.univariate(0.0, 1.0))
        t2 = natural_flat(GaussianParams.univariate(2.0, 3.0))
        assert skew_jensen(gauss1d, t1, t2, 1e-9) == pytest.approx(0.0,
                                                                   abs=1e-7)
        assert skew_jensen(gauss1d, t1, t2, 1.0 - 1e-9) == pytest.approx(
            0.0, abs=1e-7)

    def test_matches_bhattacharyya_closed_form(self, gauss1d):
        g1 = GaussianParams.univariate(0.0, 1.0)
        g2 = GaussianParams.univariate(1.0, 1.0)
        got = skew_jensen(gauss1d, natural_flat(g1), natural_flat(g2), 0.5)
        assert got == pytest.approx(0.125, abs=1e-12)
        assert got == pytest.approx(
            oracles.gaussian_bhattacharyya_quad(0.0, 1.0, 1.0, 1.0), abs=1e-9)

    def test_nonnegative(self, gauss1d, rng):
        for _ in range(50):
            t1 = natural_flat(random_gaussian(rng, 1))
            t2 = natural_flat(random_gaussian(rng, 1))
            alpha = float(rng.uniform(0.05, 0.95))
            assert skew_jensen(gauss1d, t1, t2, alpha) >= 0.0

    def test_domain_violation(self, gauss1d):
        with pytest.raises(DomainViolation):
            skew_jensen(gauss1d, np.array([0.0, -1.0]), np.array([0.0, 0.5]),
                        0.5)
        with pytest.raises(DomainViolation):
            skew_jensen(gauss1d, np.array([0.0, 0.5, 0.5]),
                        np.array([0.0, 0.5]), 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_alpha_outside_unit_interval_raises(self, gauss1d, alpha):
        # outside (0, 1) the skew Jensen gap turns negative: -0.4276 on this
        # categorical pair at alpha = 1.5, -1.1035 on this Gaussian pair at 3
        cat = categorical_family(3)
        c1 = categorical_theta([0.2, 0.3, 0.5])
        c2 = categorical_theta([0.6, 0.3, 0.1])
        g1 = natural_flat(GaussianParams.univariate(0.0, 1.0))
        g2 = natural_flat(GaussianParams.univariate(1.0, 3.0))
        for fam, t1, t2 in ((cat, c1, c2), (gauss1d, g1, g2)):
            with pytest.raises(InvalidAlpha):
                skew_jensen(fam, t1, t2, alpha)
            with pytest.raises(InvalidAlpha):
                dual_gjsd_ef(fam, t1, t2, alpha)


class TestBregman:
    def test_zero_at_identity(self, quadratic_family):
        t = np.array([0.7, -0.2])
        assert bregman(quadratic_family, t, t) == 0.0

    def test_quadratic_is_half_squared_distance(self, quadratic_family, rng):
        for _ in range(20):
            t1, t2 = rng.normal(size=2), rng.normal(size=2)
            expected = 0.5 * float((t1 - t2) @ (t1 - t2))
            assert bregman(quadratic_family, t1, t2) == pytest.approx(
                expected, rel=1e-12)

    def test_matches_gaussian_kl(self, rng):
        # B_F(theta2, theta1) = KL(p_theta1, p_theta2)
        for d in (1, 2, 3):
            fam = gaussian_family(d)
            g1, g2 = random_gaussian(rng, d), random_gaussian(rng, d)
            got = bregman(fam, natural_flat(g2), natural_flat(g1))
            assert got == pytest.approx(kl_gaussian(g1, g2), abs=1e-10)


class TestGradients:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gradient_matches_finite_differences(self, d, rng):
        fam = gaussian_family(d)
        for _ in range(10):
            theta = natural_flat(random_gaussian(rng, d))
            _, grad = fam.cumulant(theta, gradient=True)
            fd = np.empty_like(grad)
            step = 1e-5
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += step
                down[i] -= step
                fd[i] = (fam.cumulant(up) - fam.cumulant(down)) / (2 * step)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_midpoint_convexity(self, rng):
        fam = gaussian_family(2)
        for _ in range(20):
            t1 = natural_flat(random_gaussian(rng, 2))
            t2 = natural_flat(random_gaussian(rng, 2))
            mid = fam.cumulant(0.5 * (t1 + t2))
            assert mid <= 0.5 * (fam.cumulant(t1) + fam.cumulant(t2)) + 1e-12


class TestGJSDExpFam:
    def test_zero_at_identity(self, gauss1d):
        t = natural_flat(GaussianParams.univariate(0.5, 2.0))
        assert gjsd_ef(gauss1d, t, t) == pytest.approx(0.0, abs=1e-15)
        assert gjsd_extended_ef(gauss1d, t, t) == pytest.approx(0.0, abs=1e-15)

    def test_matches_quadrature(self, gauss1d):
        t1 = natural_flat(GaussianParams.univariate(0.0, 1.0))
        t2 = natural_flat(GaussianParams.univariate(1.0, 2.0))
        assert gjsd_ef(gauss1d, t1, t2) == pytest.approx(
            oracles.gaussian_gjsd_quad(0.0, 1.0, 1.0, math.sqrt(2.0)),
            abs=1e-6)
        assert gjsd_extended_ef(gauss1d, t1, t2) == pytest.approx(
            oracles.gaussian_gjsd_extended_quad(0.0, 1.0, 1.0, math.sqrt(2.0)),
            abs=1e-6)

    def test_categorical_matches_discrete(self, rng):
        for size in (2, 5, 9):
            w1 = rng.uniform(0.05, 1.0, size)
            w2 = rng.uniform(0.05, 1.0, size)
            p1 = DiscreteDensity.probability(w1 / w1.sum())
            p2 = DiscreteDensity.probability(w2 / w2.sum())
            fam = categorical_family(size)
            t1, t2 = categorical_theta(p1.weights), categorical_theta(p2.weights)
            assert gjsd_ef(fam, t1, t2) == pytest.approx(
                js_m(p1, p2, MeanSpec.geometric()), abs=1e-10)
            alpha = float(rng.uniform(0.1, 0.9))
            assert dual_gjsd_ef(fam, t1, t2, alpha) == pytest.approx(
                bhattacharyya(p1, p2, alpha), abs=1e-10)

    def test_gap_identity(self, gauss1d, rng):
        for _ in range(30):
            t1 = natural_flat(random_gaussian(rng, 1))
            t2 = natural_flat(random_gaussian(rng, 1))
            j_f = skew_jensen(gauss1d, t1, t2, 0.5)
            z = math.exp(-j_f)
            gap = gjsd_extended_ef(gauss1d, t1, t2) - gjsd_ef(gauss1d, t1, t2)
            assert gap == pytest.approx(z - math.log(z) - 1.0, abs=1e-12)

    def test_extended_identity_with_gaussian_module(self, gauss1d):
        g1 = GaussianParams.univariate(0.0, 1.0)
        g2 = GaussianParams.univariate(1.0, 2.0)
        quarter_j = 0.25 * (kl_gaussian(g1, g2) + kl_gaussian(g2, g1))
        b = bhattacharyya_gaussian(g1, g2)
        assert gjsd_extended_ef(gauss1d, natural_flat(g1), natural_flat(g2)) \
            == pytest.approx(quarter_j + math.exp(-b) - 1.0, abs=1e-10)

    def test_symmetry_and_duality(self, gauss1d, rng):
        t1 = natural_flat(random_gaussian(rng, 1))
        t2 = natural_flat(random_gaussian(rng, 1))
        assert gjsd_ef(gauss1d, t1, t2) == pytest.approx(
            gjsd_ef(gauss1d, t2, t1), rel=1e-12)
        alpha = 0.3
        assert dual_gjsd_ef(gauss1d, t1, t2, alpha) == pytest.approx(
            dual_gjsd_ef(gauss1d, t2, t1, 1.0 - alpha), rel=1e-12)
        assert dual_gjsd_ef(gauss1d, t1, t2, alpha) == skew_jensen(
            gauss1d, t1, t2, alpha)

    def test_cholesky_factors_per_call(self, rng, monkeypatch):
        # d = 3: each cumulant call factors theta_M once, with or without its
        # gradient.  gjsd_ef reads theta1 and theta2 with their gradients and
        # the midpoint without; bregman reads theta2 with its gradient and
        # theta1 without; a gamma-divergence takes one cumulant per moment
        # integral, three integrals alone and five in js_m_gamma.
        # Each factorization is followed by the one solve for L^-1, and
        # nothing else solves.  natural_flat, the closed forms and the
        # ordinary cumulant use the factors the params already keep.
        fam = gaussian_family(3)
        g1, g2 = random_gaussian(rng, 3), random_gaussian(rng, 3)
        t1, t2 = natural_flat(g1), natural_flat(g2)
        e1, e2 = ExpFamilyDensity(fam, t1), ExpFamilyDensity(fam, t2)
        calls = []

        def counting(kind, wrapped):
            def call(*args):
                calls.append(kind)
                return wrapped(*args)
            return call

        for kind in ("cholesky", "solve"):
            monkeypatch.setattr(np.linalg, kind,
                                counting(kind, getattr(np.linalg, kind)))
        table = {
            "gjsd_ef": (lambda: gjsd_ef(fam, t1, t2), 3),
            "gjsd_extended_ef": (lambda: gjsd_extended_ef(fam, t1, t2), 3),
            "skew_jensen": (lambda: skew_jensen(fam, t1, t2), 3),
            "bregman": (lambda: bregman(fam, t1, t2), 2),
            "natural_flat": (lambda: natural_flat(g1), 0),
            "cumulant_ordinary": (lambda: gaussian.cumulant_ordinary(g1), 0),
            "kl_gaussian": (lambda: gaussian.kl_gaussian(g1, g2), 0),
            "jeffreys_gaussian": (lambda: gaussian.jeffreys_gaussian(g1, g2), 0),
            "bhattacharyya_gaussian": (
                lambda: gaussian.bhattacharyya_gaussian(g1, g2), 0),
            "gjsd_gaussian": (lambda: gaussian.gjsd_gaussian(g1, g2), 0),
            "gjsd_extended_gaussian": (
                lambda: gaussian.gjsd_extended_gaussian(g1, g2), 0),
            "gamma_divergence": (lambda: estimate.gamma_divergence(
                e1, e2, 0.5, "closed_form"), 3),
            "js_m_gamma": (lambda: estimate.js_m_gamma(
                e1, e2, MeanSpec.geometric(), 0.5, "closed_form"), 5),
        }
        for name, (call, want) in table.items():
            calls.clear()
            call()
            assert calls == ["cholesky", "solve"] * want, name


class TestIntractableFamily:
    def test_operations_refuse_missing_cumulant(self):
        quartic = ExpFamily(
            dim=4,
            cumulant=None,
            name="polynomial_quartic",
        )
        t = np.array([0.1, 0.2, 0.0, -1.0])
        with pytest.raises(ValueError, match="gamma-divergence"):
            skew_jensen(quartic, t, t, 0.5)
        with pytest.raises(ValueError):
            gjsd_ef(quartic, t, t)
        # the demo's input: with no cumulant to read it, zeros are not
        # refused as outside the domain
        with pytest.raises(ValueError, match="needs a closed-form cumulant"):
            skew_jensen(quartic, np.zeros(4), np.zeros(4))


class TestCategoricalTheta:
    def test_rejects_zero_weight(self):
        # also NaN and infinite weights, a single atom and a 2-D input
        for weights in ([0.5, 0.5, 0.0], [math.nan, 0.5, 0.5], [math.inf, 1.0],
                        [1.0], [[0.5, 0.5], [0.5, 0.5]]):
            with pytest.raises(DomainViolation):
                categorical_theta(np.array(weights))

    def test_round_trip_probabilities(self, rng):
        w = rng.uniform(0.05, 1.0, 6)
        w = w / w.sum()
        fam = categorical_family(6)
        theta = categorical_theta(w)
        f, probs = fam.cumulant(theta, gradient=True)
        np.testing.assert_allclose(probs, w[:-1], rtol=1e-12)
        assert f.hex() == fam.cumulant(theta).hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cumulant_and_gradient_reject_non_finite(self, bad):
        fam = categorical_family(3)
        theta = np.array([0.4, bad])
        with pytest.raises(DomainViolation):
            fam.cumulant(theta)
        with pytest.raises(DomainViolation):
            fam.cumulant(theta, gradient=True)
