import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from geojsd import (
    BITS,
    DiscreteDensity,
    DisjointSupport,
    F_BHATTACHARYYA_COEFF,
    F_EXTENDED_GJS,
    F_JEFFREYS,
    F_JS,
    F_KL,
    F_TANEJA,
    FGenerator,
    InvalidAlpha,
    InvalidDensity,
    MeanSpec,
    NoConvergence,
    bhattacharyya,
    bhattacharyya_coefficient,
    chernoff,
    coarse_grain,
    cross_entropy,
    f_divergence,
    jeffreys,
    js,
    js_m,
    js_m_extended,
    kl,
    kl_between_mixtures,
    kl_extended,
    m_mixture,
    shannon_entropy,
    taneja_t,
    total_variation,
)

GEO = MeanSpec.geometric()
ARITH = MeanSpec.arithmetic()
LN2 = math.log(2.0)

P = [0.5, 0.5]
Q = [0.25, 0.75]

# frozen from tests/oracles.py (50-digit mpmath summation)
KL_PQ = 0.14384103622589046
KL_QP = 0.13081203594113696
JS_PQ = 0.03382207556860523
Z_G_PQ = 0.96592582628906829
B_HALF_PQ = 0.034668232097536955
JS_G_PQ = 0.033995035944219901
JS_G_EXT_PQ = 0.034589094330825142
TANEJA_PQ = 0.034841192473151626
KL_AG_PQ = 0.00017296037561467061


@pytest.fixture
def pq(simple_pair):
    return simple_pair


class TestDiscreteDensity:
    def test_rejects_negative(self):
        with pytest.raises(InvalidDensity):
            DiscreteDensity.positive([0.5, -0.1])

    @pytest.mark.parametrize("weights", [
        ["a", "b"], ["0.5", "0.5"], np.array([b"1"]),
        np.array(["0.5", "0.5"], dtype=object), np.array(["a"], dtype=object),
        np.array([0.5, "0.5"], dtype=object)])
    def test_text_weights_are_a_type_error(self, weights):
        for build in (DiscreteDensity, DiscreteDensity.probability):
            with pytest.raises(TypeError):
                build(weights)

    @pytest.mark.parametrize("weights", [[1j, 1.0], np.array([0.5 + 0j, 0.5])])
    def test_complex_weights_are_a_type_error(self, weights):
        # not silently cast to their real part with a ComplexWarning
        for build in (DiscreteDensity, DiscreteDensity.probability):
            with pytest.raises(TypeError, match="complex"):
                build(weights)

    def test_ragged_weights_are_invalid(self):
        # numpy's own ValueError for an inhomogeneous nesting is not raised
        with pytest.raises(InvalidDensity, match="1-D vector"):
            DiscreteDensity([[1.0], [1.0, 2.0]])

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidDensity):
            DiscreteDensity.positive([0.0, 0.0])

    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidDensity):
            DiscreteDensity.probability([0.5, 0.6])

    def test_exact_mass_not_flagged(self):
        d = DiscreteDensity.probability([0.5, 0.5])
        assert not d.renormalized

    def test_renormalized_flag_is_not_an_argument(self):
        with pytest.raises(TypeError):
            DiscreteDensity(np.array([0.5, 0.5]), renormalized=True)

    def test_near_mass_renormalized_with_flag(self):
        d = DiscreteDensity.probability([0.5, 0.5 + 5e-10])
        assert d.renormalized
        assert d.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_weights_read_only(self, pq):
        p, _ = pq
        with pytest.raises(ValueError):
            p.weights[0] = 1.0

    def test_support_mismatch(self, pq):
        p, _ = pq
        with pytest.raises(InvalidDensity):
            kl(p, DiscreteDensity.probability([1.0]))

    def test_normalized_required(self, pq):
        p, _ = pq
        with pytest.raises(InvalidDensity):
            kl(p, DiscreteDensity.positive([0.5, 0.2]))


class TestKL:
    def test_identity(self, pq):
        p, _ = pq
        assert kl(p, p) == 0.0

    def test_frozen_value(self, pq):
        p, q = pq
        assert kl(p, q) == pytest.approx(KL_PQ, abs=1e-15)
        assert kl(p, q) == pytest.approx(oracles.kl_oracle(P, Q), abs=1e-15)

    def test_deterministic_vs_half(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        u = DiscreteDensity.probability([0.5, 0.5])
        assert kl(p, u) == pytest.approx(LN2, abs=1e-15)

    def test_support_violation_is_inf(self):
        p = DiscreteDensity.probability([0.5, 0.5])
        q = DiscreteDensity.probability([1.0, 0.0])
        assert kl(p, q) == math.inf

    def test_zero_conventions(self):
        # 0*log(0/x) contributes nothing
        p = DiscreteDensity.probability([0.0, 1.0])
        q = DiscreteDensity.probability([0.5, 0.5])
        assert kl(p, q) == pytest.approx(LN2, abs=1e-15)

    def test_bits(self, pq):
        p, q = pq
        assert kl(p, q, BITS) == pytest.approx(KL_PQ / LN2, abs=1e-15)


class TestKLExtended:
    def test_identity_unnormalized(self):
        q = DiscreteDensity.positive([0.3, 0.9])
        assert kl_extended(q, q) == 0.0

    def test_doubled_density(self, pq):
        p, _ = pq
        doubled = DiscreteDensity.positive(2.0 * p.weights)
        expected = 2.0 * LN2 - 1.0  # frozen: 0.38629436111989062
        assert kl_extended(doubled, p) == pytest.approx(expected, abs=1e-15)
        assert kl_extended(doubled, p) == pytest.approx(
            oracles.kl_extended_oracle(2.0 * p.weights, p.weights), abs=1e-15)

    def test_matches_kl_when_normalized(self, pq):
        p, q = pq
        assert kl_extended(p, q) == pytest.approx(kl(p, q), abs=1e-15)

    def test_nonnegative_on_positive_vectors(self, rng):
        for _ in range(200):
            q1 = DiscreteDensity.positive(rng.uniform(0.01, 3.0, 8))
            q2 = DiscreteDensity.positive(rng.uniform(0.01, 3.0, 8))
            assert kl_extended(q1, q2) >= 0.0

    def test_masses_1e300_apart_stay_finite(self):
        # q1/q2 underflows to 0 and q2/q1 overflows: the log term must come
        # from log(q1) - log(q2), not from log(q1/q2) (-inf and +inf)
        q1 = DiscreteDensity.positive([1e-300, 1.0])
        q2 = DiscreteDensity.positive([1e300, 1.0])
        assert kl_extended(q1, q2) == pytest.approx(1e300, rel=1e-15)
        assert kl_extended(q2, q1) == pytest.approx(
            1e300 * 600.0 * math.log(10.0) - 1e300, rel=1e-14)

    def test_bits_scales_log_part_only(self, rng):
        q1 = DiscreteDensity.positive(rng.uniform(0.1, 2.0, 6))
        q2 = DiscreteDensity.positive(rng.uniform(0.1, 2.0, 6))
        nats = kl_extended(q1, q2)
        mass_diff = q2.total_mass - q1.total_mass
        log_part = nats - mass_diff
        assert kl_extended(q1, q2, BITS) == pytest.approx(
            log_part / LN2 + mass_diff, rel=1e-12)


class TestMixture:
    def test_arithmetic_normalizer_is_one(self, rng, pair_factory):
        for _ in range(20):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 32)))
            _, z = m_mixture(p1, p2, ARITH)
            assert z == pytest.approx(1.0, abs=1e-14)

    def test_geometric_idempotent(self, pq):
        p, _ = pq
        mix, z = m_mixture(p, p, GEO)
        assert z == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(mix.weights, p.weights, rtol=1e-15)

    def test_frozen_geometric_normalizer(self, pq):
        p, q = pq
        _, z = m_mixture(p, q, GEO)
        assert z == pytest.approx(Z_G_PQ, abs=1e-15)
        assert z == pytest.approx(oracles.geometric_z_oracle(P, Q), abs=1e-15)

    def test_disjoint_support_raises(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.0, 1.0])
        with pytest.raises(DisjointSupport):
            m_mixture(p, q, GEO)

    def test_unnormalized_mixture(self, pq):
        p, q = pq
        mix, z = m_mixture(p, q, GEO, normalize=False)
        assert not mix.normalized
        assert mix.total_mass == pytest.approx(z, abs=1e-15)

    def test_z_extremes_match_tv(self, rng, pair_factory):
        for _ in range(50):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 32)))
            tv = total_variation(p1, p2)
            _, z_min = m_mixture(p1, p2, MeanSpec.minimum())
            _, z_max = m_mixture(p1, p2, MeanSpec.maximum())
            assert z_min == pytest.approx(1.0 - tv, abs=1e-12)
            assert z_max == pytest.approx(1.0 + tv, abs=1e-12)


class TestMixtureChecks:
    """The mixture JSDs raise what m_mixture raises."""

    def test_overflowing_normalizer(self):
        # every mixture weight is finite, only their sum is not
        big = DiscreteDensity.positive([1e308, 1e308])
        mixture, z = m_mixture(big, big, ARITH)
        assert z == math.inf
        assert list(mixture.weights) == [0.5, 0.5]
        assert kl_between_mixtures(big, big, ARITH, GEO) == 0.0
        assert js_m_extended(big, big, ARITH) == 0.0

    def test_disjoint_supports(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.0, 1.0])
        for call in (lambda: m_mixture(p, q, GEO), lambda: js_m(p, q, GEO),
                     lambda: js_m_extended(p, q, GEO),
                     lambda: kl_between_mixtures(p, q, ARITH, GEO)):
            with pytest.raises(DisjointSupport):
                call()


class TestJS:
    def test_identity(self, pq):
        p, _ = pq
        assert js(p, p) == 0.0

    def test_disjoint_is_log2(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.0, 1.0])
        assert js(p, q) == pytest.approx(LN2, abs=1e-15)
        assert js(p, q, BITS) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self, pq):
        p, q = pq
        assert js(p, q) == pytest.approx(JS_PQ, abs=1e-15)
        assert js(p, q) == pytest.approx(oracles.js_oracle(P, Q), abs=1e-15)

    def test_symmetric_and_bounded(self, rng, pair_factory):
        for _ in range(100):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 48)), floor=0.0)
            value = js(p1, p2)
            assert value == pytest.approx(js(p2, p1), abs=1e-15)
            assert 0.0 <= value <= LN2 + 1e-15


class TestJSM:
    def test_arithmetic_reduces_to_js(self, pq):
        p, q = pq
        assert js_m(p, q, ARITH) == pytest.approx(js(p, q), abs=1e-14)

    def test_identity(self, pq):
        p, _ = pq
        assert js_m(p, p, GEO) == 0.0

    def test_geometric_matches_oracle(self, pq):
        p, q = pq
        assert js_m(p, q, GEO) == pytest.approx(JS_G_PQ, abs=1e-15)
        assert js_m(p, q, GEO) == pytest.approx(
            oracles.js_geometric_oracle(P, Q), abs=1e-15)

    def test_beta_validation(self, pq):
        p, q = pq
        with pytest.raises(InvalidAlpha):
            js_m(p, q, GEO, beta=1.0)

    def test_beta_weighting(self, pq):
        p, q = pq
        mix, _ = m_mixture(p, q, GEO)
        expected = 0.2 * kl(p, mix) + 0.8 * kl(q, mix)
        assert js_m(p, q, GEO, beta=0.2) == pytest.approx(expected, abs=1e-15)

    def test_min_mean_can_be_infinite(self):
        p1 = DiscreteDensity.probability([0.5, 0.5, 0.0])
        p2 = DiscreteDensity.probability([0.0, 0.5, 0.5])
        assert js_m(p1, p2, MeanSpec.minimum()) == math.inf
        # the extended variant hits the same support violation
        assert js_m_extended(p1, p2, MeanSpec.minimum()) == math.inf


class TestJSMExtended:
    def test_arithmetic_matches_normalized(self, pq):
        p, q = pq
        assert js_m_extended(p, q, ARITH) == pytest.approx(
            js_m(p, q, ARITH), abs=1e-14)

    def test_identity(self):
        q = DiscreteDensity.positive([0.4, 1.1])
        assert js_m_extended(q, q, GEO) == 0.0

    def test_geometric_matches_oracle(self, pq):
        p, q = pq
        assert js_m_extended(p, q, GEO) == pytest.approx(JS_G_EXT_PQ, abs=1e-15)
        assert js_m_extended(p, q, GEO) == pytest.approx(
            oracles.js_geometric_extended_oracle(P, Q), abs=1e-15)

    def test_gap_identity_random(self, rng, pair_factory):
        for _ in range(100):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 48)))
            for mean in (GEO, MeanSpec.power(-0.5), MeanSpec.minimum(),
                         MeanSpec.maximum()):
                _, z = m_mixture(p1, p2, mean)
                gap = js_m_extended(p1, p2, mean) - js_m(p1, p2, mean)
                assert gap == pytest.approx(z - math.log(z) - 1.0, abs=1e-12)


class TestJeffreys:
    def test_identity(self, pq):
        p, _ = pq
        assert jeffreys(p, p) == 0.0

    def test_frozen_both_directions(self, pq):
        p, q = pq
        assert jeffreys(p, q) == pytest.approx(KL_PQ + KL_QP, abs=1e-15)

    def test_disjoint_is_infinite(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.0, 1.0])
        assert jeffreys(p, q) == math.inf

    def test_symmetric(self, pq):
        p, q = pq
        assert jeffreys(p, q) == pytest.approx(jeffreys(q, p), abs=1e-15)


class TestBhattacharyya:
    def test_identity(self, pq):
        p, _ = pq
        assert bhattacharyya(p, p, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value(self, pq):
        p, q = pq
        assert bhattacharyya(p, q) == pytest.approx(B_HALF_PQ, abs=1e-15)
        assert bhattacharyya(p, q) == pytest.approx(
            oracles.bhattacharyya_oracle(P, Q), abs=1e-15)

    def test_disjoint_returns_inf(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.0, 1.0])
        assert bhattacharyya(p, q) == math.inf

    def test_skew_symmetry(self, pq):
        p, q = pq
        assert bhattacharyya(p, q, 0.3) == pytest.approx(
            bhattacharyya(q, p, 0.7), abs=1e-15)

    def test_coefficient(self, pq):
        p, q = pq
        assert bhattacharyya_coefficient(p, q) == pytest.approx(Z_G_PQ,
                                                                abs=1e-15)

    def test_alpha_validation(self, pq):
        p, q = pq
        with pytest.raises(InvalidAlpha):
            bhattacharyya(p, q, alpha=0.0)


class TestChernoff:
    def test_identical(self, pq):
        p, _ = pq
        assert chernoff(p, p) == (0.0, 0.5)

    def test_swap_symmetric_pair(self):
        p = DiscreteDensity.probability([0.25, 0.75])
        q = DiscreteDensity.probability([0.75, 0.25])
        value, alpha_star = chernoff(p, q)
        assert alpha_star == pytest.approx(0.5, abs=1e-9)
        assert value == pytest.approx(bhattacharyya(p, q), rel=1e-12)

    def test_maximizes_over_grid(self, pq):
        p, q = pq
        value, alpha_star = chernoff(p, q)
        log_w1, log_w2 = np.log(p.weights), np.log(q.weights)
        grid = np.arange(1e-6, 1.0, 1e-6)
        scan = np.exp(np.outer(grid, log_w1) + np.outer(1.0 - grid, log_w2))
        best = float((-np.log(scan.sum(axis=1))).max())
        assert value >= best - 1e-12
        assert abs(alpha_star - 0.5119228576824908) < 1e-6

    def test_matches_mpmath_root(self, pq, rng, pair_factory):
        pairs = [pq] + [pair_factory(rng, int(rng.integers(2, 24)))
                        for _ in range(4)]
        for p, q in pairs:
            value, alpha_star = chernoff(p, q)
            ref_value, ref_alpha = oracles.chernoff_oracle(p.weights, q.weights)
            assert value == pytest.approx(ref_value, abs=1e-15)
            assert alpha_star == pytest.approx(ref_alpha, abs=1e-14)

    def test_equalizer_property(self, rng, pair_factory):
        for _ in range(20):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 24)))
            _, alpha_star = chernoff(p1, p2)
            mix, _ = m_mixture(p1, p2, MeanSpec.geometric(alpha_star))
            assert abs(kl(mix, p1) - kl(mix, p2)) < 1e-8

    def test_disjoint_raises(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.0, 1.0])
        with pytest.raises(DisjointSupport):
            chernoff(p, q)

    def test_exhausted_iteration_budget(self, pq):
        p, q = pq
        with pytest.raises(NoConvergence):
            chernoff(p, q, max_iter=1)

    def test_constant_b_alpha_on_partial_overlap(self):
        # only one shared atom: B_alpha is constant, any alpha is optimal
        p = DiscreteDensity.probability([0.5, 0.5, 0.0])
        q = DiscreteDensity.probability([0.5, 0.0, 0.5])
        value, _ = chernoff(p, q)
        assert value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_boundary_maximizer(self, monkeypatch):
        # B_alpha = (1 - alpha) log 2 falls on (0, 1): the maximum is at 0
        exp_calls = count_calls(monkeypatch, np, "exp")
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.5, 0.5])
        value, alpha_star = chernoff(p, q)
        assert value == pytest.approx(LN2, rel=1e-15)
        assert alpha_star == 0.0
        value, alpha_star = chernoff(q, p)
        assert value == pytest.approx(LN2, rel=1e-15)
        assert alpha_star == 1.0
        # the end slopes are weight sums: no exponential pass was needed
        assert exp_calls == []

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf, -math.inf])
    def test_rejects_bad_tol(self, pq, tol):
        p, q = pq
        with pytest.raises(ValueError, match="tol must be positive"):
            chernoff(p, q, tol=tol)

    def test_passes_at_one_million_atoms(self, monkeypatch):
        rng = np.random.default_rng(1_000_000)
        w1 = rng.uniform(0.05, 1.0, 1_000_000)
        w2 = rng.uniform(0.05, 1.0, 1_000_000)
        p = DiscreteDensity.probability(w1 / w1.sum())
        q = DiscreteDensity.probability(w2 / w2.sum())
        exp_calls = count_calls(monkeypatch, np, "exp")
        _, alpha_star = chernoff(p, q)
        assert 0.0 < alpha_star < 1.0
        assert 1 <= len(exp_calls) <= 8

    def test_passes_on_nearly_equal_pair(self, monkeypatch):
        # weights equal to 1e-6: steps too small to change the rounded
        # log-weights see only noise in the slope; creeping on by such
        # steps took 38 passes
        p = DiscreteDensity.probability([0.7762802571403095, 0.22371974285969046])
        q = DiscreteDensity.probability([0.7762805145294165, 0.2237194854705835])
        exp_calls = count_calls(monkeypatch, np, "exp")
        chernoff(p, q)
        assert 1 <= len(exp_calls) <= 8


def count_calls(monkeypatch, module, name):
    """Record each call of ``module.name`` for the rest of the test."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# Slack for comparisons against separately rounded sums of up to 1e4 masses.
CHERNOFF_SLACK = 1e-12


@st.composite
def chernoff_pairs(draw):
    """Normalized pairs of up to 1e4 atoms that share at least one atom.

    Weights spread over up to ~40 orders of magnitude; a drawn share of the
    atoms is 1e-300 on either side or exactly zero on one side only, and the
    second density is either independent or equal to the first within a
    drawn relative perturbation.
    """
    n = draw(st.sampled_from([2, 3, 8, 33, 257, 1000, 10_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 1.0, 10.0]))
    w1 = rng.uniform(0.05, 1.0, n) * np.exp(spread * rng.standard_normal(n))
    near = draw(st.sampled_from([None, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]))
    if near is None:
        w2 = rng.uniform(0.05, 1.0, n) * np.exp(spread * rng.standard_normal(n))
    else:
        w2 = w1 * (1.0 + near * rng.standard_normal(n))
    share = st.sampled_from([0.0, 0.01, 0.3, 0.9])
    w1[rng.random(n) < draw(share)] = 1e-300
    w2[rng.random(n) < draw(share)] = 1e-300
    zero1 = rng.random(n) < draw(share)
    zero2 = (rng.random(n) < draw(share)) & ~zero1
    zero1[0] = zero2[0] = False
    w1[zero1] = 0.0
    w2[zero2] = 0.0
    return (DiscreteDensity.probability(w1 / w1.sum()),
            DiscreteDensity.probability(w2 / w2.sum()))


def b_alpha_scan(la, lb, alphas, block=64):
    """B_alpha on the shared support at each alpha, scanned in blocks."""
    return np.concatenate([
        -sp.logsumexp(np.outer(a, la) + np.outer(1.0 - a, lb), axis=1)
        for a in np.array_split(alphas, max(1, alphas.size // block))])


def sharp_pair(a, b):
    """Two atoms whose log-ratios are hundreds of nats apart: curvature ~1e4."""
    return (DiscreteDensity.probability([a, 1.0]),
            DiscreteDensity.probability([1.0, b]))


class TestChernoffProperties:
    @settings(max_examples=60, deadline=None)
    @given(pair=chernoff_pairs())
    # stopping on the pass whose step is below tol left a gap of 5e-8 here
    @example(pair=sharp_pair(1e-300, 1e-264))
    # a Newton step that rounds to nothing at a bracket end was replaced by
    # bisection, which moved away from the root: gap 2e-8
    @example(pair=sharp_pair(1e-128, 1e-46))
    # weights equal to 1e-6: rounding noise in the slope sent each Newton
    # step to the far end of the bracket, and 200 passes alternated there
    @example(pair=(DiscreteDensity.probability([0.4280372296414787,
                                                0.5719627703585213]),
                   DiscreteDensity.probability([0.42803754701046215,
                                                0.5719624529895377])))
    def test_maximizer(self, pair):
        p, q = pair
        value, alpha_star = chernoff(p, q)
        shared = (p.weights > 0.0) & (q.weights > 0.0)
        w1, w2 = p.weights[shared], q.weights[shared]
        la, lb = np.log(w1), np.log(w2)
        grid = np.arange(1e-3, 1.0, 1e-3)
        assert value >= float(b_alpha_scan(la, lb, grid).max()) - CHERNOFF_SLACK
        # the two boundary limits, and B_alpha >= 0 for normalized pairs
        assert value >= -math.log(float(w1.sum())) - CHERNOFF_SLACK
        assert value >= -math.log(float(w2.sum())) - CHERNOFF_SLACK
        assert value >= -CHERNOFF_SLACK
        if 0.0 < alpha_star < 1.0:
            log_mix = alpha_star * la + (1.0 - alpha_star) * lb
            weights = np.exp(log_mix - log_mix.max())
            gap = float((weights * (lb - la)).sum() / weights.sum())
            assert abs(gap) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(pair=chernoff_pairs())
    def test_swap_symmetry(self, pair):
        p, q = pair
        value, alpha_star = chernoff(p, q)
        swapped_value, swapped_alpha = chernoff(q, p)
        assert abs(swapped_value - value) <= 1e-12
        assert abs(swapped_alpha - (1.0 - alpha_star)) <= 1e-12


class TestTotalVariation:
    def test_cases(self, pq):
        p, q = pq
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == pytest.approx(0.25, abs=1e-15)
        disjoint = (DiscreteDensity.probability([1.0, 0.0]),
                    DiscreteDensity.probability([0.0, 1.0]))
        assert total_variation(*disjoint) == 1.0


class TestFDivergence:
    def test_zero_at_identity(self, pq):
        p, _ = pq
        for gen in (F_KL, F_JS, F_EXTENDED_GJS, F_JEFFREYS, F_TANEJA):
            assert f_divergence(p, p, gen) == pytest.approx(0.0, abs=1e-15)
        assert f_divergence(p, p, F_BHATTACHARYYA_COEFF) == pytest.approx(
            1.0, abs=1e-15)

    def test_generators_match_direct_implementations(self, rng, pair_factory):
        for _ in range(50):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 32)))
            assert f_divergence(p1, p2, F_KL) == pytest.approx(
                kl(p1, p2), abs=1e-13)
            assert f_divergence(p1, p2, F_JS) == pytest.approx(
                js(p1, p2), abs=1e-13)
            assert f_divergence(p1, p2, F_JEFFREYS) == pytest.approx(
                jeffreys(p1, p2), abs=1e-12)
            assert f_divergence(p1, p2, F_TANEJA) == pytest.approx(
                taneja_t(p1, p2), abs=1e-12)
            assert f_divergence(p1, p2, F_EXTENDED_GJS) == pytest.approx(
                js_m_extended(p1, p2, GEO), abs=1e-12)

    def test_bc_similarity(self, pq):
        p, q = pq
        got = f_divergence(p, q, F_BHATTACHARYYA_COEFF)
        assert got == pytest.approx(Z_G_PQ, abs=1e-15)
        assert got <= 1.0

    def test_limit_conventions_on_disjoint(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.0, 1.0])
        assert f_divergence(p, q, F_JS) == pytest.approx(LN2, abs=1e-15)
        assert f_divergence(p, q, F_JEFFREYS) == math.inf
        assert f_divergence(p, q, F_BHATTACHARYYA_COEFF) == 0.0

    def test_base_change(self, pq):
        p, q = pq
        assert f_divergence(p, q, F_JS, BITS) == pytest.approx(
            js(p, q, BITS), abs=1e-14)
        # the extended geometric generator rescales only its log part
        assert f_divergence(p, q, F_EXTENDED_GJS, BITS) == pytest.approx(
            js_m_extended(p, q, GEO, base=BITS), abs=1e-14)
        # the coefficient is base-free
        assert f_divergence(p, q, F_BHATTACHARYYA_COEFF, BITS) == \
            f_divergence(p, q, F_BHATTACHARYYA_COEFF)

    def test_custom_generator(self, pq):
        p, q = pq
        # total variation generator |u - 1| / 2
        gen = FGenerator.custom(lambda u: 0.5 * np.abs(u - 1.0),
                                at_zero=0.5, slope_at_inf=0.5, name="tv")
        assert f_divergence(p, q, gen) == pytest.approx(
            total_variation(p, q), abs=1e-14)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tiny", [1e-310, 1e-320, 5e-324])
    def test_subnormal_masses_give_the_direct_values(self, tiny):
        # the ratio of 0.5 to a subnormal mass overflows: each generator's
        # term is taken from the two masses, so the sum stays finite
        p = DiscreteDensity.probability([tiny, 1.0 - tiny])
        q = DiscreteDensity.probability([0.5, 0.5])
        for a, b in ((p, q), (q, p)):
            direct = {F_KL: kl(a, b), F_JS: js(a, b),
                      F_EXTENDED_GJS: js_m_extended(a, b, GEO),
                      F_JEFFREYS: jeffreys(a, b), F_TANEJA: taneja_t(a, b),
                      F_BHATTACHARYYA_COEFF: bhattacharyya_coefficient(a, b)}
            for gen, want in direct.items():
                assert math.isfinite(want)
                assert f_divergence(a, b, gen) == pytest.approx(
                    want, rel=1e-14, abs=0.0), gen.name

    def test_generator_is_the_term_at_unit_mass(self):
        u = np.logspace(-6.0, 6.0, 25)
        assert F_KL.f(u, 1.0) == pytest.approx(-np.log(u), rel=1e-15)
        assert F_BHATTACHARYYA_COEFF.f(u, 1.0) == pytest.approx(np.sqrt(u),
                                                                rel=1e-15)
        assert F_JEFFREYS.f(u, LN2) == pytest.approx(
            (u - 1.0) * np.log2(u), rel=1e-14)
        gen = FGenerator.custom(lambda v: 0.5 * np.abs(v - 1.0), 0.5, 0.5)
        assert gen.f(u, 1.0) == pytest.approx(0.5 * np.abs(u - 1.0), rel=1e-15)


class TestMixtureKLAndTaneja:
    def test_identity(self, pq):
        p, _ = pq
        assert kl_between_mixtures(p, p, ARITH, GEO) == pytest.approx(
            0.0, abs=1e-15)

    def test_frozen_value(self, pq):
        p, q = pq
        got = kl_between_mixtures(p, q, ARITH, GEO)
        assert got == pytest.approx(KL_AG_PQ, abs=1e-15)
        assert got == pytest.approx(oracles.kl_between_mixtures_oracle(P, Q),
                                    abs=1e-15)

    def test_symmetric(self, rng, pair_factory):
        p1, p2 = pair_factory(rng, 8)
        assert kl_between_mixtures(p1, p2, ARITH, GEO) == pytest.approx(
            kl_between_mixtures(p2, p1, ARITH, GEO), rel=1e-12)

    def test_requires_balanced_means(self, pq):
        p, q = pq
        with pytest.raises(InvalidAlpha):
            kl_between_mixtures(p, q, MeanSpec.arithmetic(0.3), GEO)

    def test_taneja_frozen(self, pq):
        p, q = pq
        assert taneja_t(p, q) == pytest.approx(TANEJA_PQ, abs=1e-15)
        assert taneja_t(p, q) == pytest.approx(oracles.taneja_oracle(P, Q),
                                               abs=1e-15)

    def test_taneja_relates_to_mixture_kl(self, rng, pair_factory):
        for _ in range(50):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 32)))
            _, z_g = m_mixture(p1, p2, GEO)
            assert taneja_t(p1, p2) == pytest.approx(
                kl_between_mixtures(p1, p2, ARITH, GEO) - math.log(z_g),
                abs=1e-12)

    def test_taneja_tiny_masses(self):
        # sqrt(p1 * p2) underflows at these masses; the log-space mean does not
        p = DiscreteDensity.probability([1e-200, 1.0 - 1e-200])
        q = DiscreteDensity.probability([2e-200, 1.0 - 2e-200])
        assert taneja_t(p, p) == 0.0
        identity = (kl_between_mixtures(p, q, ARITH, GEO)
                    - math.log(bhattacharyya_coefficient(p, q)))
        assert identity == pytest.approx(8.83e-202, rel=1e-3)
        assert taneja_t(p, q) == pytest.approx(identity, rel=1e-12)

    def test_taneja_infinite_on_one_sided_zero(self):
        p = DiscreteDensity.probability([1.0, 0.0])
        q = DiscreteDensity.probability([0.5, 0.5])
        assert taneja_t(p, q) == math.inf


class TestCoarseGrain:
    def test_identity_map(self, pq):
        p, _ = pq
        out = coarse_grain(p, [0, 1])
        np.testing.assert_array_equal(out.weights, p.weights)

    def test_merges_bins(self):
        p = DiscreteDensity.probability([0.2, 0.3, 0.5])
        out = coarse_grain(p, [0, 0, 1])
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-15)
        assert out.normalized

    def test_rejects_non_surjective(self):
        p = DiscreteDensity.probability([0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            coarse_grain(p, [0, 0, 2])

    def test_monotone_under_coarse_graining(self, rng, pair_factory):
        for _ in range(100):
            size = int(rng.integers(3, 24))
            p1, p2 = pair_factory(rng, size)
            n_bins = int(rng.integers(2, size))
            binmap = np.concatenate([np.arange(n_bins),
                                     rng.integers(0, n_bins, size - n_bins)])
            rng.shuffle(binmap)
            c1, c2 = coarse_grain(p1, binmap), coarse_grain(p2, binmap)
            for gen in (F_JS, F_EXTENDED_GJS, F_JEFFREYS, F_TANEJA):
                assert f_divergence(c1, c2, gen) <= \
                    f_divergence(p1, p2, gen) + 1e-12


class TestSymmetry:
    def test_balanced_divergences_are_symmetric(self, rng, pair_factory):
        for _ in range(20):
            p1, p2 = pair_factory(rng, int(rng.integers(2, 32)))
            assert js_m(p1, p2, GEO) == pytest.approx(js_m(p2, p1, GEO),
                                                      rel=1e-12)
            assert js_m_extended(p1, p2, GEO) == pytest.approx(
                js_m_extended(p2, p1, GEO), rel=1e-12)
            assert taneja_t(p1, p2) == pytest.approx(taneja_t(p2, p1),
                                                     rel=1e-12)
            assert total_variation(p1, p2) == total_variation(p2, p1)


class TestEntropy:
    def test_entropy_matches_cross_entropy(self, pq):
        p, q = pq
        assert shannon_entropy(p) == pytest.approx(cross_entropy(p, p),
                                                   abs=1e-15)
        assert shannon_entropy(p) == pytest.approx(LN2, abs=1e-15)
        assert shannon_entropy(p, BITS) == pytest.approx(1.0, abs=1e-15)

    def test_cross_entropy_infinite(self):
        p = DiscreteDensity.probability([0.5, 0.5])
        q = DiscreteDensity.probability([1.0, 0.0])
        assert cross_entropy(p, q) == math.inf

    def test_decomposition(self, rng, pair_factory):
        for mean in (GEO, MeanSpec.power(2.0), MeanSpec.minimum()):
            p1, p2 = pair_factory(rng, 16)
            a_mix, _ = m_mixture(p1, p2, ARITH)
            m_mix, _ = m_mixture(p1, p2, mean)
            lhs = js_m(p1, p2, mean)
            rhs = cross_entropy(a_mix, m_mix) - 0.5 * (
                shannon_entropy(p1) + shannon_entropy(p2))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def pinned_pair(n, seed):
    rng = np.random.default_rng(seed)
    w1, w2 = rng.random(n), rng.random(n)
    w1[::7] = w2[::7] = 0.0
    w2[1::5] = w1[1::5] * (1.0 + rng.integers(-4, 5, w1[1::5].size) * 2.0 ** -40)
    w1[3::11] *= 1e-200
    return w1 / w1.sum(), w2 / w2.sum()


# float.hex of each sum as computed when every sum was np.sum of the
# support-sized elementwise array: at or below one 8192-entry block the
# blocked kernel must keep these bits
PINNED = {
    8: {
        "js": "0x1.3d29ad877c400p-4",
        "kl": "0x1.36534f6025014p-2",
        "kl_extended": "0x1.e4685d3800e0bp+1",
        "kl_extended_bits": "0x1.a441ea342b65ap+2",
        "jeffreys": "0x1.9d585ff71a673p+5",
        "taneja_t": "0x1.9ade0c9c0b6eap+3",
        "kl_between_mixtures": "0x1.97a6d046478fdp+3",
    },
    8192: {
        "js": "0x1.c83659fefba2cp-4",
        "kl": "0x1.fff42635f30ccp-2",
        "kl_extended": "0x1.180256e417128p+2",
        "kl_extended_bits": "0x1.dacc8b62897a2p+2",
        "jeffreys": "0x1.544991ec63f29p+5",
        "taneja_t": "0x1.50b9253865fb4p+3",
        "kl_between_mixtures": "0x1.4c30110475d78p+3",
    },
}


@pytest.mark.parametrize("n", sorted(PINNED))
def test_sums_keep_their_pinned_bits(n):
    w1, w2 = pinned_pair(n, n)
    p1, p2 = DiscreteDensity.probability(w1), DiscreteDensity.probability(w2)
    q1, q2 = DiscreteDensity.positive(3.0 * w1), DiscreteDensity.positive(0.5 * w2)
    got = {"js": js(p1, p2), "kl": kl(p1, p2), "kl_extended": kl_extended(q1, q2),
           "kl_extended_bits": kl_extended(q1, q2, BITS),
           "jeffreys": jeffreys(p1, p2), "taneja_t": taneja_t(p1, p2),
           "kl_between_mixtures": kl_between_mixtures(p1, p2, ARITH, GEO)}
    assert {k: float(v).hex() for k, v in got.items()} == PINNED[n]


# The mixture JSDs against oracles.mixture_jsd_oracle on the pinned pairs,
# as probabilities and as masses near 1e300 (js_m_extended only).  Each
# tolerance is the worst relative error, on this corpus, of the two-pass form
# that the one-pass kernel replaced (the M-mixture as an array, then one sum
# per argument): 2.58e-15 for js_m (power:0.5 at 8 atoms) and 5.42e-15 for
# js_m_extended (power:0.5, 1e300 masses, 8 atoms).
ORACLE_MEANS = (GEO, ARITH, MeanSpec.power(-0.5), MeanSpec.power(0.5, 0.3),
                MeanSpec.quasi_arithmetic("exp"), MeanSpec.minimum(), MeanSpec.maximum())
ORACLE_BETAS = (0.5, 0.2)
BIG_MASSES = (3e300, 5e299)
JS_M_TOL = 2.6e-15
JS_M_EXTENDED_TOL = 5.5e-15

# At 8192 atoms the oracle takes seconds; its values there, as float.hex of
# (js_m, js_m_extended, js_m_extended of the 1e300 masses), are frozen from
# mixture_oracle(8192) (the same bits at 50 and 80 digits).
ORACLE_8192 = {
    ("geometric", 0.5): ("0x1.4fc07db873cecp+3", "0x1.500f04f8ecbe9p+3", "0x1.21abd19403ee1p+999"),
    ("geometric", 0.2): ("0x1.0b8ff8dbb0bfbp+4", "0x1.0bb73c7bed379p+4", "0x1.a474a353a2549p+999"),
    ("arithmetic", 0.5): ("0x1.c83659fefba2ap-4", "0x1.c83659fefba2cp-4", "0x1.d2f2d1dd8a188p+995"),
    ("arithmetic", 0.2): ("0x1.acdfb02238f73p-4", "0x1.acdfb02238f77p-4", "0x1.124f564bd8235p+996"),
    ("power:-0.5", 0.5): ("0x1.4e5a29bf38355p+4", "0x1.4e98a4977cfe3p+4", "0x1.14b852d0e33b4p+1000"),
    ("power:-0.5", 0.2): ("0x1.0ac99886fb626p+5", "0x1.0ae8d5f31dc6dp+5", "0x1.993678f6bd6a8p+1000"),
    ("power:0.5", 0.5): ("0x1.0ff5cb6374a07p-3", "0x1.133c7fad8ae2cp-3", "0x1.68d0f2d0e6522p+996"),
    ("power:0.5", 0.2): ("0x1.4c1da18e218b6p-4", "0x1.52ab0a224e102p-4", "0x1.7fcecef1643b4p+995"),
    ("quasi:exp", 0.5): ("0x1.c8365a08939edp-4", "0x1.c8365a0d8a2aap-4", "0x1.6ca3415dba6a4p+996"),
    ("quasi:exp", 0.2): ("0x1.acdf121960568p-4", "0x1.acdf121e56e27p-4", "0x1.1d73cbe6112d8p+997"),
    ("min", 0.5): ("0x1.50788ee881fa1p+4", "0x1.5179c6ceef5bdp+4", "0x1.2bb691e394522p+1000"),
    ("min", 0.2): ("0x1.0c0d557aa19b2p+5", "0x1.0c8df16dd84c0p+5", "0x1.a19b1e3c4c39ap+1000"),
    ("max", 0.5): ("0x1.142b827fa0d32p-3", "0x1.67e58eba4b5a1p-3", "0x1.6ca3415dba6a4p+996"),
    ("max", 0.2): ("0x1.e5aef72bb6002p-4", "0x1.469187d085871p-3", "0x1.1d73cbe6112d8p+997"),
}


@functools.lru_cache(maxsize=None)
def mixture_oracle(n):
    """``{(label, beta): (js_m, js_m_extended, js_m_extended of the 1e300
    masses)}`` on ``pinned_pair(n, n)``, by the 50-digit oracle."""
    w1, w2 = pinned_pair(n, n)
    out = {}
    for m in ORACLE_MEANS:
        mean = m.kind.value, m.alpha, m.gamma
        unit = oracles.mixture_jsd_oracle(w1, w2, *mean, ORACLE_BETAS)
        big = oracles.mixture_jsd_oracle(BIG_MASSES[0] * w1, BIG_MASSES[1] * w2,
                                         *mean, ORACLE_BETAS)
        out.update({(m.label, beta): (*unit[beta], big[beta][1])
                    for beta in ORACLE_BETAS})
    return out


@pytest.mark.parametrize("n", [8, 64, 8192])
@pytest.mark.parametrize("mean", ORACLE_MEANS, ids=lambda m: m.label)
def test_mixture_jsds_match_the_oracle(n, mean):
    w1, w2 = pinned_pair(n, n)
    p1, p2 = DiscreteDensity.probability(w1), DiscreteDensity.probability(w2)
    b1 = DiscreteDensity.positive(BIG_MASSES[0] * w1)
    b2 = DiscreteDensity.positive(BIG_MASSES[1] * w2)
    for beta in ORACLE_BETAS:
        if n == 8192:
            exact = [float.fromhex(h) for h in ORACLE_8192[mean.label, beta]]
        else:
            exact = mixture_oracle(n)[mean.label, beta]
        got = (js_m(p1, p2, mean, beta), js_m_extended(p1, p2, mean, beta),
               js_m_extended(b1, b2, mean, beta))
        for value, reference, tol in zip(got, exact, (JS_M_TOL, JS_M_EXTENDED_TOL,
                                                      JS_M_EXTENDED_TOL)):
            assert value == pytest.approx(reference, rel=tol, abs=0.0), beta


@pytest.mark.parametrize("eps", [1e-4, 1e-8])
@pytest.mark.parametrize("mean", ORACLE_MEANS, ids=lambda m: m.label)
def test_extended_keeps_its_digits_on_near_equal_pairs(eps, mean):
    # q = p (1 + eps z): the extended M-JSD is O(eps^2); each log term and
    # its mass term agree to the last digits, so only the O(eps) log-ratios'
    # own rounding is left, about 1e-16/eps relative
    rng = np.random.default_rng(17)
    for _ in range(10):
        w1 = rng.dirichlet(np.ones(16))
        w2 = w1 * (1.0 + eps * rng.normal(size=16))
        p1, p2 = DiscreteDensity.probability(w1), DiscreteDensity.probability(w2 / w2.sum())
        for beta in ORACLE_BETAS:
            exact = oracles.mixture_jsd_oracle(p1.weights, p2.weights, mean.kind.value,
                                               mean.alpha, mean.gamma, (beta,))[beta][1]
            value = js_m_extended(p1, p2, mean, beta)
            assert value >= 0.0
            assert value == pytest.approx(exact, rel=2e-15 / eps, abs=0.0)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSupportSizedAllocations:
    """The sums work a block at a time; only a mixture is support-sized."""

    N = 1_000_000

    @pytest.fixture(scope="class")
    def big_pair(self):
        rng = np.random.default_rng(7)
        w1, w2 = rng.random(self.N), rng.random(self.N)
        return (DiscreteDensity.probability(w1 / w1.sum()),
                DiscreteDensity.probability(w2 / w2.sum()))

    def test_js_allocates_no_support_sized_array(self, big_pair):
        p1, p2 = big_pair
        for fn in (js, kl, jeffreys):
            assert traced_peak(lambda: fn(p1, p2)) < 8 * self.N // 4, fn.__name__

    @pytest.mark.parametrize("mean", [ARITH, GEO, MeanSpec.power(-0.5),
                                      MeanSpec.quasi_arithmetic("exp"),
                                      MeanSpec.minimum(), MeanSpec.maximum()],
                             ids=lambda m: m.label)
    def test_js_m_allocates_only_the_mixture(self, big_pair, mean):
        # the mixture is formed a block at a time too: the whole call peaks
        # under a quarter of one support-sized array, as js does
        p1, p2 = big_pair
        for fn in (js_m, js_m_extended):
            peak = traced_peak(lambda: fn(p1, p2, mean))
            assert peak < 8 * self.N // 4, fn.__name__
