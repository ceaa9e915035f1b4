"""The numpy kernels of ``geojsd._kernels`` against ``scipy.special``.

scipy is the oracle.  The terms that ``sum_x_log_ratio`` adds, which its
block kernel computes 8192 entries at a time, are checked against
``rel_entr``'s, or ``kl_div``'s when extended: NaN, +-inf and exact-zero
patterns must be identical, and finite values must agree to 1e-15
relative.  The extended term sums three parts that cancel near ``x = y``,
so it is held to 1e-15 of their scale and its zeros are not compared;
where scipy's ``x/y`` under- or overflows, its ``kl_div`` is off (``-inf``
for ``(1e-300, 1e300)``) and its ``rel_entr`` stands in.  The sum must give
the bits of one ``np.sum`` of those terms within a block and add the block
sums in order beyond it; against ``math.fsum`` of scipy's terms, a sum that
is NaN or infinite must be so on both sides, and a finite one must agree
within the terms' rounding plus the summation's own error bound.  Inputs
mix exact zeros, subnormals, 1e-300 and 1e300 masses and near-equal pairs
into arrays of up to 1e4 entries; a grid of edge values, inf, NaN and
negatives included, is checked whole and pair by pair, where a one-element
sum must be the term.  ``gauss_kronrod`` has no scipy namesake to mirror;
its rule is checked against ``leggauss`` and polynomial exactness, and its
integrals against closed forms.
"""

import functools
import math
import operator

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geojsd import _kernels

REL = 1e-15
# one step of the subnormal grid: products that land there round on it
SUBNORMAL = 5e-324

ADVERSARIAL_MASSES = [0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.5, 1.0,
                      1.0 + 2.0 ** -52, 2.0, 1e12, 1e300, 1.7e308]
EDGE_VALUES = ADVERSARIAL_MASSES + [np.inf, -1.0, -np.inf, np.nan]

masses = st.one_of(
    st.sampled_from(ADVERSARIAL_MASSES),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
              allow_infinity=False),
)
# y = x * factor reaches the log1p branch, x/y in (1/2, 2), and its edges
factors = st.one_of(
    st.sampled_from([1.0, 1.0 + 1e-15, 1.0 - 1e-9, 0.5, 0.5000000001, 2.0,
                     1.9999999999, 1e-300, 1e300]),
    st.floats(min_value=0.25, max_value=4.0),
)
sizes = st.integers(min_value=1, max_value=10_000)


@st.composite
def mass_pairs(draw):
    n = draw(sizes)
    x = draw(hnp.arrays(np.float64, n, elements=masses))
    if draw(st.booleans()):
        y = draw(hnp.arrays(np.float64, n, elements=masses))
    else:
        with np.errstate(over="ignore"):
            y = x * draw(hnp.arrays(np.float64, n, elements=factors))
    return x, y


def assert_patterns_equal(ours, ref, zeros=True):
    assert ours.shape == ref.shape
    np.testing.assert_array_equal(np.isnan(ours), np.isnan(ref))
    np.testing.assert_array_equal(np.isposinf(ours), np.isposinf(ref))
    np.testing.assert_array_equal(np.isneginf(ours), np.isneginf(ref))
    if zeros:
        np.testing.assert_array_equal(ours == 0.0, ref == 0.0)


def assert_close(ours, ref, scale):
    finite = np.isfinite(ref)
    err = np.abs(ours[finite] - ref[finite])
    bound = REL * scale[finite] + SUBNORMAL
    assert np.all(err <= bound), float(np.max(err / np.maximum(bound, SUBNORMAL)))


def scipy_terms(x, y, extended):
    """scipy's elementwise ``rel_entr``, or for ``extended`` its ``kl_div``.

    scipy's ``kl_div`` takes ``log(x/y)`` directly: where ``x/y`` under- or
    overflows it returns ``-inf`` or ``+inf`` for a finite value.  There the
    oracle is its ``rel_entr``, which takes that branch with
    ``log(x) - log(y)``, plus ``y - x``.
    """
    rel = sp.rel_entr(x, y)
    if not extended:
        return rel
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = x / y
        return np.where((x > 0) & (y > 0) & ~((ratio > np.finfo(float).tiny)
                                             & (ratio < np.inf)),
                        rel - x + y, sp.kl_div(x, y))


def term_scale(x, y, extended):
    """What a term's rounding is relative to: ``x log(x/y)``, ``x`` and
    ``y`` cancel near ``x = y``, so the extended term is held to the sum of
    their sizes, not to its own."""
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(sp.rel_entr(x, y))
        return rel + np.abs(x) + np.abs(y) if extended else rel


def summation_gamma(n: int) -> float:
    """Higham's ``gamma_k`` for the sum of ``n`` terms as the kernel adds them.

    Higham, Accuracy and Stability of Numerical Algorithms, ch. 4:
    ``|error| <= gamma_k * sum|t|``, with k the most additions a term passes
    through.  numpy's pairwise sum of one block has leaves of at most 128
    terms in 8 accumulators (15 additions, 3 to combine them, 7 for the
    remainder) under 6 halvings; the block sums add one more per further
    block.
    """
    k = 25 + 6 + (-(-n // 8192) - 1)
    unit = 2.0 ** -53
    return k * unit / (1.0 - k * unit)


def check_sum(x, y, extended):
    """``sum_x_log_ratio`` against ``math.fsum`` of scipy's terms.

    A sum that is NaN or infinite must be so on both sides, with the same
    sign.  A finite one may differ by 1e-15 of each term's scale (the
    terms' own rounding) plus the summation's bound.
    """
    ours = _kernels.sum_x_log_ratio(x, y, extended)
    terms = scipy_terms(x, y, extended)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
        pattern = float(terms.sum())
    if not (math.isfinite(ours) and math.isfinite(pattern)):
        assert math.isnan(ours) == math.isnan(pattern)
        if not math.isnan(ours):
            assert ours == pattern
        return
    scale = math.fsum(term_scale(x, y, extended))
    bound = (REL + summation_gamma(x.size)) * scale + x.size * SUBNORMAL
    assert abs(ours - math.fsum(terms)) <= bound


def kernel_terms(x, y, extended=False):
    """The block kernel's terms, an 8192-entry slice at a time: the terms
    that ``sum_x_log_ratio`` adds."""
    scratch = _kernels._scratch(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.concatenate([
            _kernels._x_log_ratio_block(x[i:i + 8192], y[i:i + 8192], extended,
                                        scratch).copy()
            for i in range(0, x.size, 8192)])


def check_rel_entr(x, y):
    ours = kernel_terms(x, y)
    ref = sp.rel_entr(x, y)
    assert_patterns_equal(ours, ref)
    assert_close(ours, ref, np.abs(ref))


def check_kl_div(x, y):
    ours = kernel_terms(x, y, extended=True)
    ref = scipy_terms(x, y, extended=True)
    # a cancellation residue near x = y may round to 0 on one side only
    assert_patterns_equal(ours, ref, zeros=False)
    assert_close(ours, ref, term_scale(x, y, extended=True))


def term(x, y, extended=False):
    """The kernel's term at ``(x, y)``: a one-element sum is that term."""
    return _kernels.sum_x_log_ratio(np.array([x]), np.array([y]), extended)


# inputs of the sum kernel: exact zeros, the smallest subnormal, 1e-300 and
# 1e300 masses, NaN, and pairs that agree to a few ulps
SUM_EDGES = np.array([0.0, 5e-324, 1e-300, 1e300, np.nan])


def edge_pair(n: int, seed: int, edge_share: float, near_share: float):
    rng = np.random.default_rng(seed)
    x, y = rng.random(n), rng.random(n)
    for a in (x, y):
        hit = rng.random(n) < edge_share
        a[hit] = rng.choice(SUM_EDGES, int(hit.sum()))
    near = rng.random(n) < near_share
    y[near] = x[near] * (1.0 + rng.integers(-3, 4, int(near.sum())) * 2.0 ** -52)
    return x, y


def sliced_sums_in_order(x, y, extended=False) -> float:
    """``sum_x_log_ratio`` of each 8192-entry slice, added left to right."""
    return functools.reduce(operator.add, (
        _kernels.sum_x_log_ratio(x[i:i + 8192], y[i:i + 8192], extended)
        for i in range(0, x.size, 8192)))


class TestSumXLogRatio:
    @settings(max_examples=60, deadline=None)
    @given(mass_pairs())
    def test_matches_scipy(self, pair):
        check_rel_entr(*pair)
        check_kl_div(*pair)
        for extended in (False, True):
            check_sum(*pair, extended)

    def test_zero_limits(self):
        assert [term(x, y) for x, y in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                                        (0.0, np.inf)]] == [0.0, 0.0, np.inf, 0.0]
        assert [term(x, y, True) for x, y in [(0.0, 0.0), (0.0, 2.5),
                                              (1.0, 0.0)]] == [0.0, 2.5, np.inf]

    def test_edge_grid_matches_scipy(self):
        # every pair of edge values, including the ones outside the library's
        # domain (negative, NaN, inf): as one array, then each pair alone, so
        # that the far-ratio and out-of-domain fix-ups run on inputs where
        # they touch every entry, some entries and none
        x, y = (a.ravel() for a in np.meshgrid(EDGE_VALUES, EDGE_VALUES))
        check_rel_entr(x, y)
        check_kl_div(x, y)
        for xi, yi in zip(x, y):
            check_rel_entr(np.array([xi]), np.array([yi]))
            check_kl_div(np.array([xi]), np.array([yi]))

    def test_near_equal_uses_log1p(self):
        # log(x/y) loses digits when x/y rounds near 1; log1p((x - y)/y) does not
        y = 1.0 + np.arange(1, 101) * 1e-13
        got = [term(1.0, v) for v in y]
        exact = [-float(math.log1p(v - 1.0)) for v in y]
        np.testing.assert_allclose(got, exact, rtol=1e-15)

    def test_extreme_ratio_stays_finite(self):
        # scipy.special.kl_div gives -inf and +inf here
        assert term(1e-300, 1e300, True) == 1e300
        assert term(1.0, 1e-320, True) == sp.rel_entr(1.0, 1e-320) - 1.0 + 1e-320

    def test_shapes_must_match(self):
        # no broadcast and no truncation: every library caller aligns first
        with pytest.raises(ValueError, match="shapes"):
            _kernels.sum_x_log_ratio(np.ones(3), np.ones(2))
        with pytest.raises(ValueError, match="shapes"):
            _kernels.sum_x_log_ratio(np.ones(3), 1.0)
        with pytest.raises(ValueError, match="shapes"):
            _kernels.sum_x_log_ratio_to_midpoint(np.ones(8193), np.ones(8192))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8192),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           edge_share=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
           near_share=st.sampled_from([0.0, 0.5, 1.0]))
    def test_one_block_keeps_the_bits_of_the_elementwise_sum(
            self, n, seed, edge_share, near_share):
        x, y = edge_pair(n, seed, edge_share, near_share)
        for extended in (False, True):
            assert (_kernels.sum_x_log_ratio(x, y, extended).hex()
                    == float(kernel_terms(x, y, extended).sum()).hex())
        mid = 0.5 * (x + y)
        to_mid = _kernels.sum_x_log_ratio_to_midpoint(x, y)
        assert [v.hex() for v in to_mid] == [
            float(kernel_terms(x, mid).sum()).hex(),
            float(kernel_terms(y, mid).sum()).hex()]

    @pytest.mark.parametrize("n", [8193, 3 * 8192, 100_000])
    @pytest.mark.parametrize("extended", [False, True])
    def test_longer_inputs_add_block_sums_in_order(self, n, extended):
        x, y = edge_pair(n, n, 0.0, 0.3)
        y[::9] = x[::9] * 1e-3
        (check_kl_div if extended else check_rel_entr)(x, y)
        terms = kernel_terms(x, y, extended)
        got = _kernels.sum_x_log_ratio(x, y, extended)
        assert got == sliced_sums_in_order(x, y, extended)
        assert abs(got - math.fsum(terms)) <= summation_gamma(n) * math.fsum(np.abs(terms))
        to_mid = _kernels.sum_x_log_ratio_to_midpoint(x, y)
        mid = 0.5 * (x + y)
        assert to_mid == (sliced_sums_in_order(x, mid), sliced_sums_in_order(y, mid))

    def test_edge_grid_sums_like_the_elementwise_terms(self):
        x, y = (a.ravel() for a in np.meshgrid(EDGE_VALUES, EDGE_VALUES))
        for extended in (False, True):
            terms = kernel_terms(x, y, extended)
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
                total = float(terms.sum())
            assert _kernels.sum_x_log_ratio(x, y, extended).hex() == total.hex()
            assert ([term(xi, yi, extended).hex() for xi, yi in zip(x, y)]
                    == [float(t).hex() for t in terms])

    def test_empty_input_sums_to_zero(self):
        empty = np.array([])
        assert _kernels.sum_x_log_ratio(empty, empty) == 0.0
        assert _kernels.sum_x_log_ratio_to_midpoint(empty, empty) == (0.0, 0.0)


log_values = st.one_of(
    st.sampled_from([-np.inf, np.inf, 0.0, -745.0, 709.0, -1e300, 1e300,
                     -1e-300, 1.0]),
    st.floats(min_value=-1e4, max_value=1e4),
)
finite_or_neginf = st.one_of(st.just(-np.inf), st.floats(min_value=-1e4, max_value=1e4))


def check_logsumexp(a, axis=None):
    ours = np.asarray(_kernels.logsumexp(a, axis=axis))
    ref = np.asarray(sp.logsumexp(a, axis=axis))
    assert_patterns_equal(ours, ref)
    assert_close(ours, ref, np.abs(ref))


class TestLogsumexp:
    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, sizes, elements=log_values))
    def test_matches_scipy(self, a):
        check_logsumexp(a)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 100), st.integers(1, 100)),
                      elements=finite_or_neginf))
    def test_axis1_matches_scipy(self, a):
        check_logsumexp(a, axis=1)

    def test_all_neginf(self):
        assert _kernels.logsumexp(np.full(5, -np.inf)) == -np.inf
        np.testing.assert_array_equal(
            _kernels.logsumexp(np.full((3, 4), -np.inf), axis=1), np.full(3, -np.inf))

    def test_mixed_infinities(self):
        assert _kernels.logsumexp(np.array([-np.inf, np.inf, 1.0])) == np.inf
        rows = np.array([[-np.inf, np.inf], [-np.inf, 0.0], [-np.inf, -np.inf]])
        np.testing.assert_array_equal(_kernels.logsumexp(rows, axis=1),
                                      [np.inf, 0.0, -np.inf])

    def test_nan_propagates(self):
        assert np.isnan(_kernels.logsumexp(np.array([np.nan, 1.0])))

    def test_small_tail_kept(self):
        # the largest term is taken out of the sum, so log1p keeps 4e-18
        assert _kernels.logsumexp(np.array([0.0, -40.0])) == sp.logsumexp([0.0, -40.0])
        assert _kernels.logsumexp(np.array([0.0, -40.0])) > 0.0


class TestCholeskySolves:
    def test_against_direct_solves(self, rng):
        for d in (1, 3, 8):
            a = rng.normal(size=(d, d))
            sigma = a @ a.T + d * np.eye(d)
            chol = np.linalg.cholesky(sigma)
            b = rng.normal(size=(d, 2))
            np.testing.assert_allclose(chol @ _kernels.solve_lower(chol, b), b,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(sigma @ _kernels.cho_solve(chol, b), b,
                                       rtol=1e-12, atol=1e-12)


class TestGaussKronrod:
    """QUADPACK's QK21 rule and the adaptive scheme built on it."""

    def test_rule_nodes_and_weights(self):
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
        on = _kernels._GK_GAUSS > 0.0
        np.testing.assert_allclose(_kernels._GK_NODES[on], gauss_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_kernels._GK_GAUSS[on], gauss_w, rtol=0, atol=1e-15)
        # the 21-point Kronrod rule is exact for polynomials of degree 31
        for k in range(32):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert _kernels._GK_NODES ** k @ _kernels._GK_KRONROD == pytest.approx(
                exact, abs=4e-16)

    @pytest.mark.parametrize("f, lo, hi, exact", [
        (lambda x: np.exp(-0.5 * x * x), -10.0, 10.0,
         math.sqrt(2.0 * math.pi) * math.erf(10.0 / math.sqrt(2.0))),
        (lambda x: np.exp(-0.5 * ((x - 6.0) / 0.01) ** 2), -13.0, 19.0,
         0.01 * math.sqrt(2.0 * math.pi)),
        (lambda x: np.cos(40.0 * x), 0.0, 3.0, math.sin(120.0) / 40.0),
        (lambda x: np.sqrt(np.abs(x - 0.3)), -1.0, 1.0,
         (1.3 ** 1.5 + 0.7 ** 1.5) * 2.0 / 3.0),
    ])
    def test_meets_its_tolerance(self, f, lo, hi, exact):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return f(x)

        value, error = _kernels.gauss_kronrod(counted, lo, hi)
        tolerance = max(1.49e-8, 1.49e-8 * abs(value))
        assert error <= tolerance
        assert abs(value - exact) <= tolerance
        # one call on a 1-D array per refinement round, not one per node
        assert all(len(shape) == 1 for shape in calls)
        assert len(calls) <= 16

    def test_subinterval_limit_warns(self):
        # an integrable singularity at a node-free point: halving the interval
        # that holds it gains little, so 300 subintervals are not enough
        nodes = []

        def f(x):
            nodes.append(x.size)
            return np.abs(x) ** -0.9

        with pytest.warns(RuntimeWarning, match="300 subintervals"):
            value, error = _kernels.gauss_kronrod(f, -1.0, 1.0)
        assert abs(value - 20.0) <= error
        # 64 first, then each of the 236 bisections adds two halves
        assert sum(nodes) == 21 * (64 + 2 * (300 - 64))
