"""The numpy kernels of ``geojsd._kernels`` against ``scipy.special``.

scipy is the oracle: NaN, +-inf and exact-zero patterns must be identical,
and finite values must agree to 1e-15 relative.  ``kl_div`` sums three
terms that cancel near ``x = y``, so it is held to 1e-15 of their scale and
its zeros are not compared; where scipy's ``x/y`` under- or overflows, its
``kl_div`` is off (``-inf`` for ``(1e-300, 1e300)``) and its ``rel_entr``
stands in.  Inputs mix exact zeros, subnormals, 1e-300 and 1e300 masses and
near-equal pairs into arrays of up to 1e4 entries; a grid of edge values,
inf, NaN and negatives included, is checked whole and pair by pair.
``gauss_kronrod`` has no scipy namesake to mirror; its rule is checked
against ``leggauss`` and polynomial exactness, and its integrals against
closed forms.
"""

import math

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


def check_rel_entr(x, y):
    ours = _kernels.rel_entr(x, y)
    ref = sp.rel_entr(x, y)
    assert_patterns_equal(ours, ref)
    assert_close(ours, ref, np.abs(ref))


def check_kl_div(x, y):
    ours = _kernels.kl_div(x, y)
    rel = sp.rel_entr(x, y)
    # scipy's kl_div takes log(x/y) directly: where x/y under- or overflows
    # it returns -inf or +inf for a finite value.  There the oracle is its
    # rel_entr, which takes that branch with log(x) - log(y).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = x / y
        ref = np.where((x > 0) & (y > 0) & ~((ratio > np.finfo(float).tiny)
                                            & (ratio < np.inf)),
                       rel - x + y, sp.kl_div(x, y))
    # a cancellation residue near x = y may round to 0 on one side only
    assert_patterns_equal(ours, ref, zeros=False)
    # x log(x/y), x and y cancel near x = y: scale by the terms, not the sum
    with np.errstate(invalid="ignore", over="ignore"):
        assert_close(ours, ref, np.abs(rel) + np.abs(x) + np.abs(y))


class TestRelEntr:
    @settings(max_examples=60, deadline=None)
    @given(mass_pairs())
    def test_matches_scipy(self, pair):
        check_rel_entr(*pair)

    def test_zero_limits(self):
        x = np.array([0.0, 0.0, 1.0, 0.0])
        y = np.array([0.0, 1.0, 0.0, np.inf])
        np.testing.assert_array_equal(_kernels.rel_entr(x, y),
                                      [0.0, 0.0, np.inf, 0.0])

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
        x = np.full(100, 1.0)
        y = 1.0 + np.arange(1, 101) * 1e-13
        exact = np.array([-float(math.log1p(v - 1.0)) for v in y])
        np.testing.assert_allclose(_kernels.rel_entr(x, y), exact, rtol=1e-15)

    def test_scalar_and_broadcast(self):
        scalar = _kernels.rel_entr(0.5, 0.25)
        assert np.ndim(scalar) == 0
        assert scalar == pytest.approx(sp.rel_entr(0.5, 0.25), rel=REL)
        # numpy's log1p and libm's may differ in the last bit
        check_rel_entr(np.array([[0.2, 0.8], [0.5, 0.5]]), np.array([0.5, 0.5]))


class TestKlDiv:
    @settings(max_examples=60, deadline=None)
    @given(mass_pairs())
    def test_matches_scipy(self, pair):
        check_kl_div(*pair)

    def test_zero_limits(self):
        x = np.array([0.0, 0.0, 1.0])
        y = np.array([0.0, 2.5, 0.0])
        np.testing.assert_array_equal(_kernels.kl_div(x, y), [0.0, 2.5, np.inf])

    def test_extreme_ratio_stays_finite(self):
        # scipy.special.kl_div gives -inf and +inf here
        np.testing.assert_array_equal(
            _kernels.kl_div(np.array([1e-300, 1.0]), np.array([1e300, 1e-320])),
            [1e300, sp.rel_entr(1.0, 1e-320) - 1.0 + 1e-320])


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
