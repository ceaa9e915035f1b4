import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from geojsd import InvalidAlpha, MeanKind, MeanSpec, NonPositiveInput
from geojsd.means import evaluate, log_evaluate, power_limit_check

GEO = MeanSpec.geometric()
ARITH = MeanSpec.arithmetic()

ALL_KINDS = [
    ARITH,
    GEO,
    MeanSpec.power(-2.0),
    MeanSpec.power(0.5),
    MeanSpec.power(3.0),
    MeanSpec.quasi_arithmetic("exp"),
    MeanSpec.power(2.0),
    MeanSpec.minimum(),
    MeanSpec.maximum(),
]

positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False,
                     allow_infinity=False)
skew = st.floats(min_value=0.01, max_value=0.99)


def test_geometric_midpoint():
    assert evaluate(GEO, 1.0, 4.0) == pytest.approx(2.0, abs=1e-15)


def test_arithmetic_midpoint():
    assert evaluate(ARITH, 1.0, 4.0) == pytest.approx(2.5, abs=1e-15)


def test_power_three_quarter_weight():
    # (0.25*1 + 0.75*8)**(1/3), frozen from the mpmath oracle
    got = evaluate(MeanSpec.power(3.0, alpha=0.25), 1.0, 2.0)
    assert got == pytest.approx(1.8420157493201933, abs=1e-12)


def test_power_limits_approach_min_geometric_max():
    p_small, p_zero, p_large = power_limit_check([-100.0, 0.0, 100.0], 1.0, 4.0)
    assert p_small == pytest.approx(1.0, abs=0.05)
    assert p_zero == pytest.approx(2.0, abs=1e-12)
    assert p_large == pytest.approx(4.0, abs=0.05)
    assert p_small <= p_zero <= p_large


def test_power_limit_equal_arguments():
    assert power_limit_check([-1.0, 1.0], 2.0, 2.0) == [2.0, 2.0]


def test_power_limit_frozen_values():
    half, two = power_limit_check([0.5, 2.0], 1.0, 9.0)
    assert half == pytest.approx(4.0, abs=1e-12)
    assert two == pytest.approx(6.4031242374328487, abs=1e-12)


def test_power_limit_monotone_dense(rng):
    gammas = np.linspace(-8.0, 8.0, 33)
    for _ in range(50):
        a, b = rng.uniform(0.01, 10.0, 2)
        values = power_limit_check(gammas, a, b)
        assert all(x <= y + 1e-12 * max(1.0, abs(y))
                   for x, y in zip(values, values[1:]))


def test_power_limit_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        power_limit_check([1.0], 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(a=positive, b=positive, alpha=skew)
# small, nearly equal arguments: log(alpha) + a rounds a's digits away
@example(a=1e-9 * (1.0 + 3e-16), b=1e-9, alpha=0.25)
def test_in_betweenness(a, b, alpha):
    for kind in (MeanSpec.arithmetic(alpha), MeanSpec.geometric(alpha),
                 MeanSpec.power(-1.5, alpha), MeanSpec.power(2.5, alpha),
                 MeanSpec.quasi_arithmetic("exp", alpha=alpha)):
        value = evaluate(kind, a, b)
        assert value >= min(a, b) * (1.0 - 1e-12)
        assert value <= max(a, b) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(a=positive, b=positive, alpha=skew)
def test_weight_symmetry(a, b, alpha):
    for spec in (MeanSpec.arithmetic(alpha), MeanSpec.geometric(alpha),
                 MeanSpec.power(1.7, alpha)):
        direct = evaluate(spec, a, b)
        flipped = evaluate(spec.swapped(), b, a)
        assert flipped == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.label)
def test_idempotence_is_exact(spec, rng):
    values = rng.uniform(1e-6, 1e6, 64)
    out = evaluate(spec, values, values)
    assert np.array_equal(out, values)


def test_power_zero_matches_geometric(rng):
    near_zero = MeanSpec.power(1e-12, alpha=0.3)
    geo = MeanSpec.geometric(alpha=0.3)
    a = rng.uniform(0.001, 100.0, 200)
    b = rng.uniform(0.001, 100.0, 200)
    np.testing.assert_allclose(evaluate(near_zero, a, b), evaluate(geo, a, b),
                               rtol=1e-12)


def test_quasi_log_is_geometric():
    # the constructor returns the canonical spec, not an equivalent one
    assert MeanSpec.quasi_arithmetic("log") == GEO
    assert MeanSpec.quasi_arithmetic("log").kind is MeanKind.GEOMETRIC


def test_quasi_power_matches_power():
    assert MeanSpec.quasi_arithmetic("power", gamma=2.0) == MeanSpec.power(2.0)
    assert MeanSpec.quasi_arithmetic("power", gamma=2.0).kind is MeanKind.POWER


@pytest.mark.parametrize("gamma", [0.0, 1e-12, -1e-9, -0.5, 2.0])
def test_quasi_power_is_the_power_spec(gamma):
    assert MeanSpec.quasi_arithmetic("power", gamma=gamma) == MeanSpec.power(gamma)
    assert (MeanSpec.quasi_arithmetic("power", gamma=gamma, alpha=0.3)
            == MeanSpec.power(gamma, alpha=0.3))
    assert MeanSpec.quasi_arithmetic("log", alpha=0.3) == MeanSpec.geometric(0.3)


def test_quasi_power_near_zero_is_geometric():
    # |gamma| < 1e-8 takes the exact geometric branch, as power(gamma) does
    for gamma in (0.0, 1e-12):
        spec = MeanSpec.quasi_arithmetic("power", gamma=gamma)
        assert evaluate(spec, 1.0, 4.0) == 2.0
        assert spec == GEO


def test_quasi_log_and_power_are_no_kind_of_their_own():
    # the quasi-arithmetic kind is the exp generator alone
    assert MeanSpec(MeanKind.QUASI_ARITHMETIC) == MeanSpec.quasi_arithmetic("exp")
    assert MeanSpec.quasi_arithmetic("log").kind is MeanKind.GEOMETRIC
    assert MeanSpec.quasi_arithmetic("power", gamma=2.0).kind is MeanKind.POWER


@pytest.mark.parametrize("gamma", [0.0, -0.0, 5e-324, 1e-9, -9.99e-9])
def test_power_near_zero_is_the_geometric_spec(gamma):
    spec = MeanSpec.power(gamma, 0.3)
    assert spec == MeanSpec.geometric(0.3)
    assert hash(spec) == hash(MeanSpec.geometric(0.3))
    assert spec.label == "geometric"
    # the smallest exponents that remain power means
    assert MeanSpec.power(1e-8).kind is MeanKind.POWER
    assert MeanSpec.power(-1e-8).kind is MeanKind.POWER


def test_quasi_exp_value():
    # phi = exp: M = log(0.5*e^a + 0.5*e^b)
    got = evaluate(MeanSpec.quasi_arithmetic("exp"), 1.0, 3.0)
    assert got == pytest.approx(math.log(0.5 * math.e + 0.5 * math.e ** 3),
                                rel=1e-14)


def test_zero_handling():
    assert evaluate(GEO, 0.0, 4.0) == 0.0
    assert evaluate(GEO, 4.0, 0.0) == 0.0
    assert evaluate(ARITH, 0.0, 4.0) == 2.0
    assert evaluate(MeanSpec.power(2.0), 0.0, 4.0) == pytest.approx(
        math.sqrt(8.0), rel=1e-14)
    assert evaluate(MeanSpec.minimum(), 0.0, 4.0) == 0.0
    assert evaluate(MeanSpec.maximum(), 0.0, 4.0) == 4.0
    # the continuous limit: a zero argument sends a gamma < 0 mean to 0
    assert evaluate(MeanSpec.power(-1.0), 0.0, 4.0) == 0.0


GRID = [0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, math.inf, math.nan]
LIMIT_SPECS = [GEO, MeanSpec.geometric(0.3), MeanSpec.power(-1.0),
               MeanSpec.power(-2.0, alpha=0.8), MeanSpec.power(0.5),
               MeanSpec.power(2.0, alpha=0.7), MeanSpec.power(3.0)]


def _expected_mean(spec, a, b):
    """M_alpha(a, b) on GRID: the limit rules at 0, inf and NaN, else mpmath."""
    alpha = spec.alpha
    gamma = 0.0 if spec.kind is MeanKind.GEOMETRIC else spec.gamma
    if a == b:
        return a
    if gamma <= 0.0 and 0.0 in (a, b):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if math.inf in (a, b) and gamma >= 0.0:
        return math.inf
    with mp.workdps(50):
        weights = (mp.mpf(alpha), 1 - mp.mpf(alpha))
        if gamma == 0.0:
            return float(mp.mpf(a) ** weights[0] * mp.mpf(b) ** weights[1])
        # x**gamma -> 0 as x -> 0 (gamma > 0) or x -> inf (gamma < 0): that
        # argument drops out of the sum
        g = mp.mpf(gamma)
        total = sum(w * mp.mpf(x) ** g for w, x in zip(weights, (a, b))
                    if 0.0 < x < math.inf)
        return float(total ** (1 / g))


@pytest.mark.parametrize("spec", LIMIT_SPECS, ids=lambda s: f"{s.label}@{s.alpha}")
def test_grid_follows_the_limit_rules(spec):
    a, b = np.meshgrid(GRID, GRID)
    got = evaluate(spec, a.ravel(), b.ravel())
    with np.errstate(divide="ignore"):
        got_log = log_evaluate(spec, np.log(a.ravel()), np.log(b.ravel()))
    for x, y, value, log_value in zip(a.ravel(), b.ravel(), got, got_log):
        want = _expected_mean(spec, float(x), float(y))
        assert evaluate(spec, float(x), float(y)) == pytest.approx(
            want, rel=1e-13, abs=1e-323, nan_ok=True), (x, y)
        assert value == pytest.approx(want, rel=1e-13, abs=1e-323,
                                      nan_ok=True), (x, y)
        if want > 0.0 and math.isfinite(want) and x != y:
            assert math.exp(log_value) == pytest.approx(want, rel=1e-12), (x, y)


nonnegative = st.one_of(st.sampled_from([0.0, 1e-300, 1e300]),
                        st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=300, deadline=None)
@given(a=nonnegative, b=nonnegative, alpha=skew,
       gamma=st.sampled_from([0.0, -8.0, -1.0, -0.5, 0.5, 2.0, 8.0]))
@example(a=0.0, b=4.0, alpha=0.5, gamma=-1.0)
@example(a=0.0, b=1e300, alpha=0.5, gamma=2.0)
def test_evaluate_is_exp_of_log_evaluate(a, b, alpha, gamma):
    with np.errstate(divide="ignore"):
        la, lb = np.log(a), np.log(b)
    # distinct arguments whose logs round together would take
    # log_evaluate's idempotence step instead
    assume(a != b and la != lb)
    spec = MeanSpec.power(gamma, alpha)
    assert evaluate(spec, a, b) == np.exp(log_evaluate(spec, la, lb))


def test_negative_inputs_rejected():
    with pytest.raises(NonPositiveInput):
        evaluate(GEO, -1.0, 4.0)


def test_alpha_validation():
    with pytest.raises(InvalidAlpha):
        MeanSpec.geometric(alpha=0.0)
    with pytest.raises(InvalidAlpha):
        MeanSpec.arithmetic(alpha=1.0)
    with pytest.raises(InvalidAlpha):
        MeanSpec.power(2.0, alpha=-0.2)


def test_spec_validation():
    with pytest.raises(ValueError):
        MeanSpec(MeanKind.POWER)
    with pytest.raises(ValueError):
        MeanSpec.quasi_arithmetic("sinh")
    with pytest.raises(ValueError):
        MeanSpec.quasi_arithmetic("power")


@pytest.mark.parametrize("gamma", ["x", "0.5", b"2"])
def test_power_exponent_as_text_is_a_type_error(gamma):
    # text is not a number, even text that float() would read
    with pytest.raises(TypeError):
        MeanSpec.power(gamma)


@pytest.mark.parametrize("build", [
    lambda: MeanSpec.quasi_arithmetic("exp", gamma=2.0),
    lambda: MeanSpec(MeanKind.GEOMETRIC, gamma=5.0),
    lambda: MeanSpec(MeanKind.ARITHMETIC, gamma=1.0),
    lambda: MeanSpec(MeanKind.MIN, gamma=-1.0),
    lambda: MeanSpec(MeanKind.MIN, 0.3),
    lambda: MeanSpec(MeanKind.MAX, 0.7),
    lambda: MeanSpec(MeanKind.POWER, gamma=1e-9),
    lambda: MeanSpec(MeanKind.POWER, gamma=0.0),
    lambda: MeanSpec.power(math.nan),
    lambda: MeanSpec.power(math.inf),
    lambda: MeanSpec.power(-math.inf),
], ids=["exp-gamma", "geometric-gamma", "arithmetic-gamma", "min-gamma",
        "min-alpha", "max-alpha", "power-near-zero", "power-zero",
        "power-nan", "power-inf", "power-neg-inf"])
def test_spec_rejects_fields_its_kind_does_not_read(build):
    # a field no code reads would split one mean into unequal specs, and a
    # near-zero power spec would be a second spec of the geometric mean
    with pytest.raises(ValueError):
        build()


EQUAL_SPECS = [
    (MeanSpec.geometric(0.3), MeanSpec(MeanKind.GEOMETRIC, 0.3)),
    (MeanSpec.quasi_arithmetic("log", alpha=0.3), MeanSpec.geometric(0.3)),
    (MeanSpec.quasi_arithmetic("power", gamma=2.0), MeanSpec.power(2)),
    (MeanSpec.quasi_arithmetic("exp"), MeanSpec(MeanKind.QUASI_ARITHMETIC)),
    (MeanSpec.minimum(), MeanSpec(MeanKind.MIN, 0.5)),
    (MeanSpec.maximum(), MeanSpec.maximum().swapped()),
    (MeanSpec.power(-0.5, 0.7), MeanSpec.power(-0.5, 0.3).swapped()),
]


@pytest.mark.parametrize("first, second", EQUAL_SPECS,
                         ids=[f"{a.label}@{a.alpha}" for a, _ in EQUAL_SPECS])
def test_equal_means_have_equal_hashes(first, second):
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                      exclude_max=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
any_spec = st.one_of(
    st.builds(MeanSpec.arithmetic, open_unit),
    st.builds(MeanSpec.geometric, open_unit),
    st.builds(MeanSpec.power, st.one_of(finite, st.floats(-1e-8, 1e-8)),
              open_unit),
    st.builds(lambda alpha: MeanSpec.quasi_arithmetic("exp", alpha=alpha),
              open_unit),
    st.sampled_from([MeanSpec.minimum(), MeanSpec.maximum()]),
)


@settings(max_examples=300, deadline=None)
@given(spec=any_spec)
@example(spec=MeanSpec.power(1e-8, 0.3))
@example(spec=MeanSpec.power(-5e-324, 0.3))
@example(spec=MeanSpec.power(1.7976931348623157e308, 1e-300))
def test_label_parses_back_to_the_spec(spec):
    back = MeanSpec.parse(spec.label, spec.alpha)
    assert back == spec
    assert hash(back) == hash(spec)


def test_labels_are_the_descriptors():
    assert MeanSpec.power(-0.5).label == "power:-0.5"
    assert MeanSpec.power(2).label == "power:2.0"
    assert MeanSpec.quasi_arithmetic("exp").label == "quasi:exp"
    assert [MeanSpec.parse(text).label for text in
            ("arithmetic", "GEOMETRIC", "min", "max", "quasi:log",
             "quasi:power:3", "power:1e-12")] == [
        "arithmetic", "geometric", "min", "max", "geometric", "power:3.0",
        "geometric"]


@pytest.mark.parametrize("text, message", [
    ("median", "unknown mean descriptor 'median'"),
    ("power", "power mean descriptor is power:<gamma>"),
    ("power:1:2", "power mean descriptor is power:<gamma>"),
    ("quasi:sinh", "quasi descriptor is quasi:log|exp|power:<gamma>"),
    ("quasi:power", "quasi descriptor is quasi:log|exp|power:<gamma>"),
    ("power:nan", "gamma must be finite, got nan"),
    ("power:inf", "gamma must be finite, got inf"),
    ("quasi:power:-inf", "gamma must be finite, got -inf"),
    ("power:x", "could not convert string to float"),
], ids=["median", "power", "power:1:2", "quasi:sinh", "quasi:power",
        "power:nan", "power:inf", "quasi:power:-inf", "power:x"])
def test_parse_rejects_bad_descriptors(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MeanSpec.parse(text, 0.5)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.label)
def test_log_evaluate_consistency(spec, rng):
    # within one block, at its edges and over several
    for n in (64, 1, 8191, 8192, 8193, 3 * 8192 + 5):
        a = rng.uniform(1e-4, 1e4, n)
        b = rng.uniform(1e-4, 1e4, n)
        via_log = np.exp(log_evaluate(spec, np.log(a), np.log(b)))
        np.testing.assert_allclose(via_log, evaluate(spec, a, b), rtol=1e-12)


# every geometric, power and arithmetic spec that the blocked kernel runs,
# none at alpha = 1/2, so weights given to the wrong argument would show
KERNEL_SPECS = [MeanSpec.geometric(0.3), MeanSpec.geometric(0.8),
                MeanSpec.power(-2.0, 0.8), MeanSpec.power(-0.5, 0.3),
                MeanSpec.power(0.5, 0.7), MeanSpec.power(3.0, 0.3),
                MeanSpec.arithmetic(0.3), MeanSpec.arithmetic(0.8)]
# one block of 8192 entries, its edges, and a ragged last block
BLOCK_SIZES = [1, 8, 8191, 8192, 8193, 3 * 8192 + 5]
EDGE_MASSES = [0.0, 5e-324, 1e-300, 1e300]


def kernel_exponent(spec):
    return {MeanKind.GEOMETRIC: 0.0, MeanKind.ARITHMETIC: 1.0}.get(spec.kind, spec.gamma)


def block_pair(n, seed):
    """Uniform masses with zeros, 5e-324, 1e-300 and 1e300 masses, equal
    pairs and pairs one ulp apart mixed in."""
    rng = np.random.default_rng(seed)
    a, b = rng.random(n), rng.random(n)
    a[::5] = rng.choice(EDGE_MASSES, a[::5].size)
    b[2::7] = rng.choice(EDGE_MASSES, b[2::7].size)
    b[3::9] = a[3::9]
    b[4::13] = np.nextafter(a[4::13], np.inf)
    return a, b


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: f"{s.label}@{s.alpha}")
def test_kernel_means_follow_the_per_entry_form(spec, n):
    # in log space the geometric mean keeps the bits of the whole-array
    # form and the log-add kinds lie within two ulps of np.logaddexp's;
    # evaluate is exp of log_evaluate wherever the two logs differ
    a, b = block_pair(n, n)
    with np.errstate(divide="ignore"):
        la, lb = np.log(a), np.log(b)
    gamma = kernel_exponent(spec)
    got = log_evaluate(spec, la, lb)
    want = oracles.per_entry_power_mean(spec.alpha, gamma, la, lb, log_space=True)
    if spec.kind is MeanKind.GEOMETRIC:
        assert [v.hex() for v in got] == [v.hex() for v in want]
    else:
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.all(np.abs(got[finite] - want[finite])
                      <= oracles.log_add_tolerance(want[finite], gamma))
    if spec.kind is MeanKind.ARITHMETIC:
        return  # evaluate takes the arithmetic mean directly
    values = evaluate(spec, a, b)
    if spec.kind is MeanKind.GEOMETRIC:
        want = oracles.per_entry_power_mean(spec.alpha, gamma, a, b, log_space=False)
        assert [v.hex() for v in values] == [v.hex() for v in want]
    apart = la != lb
    np.testing.assert_array_equal(values[apart], np.exp(got[apart]))
    np.testing.assert_array_equal(values[a == b], a[a == b])


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: f"{s.label}@{s.alpha}")
def test_negative_argument_in_any_block_is_refused(spec):
    a, b = block_pair(3 * 8192 + 5, 0)
    for where in (a, b):
        kept = where[-1]
        where[-1] = -1e-300
        with pytest.raises(NonPositiveInput):
            evaluate(spec, a, b)
        where[-1] = kept


def test_kernel_means_keep_shapes_and_broadcast():
    a = np.array([[1.0, 4.0], [0.0, 9.0]])
    for spec in KERNEL_SPECS[:6]:
        grid = evaluate(spec, a, a.T)
        assert grid.shape == (2, 2)
        assert grid[0, 1] == evaluate(spec, 4.0, 0.0)
        np.testing.assert_array_equal(evaluate(spec, a, 2.0),
                                      [[evaluate(spec, x, 2.0) for x in row] for row in a])
        assert type(evaluate(spec, 1.0, 4.0)) is float
        assert type(log_evaluate(spec, 0.0, 1.0)) is float


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelAllocations:
    """The kernel works a block at a time: only its result is support-sized."""

    N = 1_000_000

    @pytest.fixture(scope="class")
    def big_pair(self):
        rng = np.random.default_rng(7)
        return rng.random(self.N), rng.random(self.N)

    @pytest.mark.parametrize("spec", KERNEL_SPECS[::2], ids=lambda s: s.label)
    def test_peak_is_one_result_array(self, big_pair, spec):
        a, b = big_pair
        la, lb = np.log(a), np.log(b)
        bound = 8 * self.N + 8 * self.N // 4
        assert traced_peak(lambda: log_evaluate(spec, la, lb)) < bound
        if spec.kind is not MeanKind.ARITHMETIC:
            assert traced_peak(lambda: evaluate(spec, a, b)) < bound


def test_log_evaluate_handles_neg_inf():
    neg_inf = float("-inf")
    assert log_evaluate(GEO, neg_inf, 0.0) == neg_inf
    assert log_evaluate(MeanSpec.power(-2.0), neg_inf, 0.0) == neg_inf
    assert log_evaluate(MeanSpec.maximum(), neg_inf, 0.0) == 0.0
    assert log_evaluate(MeanSpec.minimum(), neg_inf, 0.0) == neg_inf
    # arithmetic: log(0.5*0 + 0.5*1) = log(0.5)
    assert log_evaluate(ARITH, neg_inf, 0.0) == pytest.approx(math.log(0.5))


def test_log_evaluate_underflow_safe():
    # density values far below the float underflow threshold
    la, lb = -800.0, -900.0
    lg = log_evaluate(GEO, la, lb)
    assert lg == pytest.approx(-850.0, abs=1e-9)
    lp = log_evaluate(MeanSpec.power(2.0), la, lb)
    assert -810.0 < lp < -795.0


def test_swapped_round_trip():
    spec = MeanSpec.power(2.0, alpha=0.3)
    back = spec.swapped().swapped()
    assert back.alpha == pytest.approx(0.3)
    assert back.gamma == 2.0
