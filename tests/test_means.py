import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geojsd import InvalidAlpha, MeanKind, MeanSpec, NonPositiveInput
from geojsd.means import evaluate, is_geometric, log_evaluate, power_limit_check

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
    assert is_geometric(MeanSpec.quasi_arithmetic("log"))
    assert is_geometric(MeanSpec.power(1e-9))
    assert not is_geometric(ARITH)


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
        assert is_geometric(spec)


def test_quasi_log_and_power_are_no_kind_of_their_own():
    with pytest.raises(ValueError):
        MeanSpec(MeanKind.QUASI_ARITHMETIC, phi="log")
    with pytest.raises(ValueError):
        MeanSpec(MeanKind.QUASI_ARITHMETIC, gamma=2.0, phi="power")


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
    gamma = 0.0 if is_geometric(spec) else spec.gamma
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


@pytest.mark.parametrize("build", [
    lambda: MeanSpec.quasi_arithmetic("exp", gamma=2.0),
    lambda: MeanSpec(MeanKind.GEOMETRIC, gamma=5.0),
    lambda: MeanSpec(MeanKind.ARITHMETIC, gamma=1.0),
    lambda: MeanSpec(MeanKind.MIN, gamma=-1.0),
    lambda: MeanSpec(MeanKind.POWER, gamma=2.0, phi="exp"),
    lambda: MeanSpec(MeanKind.GEOMETRIC, phi="exp"),
    lambda: MeanSpec(MeanKind.MAX, phi="exp"),
    lambda: MeanSpec(MeanKind.MIN, 0.3),
    lambda: MeanSpec(MeanKind.MAX, 0.7),
], ids=["exp-gamma", "geometric-gamma", "arithmetic-gamma", "min-gamma",
        "power-phi", "geometric-phi", "max-phi", "min-alpha", "max-alpha"])
def test_spec_rejects_fields_its_kind_does_not_read(build):
    # a field no code reads would split one mean into unequal specs
    with pytest.raises(ValueError):
        build()


EQUAL_SPECS = [
    (MeanSpec.geometric(0.3), MeanSpec(MeanKind.GEOMETRIC, 0.3)),
    (MeanSpec.quasi_arithmetic("log", alpha=0.3), MeanSpec.geometric(0.3)),
    (MeanSpec.quasi_arithmetic("power", gamma=2.0), MeanSpec.power(2)),
    (MeanSpec.quasi_arithmetic("exp"), MeanSpec(MeanKind.QUASI_ARITHMETIC, phi="exp")),
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


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.label)
def test_log_evaluate_consistency(spec, rng):
    a = rng.uniform(1e-4, 1e4, 64)
    b = rng.uniform(1e-4, 1e4, 64)
    via_log = np.exp(log_evaluate(spec, np.log(a), np.log(b)))
    np.testing.assert_allclose(via_log, evaluate(spec, a, b), rtol=1e-12)


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
