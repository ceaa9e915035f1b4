"""Weighted bivariate scalar means M_alpha(a, b).

A weighted mean interpolates between its two arguments with skew weight
``alpha``: the convention is M_1(a, b) = a and M_0(a, b) = b, and every
mean satisfies in-betweenness, min(a, b) <= M_alpha(a, b) <= max(a, b).

Supported families:

* arithmetic:       alpha*a + (1-alpha)*b
* geometric:        a**alpha * b**(1-alpha)
* power(gamma):     (alpha*a**gamma + (1-alpha)*b**gamma)**(1/gamma),
                    with gamma -> 0 giving the geometric mean,
                    gamma -> -inf the min, gamma -> +inf the max
* quasi-arithmetic: phi^{-1}(alpha*phi(a) + (1-alpha)*phi(b)) for a
                    closed registry of generators phi in {log, power, exp}
* min / max:        the extremal "means"

Pointwise application of a mean to two density vectors produces the
(unnormalized) M-mixture used throughout :mod:`geojsd.discrete` and
:mod:`geojsd.estimate`.  All functions are pure and accept scalars or
numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidAlpha, NonPositiveInput

__all__ = [
    "MeanKind",
    "MeanSpec",
    "evaluate",
    "log_evaluate",
    "power_limit_check",
    "is_geometric",
]

# |gamma| below this is treated as the exact geometric branch: the direct
# power formula loses all significant digits near gamma = 0.
_GEOMETRIC_GAMMA_EPS = 1e-8

_QUASI_GENERATORS = ("log", "power", "exp")


class MeanKind(Enum):
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"
    POWER = "power"
    QUASI_ARITHMETIC = "quasi_arithmetic"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class MeanSpec:
    """A weighted bivariate mean: family, skew weight, and family parameters.

    ``gamma`` is the exponent of the power family (also the exponent of the
    ``power`` quasi-arithmetic generator); ``phi`` names the quasi-arithmetic
    generator.  ``alpha`` must lie strictly inside (0, 1).
    """

    kind: MeanKind
    alpha: float = 0.5
    gamma: float | None = None
    phi: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise InvalidAlpha(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.kind is MeanKind.POWER and self.gamma is None:
            raise ValueError("power mean requires a gamma exponent")
        if self.kind is MeanKind.QUASI_ARITHMETIC:
            if self.phi not in _QUASI_GENERATORS:
                raise ValueError(
                    f"unknown quasi-arithmetic generator {self.phi!r}; "
                    f"registry: {_QUASI_GENERATORS}"
                )
            if self.phi == "power" and self.gamma is None:
                raise ValueError("quasi-arithmetic 'power' generator requires gamma")

    # -- constructors -----------------------------------------------------

    @classmethod
    def arithmetic(cls, alpha: float = 0.5) -> "MeanSpec":
        return cls(MeanKind.ARITHMETIC, alpha)

    @classmethod
    def geometric(cls, alpha: float = 0.5) -> "MeanSpec":
        return cls(MeanKind.GEOMETRIC, alpha)

    @classmethod
    def power(cls, gamma: float, alpha: float = 0.5) -> "MeanSpec":
        return cls(MeanKind.POWER, alpha, gamma=float(gamma))

    @classmethod
    def quasi_arithmetic(cls, phi: str, gamma: float | None = None,
                         alpha: float = 0.5) -> "MeanSpec":
        return cls(MeanKind.QUASI_ARITHMETIC, alpha,
                   gamma=None if gamma is None else float(gamma), phi=phi)

    @classmethod
    def minimum(cls) -> "MeanSpec":
        return cls(MeanKind.MIN)

    @classmethod
    def maximum(cls) -> "MeanSpec":
        return cls(MeanKind.MAX)

    def swapped(self) -> "MeanSpec":
        """The same mean with its arguments exchanged: M_a(x, y) = M'_a(y, x)."""
        return MeanSpec(self.kind, 1.0 - self.alpha, self.gamma, self.phi)

    @property
    def label(self) -> str:
        if self.kind is MeanKind.POWER:
            return f"power({self.gamma:g})"
        if self.kind is MeanKind.QUASI_ARITHMETIC:
            return f"quasi({self.phi})" if self.phi != "power" \
                else f"quasi(power:{self.gamma:g})"
        return self.kind.value


def is_geometric(m: MeanSpec) -> bool:
    """True when the spec evaluates on the exact geometric branch.

    Covers the geometric kind itself, power means with |gamma| below the
    cancellation threshold, and the quasi-arithmetic log generator.
    """
    if m.kind is MeanKind.GEOMETRIC:
        return True
    if m.kind is MeanKind.POWER and abs(m.gamma) < _GEOMETRIC_GAMMA_EPS:
        return True
    return m.kind is MeanKind.QUASI_ARITHMETIC and m.phi == "log"


def _effective_power(m: MeanSpec) -> float | None:
    """Power exponent when the spec is a (quasi-)power mean, else None."""
    if m.kind is MeanKind.POWER:
        return m.gamma
    if m.kind is MeanKind.QUASI_ARITHMETIC and m.phi == "power":
        return m.gamma
    return None


def _geometric(alpha: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # zeros propagate to 0, the continuous limit of a**alpha * b**(1-alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(alpha * np.log(a) + (1.0 - alpha) * np.log(b))
    return np.where((a == 0.0) | (b == 0.0), 0.0, out)


def _power(alpha: float, gamma: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    zero = (a == 0.0) | (b == 0.0)
    if gamma < 0.0 and zero.any():
        raise NonPositiveInput(
            f"power mean with gamma={gamma} is undefined for zero arguments"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        # log-space form is immune to overflow of a**gamma for large |gamma|
        la, lb = np.log(a), np.log(b)
        lm = np.logaddexp(np.log(alpha) + gamma * la,
                          np.log1p(-alpha) + gamma * lb) / gamma
        out = np.exp(lm)
    if zero.any():
        # gamma > 0: the zero argument simply drops out of the sum
        direct = (alpha * a ** gamma + (1.0 - alpha) * b ** gamma) ** (1.0 / gamma)
        out = np.where(zero, direct, out)
    return out


def _quasi_exp(alpha: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # phi(u) = exp(u): M = log(alpha*e^a + (1-alpha)*e^b), written around the
    # larger argument as hi + log1p(w_lo*expm1(lo - hi)).  That stays in
    # [lo, hi] and keeps the digits of small arguments, which log(alpha) + a
    # rounds away (a = b(1 + 3e-16) = 1e-9 gave M 8e-8 above both).
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    w_lo = np.where(a < b, alpha, 1.0 - alpha)
    return hi + np.log1p(w_lo * np.expm1(lo - hi))


def evaluate(m: MeanSpec, a, b):
    """Evaluate M_alpha(a, b) elementwise.

    Arguments must be nonnegative; zeros are accepted wherever the mean has a
    finite continuous extension (geometric means return 0 there) and raise
    :class:`NonPositiveInput` otherwise.  Equal arguments return the common
    value exactly, for every mean kind.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if (a_arr < 0.0).any() or (b_arr < 0.0).any():
        raise NonPositiveInput("mean arguments must be nonnegative")
    scalar = a_arr.ndim == 0 and b_arr.ndim == 0

    alpha = m.alpha
    if m.kind is MeanKind.ARITHMETIC:
        out = alpha * a_arr + (1.0 - alpha) * b_arr
    elif m.kind is MeanKind.MIN:
        out = np.minimum(a_arr, b_arr)
    elif m.kind is MeanKind.MAX:
        out = np.maximum(a_arr, b_arr)
    elif is_geometric(m):
        out = _geometric(alpha, a_arr, b_arr)
    elif _effective_power(m) is not None:
        out = _power(alpha, _effective_power(m), a_arr, b_arr)
    else:  # quasi-arithmetic exp generator
        out = _quasi_exp(alpha, a_arr, b_arr)

    # idempotence is definitional: M(a, a) = a without rounding drift
    out = np.where(a_arr == b_arr, a_arr, out)
    return float(out) if scalar else out


def log_evaluate(m: MeanSpec, log_a, log_b):
    """Evaluate log M_alpha(exp(log_a), exp(log_b)) without leaving log space.

    This is the numerically safe route for density values that underflow
    (deep Gaussian tails); ``-inf`` inputs follow the continuous limits, so
    unlike :func:`evaluate` no error is raised for vanishing arguments.
    """
    la = np.asarray(log_a, dtype=float)
    lb = np.asarray(log_b, dtype=float)
    scalar = la.ndim == 0 and lb.ndim == 0
    alpha = m.alpha

    if m.kind is MeanKind.ARITHMETIC:
        out = np.logaddexp(np.log(alpha) + la, np.log1p(-alpha) + lb)
    elif m.kind is MeanKind.MIN:
        out = np.minimum(la, lb)
    elif m.kind is MeanKind.MAX:
        out = np.maximum(la, lb)
    elif is_geometric(m):
        out = alpha * la + (1.0 - alpha) * lb
        out = np.where(np.isneginf(la) | np.isneginf(lb), -np.inf, out)
    elif _effective_power(m) is not None:
        gamma = _effective_power(m)
        with np.errstate(invalid="ignore"):
            out = np.logaddexp(np.log(alpha) + gamma * la,
                               np.log1p(-alpha) + gamma * lb) / gamma
        if gamma < 0.0:
            out = np.where(np.isneginf(la) | np.isneginf(lb), -np.inf, out)
    else:
        with np.errstate(divide="ignore"):
            out = np.log(_quasi_exp(alpha, np.exp(la), np.exp(lb)))

    out = np.where(la == lb, la, out)
    return float(out) if scalar else out


def power_limit_check(gamma_sequence, a: float, b: float, alpha: float = 0.5):
    """Power means P_gamma(a, b) along a gamma sequence.

    The sequence of values is nondecreasing in gamma and approaches
    min(a, b) as gamma -> -inf and max(a, b) as gamma -> +inf; gamma = 0 is
    the geometric mean.  Inputs must be strictly positive.
    """
    if a <= 0.0 or b <= 0.0:
        raise NonPositiveInput("power limits require strictly positive arguments")
    out = []
    for gamma in gamma_sequence:
        if abs(gamma) < _GEOMETRIC_GAMMA_EPS:
            spec = MeanSpec.geometric(alpha)
        else:
            spec = MeanSpec.power(gamma, alpha)
        out.append(evaluate(spec, a, b))
    return out
