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

The geometric and power means have one implementation, in log space:
:func:`log_evaluate` runs it directly and :func:`evaluate` exponentiates
it.  Both follow one zero rule, the continuous limit: a zero argument makes
the geometric and every gamma < 0 power mean 0, and drops out of a
gamma > 0 power mean, which leaves ``(1-alpha)**(1/gamma) * b`` for
``a = 0``.  Only negative arguments are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

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


def _log_power_mean(m: MeanSpec, a, b, to_log: Callable) -> np.ndarray:
    """log M_alpha(a, b) for the geometric and (quasi-)power kinds.

    ``to_log`` takes the arguments to log space: ``np.log`` from
    :func:`evaluate`, the identity from :func:`log_evaluate`.  It is called
    inside each expression, so numpy scales a fresh log array in place
    instead of allocating another.

    A zero argument (log ``-inf``) takes the continuous limit: it drops out
    of a gamma > 0 power sum, and sends the geometric and gamma < 0 means to
    ``-inf``.  The expression already does that except where the other
    argument is ``+inf`` or NaN; only there is the limit imposed.
    """
    alpha = m.alpha
    geometric = is_geometric(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        if geometric:
            out = alpha * to_log(a) + (1.0 - alpha) * to_log(b)
        else:
            gamma = m.gamma
            out = np.logaddexp(np.log(alpha) + gamma * to_log(a),
                               np.log1p(-alpha) + gamma * to_log(b)) / gamma
        if geometric or gamma < 0.0:
            nan = np.isnan(out)
            if nan.any():
                zero = np.isneginf(to_log(a)) | np.isneginf(to_log(b))
                out = np.where(nan & zero, -np.inf, out)
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

    Arguments must be nonnegative; a negative one raises
    :class:`NonPositiveInput`.  A zero argument takes the continuous limit:
    geometric and gamma < 0 power means are 0, and a gamma > 0 power mean
    keeps the other argument's term alone.  Equal arguments return the
    common value exactly, for every mean kind.
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
    elif m.kind is MeanKind.QUASI_ARITHMETIC and m.phi == "exp":
        out = _quasi_exp(alpha, a_arr, b_arr)
    else:  # geometric and (quasi-)power kinds, through log space
        out = _log_power_mean(m, a_arr, b_arr, np.log)
        # out is a fresh array: exponentiate it in place
        out = np.exp(out, out=out if out.ndim else None)

    # idempotence is definitional: M(a, a) = a without rounding drift
    out = np.where(a_arr == b_arr, a_arr, out)
    return float(out) if scalar else out


def log_evaluate(m: MeanSpec, log_a, log_b):
    """Evaluate log M_alpha(exp(log_a), exp(log_b)) without leaving log space.

    This is the numerically safe route for density values that underflow
    (deep Gaussian tails).  ``-inf`` inputs follow the same continuous
    limits as zeros in :func:`evaluate`.
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
    elif m.kind is MeanKind.QUASI_ARITHMETIC and m.phi == "exp":
        with np.errstate(divide="ignore"):
            out = np.log(_quasi_exp(alpha, np.exp(la), np.exp(lb)))
    else:
        out = _log_power_mean(m, la, lb, lambda x: x)

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
    return [evaluate(MeanSpec.power(gamma, alpha), a, b)
            for gamma in gamma_sequence]
