"""Weighted bivariate scalar means M_alpha(a, b).

A weighted mean interpolates between its two arguments with skew weight
``alpha``: the convention is M_1(a, b) = a and M_0(a, b) = b, and every
mean satisfies in-betweenness, min(a, b) <= M_alpha(a, b) <= max(a, b).

Supported families:

* arithmetic:       alpha*a + (1-alpha)*b
* geometric:        a**alpha * b**(1-alpha)
* power(gamma):     (alpha*a**gamma + (1-alpha)*b**gamma)**(1/gamma),
                    with gamma -> 0 (any |gamma| < 1e-8) giving the
                    geometric mean, gamma -> -inf the min, +inf the max
* quasi-arithmetic: phi^{-1}(alpha*phi(a) + (1-alpha)*phi(b)) with
                    phi = exp; phi = log and u**gamma give the geometric
                    and power means
* min / max:        the extremal "means"

Each mean has one :class:`MeanSpec`, whose ``label`` ``MeanSpec.parse``
reads back.  Pointwise application of a mean to two density vectors
produces the (unnormalized) M-mixture used throughout
:mod:`geojsd.discrete` and :mod:`geojsd.estimate`.  All functions are pure
and accept scalars or numpy arrays.

The geometric and power means, and in log space the arithmetic mean, have
one implementation: the blocked kernel :func:`geojsd._kernels.power_mean`,
which works 8192 entries at a time in reused scratch, so the result is the
only support-sized array.  :func:`log_evaluate` runs it on logs and
:func:`evaluate` on values, whose logs it takes once and whose result it
exponentiates.  The geometric mean is ``alpha*log a + (1-alpha)*log b``
entry by entry, the same bits at every size.  The other kinds add their two
weighted terms as ``max(u, v) + log1p(exp(-|u - v|))``, numpy's vector
``exp`` and ``log1p`` in place of ``np.logaddexp``'s scalar loop; that
moves a result by at most about 2 ulp of the log-add.  Both follow one
zero rule, the continuous limit: a zero argument makes the geometric and
every gamma < 0 power mean 0, and drops out of a gamma > 0 power mean,
which leaves ``(1-alpha)**(1/gamma) * b`` for ``a = 0``.  Only negative
arguments are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import _kernels
from .errors import InvalidAlpha, NonPositiveInput

__all__ = [
    "MeanKind",
    "MeanSpec",
    "evaluate",
    "log_evaluate",
    "power_limit_check",
]

# MeanSpec.power returns the geometric mean for |gamma| below this: the
# direct power formula loses all significant digits near gamma = 0.
_GEOMETRIC_GAMMA_EPS = 1e-8


class MeanKind(Enum):
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"
    POWER = "power"
    QUASI_ARITHMETIC = "quasi_arithmetic"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class MeanSpec:
    """A weighted bivariate mean: family, skew weight and power exponent.

    ``gamma`` is the exponent of the power family: finite, and at least 1e-8
    in size, since :meth:`power` returns the geometric mean below that.  The
    quasi-arithmetic kind is the one generated by exp; :meth:`quasi_arithmetic`
    builds the generators log and u**gamma as the geometric and power kinds.
    ``alpha`` must lie strictly inside (0, 1).  A field that the kind does
    not read is rejected: ``gamma`` off the power kind, and an ``alpha``
    other than 1/2 on min and max.  So two specs of one mean compare and
    hash equal, and :meth:`parse` reads :attr:`label` back to the spec.
    """

    kind: MeanKind
    alpha: float = 0.5
    gamma: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise InvalidAlpha(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.kind is MeanKind.POWER:
            if self.gamma is None or not math.isfinite(self.gamma):
                raise ValueError(
                    f"power mean exponent gamma must be finite, got {self.gamma}")
            if abs(self.gamma) < _GEOMETRIC_GAMMA_EPS:
                raise ValueError(f"power mean exponent {self.gamma} is below "
                                 "1e-8 in size: that is MeanSpec.geometric")
        elif self.gamma is not None:
            raise ValueError(f"{self.kind.value} mean takes no gamma exponent")
        if self.kind in (MeanKind.MIN, MeanKind.MAX) and self.alpha != 0.5:
            raise ValueError(f"{self.kind.value} mean takes no skew weight; "
                             f"alpha must be 0.5, got {self.alpha}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def arithmetic(cls, alpha: float = 0.5) -> "MeanSpec":
        return cls(MeanKind.ARITHMETIC, alpha)

    @classmethod
    def geometric(cls, alpha: float = 0.5) -> "MeanSpec":
        return cls(MeanKind.GEOMETRIC, alpha)

    @classmethod
    def power(cls, gamma: float, alpha: float = 0.5) -> "MeanSpec":
        """The power mean of exponent ``gamma``; for |gamma| < 1e-8, where
        the power formula loses its digits, the geometric mean.  A ``gamma``
        given as text raises ``TypeError``."""
        if isinstance(gamma, (str, bytes)):
            raise TypeError(f"power mean exponent must be a number, got {gamma!r}")
        gamma = float(gamma)
        if abs(gamma) < _GEOMETRIC_GAMMA_EPS:
            return cls.geometric(alpha)
        return cls(MeanKind.POWER, alpha, gamma=gamma)

    @classmethod
    def quasi_arithmetic(cls, phi: str, gamma: float | None = None,
                         alpha: float = 0.5) -> "MeanSpec":
        """The mean generated by ``phi``: ``log`` gives :meth:`geometric`,
        ``power`` (u**gamma) gives :meth:`power`, ``exp`` its own kind.
        Only ``power`` takes ``gamma``."""
        if phi == "power" and gamma is not None:
            return cls.power(gamma, alpha)
        if phi == "log" and gamma is None:
            return cls.geometric(alpha)
        if phi == "exp" and gamma is None:
            return cls(MeanKind.QUASI_ARITHMETIC, alpha)
        raise ValueError(f"no quasi-arithmetic generator {phi!r} with gamma "
                         f"{gamma}: 'power' requires gamma, 'log' and 'exp' take none")

    @classmethod
    def minimum(cls) -> "MeanSpec":
        return cls(MeanKind.MIN)

    @classmethod
    def maximum(cls) -> "MeanSpec":
        return cls(MeanKind.MAX)

    @classmethod
    def parse(cls, text: str, alpha: float = 0.5) -> "MeanSpec":
        """The mean a descriptor names, of skew ``alpha`` (not on min and
        max): arithmetic | geometric | min | max | power:<gamma> | quasi:log
        | quasi:exp | quasi:power:<gamma>.  The inverse of :attr:`label`."""
        if not isinstance(text, str):
            raise ValueError(f"mean descriptor must be a string, got {text!r}")
        name, *rest = text.lower().split(":")
        if name in ("min", "max"):
            return cls(MeanKind(name))
        if name in ("arithmetic", "geometric"):
            return cls(MeanKind(name), alpha)
        if name == "power":
            if len(rest) != 1:
                raise ValueError("power mean descriptor is power:<gamma>")
            return cls.power(float(rest[0]), alpha)
        if name == "quasi":
            if rest in (["log"], ["exp"]):
                return cls.quasi_arithmetic(rest[0], alpha=alpha)
            if len(rest) == 2 and rest[0] == "power":
                return cls.power(float(rest[1]), alpha)
            raise ValueError("quasi descriptor is quasi:log|exp|power:<gamma>")
        raise ValueError(f"unknown mean descriptor {text!r}")

    def swapped(self) -> "MeanSpec":
        """The same mean with its arguments exchanged: M_a(x, y) = M'_a(y, x)."""
        return replace(self, alpha=1.0 - self.alpha)

    @property
    def label(self) -> str:
        """The descriptor :meth:`parse` reads: ``power:-0.5`` (gamma by
        ``repr``, so it reads back exactly), ``quasi:exp`` or the kind."""
        if self.kind is MeanKind.POWER:
            return f"power:{float(self.gamma)!r}"
        if self.kind is MeanKind.QUASI_ARITHMETIC:
            return "quasi:exp"
        return self.kind.value


def _power_exponent(m: MeanSpec) -> float | None:
    """The exponent of ``m`` as a power mean (0 geometric, 1 arithmetic), or None."""
    return {MeanKind.GEOMETRIC: 0.0, MeanKind.ARITHMETIC: 1.0,
            MeanKind.POWER: m.gamma}.get(m.kind)


def _power_kernel(m: MeanSpec, a: np.ndarray, b: np.ndarray,
                  log_space: bool) -> np.ndarray:
    """The geometric and power kinds, and in log space the arithmetic one,
    through the blocked kernel, in the broadcast shape of ``a`` and ``b``."""
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    return _kernels.power_mean(a, b, m.alpha, _power_exponent(m),
                               log_space).reshape(a.shape)


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
    if m.kind in (MeanKind.GEOMETRIC, MeanKind.POWER):
        out = _power_kernel(m, a_arr, b_arr, log_space=False)
        return float(out) if scalar else out
    if m.kind is MeanKind.ARITHMETIC:
        out = alpha * a_arr + (1.0 - alpha) * b_arr
    elif m.kind is MeanKind.MIN:
        out = np.minimum(a_arr, b_arr)
    elif m.kind is MeanKind.MAX:
        out = np.maximum(a_arr, b_arr)
    else:
        out = _quasi_exp(alpha, a_arr, b_arr)

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

    if m.kind in (MeanKind.GEOMETRIC, MeanKind.POWER, MeanKind.ARITHMETIC):
        out = _power_kernel(m, la, lb, log_space=True)
        return float(out) if scalar else out
    if m.kind is MeanKind.MIN:
        out = np.minimum(la, lb)
    elif m.kind is MeanKind.MAX:
        out = np.maximum(la, lb)
    else:
        with np.errstate(divide="ignore"):
            out = np.log(_quasi_exp(m.alpha, np.exp(la), np.exp(lb)))

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
