"""Exact divergences between finite-support densities.

Every divergence here is an explicit finite sum, so values are exact up to
floating-point rounding.  The summation conventions are the standard
measure-theoretic ones: ``0*log(0) = 0`` and ``0*log(0/0) = 0``, while a
genuine support violation (``p1 > 0`` where ``p2 = 0`` inside a KL-type sum)
yields ``+inf`` as an in-band IEEE value rather than an exception.

Divergences:

* :func:`kl`, :func:`kl_extended` -- Kullback-Leibler and its extension to
  unnormalized positive vectors, ``sum(q1*log(q1/q2) + q2 - q1)``.
* :func:`js`, :func:`js_m`, :func:`js_m_extended` -- the Jensen-Shannon
  divergence and its generalizations built from normalized or unnormalized
  M-mixtures (see :mod:`geojsd.means`).
* :func:`jeffreys`, :func:`bhattacharyya`, :func:`chernoff`,
  :func:`total_variation`, :func:`taneja_t`, :func:`kl_between_mixtures`.
* :func:`f_divergence` -- generic ``sum(p1 * f(p2/p1))`` for a convex
  generator, with the registry in :data:`F_GENERATORS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import means
from ._kernels import (sum_x_log_ratio, sum_x_log_ratio_to_mean,
                       sum_x_log_ratio_to_midpoint)
from .errors import (
    DisjointSupport,
    InvalidAlpha,
    InvalidDensity,
    NoConvergence,
)
from .logbase import NATS, LogBase
from .means import MeanKind, MeanSpec

__all__ = [
    "DiscreteDensity",
    "FGenerator",
    "F_KL",
    "F_JS",
    "F_EXTENDED_GJS",
    "F_JEFFREYS",
    "F_TANEJA",
    "F_BHATTACHARYYA_COEFF",
    "F_GENERATORS",
    "kl",
    "kl_extended",
    "m_mixture",
    "js",
    "js_m",
    "js_m_extended",
    "jeffreys",
    "bhattacharyya",
    "bhattacharyya_coefficient",
    "chernoff",
    "total_variation",
    "f_divergence",
    "kl_between_mixtures",
    "taneja_t",
    "coarse_grain",
    "shannon_entropy",
    "cross_entropy",
]

_NORMALIZATION_TOL = 1e-12   # accepted as exactly normalized
_RENORMALIZE_TOL = 1e-9      # silently rescaled, with the flag set
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class DiscreteDensity:
    """A finite-support nonnegative weight vector.

    ``normalized=True`` asserts unit mass: vectors within 1e-12 of mass one
    pass as-is, vectors within 1e-9 are rescaled and flagged through
    ``renormalized`` (hand-written inputs rarely sum exactly to one), and
    anything farther off is rejected.  ``renormalized`` is set here, never
    passed in.  Weights given as text or complex numbers raise ``TypeError``.
    """

    weights: np.ndarray
    normalized: bool = False
    renormalized: bool = field(init=False)

    def __post_init__(self) -> None:
        try:
            w = np.asarray(self.weights)
        except ValueError:  # a ragged nesting such as [[1.0], [1.0, 2.0]]
            raise InvalidDensity("weights must be a nonempty 1-D vector") from None
        if w.dtype.kind in "USO" and any(isinstance(v, (str, bytes)) for v in w.flat):
            raise TypeError("weights must be numbers, got text")
        if w.dtype.kind == "c":
            raise TypeError("weights must be real numbers, got complex")
        w = w.astype(float, copy=False)
        if w.ndim != 1 or w.size == 0:
            raise InvalidDensity("weights must be a nonempty 1-D vector")
        _check_weights(w)
        renormalized = False
        if self.normalized:
            w, renormalized = _unit_mass(w)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "renormalized", renormalized)

    @classmethod
    def probability(cls, weights) -> "DiscreteDensity":
        """A normalized density (unit total mass)."""
        return cls(weights, normalized=True)

    @classmethod
    def positive(cls, weights) -> "DiscreteDensity":
        """An unnormalized positive density."""
        return cls(weights, normalized=False)

    @classmethod
    def _adopt(cls, w: np.ndarray, normalized: bool,
               renormalized: bool) -> "DiscreteDensity":
        """A density on weights that passed its checks, without a copy.

        ``w`` must be a fresh float array that nothing else holds.
        """
        density = object.__new__(cls)
        w.setflags(write=False)
        object.__setattr__(density, "weights", w)
        object.__setattr__(density, "normalized", normalized)
        object.__setattr__(density, "renormalized", renormalized)
        return density

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _check_weights(w: np.ndarray) -> None:
    if (w < 0.0).any() or not np.isfinite(w).all():
        raise InvalidDensity("weights must be finite and nonnegative")
    if not (w > 0.0).any():
        raise InvalidDensity("at least one weight must be positive")


def _unit_mass(w: np.ndarray) -> tuple[np.ndarray, bool]:
    """``w`` as a normalized density's weights, and whether it was rescaled."""
    gap = abs(float(w.sum()) - 1.0)
    if gap > _RENORMALIZE_TOL:
        raise InvalidDensity(
            f"normalized density has mass off by {gap:.3e} (> 1e-9)"
        )
    if gap > _NORMALIZATION_TOL:
        return w / w.sum(), True
    return w, False


def _aligned(p1: DiscreteDensity, p2: DiscreteDensity,
             require_normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
    if p1.size != p2.size:
        raise InvalidDensity(
            f"support sizes differ: {p1.size} vs {p2.size}"
        )
    if require_normalized and not (p1.normalized and p2.normalized):
        raise InvalidDensity("this divergence requires normalized densities")
    return p1.weights, p2.weights


def _check_beta(beta: float) -> None:
    if not (0.0 < beta < 1.0):
        raise InvalidAlpha(f"beta must lie in (0, 1), got {beta}")


# ---------------------------------------------------------------------------
# Kullback-Leibler family
# ---------------------------------------------------------------------------

def kl(p1: DiscreteDensity, p2: DiscreteDensity, base: LogBase = NATS) -> float:
    """Kullback-Leibler divergence sum(p1 * log(p1/p2)).

    Returns ``+inf`` when p1 puts mass where p2 has none.
    """
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    return sum_x_log_ratio(w1, w2) / base.ln


def kl_extended(q1: DiscreteDensity, q2: DiscreteDensity,
                base: LogBase = NATS) -> float:
    """Extended KL for positive vectors: sum(q1*log(q1/q2) + q2 - q1).

    Nonnegative for arbitrary positive inputs, zero iff they coincide, and
    equal to :func:`kl` when both are normalized.  Only the logarithmic part
    rescales under a base change; the linear mass terms do not.
    """
    w1, w2 = _aligned(q1, q2)
    if base is NATS:
        return sum_x_log_ratio(w1, w2, extended=True)
    return sum_x_log_ratio(w1, w2) / base.ln + float((w2 - w1).sum())


def jeffreys(p1: DiscreteDensity, p2: DiscreteDensity,
             base: LogBase = NATS) -> float:
    """Jeffreys divergence KL(p1, p2) + KL(p2, p1) = sum((p1-p2)*log(p1/p2))."""
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    return (sum_x_log_ratio(w1, w2) + sum_x_log_ratio(w2, w1)) / base.ln


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------

def m_mixture(p1: DiscreteDensity, p2: DiscreteDensity, m: MeanSpec,
              normalize: bool = True) -> tuple[DiscreteDensity, float]:
    """Pointwise M-mixture of two densities and its normalizer Z.

    Returns ``(mixture, Z)`` with ``Z = sum_i M_alpha(p1[i], p2[i])``.  For
    normalized inputs Z always lies in ``[1 - TV, 1 + TV] <= 2``.  Raises
    :class:`DisjointSupport` when Z = 0.  Z is ``+inf`` when the finite
    mixture weights sum past the largest float (masses near 1e308); the
    normalized mixture is then still finite.
    """
    w1, w2 = _aligned(p1, p2)
    mixed = np.asarray(means.evaluate(m, w1, w2), dtype=float)
    with np.errstate(over="ignore"):
        z = float(mixed.sum())
    if z <= 0.0:
        raise DisjointSupport("mixture normalizer is zero: disjoint supports")
    if normalize:
        # evaluate returns a fresh array
        if z == math.inf:
            # over the largest, the n finite weights sum to at most n
            mixed /= mixed.max()
            mixed /= mixed.sum()
        else:
            mixed /= z
    # With z > 0 finite and no entry negative, every entry is finite and
    # one is positive: only another vector can fail the density checks.
    if not (math.isfinite(z) and mixed.min() >= 0.0):
        _check_weights(mixed)
    renormalized = False
    if normalize:
        mixed, renormalized = _unit_mass(mixed)
    return DiscreteDensity._adopt(mixed, normalize, renormalized), z


def js(p1: DiscreteDensity, p2: DiscreteDensity, base: LogBase = NATS) -> float:
    """Jensen-Shannon divergence with the arithmetic mixture.

    Always finite (bounded by log 2), symmetric, zero iff the densities agree.
    """
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    to_mid_1, to_mid_2 = sum_x_log_ratio_to_midpoint(w1, w2)
    return 0.5 * (to_mid_1 + to_mid_2) / base.ln


def _mixture_sums(w1: np.ndarray, w2: np.ndarray, m: MeanSpec,
                  beta: float) -> tuple[float, float, float]:
    """``beta S_1 + (1-beta) S_2`` with ``S_i = sum w_i log(w_i/mix)``, the
    normalizer ``Z = sum mix`` and ``beta sum(mix - w1) + (1-beta)
    sum(mix - w2)``, in one pass over the M-mixture ``mix``.  Raises
    :class:`DisjointSupport` when the mixture vanishes."""
    s1, s2, z, both, diff = sum_x_log_ratio_to_mean(
        w1, w2, partial(means.evaluate, m), m.alpha, means._power_exponent(m))
    if z <= 0.0:
        raise DisjointSupport("mixture normalizer is zero: disjoint supports")
    # sum(mix - w1) = (both - diff)/2 and sum(mix - w2) = (both + diff)/2
    return beta * s1 + (1.0 - beta) * s2, z, 0.5 * both + (0.5 - beta) * diff


def js_m(p1: DiscreteDensity, p2: DiscreteDensity, m: MeanSpec,
         beta: float = 0.5, base: LogBase = NATS) -> float:
    """M-mixture Jensen-Shannon divergence (normalized mixture).

    ``beta*KL(p1, mix/Z) + (1-beta)*KL(p2, mix/Z)`` with ``mix`` the
    M-mixture and Z its normalizer, taken as ``beta S_1 + (1-beta) S_2 +
    log(Z) (beta sum p1 + (1-beta) sum p2)``, ``S_i = sum p_i log(p_i/mix)``,
    in one pass that forms no mixture array
    (:func:`geojsd._kernels.sum_x_log_ratio_to_mean`).  Reduces to
    :func:`js` for the balanced arithmetic mean, and dominates it for any
    mean at alpha = beta = 1/2.  May return ``+inf`` when the mixture
    vanishes inside a support (min mean); raises :class:`DisjointSupport`
    when it vanishes everywhere.
    """
    _check_beta(beta)
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    logs, z, gaps = _mixture_sums(w1, w2, m, beta)
    # beta sum p1 + (1-beta) sum p2 = Z - gaps
    return (logs + math.log(z) * (z - gaps)) / base.ln


def js_m_extended(q1: DiscreteDensity, q2: DiscreteDensity, m: MeanSpec,
                  beta: float = 0.5, base: LogBase = NATS) -> float:
    """Extended M-JSD: extended KL against the *unnormalized* M-mixture.

    ``beta S_1 + (1-beta) S_2`` (the part a base change rescales) plus
    ``beta sum(mix - q1) + (1-beta) sum(mix - q2)``, from :func:`js_m`'s
    pass.  The gaps are summed atom by atom, so equal inputs give 0, also
    where Z overflows.  For normalized inputs it exceeds :func:`js_m` by the
    gap ``Z - log(Z) - 1`` (in nats), where Z is the mixture normalizer.
    """
    _check_beta(beta)
    w1, w2 = _aligned(q1, q2)
    logs, _, gaps = _mixture_sums(w1, w2, m, beta)
    return logs / base.ln + gaps


# ---------------------------------------------------------------------------
# Bhattacharyya / Chernoff / total variation
# ---------------------------------------------------------------------------

def bhattacharyya_coefficient(p1: DiscreteDensity, p2: DiscreteDensity,
                              alpha: float = 0.5) -> float:
    """Skew Bhattacharyya coefficient sum(p1**alpha * p2**(1-alpha)) in (0, 1]."""
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha}")
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    both = (w1 > 0.0) & (w2 > 0.0)
    if not both.any():
        return 0.0
    a, b = w1[both], w2[both]
    return float(np.exp(alpha * np.log(a) + (1.0 - alpha) * np.log(b)).sum())


def bhattacharyya(p1: DiscreteDensity, p2: DiscreteDensity, alpha: float = 0.5,
                  base: LogBase = NATS) -> float:
    """Skew Bhattacharyya distance B_alpha = -log sum(p1**alpha * p2**(1-alpha)).

    ``+inf`` on disjoint supports.  B_{1/2} is the Bhattacharyya distance;
    B_alpha equals the alpha-skewed geometric JS-symmetrization of the
    *reverse* KL.
    """
    coeff = bhattacharyya_coefficient(p1, p2, alpha)
    if coeff == 0.0:
        return math.inf
    return -math.log(coeff) / base.ln


def chernoff(p1: DiscreteDensity, p2: DiscreteDensity, tol: float = 1e-12,
             base: LogBase = NATS, max_iter: int = 200) -> tuple[float, float]:
    """Chernoff information: max over alpha of B_alpha, with its maximizer.

    ``B(alpha) = -log sum(p1**alpha * p2**(1-alpha))`` over the shared
    support is concave.  Under the skew geometric mixture ``mix`` at alpha,
    its slope is the equalizer ``E_mix[log(p2/p1)] = KL(mix, p1) -
    KL(mix, p2)`` and its curvature is ``-Var_mix[log(p1/p2)]``, so one
    exponential pass over the support gives the value, slope and curvature
    together.  Newton steps on the slope stay inside a bracket kept from the
    slope's sign; a step that would leave it is replaced by bisection.  The
    iteration stops on the pass after the first step (in alpha) below
    ``tol``, or when the bracket is narrower than ``tol``, and returns the
    value of the pass at the returned alpha; ``max_iter`` passes without
    that raise :class:`NoConvergence`.  On nearly equal pairs, steps too
    small to change the rounded log-weights also count as below ``tol``.

    Boundary maximizers are returned exactly.  When the slope has one sign
    over all of (0, 1), the result is ``(-log sum_shared p2, 0.0)`` if the
    slope is nowhere positive and ``(-log sum_shared p1, 1.0)`` if it is
    nowhere negative.  That needs an atom outside the shared support, or
    weights that agree to about 1e-8, where rounding of the masses outweighs
    the curvature.  The end slopes are weight sums of the inputs, so this
    costs no exponential pass.  Where B is constant (p1 = p2 on the shared
    support) every alpha is optimal and the iteration stops at 0.5 on its
    first pass; identical densities return ``(0.0, 0.5)``.

    Returns ``(value, alpha_star)``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive")
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    if np.array_equal(w1, w2):
        return 0.0, 0.5
    if w1.min() == 0.0 or w2.min() == 0.0:
        both = (w1 > 0.0) & (w2 > 0.0)
        if not both.any():
            raise DisjointSupport("Chernoff information diverges on disjoint supports")
        w1, w2 = w1[both], w2[both]
    # Centred coordinate t = 2*alpha - 1: the mixture's log-weights are
    # m + t*h, with m and h half the sum and half the difference of
    # log p1 and log p2.  Swapping p1 and p2 negates h and t exactly, so
    # the swapped pair runs the mirror image of this iteration.
    m = np.log(w1)
    work = np.log(w2)
    h = m - work
    m += work
    m *= 0.5
    h *= 0.5
    # g(t) = E_mix[h] = -dB/dt / 2 rises with t; at t = -1 the mixture
    # is p2, at t = +1 it is p1.
    g_lo, g_hi = float(np.dot(w2, h)), float(np.dot(w1, h))
    if g_lo >= 0.0 and g_hi > 0.0:
        return -math.log(float(w2.sum())) / base.ln, 0.0
    if g_hi <= 0.0 and g_lo < 0.0:
        return -math.log(float(w1.sum())) / base.ln, 1.0
    # start where g interpolated linearly between the ends vanishes
    t = (g_lo + g_hi) / (g_lo - g_hi) if g_lo < 0.0 < g_hi else 0.0
    # A step moves each log-weight by at most |step| * max|h|.  Below the
    # rounding of the largest log-weight (m <= 0) the slope is noise, so
    # such steps count as converged; this binds only for nearly equal pairs.
    h_max = max(float(h.max()), -float(h.min()))
    step_tol = 2.0 * tol
    if h_max > 0.0:
        step_tol = max(step_tol, _EPS * (h_max - float(m.min())) / h_max)
    lo, hi = -1.0, 1.0
    last_step = math.inf
    for _ in range(max_iter):
        np.multiply(h, t, out=work)
        work += m
        top = float(work.max())
        work -= top
        np.exp(work, out=work)
        total = float(work.sum())
        mean = float(np.dot(work, h)) / total
        work *= h
        # E[h^2] - E[h]^2 cancels only far from the root, where the
        # curvature just scales the step
        var = float(np.dot(work, h)) / total - mean * mean
        value = -(top + math.log(total))
        # Stop one pass after a step below tol: t is then within about that
        # step squared of the root, while the step's start still had a
        # slope of up to curvature times tol (5e-8 on sharply curved pairs).
        if abs(last_step) < step_tol or mean == 0.0:
            break
        if mean < 0.0:
            lo = t
        else:
            hi = t
        t_next = t - mean / var if var > 0.0 else math.inf
        # a step that rounds to nothing would repeat this pass
        if t_next == t or hi - lo < step_tol:
            break
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        last_step, t = t_next - t, t_next
    else:
        raise NoConvergence(
            f"Newton iteration did not reach tol={tol} in {max_iter} passes"
        )
    return value / base.ln, 0.5 * (1.0 + t)


def total_variation(p1: DiscreteDensity, p2: DiscreteDensity) -> float:
    """Total variation distance 0.5 * sum(|p1 - p2|), in [0, 1]."""
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    return 0.5 * float(np.abs(w1 - w2).sum())


# ---------------------------------------------------------------------------
# f-divergences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FGenerator:
    """Generator of a separable divergence sum(p1 * f(p2/p1)).

    ``term(w1, w2, ln_base)`` evaluates the summand ``w1 * f(w2 / w1)`` on
    atoms where both masses are positive, with logarithms rescaled to the
    requested base (algebraic terms are base-free).  The built-in generators
    write it with ``log u = log w2 - log w1`` and never form the ratio, so a
    subnormal mass, whose ratio would overflow, gives its finite term.  Only
    :meth:`custom` forms the ratio.  :meth:`f` is the generator itself,
    ``term(1, u)``.  ``at_zero`` and ``slope_at_inf`` supply the limit
    conventions ``f(0+)`` and ``lim f(u)/u`` used on one-sided zeros.
    Divergence generators satisfy f(1) = 0; coefficients such as the
    Bhattacharyya coefficient have f(1) = 1.
    """

    name: str
    term: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    at_zero: Callable[[float], float]
    slope_at_inf: Callable[[float], float]

    def f(self, u, ln_b: float) -> np.ndarray:
        """The generator ``f(u)``, logarithms in the base with log ``ln_b``."""
        u = np.asarray(u, dtype=float)
        return self.term(np.ones_like(u), u, ln_b)

    @classmethod
    def custom(cls, f: Callable[[np.ndarray], np.ndarray],
               at_zero: float | None = None,
               slope_at_inf: float | None = None,
               name: str = "custom") -> "FGenerator":
        """Wrap a plain convex generator f(u) with f(1) = 0.

        Unstated limits are probed numerically at u = 1e-300 and u = 1e300.
        The generator is taken as written; no base rescaling is applied.
        """
        f0 = float(f(np.asarray(1e-300))) if at_zero is None else at_zero
        s_inf = (float(f(np.asarray(1e300)) / 1e300)
                 if slope_at_inf is None else slope_at_inf)
        return cls(name, lambda w1, w2, ln_b: w1 * f(w2 / w1),
                   lambda ln_b: f0, lambda ln_b: s_inf)


# The built-in summands w1 * f(w2 / w1), written with log u = log w2 - log w1
# so that no ratio is formed: a subnormal mass has a finite log.
def _log_ratio(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    return np.log(w2) - np.log(w1)


def _sqrt_product(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    # sqrt(w1 * w2) without the product, which underflows near 1e-200
    return np.sqrt(w1) * np.sqrt(w2)


def _t_kl(w1: np.ndarray, w2: np.ndarray, ln_b: float) -> np.ndarray:
    # f(u) = -log u
    return -w1 * _log_ratio(w1, w2) / ln_b


def _t_js(w1: np.ndarray, w2: np.ndarray, ln_b: float) -> np.ndarray:
    # f(u) = (u log u - (1 + u) log((1 + u)/2)) / 2
    log_mid = np.log(0.5 * (w1 + w2))
    return 0.5 * (w1 * (np.log(w1) - log_mid)
                  + w2 * (np.log(w2) - log_mid)) / ln_b


def _t_extended_gjs(w1: np.ndarray, w2: np.ndarray, ln_b: float) -> np.ndarray:
    # f(u) = (u - 1) log(u) / 4 + sqrt(u) - 1
    return (0.25 * (w2 - w1) * _log_ratio(w1, w2) / ln_b
            + _sqrt_product(w1, w2) - w1)


def _t_jeffreys(w1: np.ndarray, w2: np.ndarray, ln_b: float) -> np.ndarray:
    # f(u) = (u - 1) log u
    return (w2 - w1) * _log_ratio(w1, w2) / ln_b


def _t_taneja(w1: np.ndarray, w2: np.ndarray, ln_b: float) -> np.ndarray:
    # f(u) = (1 + u)/2 log((1 + u) / (2 sqrt(u)))
    mid = 0.5 * (w1 + w2)
    return mid * (np.log(mid) - 0.5 * (np.log(w1) + np.log(w2))) / ln_b


def _t_bc(w1: np.ndarray, w2: np.ndarray, ln_b: float) -> np.ndarray:
    # f(u) = sqrt(u)
    return _sqrt_product(w1, w2)


F_KL = FGenerator("kl", _t_kl, lambda ln_b: math.inf, lambda ln_b: 0.0)
F_JS = FGenerator("js", _t_js,
                  lambda ln_b: 0.5 * math.log(2.0) / ln_b,
                  lambda ln_b: 0.5 * math.log(2.0) / ln_b)
F_EXTENDED_GJS = FGenerator("extended_gjs", _t_extended_gjs,
                            lambda ln_b: math.inf, lambda ln_b: math.inf)
F_JEFFREYS = FGenerator("jeffreys", _t_jeffreys,
                        lambda ln_b: math.inf, lambda ln_b: math.inf)
F_TANEJA = FGenerator("taneja", _t_taneja,
                      lambda ln_b: math.inf, lambda ln_b: math.inf)
F_BHATTACHARYYA_COEFF = FGenerator("bhattacharyya_coeff", _t_bc,
                                   lambda ln_b: 0.0, lambda ln_b: 0.0)

F_GENERATORS: dict[str, FGenerator] = {
    g.name: g for g in (F_KL, F_JS, F_EXTENDED_GJS, F_JEFFREYS, F_TANEJA,
                        F_BHATTACHARYYA_COEFF)
}


def f_divergence(p1: DiscreteDensity, p2: DiscreteDensity, f: FGenerator,
                 base: LogBase = NATS) -> float:
    """Separable divergence sum(p1 * f(p2/p1)) with limit conventions.

    One-sided zeros contribute ``p1 * f(0+)`` and ``p2 * lim f(u)/u``
    respectively; shared zeros contribute nothing.
    """
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    ln_b = base.ln
    both = (w1 > 0.0) & (w2 > 0.0)
    total = float(f.term(w1[both], w2[both], ln_b).sum())
    mass_u0 = float(w1[(w1 > 0.0) & (w2 == 0.0)].sum())
    if mass_u0 > 0.0:
        total += mass_u0 * f.at_zero(ln_b)
    mass_uinf = float(w2[(w1 == 0.0) & (w2 > 0.0)].sum())
    if mass_uinf > 0.0:
        total += mass_uinf * f.slope_at_inf(ln_b)
    return total


# ---------------------------------------------------------------------------
# Mixture-vs-mixture divergences
# ---------------------------------------------------------------------------

def kl_between_mixtures(p1: DiscreteDensity, p2: DiscreteDensity,
                        m1: MeanSpec, m2: MeanSpec,
                        base: LogBase = NATS) -> float:
    """KL between two normalized symmetric mixtures of the same pair.

    Symmetric in (p1, p2) because both means must be balanced (alpha = 1/2);
    with m1 arithmetic and m2 geometric this is the Taneja T-divergence
    shifted by ``log Z_G``.
    """
    if m1.alpha != 0.5 or m2.alpha != 0.5:
        raise InvalidAlpha("mixture-vs-mixture KL requires balanced means")
    mix1, _ = m_mixture(p1, p2, m1, normalize=True)
    mix2, _ = m_mixture(p1, p2, m2, normalize=True)
    return kl(mix1, mix2, base)


def taneja_t(p1: DiscreteDensity, p2: DiscreteDensity,
             base: LogBase = NATS) -> float:
    """Taneja T-divergence sum(((p1+p2)/2) * log((p1+p2)/(2*sqrt(p1*p2)))).

    ``+inf`` on one-sided zeros (the geometric mean vanishes under positive
    arithmetic mass there).
    """
    w1, w2 = _aligned(p1, p2, require_normalized=True)
    avg = 0.5 * (w1 + w2)
    # in log space: sqrt(w1 * w2) underflows for masses near 1e-200
    geo = means.evaluate(MeanSpec.geometric(), w1, w2)
    return sum_x_log_ratio(avg, geo) / base.ln


# ---------------------------------------------------------------------------
# Entropies and coarse-graining
# ---------------------------------------------------------------------------

def shannon_entropy(p: DiscreteDensity, base: LogBase = NATS) -> float:
    """Shannon entropy -sum(p * log(p))."""
    w = p.weights
    pos = w[w > 0.0]
    return -float((pos * np.log(pos)).sum()) / base.ln


def cross_entropy(p1: DiscreteDensity, p2: DiscreteDensity,
                  base: LogBase = NATS) -> float:
    """Cross-entropy -sum(p1 * log(p2)); ``+inf`` if p2 vanishes under p1."""
    w1, w2 = _aligned(p1, p2)
    pos = w1 > 0.0
    if (w2[pos] == 0.0).any():
        return math.inf
    return -float((w1[pos] * np.log(w2[pos])).sum()) / base.ln


def coarse_grain(p: DiscreteDensity, binmap) -> DiscreteDensity:
    """Merge support atoms: weights are summed per bin of ``binmap``.

    ``binmap`` maps each support index to a coarser bin index and must be a
    surjection onto ``0..max(binmap)``.  Normalization is preserved.
    """
    bins = np.asarray(binmap, dtype=int)
    if bins.shape != (p.size,):
        raise ValueError("binmap must assign a bin to every support index")
    if bins.min() < 0:
        raise ValueError("bin indices must be nonnegative")
    n_bins = int(bins.max()) + 1
    if np.unique(bins).size != n_bins:
        raise ValueError("binmap must be a surjection onto 0..max(binmap)")
    merged = np.bincount(bins, weights=p.weights, minlength=n_bins)
    return DiscreteDensity(merged, normalized=p.normalized)
