"""Exponential-family machinery: cumulants, Bregman and Jensen divergences.

A family is described by its cumulant function F over a flattened natural
parameter vector.  For densities p_theta = exp(<theta, t(x)> - F(theta))
of a common family, the classical dictionary applies:

* ``KL(p_t1, p_t2) = bregman(F, t2, t1)`` (note the argument swap),
* the skew Bhattacharyya distance equals the skew Jensen divergence
  ``J_{F,alpha}``,
* the geometric JS divergence is a quarter symmetrized Bregman divergence
  minus a Jensen gap, and its extended variant adds ``exp(-J_F) - 1``.

Built-in families: the d-variate Gaussian, whose natural parameters, their
packing (:func:`geojsd.gaussian.pack_gaussian_theta`, re-exported here),
cumulant and moment map live in :mod:`geojsd.gaussian`, and the categorical
family (for cross-checks against :mod:`geojsd.discrete`).  Families whose
cumulant has no tractable form (polynomial exponential families) carry
``cumulant=None`` and must be handled through the estimators in
:mod:`geojsd.estimate`.

A fact worth knowing but not constructed here: the geometric mixtures of a
*fixed* pair of densities form a one-parameter exponential family in the
skew weight, with cumulant ``-B_alpha``; the KL from an endpoint density to
a point of that arc is still not a Bregman divergence of it, because the
endpoints do not belong to the arc.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gaussian
from ._kernels import logsumexp
from .errors import DomainViolation, InvalidDensity, NotPositiveDefinite
from .gaussian import pack_gaussian_theta, unpack_gaussian_theta
from .logbase import NATS, LogBase

__all__ = [
    "ExpFamily",
    "ExpFamilyDensity",
    "skew_jensen",
    "bregman",
    "gjsd_ef",
    "gjsd_extended_ef",
    "dual_gjsd_ef",
    "gaussian_family",
    "categorical_family",
    "categorical_theta",
    "pack_gaussian_theta",
    "unpack_gaussian_theta",
]


@dataclass(frozen=True, eq=False)
class ExpFamily:
    """An exponential family through its cumulant over flat natural parameters.

    The natural parameter space is convex.  ``cumulant(theta)`` reads a flat
    vector of size ``dim`` and returns F(theta);
    ``cumulant(theta, gradient=True)`` returns ``(F, grad F)`` from the same
    single read.  Either call raises :class:`DomainViolation` for a theta
    outside the space.  ``cumulant`` is ``None`` for families whose
    log-normalizer is intractable; the closed-form operations below then
    refuse to run and the Monte Carlo / gamma-divergence estimators apply.
    """

    dim: int
    cumulant: Callable[..., float | tuple[float, np.ndarray]] | None
    name: str = ""


@dataclass(frozen=True, eq=False)
class ExpFamilyDensity:
    """A (possibly rescaled) family density: log q(x) = log p_theta(x) + log_scale.

    ``log_scale`` states a positive, unnormalized density.  The projective
    gamma-divergence (:func:`geojsd.estimate.gamma_divergence`) does not see
    the scale of either argument, so its closed-form route reads only theta.
    """

    family: ExpFamily
    theta: np.ndarray
    log_scale: float = 0.0


def _as_theta(fam: ExpFamily, theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.size != fam.dim:
        raise DomainViolation(
            f"natural parameter has size {t.size}, family expects {fam.dim}"
        )
    return t


def _cumulant_at(fam: ExpFamily, theta: np.ndarray, what: str,
                 gradient: bool = False):
    """F(theta), or ``(F, grad F)`` with ``gradient``; refuses ``cumulant=None``."""
    if fam.cumulant is None:
        raise ValueError(
            f"{what} needs a closed-form cumulant; family {fam.name!r} has none "
            "(use the Monte Carlo / gamma-divergence estimators instead)"
        )
    if not gradient:
        return float(fam.cumulant(theta))
    f, grad = fam.cumulant(theta, gradient=True)
    return float(f), np.asarray(grad, dtype=float)


def skew_jensen(fam: ExpFamily, theta1, theta2, alpha: float = 0.5) -> float:
    """Skew Jensen divergence J_{F,alpha} = aF(t1) + (1-a)F(t2) - F(at1+(1-a)t2).

    Nonnegative by convexity of F for alpha in (0, 1), zero iff the
    parameters coincide; equals the skew Bhattacharyya distance B_alpha
    between the family densities.
    """
    gaussian._check_alpha(alpha)
    t1, t2 = _as_theta(fam, theta1), _as_theta(fam, theta2)
    return _skew_jensen(fam, t1, t2, alpha, _cumulant_at(fam, t1, "skew_jensen"),
                        _cumulant_at(fam, t2, "skew_jensen"))


def _skew_jensen(fam: ExpFamily, t1: np.ndarray, t2: np.ndarray, alpha: float,
                 f1: float, f2: float) -> float:
    """:func:`skew_jensen` from checked parameters and their cumulants f1, f2."""
    mix = alpha * t1 + (1.0 - alpha) * t2
    return alpha * f1 + (1.0 - alpha) * f2 - float(fam.cumulant(mix))


def bregman(fam: ExpFamily, theta1, theta2) -> float:
    """Bregman divergence B_F(t1, t2) = F(t1) - F(t2) - <grad F(t2), t1 - t2>.

    Equals ``KL(p_t2, p_t1)`` for densities of the family.
    """
    t1, t2 = _as_theta(fam, theta1), _as_theta(fam, theta2)
    f2, grad2 = _cumulant_at(fam, t2, "bregman", gradient=True)
    return _cumulant_at(fam, t1, "bregman") - f2 - float(grad2 @ (t1 - t2))


def _gjsd_terms(fam: ExpFamily, theta1, theta2,
                what: str) -> tuple[float, float]:
    """``(J/4, B)``: a quarter of the Jeffreys divergence (the symmetrized
    Bregman divergence) and the Bhattacharyya distance ``J_{F,1/2}``, with
    each parameter checked and read once."""
    t1, t2 = _as_theta(fam, theta1), _as_theta(fam, theta2)
    f1, grad1 = _cumulant_at(fam, t1, what, gradient=True)
    f2, grad2 = _cumulant_at(fam, t2, what, gradient=True)
    quarter_j = 0.25 * float((t2 - t1) @ (grad2 - grad1))
    return quarter_j, _skew_jensen(fam, t1, t2, 0.5, f1, f2)


def gjsd_ef(fam: ExpFamily, theta1, theta2, base: LogBase = NATS) -> float:
    """Geometric JSD between two family densities, in closed form.

    ``(1/4)<t2-t1, grad F(t2)-grad F(t1)> - J_{F,1/2}(t1, t2)``: a quarter of
    the Jeffreys divergence (a symmetrized Bregman divergence) minus the
    Bhattacharyya distance.
    """
    quarter_j, b = _gjsd_terms(fam, theta1, theta2, "gjsd_ef")
    return (quarter_j - b) / base.ln


def gjsd_extended_ef(fam: ExpFamily, theta1, theta2) -> float:
    """Extended geometric JSD in closed form (nats).

    ``(1/4)<t2-t1, grad F(t2)-grad F(t1)> + exp(-J_F) - 1``; exceeds
    :func:`gjsd_ef` by the gap ``Z - log Z - 1`` with ``Z = exp(-J_F)``.
    """
    quarter_j, b = _gjsd_terms(fam, theta1, theta2, "gjsd_extended_ef")
    return quarter_j + math.exp(-b) - 1.0


def dual_gjsd_ef(fam: ExpFamily, theta1, theta2, alpha: float = 0.5) -> float:
    """Left-sided (reverse-KL) skew geometric JSD; equals J_{F,alpha} = B_alpha."""
    return skew_jensen(fam, theta1, theta2, alpha)


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------

def gaussian_family(d: int) -> ExpFamily:
    """The d-variate Gaussian family with theta = (Sigma^-1 mu, Sigma^-1 / 2).

    Parameters are packed by :func:`geojsd.gaussian.pack_gaussian_theta`;
    the cumulant and its gradient (the packed mean parameters) are those of
    :mod:`geojsd.gaussian`, from one validated and factored
    :class:`geojsd.gaussian.GaussianNatural` per call.  ``d`` must be an
    integer (read through ``operator.index``) of at least 1.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError("gaussian family needs at least one dimension")

    def cumulant(theta: np.ndarray, gradient: bool = False):
        try:
            n = gaussian.GaussianNatural(*unpack_gaussian_theta(theta, d))
        except (InvalidDensity, NotPositiveDefinite) as exc:
            raise DomainViolation(str(exc)) from exc
        f = gaussian.cumulant(n)
        return (f, gaussian._packed_gradient(n)) if gradient else f

    return ExpFamily(d + d * (d + 1) // 2, cumulant, f"gaussian_{d}d")


# ---------------------------------------------------------------------------
# Categorical family
# ---------------------------------------------------------------------------

def categorical_family(k: int) -> ExpFamily:
    """Categorical distributions on k atoms, theta_i = log(p_i / p_k).

    ``k`` must be an integer (read through ``operator.index``) of at least 2.
    """
    k = operator.index(k)
    if k < 2:
        raise ValueError("categorical family needs at least two atoms")

    def cumulant(theta: np.ndarray, gradient: bool = False):
        if not np.all(np.isfinite(theta)):
            raise DomainViolation("categorical natural parameter is not finite")
        full = np.concatenate([theta, [0.0]])
        f = logsumexp(full)
        # the gradient is the probabilities of the first k - 1 atoms
        return (float(f), np.exp(full - f)[:-1]) if gradient else float(f)

    return ExpFamily(k - 1, cumulant, f"categorical_{k}")


def categorical_theta(weights) -> np.ndarray:
    """Natural parameter of a strictly positive normalized weight vector."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2 or not np.all((w > 0.0) & (w < np.inf)):
        raise DomainViolation("categorical embedding requires a vector of "
                              "two or more finite, strictly positive weights")
    return np.log(w[:-1] / w[-1])
