"""Closed-form divergences between multivariate Gaussians.

KL, Jeffreys, skew Bhattacharyya, geometric JSD (normalized and extended),
the parameters of normalized geometric mixtures, and the erf-based
univariate total variation.  The ordinary Jensen-Shannon divergence between
Gaussians has no closed form (the entropy of a two-component mixture does
not); geometric mixtures of Gaussians stay Gaussian, which is exactly why
the geometric JSD admits the formulas below.  For arithmetic mixtures use
the Monte Carlo estimators in :mod:`geojsd.estimate`.

Each constructor factors its matrix once and keeps the Cholesky factor.
Pair divergences work in one pair basis: with ``Sigma1 = L1 L1'`` and the
SVD ``L1^-1 L2 = U S V'``, the map ``z = U' L1^-1 (x - mu1)`` takes N1 to
``N(0, I)`` and N2 to ``N(delta, diag(lam))``, ``lam = S^2 > 0``.  Every
divergence is invariant under it, hence a sum of per-coordinate terms in
``(lam_i, delta_i)``, each >= 0 after rounding and exactly 0 for equal
inputs; the geometric mixture maps back through ``L1 U`` (Nielsen, Entropy
21(5):485, 2019).

Conventions: natural parameters are ``theta_v = Sigma^-1 mu`` and
``theta_M = Sigma^-1 / 2`` (the positive-definite sign choice, fixed by
requiring that the cumulant reproduce the quadrature-validated KL through
the Bregman route), packed flat as theta_v then the row-major upper
triangle of theta_M; divergences are reported in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._kernels import cho_solve, solve_lower
from .errors import (DegenerateQuadratic, InvalidAlpha, InvalidDensity,
                     NotPositiveDefinite)

__all__ = [
    "GaussianParams",
    "GaussianNatural",
    "to_natural",
    "from_natural",
    "natural_flat",
    "pack_gaussian_theta",
    "unpack_gaussian_theta",
    "cumulant",
    "cumulant_ordinary",
    "kl_gaussian",
    "jeffreys_gaussian",
    "bhattacharyya_gaussian",
    "bhattacharyya_coefficient_gaussian",
    "geometric_mixture_params",
    "gjsd_gaussian",
    "gjsd_extended_gaussian",
    "tv_gaussian_1d",
]

_SYMMETRY_TOL = 1e-12
# below this relative spread the TV crossover quadratic is numerically
# singular and the equal-variance branch applies
_EQUAL_SIGMA_TOL = 1e-12


def _validated(vec_name: str, vec, mat_name: str,
               mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only copies of a vector and an SPD matrix, plus its lower Cholesky factor."""
    vec = np.array(vec, dtype=float, ndmin=1)
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotPositiveDefinite(f"{mat_name} must be a square matrix")
    if not (np.isfinite(vec).all() and np.isfinite(mat).all()):
        raise InvalidDensity(f"{vec_name} and {mat_name} must be finite")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > _SYMMETRY_TOL * scale:
        raise NotPositiveDefinite(f"{mat_name} is not symmetric")
    mat = 0.5 * (mat + mat.T)
    if vec.ndim != 1 or mat.shape != (vec.size, vec.size):
        raise NotPositiveDefinite(f"{vec_name} and {mat_name} dimensions do not match")
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{mat_name} is not positive-definite") from exc
    vec.setflags(write=False)
    mat.setflags(write=False)
    return vec, mat, chol


@dataclass(frozen=True, eq=False)
class GaussianParams:
    """Moment parameters (mu, Sigma) of a d-variate Gaussian."""

    mu: np.ndarray
    sigma: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)  # Cholesky factor of sigma

    def __post_init__(self) -> None:
        mu, sigma, chol = _validated("mu", self.mu, "sigma", self.sigma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return int(self.mu.size)

    @classmethod
    def standard(cls, d: int) -> "GaussianParams":
        return cls(np.zeros(d), np.eye(d))

    @classmethod
    def univariate(cls, mean: float, variance: float) -> "GaussianParams":
        return cls(np.array([mean]), np.array([[variance]]))


@dataclass(frozen=True, eq=False)
class GaussianNatural:
    """Natural parameters (theta_v, theta_M) with theta_M = Sigma^-1 / 2."""

    theta_v: np.ndarray
    theta_m: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)  # Cholesky factor of theta_M

    def __post_init__(self) -> None:
        theta_v, theta_m, chol = _validated("theta_v", self.theta_v,
                                            "theta_M", self.theta_m)
        object.__setattr__(self, "theta_v", theta_v)
        object.__setattr__(self, "theta_m", theta_m)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return int(self.theta_v.size)


def _natural_arrays(g: GaussianParams) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma^-1 mu, Sigma^-1 / 2) from the Cholesky factor ``g`` keeps."""
    theta_v = cho_solve(g._chol, g.mu)
    precision = cho_solve(g._chol, np.eye(g.dim))
    return theta_v, 0.25 * (precision + precision.T)


def to_natural(g: GaussianParams) -> GaussianNatural:
    """(mu, Sigma) -> (Sigma^-1 mu, Sigma^-1 / 2)."""
    return GaussianNatural(*_natural_arrays(g))


def _moments(n: GaussianNatural) -> tuple[np.ndarray, np.ndarray]:
    """(mu, Sigma) of ``n``: Sigma = theta_M^-1 / 2, mu = Sigma theta_v."""
    sigma = 0.5 * cho_solve(n._chol, np.eye(n.dim))
    return sigma @ n.theta_v, sigma


def from_natural(n: GaussianNatural) -> GaussianParams:
    """(theta_v, theta_M) -> (theta_M^-1 theta_v / 2, theta_M^-1 / 2)."""
    mu, sigma = _moments(n)
    return GaussianParams(mu, 0.5 * (sigma + sigma.T))


@lru_cache(maxsize=None)
def _triangle(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the packed upper triangle of a d x d matrix, and the
    weights (2 off the diagonal) that make flat dot products matrix ones."""
    rows, cols = np.triu_indices(d)
    twice = np.where(rows == cols, 1.0, 2.0)
    for a in (rows, cols, twice):
        a.setflags(write=False)
    return rows, cols, twice


def pack_gaussian_theta(theta_v: np.ndarray, theta_m: np.ndarray) -> np.ndarray:
    """Flatten (theta_v, theta_M) into the vector of :func:`expfam.gaussian_family`.

    The matrix part is stored as its row-major upper triangle; only the
    symmetric part of ``theta_m`` is read.
    """
    theta_v = np.asarray(theta_v, dtype=float).reshape(-1)
    theta_m = np.asarray(theta_m, dtype=float)
    rows, cols, _ = _triangle(theta_v.size)
    sym = 0.5 * (theta_m + theta_m.T)
    return np.concatenate([theta_v, sym[rows, cols]])


def unpack_gaussian_theta(theta: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_gaussian_theta`."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    rows, cols, _ = _triangle(d)
    mat = np.zeros((d, d))
    mat[rows, cols] = theta[d:]
    mat[cols, rows] = theta[d:]
    return theta[:d], mat


def natural_flat(g: GaussianParams) -> np.ndarray:
    """Flat natural parameter in the packing of :func:`pack_gaussian_theta`."""
    return pack_gaussian_theta(*_natural_arrays(g))


def cumulant(n: GaussianNatural) -> float:
    """Cumulant F(theta) = (d log pi - log|theta_M| + theta_v' theta_M^-1 theta_v / 2) / 2."""
    logdet = 2.0 * float(np.log(np.diag(n._chol)).sum())
    half_solve = solve_lower(n._chol, n.theta_v)
    quad = float(half_solve @ half_solve)  # theta_v' theta_M^-1 theta_v
    return 0.5 * (n.dim * math.log(math.pi) - logdet + 0.5 * quad)


def _packed_gradient(n: GaussianNatural) -> np.ndarray:
    """Packed gradient of :func:`cumulant`: the mean parameters (mu, -(Sigma + mu mu')).

    Off-diagonals are doubled, so flat dot products are matrix inner products."""
    mu, sigma = _moments(n)
    grad_m = -(sigma + np.outer(mu, mu))
    rows, cols, twice = _triangle(n.dim)
    return np.concatenate([mu, grad_m[rows, cols] * twice])


def cumulant_ordinary(g: GaussianParams) -> float:
    """Cumulant in moment parameters: (mu' Sigma^-1 mu + log|Sigma| + d log 2pi) / 2."""
    half = solve_lower(g._chol, g.mu)
    logdet = 2.0 * float(np.log(np.diag(g._chol)).sum())
    return 0.5 * (float(half @ half) + logdet + g.dim * math.log(2.0 * math.pi))


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------

def _pair(g1: GaussianParams,
          g2: GaussianParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, delta, U) of the pair basis; equal covariances skip the SVD (exact 0)."""
    if g1.dim != g2.dim:
        raise InvalidDensity(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    if np.array_equal(g1.sigma, g2.sigma):
        rot, lam = np.eye(g1.dim), np.ones(g1.dim)
    else:
        rot, s, _ = np.linalg.svd(solve_lower(g1._chol, g2._chol))
        lam = s * s
    delta = rot.T @ solve_lower(g1._chol, g2.mu - g1.mu)
    return lam, delta, rot


def _phi(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x - 1 - log x from x and u = x - 1, both to full relative accuracy.

    log1p(u) near x = 1 keeps it >= 0; elsewhere log(x), as 1 + u loses log x."""
    near = np.abs(u) < 0.5
    return np.where(near, u - np.log1p(np.where(near, u, 0.0)),
                    (x - 1.0) - np.log(np.where(near, 1.0, x)))


def _bhattacharyya(lam: np.ndarray, delta: np.ndarray, alpha: float) -> float:
    # a = alpha lam + (1 - alpha); the log-det part log a - alpha log lam
    # is written as alpha phi(lam/a) + (1 - alpha) phi(1/a)
    t = lam - 1.0
    a = alpha * lam + (1.0 - alpha)
    terms = (alpha * (1.0 - alpha) * delta * (delta / a)
             + alpha * _phi(lam / a, (1.0 - alpha) * t / a)
             + (1.0 - alpha) * _phi(1.0 / a, -alpha * t / a))
    return 0.5 * float(terms.sum())


def _gjsd(lam: np.ndarray, delta: np.ndarray, alpha: float, beta: float) -> float:
    # the mixture is N((1 - alpha) delta / a, diag(lam / a)) in the pair basis;
    # beta 2KL(N1, mix) + (1 - beta) 2KL(N2, mix), term by term, with each
    # product ordered so that no intermediate overflows before the term does
    t = lam - 1.0
    a = alpha * lam + (1.0 - alpha)
    terms = (beta * (_phi(a / lam, -(1.0 - alpha) * t / lam)
                     + (1.0 - alpha) ** 2 * delta * (delta / a / lam))
             + (1.0 - beta) * (_phi(a, alpha * t)
                               + alpha * alpha * (lam / a) * delta * delta))
    return 0.5 * float(terms.sum())


def kl_gaussian(g1: GaussianParams, g2: GaussianParams) -> float:
    """KL(N1, N2) = (tr(S2^-1 S1) + (m2-m1)' S2^-1 (m2-m1) - d + log|S2|/|S1|) / 2."""
    lam, delta, _ = _pair(g1, g2)
    return 0.5 * float((_phi(1.0 / lam, (1.0 - lam) / lam)
                        + delta * (delta / lam)).sum())


def jeffreys_gaussian(g1: GaussianParams, g2: GaussianParams) -> float:
    """Jeffreys divergence in closed form.

    ``(tr(S1 S2^-1 + S2 S1^-1) + (m1-m2)'(S1^-1 + S2^-1)(m1-m2) - 2d) / 2``,
    identical to ``kl_gaussian(g1, g2) + kl_gaussian(g2, g1)``.
    """
    lam, delta, _ = _pair(g1, g2)
    t = lam - 1.0
    # t^2 / lam and (lam + 1) / lam without forming t^2 or lam delta^2
    return 0.5 * float((t * (t / lam) + (1.0 + 1.0 / lam) * delta * delta).sum())


def geometric_mixture_params(g1: GaussianParams, g2: GaussianParams,
                             alpha: float = 0.5) -> GaussianParams:
    """Parameters of the normalized geometric mixture p1^alpha p2^(1-alpha) / Z.

    Sigma_alpha is the matrix harmonic barycenter
    ``(alpha S1^-1 + (1-alpha) S2^-1)^-1`` and
    ``mu_alpha = Sigma_alpha (alpha S1^-1 m1 + (1-alpha) S2^-1 m2)``.
    """
    _check_alpha(alpha)
    lam, delta, rot = _pair(g1, g2)
    a = alpha * lam + (1.0 - alpha)
    back = g1._chol @ rot
    mu_alpha = g1.mu + back @ ((1.0 - alpha) * delta / a)
    sigma_alpha = (back * (lam / a)) @ back.T
    return GaussianParams(mu_alpha, 0.5 * (sigma_alpha + sigma_alpha.T))


def bhattacharyya_gaussian(g1: GaussianParams, g2: GaussianParams,
                           alpha: float = 0.5) -> float:
    """Skew Bhattacharyya distance B_alpha between Gaussians, in closed form.

    ``(a m1'S1^-1 m1 + (1-a) m2'S2^-1 m2 - m_a'S_a^-1 m_a
    + log(|S1|^a |S2|^(1-a) / |S_a|)) / 2`` with the harmonic barycenter
    ``S_a``; equal to the skew Jensen divergence of the cumulant on natural
    parameters.
    """
    _check_alpha(alpha)
    lam, delta, _ = _pair(g1, g2)
    return _bhattacharyya(lam, delta, alpha)


def bhattacharyya_coefficient_gaussian(g1: GaussianParams, g2: GaussianParams,
                                       alpha: float = 0.5) -> float:
    """Skew Bhattacharyya coefficient exp(-B_alpha), the geometric-mixture mass."""
    return math.exp(-bhattacharyya_gaussian(g1, g2, alpha))


def gjsd_gaussian(g1: GaussianParams, g2: GaussianParams,
                  alpha: float = 0.5, beta: float = 0.5) -> float:
    """Skew geometric JSD between Gaussians (normalized mixture).

    ``beta KL(N1, N_alpha) + (1-beta) KL(N2, N_alpha)`` with ``N_alpha`` the
    normalized geometric mixture; for alpha = beta = 1/2 it equals
    ``jeffreys/4 - bhattacharyya``.
    """
    _check_alpha(beta)
    _check_alpha(alpha)
    lam, delta, _ = _pair(g1, g2)
    return _gjsd(lam, delta, alpha, beta)


def gjsd_extended_gaussian(g1: GaussianParams, g2: GaussianParams) -> float:
    """Extended geometric JSD: jeffreys/4 + exp(-bhattacharyya) - 1 (nats).

    Exceeds :func:`gjsd_gaussian` by the gap ``Z - log Z - 1`` with
    ``Z = exp(-B)``; computed as that sum, whose two terms are >= 0.
    """
    lam, delta, _ = _pair(g1, g2)
    b = _bhattacharyya(lam, delta, 0.5)
    return _gjsd(lam, delta, 0.5, 0.5) + (math.expm1(-b) + b)


# ---------------------------------------------------------------------------
# Univariate total variation
# ---------------------------------------------------------------------------

def _normal_cdf(x: float, mu: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


def tv_gaussian_1d(m1: float, s1: float, m2: float, s2: float) -> float:
    """Total variation between N(m1, s1^2) and N(m2, s2^2), via erf.

    Equal variances: the densities cross once at ``x* = (m1 + m2)/2`` and
    ``TV = |Phi(x*; m2, s) - Phi(x*; m1, s)|`` (no extra 1/2 factor: the two
    half-line contributions of ``|p1 - p2|/2`` are equal).  Unequal
    variances: the crossovers are the roots of
    ``a x^2 + b x + c = 0`` with ``a = 1/s1^2 - 1/s2^2``,
    ``b = 2 (m2/s2^2 - m1/s1^2)``, ``c = m1^2/s1^2 - m2^2/s2^2
    - 2 log(s2/s1)`` (coefficients re-derived from p1(x) = p2(x)), combined
    through CDF differences at the two roots.
    """
    if s1 <= 0.0 or s2 <= 0.0:
        raise NotPositiveDefinite("standard deviations must be positive")
    if abs(s1 - s2) <= _EQUAL_SIGMA_TOL * max(s1, s2):
        if m1 == m2:
            return 0.0
        sigma = 0.5 * (s1 + s2)
        x_star = 0.5 * (m1 + m2)  # = (m1^2 - m2^2) / (2 (m1 - m2))
        value = abs(_normal_cdf(x_star, m2, sigma) - _normal_cdf(x_star, m1, sigma))
        return min(max(value, 0.0), 1.0)

    a = 1.0 / s1 ** 2 - 1.0 / s2 ** 2
    b = 2.0 * (m2 / s2 ** 2 - m1 / s1 ** 2)
    c = m1 ** 2 / s1 ** 2 - m2 ** 2 / s2 ** 2 - 2.0 * math.log(s2 / s1)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise DegenerateQuadratic(
            "crossover quadratic has no real roots; variances too close"
        )
    root = math.sqrt(disc)
    x_lo = (-b - root) / (2.0 * a)
    x_hi = (-b + root) / (2.0 * a)
    x_lo, x_hi = min(x_lo, x_hi), max(x_lo, x_hi)

    def cdf_gap(x: float) -> float:
        return _normal_cdf(x, m1, s1) - _normal_cdf(x, m2, s2)

    gap_lo, gap_hi = cdf_gap(x_lo), cdf_gap(x_hi)
    value = 0.5 * (abs(gap_lo) + abs(gap_hi - gap_lo) + abs(gap_hi))
    return min(max(value, 0.0), 1.0)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"skew weight must lie in (0, 1), got {alpha}")
