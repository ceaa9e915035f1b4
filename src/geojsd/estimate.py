"""Stochastic estimation for divergences without closed forms.

Importance-sampling estimators for mixture normalizers and extended-KL
terms, and the projective gamma-divergence with exact, closed-form,
quadrature, and Monte Carlo integration routes.  The quadrature route is
QUADPACK's adaptive Gauss-Kronrod rule in numpy
(:func:`geojsd._kernels.gauss_kronrod`); like the Monte Carlo route, it
calls each ``log_density`` on 1-D arrays of points, a few times per
integral, never point by point.

Determinism contract: estimates depend only on ``(samples, seed,
chunk_size)``.  Chunk k draws from its own generator, seeded by
``SeedSequence(seed, spawn_key=(k,))`` (what ``SeedSequence(seed).spawn``
hands out), so no chunk of one seed replays a chunk of another.  Each
chunk's count, mean and centred sum of squares are merged in chunk order
(Chan, Golub & LeVeque), so serial and thread-parallel runs produce
bit-identical results and a spread far below the mean is not lost to
cancellation.

Proposal contract: every Monte Carlo estimator, the gamma route included,
runs one chunk body, which raises :class:`ProposalSupportViolation` where
the proposal (``proposal=``, or else the first density) has a log-density
that is not finite at one of its own draws.

Everything runs in log space: mixture means of density values are taken via
:func:`geojsd.means.log_evaluate` and the gamma-divergence moment integrals
``I_gamma`` via log-sum-exp, so widely separated densities do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import means
from ._kernels import gauss_kronrod, logsumexp, solve_lower
from .discrete import DiscreteDensity, _aligned, m_mixture
from .errors import DivergentIntegral, DomainViolation, ProposalSupportViolation
from .expfam import ExpFamily, ExpFamilyDensity, _as_theta, _cumulant_at
from .gaussian import GaussianParams
from .means import MeanKind, MeanSpec

__all__ = [
    "EstimatorConfig",
    "SampledDensity",
    "gaussian_sampled",
    "categorical_sampled",
    "arithmetic_mixture_proposal",
    "estimate_z",
    "estimate_kl_extended",
    "estimate_js_m_extended",
    "gamma_divergence",
    "js_m_gamma",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class EstimatorConfig:
    samples: int
    seed: int = 0
    chunk_size: int = 1 << 16

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class SampledDensity:
    """A density known through its log-density, optionally with a sampler.

    ``log_density(x)`` must be finite on the sampler's support and may be
    unnormalized *except* when the density serves as an importance-sampling
    proposal, where the exact (normalized) log-density is required.
    ``sampler(rng, n)`` draws n points.
    """

    log_density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None


def gaussian_sampled(g: GaussianParams) -> SampledDensity:
    """A multivariate Gaussian as a samplable density (1-D draws stay flat).

    At d > 1 the inverse Cholesky factor ``L^-1`` is computed once, here, so
    ``log_density`` whitens a batch of points with one matmul,
    ``(x - mu) @ L^-T``, and takes the quadratic form as a row dot.
    """
    mu = g.mu
    d = g.dim
    chol = g._chol
    log_norm = -0.5 * d * math.log(2.0 * math.pi) - float(np.log(np.diag(chol)).sum())

    if d == 1:
        sd = float(chol[0, 0])
        m0 = float(mu[0])

        def log_density(x: np.ndarray) -> np.ndarray:
            z = (np.asarray(x, dtype=float) - m0) / sd
            return log_norm - 0.5 * z * z

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            return m0 + sd * rng.standard_normal(n)

        return SampledDensity(log_density, sampler)

    inv_chol_t = solve_lower(chol, np.eye(d)).T

    def log_density(x: np.ndarray) -> np.ndarray:
        z = (np.atleast_2d(np.asarray(x, dtype=float)) - mu) @ inv_chol_t
        return log_norm - 0.5 * np.einsum("ij,ij->i", z, z)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, d)) @ chol.T + mu

    return SampledDensity(log_density, sampler)


def categorical_sampled(p: DiscreteDensity) -> SampledDensity:
    """A finite density as a samplable categorical over its support indices."""
    w = p.weights / p.total_mass
    with np.errstate(divide="ignore"):
        log_w = np.log(w)

    def log_density(x: np.ndarray) -> np.ndarray:
        return log_w[np.asarray(x, dtype=int)]

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(w.size, size=n, p=w)

    return SampledDensity(log_density, sampler)


def arithmetic_mixture_proposal(d1: SampledDensity, d2: SampledDensity) -> SampledDensity:
    """The balanced two-component mixture (d1 + d2)/2 as a proposal.

    Its log-density is computed through the same expression as the balanced
    arithmetic mean of the component densities, so a Z estimator matched to
    this proposal has exactly zero variance.
    """
    if d1.sampler is None or d2.sampler is None:
        raise ValueError("both components must be samplable")
    balanced = MeanSpec.arithmetic()

    def log_density(x: np.ndarray) -> np.ndarray:
        return np.asarray(means.log_evaluate(balanced, d1.log_density(x),
                                             d2.log_density(x)))

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        pick_first = rng.random(n) < 0.5
        x1 = d1.sampler(rng, n)
        x2 = d2.sampler(rng, n)
        if x1.ndim > 1:
            pick_first = pick_first[:, None]
        return np.where(pick_first, x1, x2)

    return SampledDensity(log_density, sampler)


# ---------------------------------------------------------------------------
# Chunked deterministic driver
# ---------------------------------------------------------------------------

def _chunks(cfg: EstimatorConfig) -> list[tuple[int, int]]:
    out = []
    done = 0
    k = 0
    while done < cfg.samples:
        n = min(cfg.chunk_size, cfg.samples - done)
        out.append((k, n))
        done += n
        k += 1
    return out


def _map_chunks(cfg: EstimatorConfig, p1: SampledDensity, p2: SampledDensity,
                proposal: SampledDensity | None, term: Callable[..., tuple],
                workers: int) -> list[tuple]:
    """``term(l1, l2, log_r)`` of each chunk, in chunk order.

    Each chunk draws from the proposal r: ``proposal``, or ``p1`` when it is
    ``None``.  ``l1``, ``l2`` and ``log_r`` are the log-densities of ``p1``,
    ``p2`` and r at the draws.
    Each is evaluated once per chunk: when r is ``p1`` (or ``p2``),
    ``log_r`` is ``l1`` (or ``l2``) itself, the same array.  This is the one
    place the proposal is checked: a ``log_r`` that is not finite at one of
    r's own draws raises :class:`ProposalSupportViolation`.

    Chunk k draws from ``SeedSequence(seed, spawn_key=(k,))``, the k-th
    child that ``SeedSequence(seed).spawn`` hands out, so the streams of
    all chunks of all seeds are independent.
    """
    r = p1 if proposal is None else proposal
    if r.sampler is None:
        raise ValueError("proposal density has no sampler")

    def one_chunk(k: int, n: int) -> tuple:
        stream = np.random.SeedSequence(cfg.seed, spawn_key=(k,))
        x = r.sampler(np.random.default_rng(stream), n)
        l1 = np.asarray(p1.log_density(x), dtype=float)
        l2 = np.asarray(p2.log_density(x), dtype=float)
        log_r = (l1 if r is p1 else l2 if r is p2
                 else np.asarray(r.log_density(x), dtype=float))
        if not np.isfinite(log_r).all():
            raise ProposalSupportViolation(
                "proposal log-density is not finite at one of its own draws"
            )
        return term(l1, l2, log_r)

    plan = _chunks(cfg)
    if workers <= 1 or len(plan) == 1:
        return [one_chunk(k, n) for k, n in plan]
    # imported here: serial runs, the default, never load the thread pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda kn: one_chunk(*kn), plan))


def _moments(g: np.ndarray) -> tuple[int, float, float]:
    """``(n, mean, M2)`` of one chunk's terms, ``M2`` the centred sum of squares."""
    mean = float(g.mean())
    if not math.isfinite(mean):
        # an infinite or NaN term: the merge falls back to the plain sum
        return g.size, mean, math.inf
    return g.size, mean, float(np.square(g - mean).sum())


def _mean_and_stderr(partials: Sequence[tuple[int, float, float]],
                     samples: int) -> tuple[float, float]:
    """Merge chunk moments in chunk order (Chan, Golub & LeVeque, 1983)."""
    n, mean, m2 = partials[0]
    for n_b, mean_b, m2_b in partials[1:]:
        total = n + n_b
        delta = mean_b - mean
        mean += delta * (n_b / total)
        m2 += m2_b + delta * delta * (n * (n_b / total))
        n = total
    if not math.isfinite(m2):
        # an infinite or NaN term: the plain sum gives the IEEE mean
        return sum(n_b * mean_b for n_b, mean_b, _ in partials) / samples, math.inf
    if samples == 1:
        return mean, 0.0
    return mean, math.sqrt(m2 / (samples - 1) / samples)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def estimate_z(p1: SampledDensity, p2: SampledDensity, m: MeanSpec,
               cfg: EstimatorConfig, proposal: SampledDensity | None = None,
               workers: int = 1) -> tuple[float, float]:
    """Importance-sampling estimate of the mixture normalizer Z_M.

    ``Z_M = integral of M_alpha(p1(x), p2(x))``, estimated as the average of
    ``M(p1(x_i), p2(x_i)) / r(x_i)`` over draws from the proposal r: the
    ``proposal`` argument, or ``p1`` when it is ``None``.  Unbiased; returns
    ``(estimate, std_error)``.
    """
    def term(l1: np.ndarray, l2: np.ndarray, log_r: np.ndarray) -> tuple:
        return _moments(np.exp(np.asarray(means.log_evaluate(m, l1, l2)) - log_r))

    return _mean_and_stderr(_map_chunks(cfg, p1, p2, proposal, term, workers),
                            cfg.samples)


def estimate_kl_extended(p1: SampledDensity, p2: SampledDensity, m: MeanSpec,
                         cfg: EstimatorConfig,
                         proposal: SampledDensity | None = None,
                         workers: int = 1) -> tuple[float, float]:
    """Monte Carlo estimate of the extended KL to the unnormalized M-mixture.

    Estimates ``KL+(p1, M~) = integral of p1 log(p1/M~) + M~ - p1`` with
    ``M~(x) = M_alpha(p1(x), p2(x))``, over draws from the ``proposal``
    argument.  With the default proposal r = p1 (``proposal=None``) the
    per-sample term is ``log(p1/M~) + M~/p1 - 1``.  A draw where p1 is 0
    adds ``M~/r`` alone (``0 log(0/M~) = 0``).  The estimand is
    nonnegative but finite-sample estimates may dip below zero; they are
    reported as-is (clamping would bias the estimator).
    """
    def term(l1: np.ndarray, l2: np.ndarray, log_r: np.ndarray) -> tuple:
        log_mix = np.asarray(means.log_evaluate(m, l1, l2))
        if log_r is l1:  # r is p1: every weight p1/r is 1
            return _moments((l1 - log_mix) + np.exp(log_mix - l1) - 1.0)
        weight = np.exp(l1 - log_r)
        # 0 log(0/M) = 0: where p1 is 0 only the M term is left
        log_ratio = np.subtract(l1, log_mix, out=np.zeros_like(weight),
                                where=l1 > -np.inf)
        return _moments(weight * log_ratio + np.exp(log_mix - log_r) - weight)

    return _mean_and_stderr(_map_chunks(cfg, p1, p2, proposal, term, workers),
                            cfg.samples)


def estimate_js_m_extended(p1: SampledDensity, p2: SampledDensity, m: MeanSpec,
                           cfg: EstimatorConfig,
                           workers: int = 1) -> tuple[float, float]:
    """Monte Carlo estimate of the extended M-JSD.

    Averages the two extended-KL estimates, each with its own argument as
    the proposal (independent streams derived from the seed); standard
    errors combine in quadrature.
    """
    if p1.sampler is None or p2.sampler is None:
        raise ValueError("both densities must be samplable")
    # the root of the seed's SeedSequence tree, whose chunk streams are its
    # spawned children, seeds the second estimate
    seed2 = np.random.SeedSequence(cfg.seed).generate_state(1, np.uint64)[0]
    cfg2 = replace(cfg, seed=int(seed2))
    first, se1 = estimate_kl_extended(p1, p2, m, cfg, workers=workers)
    second, se2 = estimate_kl_extended(p2, p1, m.swapped(), cfg2, workers=workers)
    return 0.5 * (first + second), 0.5 * math.hypot(se1, se2)


# ---------------------------------------------------------------------------
# Gamma divergences
# ---------------------------------------------------------------------------

def _combine_gamma(log_i11: float, log_i12: float, log_i22: float,
                   gamma: float) -> float:
    if log_i12 == -math.inf:
        return math.inf
    return (log_i11 / (gamma * (1.0 + gamma)) - log_i12 / gamma
            + log_i22 / (1.0 + gamma))


def _log_i_discrete(w1: np.ndarray, w2: np.ndarray, gamma: float) -> float:
    pos = w1 > 0.0
    with np.errstate(divide="ignore"):
        terms = np.log(w1[pos]) + gamma * np.where(w2[pos] > 0.0,
                                                   np.log(w2[pos]), -np.inf)
    if not np.any(np.isfinite(terms)):
        return -math.inf
    return float(logsumexp(terms))


def _family_thetas(e1: ExpFamilyDensity,
                   e2: ExpFamilyDensity) -> tuple[ExpFamily, np.ndarray, np.ndarray]:
    """The family two densities share, then each one's checked theta."""
    fam, other = e1.family, e2.family
    if not (fam is other
            or (fam.name != "" and fam.name == other.name and fam.dim == other.dim)):
        raise ValueError("closed-form route needs densities of one family")
    return fam, _as_theta(fam, e1.theta), _as_theta(fam, e2.theta)


def _log_i_expfam(e1: ExpFamilyDensity, e2: ExpFamilyDensity,
                  gamma: float) -> float:
    fam, t1, t2 = _family_thetas(e1, e2)
    try:
        f_mixed = _cumulant_at(fam, t1 + gamma * t2, "gamma_divergence")
        f1 = _cumulant_at(fam, t1, "gamma_divergence")
        f2 = _cumulant_at(fam, t2, "gamma_divergence")
    except DomainViolation as exc:
        raise DivergentIntegral(str(exc)) from exc
    return (f_mixed - f1 - gamma * f2
            + e1.log_scale + gamma * e2.log_scale)


def _log_i_quadrature(ld1: Callable, ld2: Callable, gamma: float,
                      support: tuple[float, float]) -> float:
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("quadrature support must be a finite interval lo < hi")

    def log_integrand(x: np.ndarray) -> np.ndarray:
        return (np.asarray(ld1(x), dtype=float)
                + gamma * np.asarray(ld2(x), dtype=float))

    values = log_integrand(np.linspace(lo, hi, 2049))
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return -math.inf
    shift = float(finite.max())

    def integrand(x: np.ndarray) -> np.ndarray:
        v = log_integrand(x) - shift
        return np.exp(np.where(v > -745.0, v, -np.inf))

    value, _ = gauss_kronrod(integrand, lo, hi)
    if value <= 0.0:
        return -math.inf
    return shift + math.log(value)


def _log_i_route(integrator: str, gamma: float,
                 support: tuple[float, float] | None) -> Callable:
    """``log I(f, h)`` on the exact, closed-form or quadrature route."""
    if integrator == "exact":
        return lambda f, h: _log_i_discrete(*_aligned(f, h), gamma)
    if integrator == "closed_form":
        return lambda f, h: _log_i_expfam(f, h, gamma)
    if integrator == "quadrature":
        if support is None:
            raise ValueError("quadrature route requires an integration support")
        return lambda f, h: _log_i_quadrature(f.log_density, h.log_density,
                                              gamma, support)
    raise ValueError(f"unknown integrator {integrator!r}")


def _log_i_mc_triplet(q1: SampledDensity, q2: SampledDensity, gamma: float,
                      proposal: SampledDensity | None, cfg: EstimatorConfig,
                      workers: int) -> tuple[float, float, float]:
    def term(l1: np.ndarray, l2: np.ndarray, log_r: np.ndarray) -> tuple:
        return (float(logsumexp((1.0 + gamma) * l1 - log_r)),
                float(logsumexp(l1 + gamma * l2 - log_r)),
                float(logsumexp((1.0 + gamma) * l2 - log_r)))

    partials = _map_chunks(cfg, q1, q2, proposal, term, workers)
    log_s = math.log(cfg.samples)
    lses = [np.logaddexp.reduce([p[i] for p in partials]) for i in range(3)]
    return tuple(float(v) - log_s for v in lses)  # type: ignore[return-value]


def gamma_divergence(q1, q2, gamma: float, integrator: str = "auto", *,
                     cfg: EstimatorConfig | None = None,
                     proposal: SampledDensity | None = None,
                     support: tuple[float, float] | None = None,
                     workers: int = 1) -> float:
    """Projective gamma-divergence between positive densities.

    ``D_gamma(q1, q2) = log I(q1,q1)/(g(1+g)) - log I(q1,q2)/g
    + log I(q2,q2)/(1+g)`` with moment integrals
    ``I(f, h) = integral of f * h**gamma``.  Invariant under independent
    positive rescaling of either argument, and converging to ``KL(p1, p2)``
    as gamma -> 0 for normalized inputs.

    Routes (``integrator="auto"`` picks by input type):

    * ``"exact"``: two :class:`DiscreteDensity` inputs, exact sums.
    * ``"closed_form"``: two :class:`ExpFamilyDensity` of one family, using
      ``log I = F(t1 + g*t2) - F(t1) - g*F(t2)`` (plus scale terms).
    * ``"quadrature"``: two 1-D :class:`SampledDensity`, log-shifted
      adaptive Gauss-Kronrod quadrature over the finite ``support`` to a
      relative or absolute error of 1.49e-8 per integral; each
      ``log_density`` is evaluated on 1-D arrays of nodes.
    * ``"monte_carlo"``: :class:`SampledDensity` inputs and an
      :class:`EstimatorConfig`; draws come from the samplable ``proposal``
      argument, or from ``q1`` when it is ``None``.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if integrator == "auto":
        if isinstance(q1, DiscreteDensity):
            integrator = "exact"
        elif isinstance(q1, ExpFamilyDensity):
            integrator = "closed_form"
        else:
            integrator = "monte_carlo" if cfg is not None else "quadrature"

    if integrator == "monte_carlo":
        if cfg is None:
            raise ValueError("Monte Carlo route requires an EstimatorConfig")
        return _combine_gamma(*_log_i_mc_triplet(q1, q2, gamma, proposal, cfg,
                                                 workers), gamma)
    log_i = _log_i_route(integrator, gamma, support)
    return _combine_gamma(log_i(q1, q1), log_i(q1, q2), log_i(q2, q2), gamma)


def js_m_gamma(p1, p2, m: MeanSpec, gamma: float, integrator: str = "auto", *,
               cfg: EstimatorConfig | None = None,
               proposal: SampledDensity | None = None,
               support: tuple[float, float] | None = None,
               workers: int = 1) -> float:
    """Projective M-JSD: gamma-divergences to the *unnormalized* M-mixture.

    ``(D_gamma(p1, M~) + D_gamma(p2, M~)) / 2``; projectivity makes the
    mixture normalizer irrelevant, and for small gamma this approximates the
    normalized M-JSD to O(gamma).

    Input types follow :func:`gamma_divergence`; exponential-family inputs
    support geometric means only (the geometric mixture stays in-family).
    On the Monte Carlo route each half draws from ``proposal``, or from its
    own first argument (``p1``, then ``p2``) when it is ``None``.  Both
    halves run with the same ``cfg``, so they draw the same chunk streams
    (common random numbers): chunk k of each half is drawn from the same
    generator state, by its own sampler.  :func:`estimate_js_m_extended`,
    by contrast, seeds its second half apart.  Outside the Monte Carlo
    route the moment ``I(M~, M~)`` that both halves share is computed once.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if isinstance(p1, DiscreteDensity):
        mix, _ = m_mixture(p1, p2, m, normalize=False)
        integrator = "exact"
    elif isinstance(p1, ExpFamilyDensity):
        if m.kind is not MeanKind.GEOMETRIC:
            raise ValueError(
                "closed-form projective M-JSD needs a geometric mean; "
                "use sampled densities for other mixtures"
            )
        fam, t1, t2 = _family_thetas(p1, p2)
        # the geometric mixture is in-family; its scale drops by projectivity
        mix = ExpFamilyDensity(fam, m.alpha * t1 + (1.0 - m.alpha) * t2)
        integrator = "closed_form"
    else:
        def mix_log_density(x: np.ndarray) -> np.ndarray:
            return np.asarray(means.log_evaluate(m, p1.log_density(x),
                                                 p2.log_density(x)))

        mix = SampledDensity(mix_log_density)
        if integrator == "auto":
            integrator = "monte_carlo" if cfg is not None else "quadrature"
        if integrator == "monte_carlo":
            first = gamma_divergence(p1, mix, gamma, integrator, cfg=cfg,
                                     proposal=proposal, workers=workers)
            second = gamma_divergence(p2, mix, gamma, integrator, cfg=cfg,
                                      proposal=proposal, workers=workers)
            return 0.5 * (first + second)

    log_i = _log_i_route(integrator, gamma, support)
    log_i_mix = log_i(mix, mix)
    first = _combine_gamma(log_i(p1, p1), log_i(p1, mix), log_i_mix, gamma)
    second = _combine_gamma(log_i(p2, p2), log_i(p2, mix), log_i_mix, gamma)
    return 0.5 * (first + second)
