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
that is not finite at one of its own draws.  The chunk body evaluates each
distinct density object once; a mixture (:func:`arithmetic_mixture_proposal`,
or the M-mixture of :func:`js_m_gamma`) takes its log-density from the
values of its components, so a component that is also an argument is not
called again.

Everything runs in log space: mixture means of density values are taken via
:func:`geojsd.means.log_evaluate` and the gamma-divergence moment integrals
``I_gamma`` via log-sum-exp, so widely separated densities do not underflow.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import means
from ._kernels import gauss_kronrod, gaussian_log_rows, gaussian_rows, logsumexp
from .discrete import DiscreteDensity, _aligned, m_mixture
from .errors import (DivergentIntegral, DomainViolation, ProposalSupportViolation,
                     TooManySamples)
from .means import MeanKind, MeanSpec

if TYPE_CHECKING:
    # for annotations only: the closed-form gamma routes import expfam when
    # they run, so no other route loads it, nor gaussian
    from .expfam import ExpFamily, ExpFamilyDensity
    from .gaussian import GaussianParams

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

# The largest Monte Carlo sample count: 10^9 draws take minutes at d = 1,
# while a count such as 1e300 would never finish.
_MAX_SAMPLES = 10 ** 9


def _sample_count(value: int, name: str) -> int:
    """``value``, a sample count, if it is at most ``_MAX_SAMPLES``; else
    :class:`TooManySamples`, naming the count ``name``."""
    if value > _MAX_SAMPLES:
        raise TooManySamples(f"{name} must be at most {_MAX_SAMPLES}")
    return value


@dataclass(frozen=True)
class EstimatorConfig:
    """Monte Carlo draws, seed and chunk length.

    ``samples``, ``seed`` and ``chunk_size`` are read through
    ``operator.index``, so a float such as ``2.5`` (or ``2.0``) raises
    ``TypeError``, and a numpy integer is kept as a Python ``int``.
    ``samples`` above 10^9 raises :class:`TooManySamples`.
    """

    samples: int
    seed: int = 0
    chunk_size: int = 1 << 16

    def __post_init__(self) -> None:
        for name in ("samples", "seed", "chunk_size"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        _sample_count(self.samples, "samples")
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

    At d > 1 the sampler and ``log_density`` are the row kernels
    :func:`geojsd._kernels.gaussian_rows` and
    :func:`geojsd._kernels.gaussian_log_rows`: a batch of points is drawn
    (``standard_normal @ L' + mu``) or whitened (``(x - mu) @ L^-T``, with
    the ``L^-1`` that ``g`` keeps, then the quadratic form as a row dot) one
    row block at a time, in scratch of about 16k entries, with the bits of
    the whole-array expressions.
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

    inv_chol_t = g._inv_chol.T

    def log_density(x: np.ndarray) -> np.ndarray:
        return gaussian_log_rows(x, mu, inv_chol_t, log_norm)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return gaussian_rows(rng, n, chol, mu)

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


@dataclass(frozen=True, eq=False)
class _Mixture(SampledDensity):
    """The M-mixture ``M(first, second)`` of two densities, made by
    :func:`_mixture`: its ``log_density`` is ``log_evaluate(mean,
    first.log_density(x), second.log_density(x))``, and a Monte Carlo chunk
    forms that from the components' values it already holds."""

    mean: MeanSpec = field(kw_only=True)
    parts: tuple[SampledDensity, SampledDensity] = field(kw_only=True)


def _mixture(m: MeanSpec, first: SampledDensity, second: SampledDensity,
             sampler: Callable | None = None) -> _Mixture:
    def log_density(x: np.ndarray) -> np.ndarray:
        return np.asarray(means.log_evaluate(m, first.log_density(x),
                                             second.log_density(x)))

    return _Mixture(log_density, sampler, mean=m, parts=(first, second))


def arithmetic_mixture_proposal(d1: SampledDensity, d2: SampledDensity) -> SampledDensity:
    """The balanced two-component mixture (d1 + d2)/2 as a proposal.

    Its log-density is the balanced arithmetic mean of the component
    log-densities, through :func:`geojsd.means.log_evaluate`, so a Z
    estimator matched to this proposal has exactly zero variance; in a
    Monte Carlo chunk it is formed from the components' values at the draws,
    with no further component call.  The sampler draws ``n`` labels
    (``rng.random(n) < 0.5`` picks d1), then the ``k`` points labelled d1
    from ``d1.sampler`` and the ``n - k`` others from ``d2.sampler``, and
    puts each at its label's place: ``n`` i.i.d. draws in all, and a
    component with no label is not called.
    """
    if d1.sampler is None or d2.sampler is None:
        raise ValueError("both components must be samplable")

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        first = rng.random(n) < 0.5
        out = None
        for component, picked in ((d1, first), (d2, ~first)):
            count = int(np.count_nonzero(picked))
            if count == 0 and n > 0:     # n = 0: d1 gives the empty shape
                continue
            draws = np.asarray(component.sampler(rng, count))
            if out is None:
                out = np.empty((n,) + draws.shape[1:], dtype=draws.dtype)
            # by index: a mask of random labels scatters several times slower
            out[np.flatnonzero(picked)] = draws
            del draws       # freed before the second component draws
        return out

    return _mixture(MeanSpec.arithmetic(), d1, d2, sampler)


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


def _log_density_once(q: SampledDensity, x: np.ndarray,
                      memo: dict[int, np.ndarray]) -> np.ndarray:
    """``q``'s log-density at ``x``, computed once per ``memo``, which is
    keyed by object identity; a mixture's is formed from its components'."""
    value = memo.get(id(q))
    if value is None:
        if isinstance(q, _Mixture):
            value = means.log_evaluate(q.mean, *(_log_density_once(c, x, memo)
                                                 for c in q.parts))
        else:
            value = q.log_density(x)
        value = memo[id(q)] = np.asarray(value, dtype=float)
    return value


def _map_chunks(cfg: EstimatorConfig, p1: SampledDensity, p2: SampledDensity,
                proposal: SampledDensity | None, term: Callable[..., tuple],
                workers: int) -> list[tuple]:
    """``term(l1, l2, log_r)`` of each chunk, in chunk order.

    Each chunk draws from the proposal r: ``proposal``, or ``p1`` when it is
    ``None``.  ``l1``, ``l2`` and ``log_r`` are the log-densities of ``p1``,
    ``p2`` and r at the draws.  Each distinct density object is evaluated
    once per chunk, through a memo keyed by identity: when r is ``p1`` (or
    ``p2``), ``log_r`` is ``l1`` (or ``l2``) itself, the same array, and a
    mixture is ``means.log_evaluate`` of its components' memoized values.
    This is the one place the proposal is checked: a ``log_r`` that is not
    finite at one of r's own draws raises :class:`ProposalSupportViolation`.

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
        memo: dict[int, np.ndarray] = {}
        l1, l2, log_r = (_log_density_once(q, x, memo) for q in (p1, p2, r))
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
    from .expfam import _as_theta
    fam, other = e1.family, e2.family
    if not (fam is other
            or (fam.name != "" and fam.name == other.name and fam.dim == other.dim)):
        raise ValueError("closed-form route needs densities of one family")
    return fam, _as_theta(fam, e1.theta), _as_theta(fam, e2.theta)


def _log_i_expfam(e1: ExpFamilyDensity, e2: ExpFamilyDensity,
                  gamma: float) -> float:
    """``F(t1 + g*t2)``, the unnormalized moment of :func:`gamma_divergence`."""
    from .expfam import _cumulant_at
    fam, t1, t2 = _family_thetas(e1, e2)
    try:
        return _cumulant_at(fam, t1 + gamma * t2, "gamma_divergence")
    except DomainViolation as exc:
        raise DivergentIntegral(str(exc)) from exc


def _log_i_quadrature(ld1: Callable, ld2: Callable, gamma: float,
                      support: tuple[float, float]) -> float:
    lo, hi = support
    # the width is finite only if both ends are, and it may overflow if they are
    if not (lo < hi and math.isfinite(hi - lo)):
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


def _integrators(q) -> tuple[str, ...]:
    """The integrators :func:`gamma_divergence` offers for input ``q``."""
    if isinstance(q, DiscreteDensity):
        return ("exact",)
    if not isinstance(q, SampledDensity):  # a sampled input needs no expfam
        from .expfam import ExpFamilyDensity
        if isinstance(q, ExpFamilyDensity):
            return ("closed_form",)
    return ("quadrature", "monte_carlo")


def _gamma_route(q1, q2, gamma: float, route: str,
                 cfg: EstimatorConfig | None,
                 support: tuple[float, float] | None) -> tuple[str, Callable | None]:
    """The route of :func:`gamma_divergence` for ``q1`` and ``q2``, and its
    ``log I(f, h)``: ``None`` on Monte Carlo, which takes the three at once."""
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    taken, other = _integrators(q1), _integrators(q2)
    if other != taken:
        raise ValueError("gamma-divergence inputs must be of one kind")
    if route == "auto":  # a cfg asks for Monte Carlo where the inputs allow it
        route = taken[-1] if cfg is not None else taken[0]
    if route not in taken:
        raise ValueError(f"{type(q1).__name__} inputs take integrator "
                         f"{' or '.join(map(repr, taken))}, not {route!r}")
    if route == "exact":
        return route, lambda f, h: _log_i_discrete(*_aligned(f, h), gamma)
    if route == "closed_form":
        return route, lambda f, h: _log_i_expfam(f, h, gamma)
    if route == "monte_carlo":
        if cfg is None:
            raise ValueError("Monte Carlo route requires an EstimatorConfig")
        return route, None
    if support is None:
        raise ValueError("quadrature route requires an integration support")
    return route, lambda f, h: _log_i_quadrature(f.log_density, h.log_density,
                                                 gamma, support)


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

    Routes (``integrator="auto"`` picks by input type; one the inputs
    cannot take raises ``ValueError``, as does a gamma that is not positive
    and finite):

    * ``"exact"``: two :class:`DiscreteDensity` inputs, exact sums.
    * ``"closed_form"``: two :class:`ExpFamilyDensity` of one family, with
      ``log I = F(t1 + g*t2)``, the moment of the unnormalized
      ``exp<theta, t(x)>``.  The terms that drops, ``w(f) + g*w(h)`` with
      ``w = log_scale - F(theta)``, cancel in ``D_gamma`` (projectivity),
      so neither ``F(t1)``, ``F(t2)`` nor ``log_scale`` is read.
    * ``"quadrature"``: two 1-D :class:`SampledDensity`, log-shifted
      adaptive Gauss-Kronrod quadrature over the finite ``support`` to a
      relative or absolute error of 1.49e-8 per integral; each
      ``log_density`` is evaluated on 1-D arrays of nodes.
    * ``"monte_carlo"``: :class:`SampledDensity` inputs and an
      :class:`EstimatorConfig`; draws come from the samplable ``proposal``
      argument, or from ``q1`` when it is ``None``.
    """
    _, log_i = _gamma_route(q1, q2, gamma, integrator, cfg, support)
    if log_i is None:
        return _combine_gamma(*_log_i_mc_triplet(q1, q2, gamma, proposal, cfg,
                                                 workers), gamma)
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
    route, log_i = _gamma_route(p1, p2, gamma, integrator, cfg, support)
    if route == "exact":
        mix, _ = m_mixture(p1, p2, m, normalize=False)
    elif route == "closed_form":
        from .expfam import ExpFamilyDensity
        if m.kind is not MeanKind.GEOMETRIC:
            raise ValueError(
                "closed-form projective M-JSD needs a geometric mean; "
                "use sampled densities for other mixtures"
            )
        fam, t1, t2 = _family_thetas(p1, p2)
        # the geometric mixture is in-family; its scale drops by projectivity
        mix = ExpFamilyDensity(fam, m.alpha * t1 + (1.0 - m.alpha) * t2)
    else:
        # on Monte Carlo, each half's chunks form the mixture from the
        # values of p1 and p2 they hold: one call per argument per chunk
        mix = _mixture(m, p1, p2)
        if route == "monte_carlo":
            first = gamma_divergence(p1, mix, gamma, route, cfg=cfg,
                                     proposal=proposal, workers=workers)
            second = gamma_divergence(p2, mix, gamma, route, cfg=cfg,
                                      proposal=proposal, workers=workers)
            return 0.5 * (first + second)

    log_i_mix = log_i(mix, mix)
    first = _combine_gamma(log_i(p1, p1), log_i(p1, mix), log_i_mix, gamma)
    second = _combine_gamma(log_i(p2, p2), log_i(p2, mix), log_i_mix, gamma)
    return 0.5 * (first + second)
