"""Geometric and general mixture Jensen-Shannon divergences.

Exact divergences for finite-support densities, closed forms for
multivariate Gaussians and exponential families, and Monte Carlo /
gamma-divergence estimation when no closed form exists, plus a
verification layer that re-derives every identity, bound, and
counterexample the formulas rely on.
"""

from .discrete import (
    DiscreteDensity,
    F_BHATTACHARYYA_COEFF,
    F_EXTENDED_GJS,
    F_GENERATORS,
    F_JEFFREYS,
    F_JS,
    F_KL,
    F_TANEJA,
    FGenerator,
    bhattacharyya,
    bhattacharyya_coefficient,
    chernoff,
    coarse_grain,
    cross_entropy,
    f_divergence,
    jeffreys,
    js,
    js_m,
    js_m_extended,
    kl,
    kl_between_mixtures,
    kl_extended,
    m_mixture,
    shannon_entropy,
    taneja_t,
    total_variation,
)
from .errors import (
    DisjointSupport,
    DivergentIntegral,
    DomainViolation,
    GeoJSDError,
    InvalidAlpha,
    InvalidDensity,
    NoConvergence,
    NonPositiveInput,
    NotPositiveDefinite,
    ProposalSupportViolation,
    TooManySamples,
)
from .estimate import (
    EstimatorConfig,
    SampledDensity,
    arithmetic_mixture_proposal,
    categorical_sampled,
    estimate_js_m_extended,
    estimate_kl_extended,
    estimate_z,
    gamma_divergence,
    gaussian_sampled,
    js_m_gamma,
)
from .expfam import (
    ExpFamily,
    ExpFamilyDensity,
    bregman,
    categorical_family,
    categorical_theta,
    dual_gjsd_ef,
    gaussian_family,
    gjsd_ef,
    gjsd_extended_ef,
    skew_jensen,
)
from .gaussian import (
    GaussianNatural,
    GaussianParams,
    bhattacharyya_coefficient_gaussian,
    bhattacharyya_gaussian,
    cumulant,
    cumulant_ordinary,
    from_natural,
    geometric_mixture_params,
    gjsd_extended_gaussian,
    gjsd_gaussian,
    jeffreys_gaussian,
    kl_gaussian,
    natural_flat,
    to_natural,
    tv_gaussian_1d,
)
from .logbase import BITS, NATS, LogBase
from .means import MeanKind, MeanSpec, evaluate, log_evaluate, power_limit_check

__version__ = "0.1.0"
