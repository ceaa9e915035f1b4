"""Geometric and general mixture Jensen-Shannon divergences.

Exact divergences for finite-support densities, closed forms for
multivariate Gaussians and exponential families, and Monte Carlo /
gamma-divergence estimation when no closed form exists, plus a
verification layer that re-derives every identity, bound, and
counterexample the formulas rely on.

Names resolve when first read (PEP 562): ``import geojsd`` loads no
submodule, and ``geojsd.js`` loads :mod:`geojsd.discrete` (and what it
imports) the first time it is used.
"""

__version__ = "0.1.0"

# Each submodule with the public names it defines.  A submodule is itself a
# name of the package (``geojsd.estimate``), as it was when this file
# imported every submodule.
_EXPORTS = {
    "_kernels": (),
    "discrete": (
        "DiscreteDensity",
        "F_BHATTACHARYYA_COEFF",
        "F_EXTENDED_GJS",
        "F_GENERATORS",
        "F_JEFFREYS",
        "F_JS",
        "F_KL",
        "F_TANEJA",
        "FGenerator",
        "bhattacharyya",
        "bhattacharyya_coefficient",
        "chernoff",
        "coarse_grain",
        "cross_entropy",
        "f_divergence",
        "jeffreys",
        "js",
        "js_m",
        "js_m_extended",
        "kl",
        "kl_between_mixtures",
        "kl_extended",
        "m_mixture",
        "shannon_entropy",
        "taneja_t",
        "total_variation",
    ),
    "errors": (
        "DisjointSupport",
        "DivergentIntegral",
        "DomainViolation",
        "GeoJSDError",
        "InvalidAlpha",
        "InvalidDensity",
        "NoConvergence",
        "NonPositiveInput",
        "NotPositiveDefinite",
        "ProposalSupportViolation",
        "TooManySamples",
    ),
    "estimate": (
        "EstimatorConfig",
        "SampledDensity",
        "arithmetic_mixture_proposal",
        "categorical_sampled",
        "estimate_js_m_extended",
        "estimate_kl_extended",
        "estimate_z",
        "gamma_divergence",
        "gaussian_sampled",
        "js_m_gamma",
    ),
    "expfam": (
        "ExpFamily",
        "ExpFamilyDensity",
        "bregman",
        "categorical_family",
        "categorical_theta",
        "dual_gjsd_ef",
        "gaussian_family",
        "gjsd_ef",
        "gjsd_extended_ef",
        "skew_jensen",
    ),
    "gaussian": (
        "GaussianNatural",
        "GaussianParams",
        "bhattacharyya_coefficient_gaussian",
        "bhattacharyya_gaussian",
        "cumulant",
        "cumulant_ordinary",
        "from_natural",
        "geometric_mixture_params",
        "gjsd_extended_gaussian",
        "gjsd_gaussian",
        "jeffreys_gaussian",
        "kl_gaussian",
        "natural_flat",
        "to_natural",
        "tv_gaussian_1d",
    ),
    "logbase": ("BITS", "NATS", "LogBase"),
    "means": ("MeanKind", "MeanSpec", "evaluate", "log_evaluate", "power_limit_check"),
}

# name -> the submodule that defines it; a submodule maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__all__ = [name for name in _MODULE_OF if not name.startswith("_")]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys
    __import__(f"{__name__}.{module}")  # as ``import`` does: -X importtime sees it
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
