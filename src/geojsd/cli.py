"""Command-line interface: compute divergences, run verification, sweep grids.

Exit codes: 0 success, 1 verification failure, 2 usage/parse errors,
3 mathematical errors (disjoint supports, non-PD matrices, divergent
integrals).  ``GEOJSD_SEED`` provides the default estimator seed.

File formats: discrete densities are whitespace-separated decimals with
``#`` comments; Gaussians are JSON objects ``{"mu": [...], "sigma": [[...]]}``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import discrete, estimate, expfam, gaussian, means, verification
from .discrete import DiscreteDensity
from .errors import (
    DegenerateQuadratic,
    DisjointSupport,
    DivergentIntegral,
    DomainViolation,
    InvalidDensity,
    NoConvergence,
    NonPositiveInput,
    NotPositiveDefinite,
    ProposalSupportViolation,
)
from .logbase import BITS, NATS, LogBase
from .means import MeanSpec

_MATH_ERRORS = (DisjointSupport, NotPositiveDefinite, NoConvergence,
                DivergentIntegral, ProposalSupportViolation,
                DegenerateQuadratic, DomainViolation, NonPositiveInput)

_DIVERGENCES = ("kl", "kl_plus", "js", "js_m", "js_m_plus", "jeffreys",
                "bhattacharyya", "bc", "chernoff", "tv", "taneja",
                "kl_mixtures", "gamma", "js_m_gamma", "gjsd", "gjsd_plus")


def _default_seed() -> str:
    # a string default passes through type=int: a bad value exits 2, not a traceback
    return os.environ.get("GEOJSD_SEED", "0")


def parse_mean(text: str, alpha: float) -> MeanSpec:
    """Parse a mean descriptor: arithmetic | geometric | min | max |
    power:<gamma> | quasi:log | quasi:exp | quasi:power:<gamma>."""
    parts = text.lower().split(":")
    name = parts[0]
    if name == "arithmetic":
        return MeanSpec.arithmetic(alpha)
    if name == "geometric":
        return MeanSpec.geometric(alpha)
    if name == "min":
        return MeanSpec.minimum()
    if name == "max":
        return MeanSpec.maximum()
    if name == "power":
        if len(parts) != 2:
            raise ValueError("power mean descriptor is power:<gamma>")
        return MeanSpec.power(float(parts[1]), alpha)
    if name == "quasi":
        if len(parts) == 2 and parts[1] in ("log", "exp"):
            return MeanSpec.quasi_arithmetic(parts[1], alpha=alpha)
        if len(parts) == 3 and parts[1] == "power":
            return MeanSpec.quasi_arithmetic("power", gamma=float(parts[2]),
                                             alpha=alpha)
        raise ValueError("quasi descriptor is quasi:log|exp|power:<gamma>")
    raise ValueError(f"unknown mean descriptor {text!r}")


def read_discrete(path: str) -> np.ndarray:
    """Weight vector from a file: whitespace-separated decimals with ``#``
    comments, or a JSON array."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("["):
        weights = json.loads(text)
        if not isinstance(weights, list):
            raise ValueError(f"{path}: JSON density must be an array")
        return np.asarray(weights, dtype=float)
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens:
        raise ValueError(f"no weights found in {path}")
    return np.array([float(tok) for tok in tokens])


def read_gaussian(path: str) -> gaussian.GaussianParams:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return _gaussian_from_payload(payload, path)


def _gaussian_from_payload(payload, origin: str) -> gaussian.GaussianParams:
    if not isinstance(payload, dict) or "mu" not in payload or "sigma" not in payload:
        raise ValueError(f"{origin}: expected an object with 'mu' and 'sigma'")
    mu = np.atleast_1d(np.asarray(payload["mu"], dtype=float))
    sigma = np.atleast_2d(np.asarray(payload["sigma"], dtype=float))
    return gaussian.GaussianParams(mu, sigma)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _result(value: float, base: LogBase | None, method: str,
            **extra) -> dict:
    out = {"value": value, "base": None if base is None else base.value,
           "method": method}
    out.update(extra)
    return out


def _estimator_config(args) -> estimate.EstimatorConfig:
    return estimate.EstimatorConfig(samples=args.samples, seed=args.seed,
                                    chunk_size=args.chunk_size)


def _compute_discrete(args, base: LogBase, mean: MeanSpec) -> dict:
    div = args.div
    # the extended and projective divergences accept unnormalized vectors
    positive_ok = div in ("kl_plus", "js_m_plus", "gjsd_plus", "gamma",
                          "js_m_gamma")
    w1, w2 = read_discrete(args.p1), read_discrete(args.p2)
    if positive_ok:
        p1, p2 = DiscreteDensity.positive(w1), DiscreteDensity.positive(w2)
    else:
        p1, p2 = DiscreteDensity.probability(w1), DiscreteDensity.probability(w2)

    if div == "kl":
        return _result(discrete.kl(p1, p2, base), base, "exact")
    if div == "kl_plus":
        return _result(discrete.kl_extended(p1, p2, base), base, "exact")
    if div == "js":
        return _result(discrete.js(p1, p2, base), base, "exact")
    if div in ("js_m", "gjsd"):
        if div == "gjsd":
            mean = MeanSpec.geometric(args.alpha)
        return _result(discrete.js_m(p1, p2, mean, args.beta, base), base,
                       "exact")
    if div in ("js_m_plus", "gjsd_plus"):
        if div == "gjsd_plus":
            mean = MeanSpec.geometric(args.alpha)
        return _result(discrete.js_m_extended(p1, p2, mean, args.beta, base),
                       base, "exact")
    if div == "jeffreys":
        return _result(discrete.jeffreys(p1, p2, base), base, "exact")
    if div == "bhattacharyya":
        return _result(discrete.bhattacharyya(p1, p2, args.alpha, base), base,
                       "exact")
    if div == "bc":
        return _result(discrete.bhattacharyya_coefficient(p1, p2, args.alpha),
                       None, "exact")
    if div == "chernoff":
        value, alpha_star = discrete.chernoff(p1, p2, args.tol, base)
        return _result(value, base, "exact", alpha_star=alpha_star)
    if div == "tv":
        return _result(discrete.total_variation(p1, p2), None, "exact")
    if div == "taneja":
        return _result(discrete.taneja_t(p1, p2, base), base, "exact")
    if div == "kl_mixtures":
        mean2 = parse_mean(args.mean2, 0.5)
        return _result(discrete.kl_between_mixtures(p1, p2, mean, mean2, base),
                       base, "exact")
    if div == "gamma":
        return _result(base.from_nats(
            estimate.gamma_divergence(p1, p2, args.gamma, "exact")),
            base, "exact")
    if div == "js_m_gamma":
        return _result(base.from_nats(
            estimate.js_m_gamma(p1, p2, mean, args.gamma, "exact")),
            base, "exact")
    raise ValueError(f"unsupported divergence {div!r}")


def _compute_gaussian(args, base: LogBase, mean: MeanSpec) -> dict:
    div = args.div
    g1, g2 = read_gaussian(args.p1), read_gaussian(args.p2)
    if g1.dim != g2.dim:
        # an input error on every route, closed-form or not
        raise InvalidDensity(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    geometric = means.is_geometric(mean)

    def in_base(nats_value: float) -> float:
        return base.from_nats(nats_value)

    if div in ("kl", "kl_plus"):
        return _result(in_base(gaussian.kl_gaussian(g1, g2)), base,
                       "closed-form")
    if div == "jeffreys":
        return _result(in_base(gaussian.jeffreys_gaussian(g1, g2)), base,
                       "closed-form")
    if div == "bhattacharyya":
        return _result(in_base(gaussian.bhattacharyya_gaussian(g1, g2,
                                                               args.alpha)),
                       base, "closed-form")
    if div == "bc":
        return _result(gaussian.bhattacharyya_coefficient_gaussian(
            g1, g2, args.alpha), None, "closed-form")
    if div == "tv":
        if g1.dim != 1:
            raise ValueError("total variation is closed-form for d=1 only")
        return _result(gaussian.tv_gaussian_1d(
            float(g1.mu[0]), math.sqrt(float(g1.sigma[0, 0])),
            float(g2.mu[0]), math.sqrt(float(g2.sigma[0, 0]))), None,
            "closed-form")
    if div in ("js_m", "gjsd"):
        if div == "gjsd" or geometric:
            return _result(in_base(gaussian.gjsd_gaussian(
                g1, g2, args.alpha, args.beta)), base, "closed-form")
        raise ValueError(
            "normalized M-JSD has no Gaussian closed form for this mean; "
            "use js_m_plus with --samples for the extended variant"
        )
    if div == "gjsd_plus" or (div == "js_m_plus" and geometric):
        if args.alpha != 0.5 or args.beta != 0.5:
            raise ValueError("closed-form extended geometric JSD is balanced only")
        return _result(in_base(gaussian.gjsd_extended_gaussian(g1, g2)),
                       base, "closed-form")
    if div in ("js", "js_m_plus"):
        if args.samples is None:
            raise ValueError(
                f"{div} between Gaussians requires --samples (Monte Carlo)"
            )
        mc_mean = MeanSpec.arithmetic() if div == "js" else mean
        cfg = _estimator_config(args)
        value, stderr = estimate.estimate_js_m_extended(
            estimate.gaussian_sampled(g1), estimate.gaussian_sampled(g2),
            mc_mean, cfg, workers=args.workers)
        return _result(in_base(value), base, "monte-carlo",
                       std_error=in_base(stderr))
    if div == "gamma":
        fam = expfam.gaussian_family(g1.dim)
        e1 = expfam.ExpFamilyDensity(fam, gaussian.natural_flat(g1))
        e2 = expfam.ExpFamilyDensity(fam, gaussian.natural_flat(g2))
        return _result(in_base(estimate.gamma_divergence(
            e1, e2, args.gamma, "closed_form")), base, "closed-form")
    if div == "js_m_gamma":
        if geometric:
            fam = expfam.gaussian_family(g1.dim)
            e1 = expfam.ExpFamilyDensity(fam, gaussian.natural_flat(g1))
            e2 = expfam.ExpFamilyDensity(fam, gaussian.natural_flat(g2))
            return _result(in_base(estimate.js_m_gamma(
                e1, e2, mean, args.gamma, "closed_form")), base, "closed-form")
        if g1.dim != 1:
            raise ValueError("projective M-JSD quadrature is 1-D only")
        support = _support_1d(g1, g2)
        value = estimate.js_m_gamma(
            estimate.gaussian_sampled(g1), estimate.gaussian_sampled(g2),
            mean, args.gamma, "quadrature", support=support)
        return _result(in_base(value), base, "quadrature")
    raise ValueError(f"divergence {div!r} is not available for Gaussian inputs")


def _support_1d(g1: gaussian.GaussianParams,
                g2: gaussian.GaussianParams) -> tuple[float, float]:
    sd = max(math.sqrt(float(g1.sigma[0, 0])), math.sqrt(float(g2.sigma[0, 0])))
    lo = min(float(g1.mu[0]), float(g2.mu[0])) - 13.0 * sd
    hi = max(float(g1.mu[0]), float(g2.mu[0])) + 13.0 * sd
    return lo, hi


def cmd_compute(args) -> int:
    base = BITS if args.base == "bits" else NATS
    mean = parse_mean(args.mean, args.alpha)
    if args.gaussian:
        result = _compute_gaussian(args, base, mean)
    else:
        result = _compute_discrete(args, base, mean)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    checks = verification.run_suite(args.suite)
    if args.json:
        print(json.dumps([check.__dict__ for check in checks], indent=2))
    else:
        width = max(len(check.name) for check in checks)
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status}  {check.name:<{width}}  {check.detail}")
        failed = sum(not check.passed for check in checks)
        print(f"----\n{len(checks) - failed} passed, {failed} failed")
    return 0 if all(check.passed for check in checks) else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_inputs(spec: dict):
    inputs = spec.get("inputs")
    if not isinstance(inputs, dict) or "kind" not in inputs:
        raise ValueError("sweep spec needs inputs: {kind, p1, p2}")
    kind = inputs["kind"]
    if kind == "discrete":
        def load(entry):
            weights = (read_discrete(entry) if isinstance(entry, str)
                       else np.asarray(entry, dtype=float))
            return DiscreteDensity.probability(weights)
        return kind, load(inputs["p1"]), load(inputs["p2"])
    if kind == "gaussian":
        def load(entry):
            if isinstance(entry, str):
                return read_gaussian(entry)
            return _gaussian_from_payload(entry, "sweep inputs")
        return kind, load(inputs["p1"]), load(inputs["p2"])
    raise ValueError(f"unknown input kind {kind!r}")


def _sweep_row(spec: dict, kind: str, p1, p2, parameter: str,
               value: float, seed: int) -> tuple[float, float | None, float | None]:
    """Returns (computed value, std_error, oracle)."""
    target = spec.get("target", "gamma_divergence")
    mean = parse_mean(spec.get("mean", "geometric"), spec.get("alpha", 0.5))
    est = spec.get("estimator", {})
    samples = int(est.get("samples", 10_000))
    chunk = int(est.get("chunk_size", 1 << 16))
    seed = int(est.get("seed", seed))
    if parameter == "samples":
        samples = int(value)
    cfg = estimate.EstimatorConfig(samples=samples, seed=seed, chunk_size=chunk)

    if target == "gamma_divergence":
        gamma = value if parameter == "gamma" else float(spec.get("gamma", 1e-3))
        if kind == "discrete":
            computed = estimate.gamma_divergence(p1, p2, gamma, "exact")
            oracle = discrete.kl(p1, p2)
        else:
            fam = expfam.gaussian_family(p1.dim)
            computed = estimate.gamma_divergence(
                expfam.ExpFamilyDensity(fam, gaussian.natural_flat(p1)),
                expfam.ExpFamilyDensity(fam, gaussian.natural_flat(p2)),
                gamma, "closed_form")
            oracle = gaussian.kl_gaussian(p1, p2)
        return computed, None, oracle

    if target in ("estimate_z", "estimate_js_m_extended"):
        if kind == "discrete":
            d1, d2 = estimate.categorical_sampled(p1), estimate.categorical_sampled(p2)
            if target == "estimate_z":
                _, z = discrete.m_mixture(p1, p2, mean)
                oracle = z
            else:
                oracle = discrete.js_m_extended(p1, p2, mean)
        else:
            d1, d2 = estimate.gaussian_sampled(p1), estimate.gaussian_sampled(p2)
            if means.is_geometric(mean):
                oracle = (math.exp(-gaussian.bhattacharyya_gaussian(p1, p2, mean.alpha))
                          if target == "estimate_z"
                          else gaussian.gjsd_extended_gaussian(p1, p2))
            elif mean.kind.value == "arithmetic" and target == "estimate_z":
                oracle = 1.0
            else:
                oracle = None
        fn = (estimate.estimate_z if target == "estimate_z"
              else estimate.estimate_js_m_extended)
        computed, stderr = fn(d1, d2, mean, cfg)
        return computed, stderr, oracle

    if target == "bhattacharyya":
        alpha = value if parameter == "alpha" else float(spec.get("alpha", 0.5))
        if kind == "discrete":
            computed = discrete.bhattacharyya(p1, p2, alpha)
            fam = expfam.categorical_family(p1.size)
            oracle = expfam.skew_jensen(fam, expfam.categorical_theta(p1.weights),
                                        expfam.categorical_theta(p2.weights),
                                        alpha)
        else:
            computed = gaussian.bhattacharyya_gaussian(p1, p2, alpha)
            fam = expfam.gaussian_family(p1.dim)
            oracle = expfam.skew_jensen(fam, gaussian.natural_flat(p1),
                                        gaussian.natural_flat(p2), alpha)
        return computed, None, oracle

    raise ValueError(f"unknown sweep target {target!r}")


def cmd_sweep(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parameter = spec.get("parameter")
    if parameter not in ("gamma", "samples", "alpha"):
        raise ValueError("sweep spec needs parameter: gamma | samples | alpha")
    values = spec.get("values", [])
    if not isinstance(values, list):
        raise ValueError("sweep spec 'values' must be a list")

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["parameter", "value", "std_error", "oracle", "abs_error"])
    if not values:
        return 0
    kind, p1, p2 = _sweep_inputs(spec)
    for grid_value in values:
        computed, stderr, oracle = _sweep_row(
            spec, kind, p1, p2, parameter, float(grid_value), args.seed)
        abs_error = None if oracle is None else abs(computed - oracle)
        writer.writerow([
            f"{grid_value:g}", f"{computed:.12g}",
            "" if stderr is None else f"{stderr:.6g}",
            "" if oracle is None else f"{oracle:.12g}",
            "" if abs_error is None else f"{abs_error:.6g}",
        ])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geojsd",
        description="Geometric and mixture Jensen-Shannon divergences")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute one divergence")
    compute.add_argument("--div", required=True, choices=_DIVERGENCES)
    compute.add_argument("--p1", required=True, help="first density file")
    compute.add_argument("--p2", required=True, help="second density file")
    compute.add_argument("--gaussian", action="store_true",
                         help="inputs are Gaussian JSON files")
    compute.add_argument("--mean", default="geometric",
                         help="mean descriptor (default geometric)")
    compute.add_argument("--mean2", default="geometric",
                         help="second mean for kl_mixtures (first is --mean)")
    compute.add_argument("--alpha", type=float, default=0.5)
    compute.add_argument("--beta", type=float, default=0.5)
    compute.add_argument("--gamma", type=float, default=1e-3)
    compute.add_argument("--base", choices=("nats", "bits"), default="nats")
    compute.add_argument("--tol", type=float, default=1e-12)
    compute.add_argument("--samples", type=int, default=None)
    compute.add_argument("--seed", type=int, default=_default_seed())
    compute.add_argument("--chunk-size", type=int, default=1 << 16)
    compute.add_argument("--workers", type=int, default=1)
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", choices=tuple(verification.SUITES) + ("all",))
    verify.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV")
    sweep.add_argument("spec", help="JSON sweep descriptor")
    sweep.add_argument("--seed", type=int, default=_default_seed())
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
