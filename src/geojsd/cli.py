"""Command-line interface: compute divergences, run verification, sweep grids,
list the divergences and the inputs they take.

Exit codes: 0 success, 1 only a failed verification, 2 usage/parse errors
(a JSON value that is not a number, JSON nested past the parser's recursion
limit, and a sample count above ``estimate._MAX_SAMPLES`` = 10^9 included), 3
mathematical errors (disjoint supports, non-PD matrices, divergent
integrals).  ``GEOJSD_SEED`` provides the default estimator seed.

File formats: discrete densities are whitespace-separated decimals with
``#`` comments, or a JSON array; Gaussians are JSON objects
``{"mu": [...], "sigma": [[...]]}``.

A cold process imports only the library modules its command and route run:
``estimate``, ``expfam``, ``gaussian`` and ``verification`` are imported
inside the functions that call them, so an exact ``compute`` loads none of
them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from . import discrete
from ._suites import SUITE_NAMES
from .discrete import DiscreteDensity
from .errors import (
    DisjointSupport,
    DivergentIntegral,
    DomainViolation,
    InvalidDensity,
    NoConvergence,
    NonPositiveInput,
    NotPositiveDefinite,
    ProposalSupportViolation,
)
from .logbase import NATS, LogBase
from .means import MeanKind, MeanSpec

if TYPE_CHECKING:
    from . import estimate, gaussian

_MATH_ERRORS = (DisjointSupport, NotPositiveDefinite, NoConvergence, DivergentIntegral,
                ProposalSupportViolation, DomainViolation, NonPositiveInput)


def _default_seed() -> str:
    # a string default passes through type=int: a bad value exits 2, not a traceback
    return os.environ.get("GEOJSD_SEED", "0")


def _json_number(value, message: str, integral: bool = False):
    """A JSON number as a float, or if ``integral`` as an int (whole numbers only,
    ints kept exact for 64-bit seeds); anything else: ``ValueError(message)``."""
    if type(value) in (int, float):  # not bool, which JSON true and false give
        try:
            if not integral:
                return float(value)
            if int(value) == value:
                return int(value)
        except (OverflowError, ValueError):  # past the float range; inf, NaN
            pass
    raise ValueError(message)


def _json_array(value, message: str) -> np.ndarray:
    """A JSON number or rectangular nested array of numbers as a float array."""
    def floats(item):
        return ([floats(x) for x in item] if isinstance(item, list)
                else _json_number(item, message))
    try:
        return np.array(floats(value), dtype=float)
    # a ragged array, a leaf that is not a number, or nesting deeper than
    # the interpreter's recursion limit
    except (ValueError, RecursionError):
        raise ValueError(message) from None


def _loads(text: str, path: str):
    """The JSON value in ``text``, read from ``path``; nesting deeper than the
    parser's recursion limit is a usage error, like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def read_discrete(path: str) -> np.ndarray:
    """Weight vector from a file: whitespace-separated decimals with ``#``
    comments, or a JSON array."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("["):
        return _json_array(_loads(text, path),
                           f"{path}: weights must be an array of numbers")
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens:
        raise ValueError(f"no weights found in {path}")
    return np.array([float(tok) for tok in tokens])


def read_gaussian(path: str) -> gaussian.GaussianParams:
    with open(path, "r", encoding="utf-8") as handle:
        payload = _loads(handle.read(), path)
    return _gaussian_from_payload(payload, path)


def _gaussian_from_payload(payload, origin: str) -> gaussian.GaussianParams:
    from . import gaussian
    if not isinstance(payload, dict) or "mu" not in payload or "sigma" not in payload:
        raise ValueError(f"{origin}: expected an object with 'mu' and 'sigma'")
    mu, sigma = (_json_array(payload[key], f"{origin}: '{key}' must be a number or "
                             "an array of numbers") for key in ("mu", "sigma"))
    return gaussian.GaussianParams(np.atleast_1d(mu), np.atleast_2d(sigma))


def _load_pair(kind: str, entries, unnormalized: bool = False):
    """Two densities of one kind, each from a file path or an inline payload."""
    if kind == "gaussian":
        g1, g2 = (read_gaussian(entry) if isinstance(entry, str)
                  else _gaussian_from_payload(entry, f"sweep inputs '{name}'")
                  for name, entry in zip(("p1", "p2"), entries))
        if g1.dim != g2.dim:
            # an input error on every route, closed-form or not
            raise InvalidDensity(f"dimension mismatch: {g1.dim} vs {g2.dim}")
        return g1, g2
    if kind == "discrete":
        # both inputs are read before either is validated
        w1, w2 = (read_discrete(entry) if isinstance(entry, str)
                  else _json_array(entry,
                                   f"sweep inputs '{name}' must be an array of numbers")
                  for name, entry in zip(("p1", "p2"), entries))
        return (DiscreteDensity(w1, normalized=not unnormalized),
                DiscreteDensity(w2, normalized=not unnormalized))
    raise ValueError(f"unknown input kind {kind!r}")


# ---------------------------------------------------------------------------
# compute: one route table
# ---------------------------------------------------------------------------
# A route takes ``(p1, p2, args)``, where ``args.mean`` is a MeanSpec and
# ``args.base`` a LogBase, and returns the ``compute`` result.  It looks library
# functions up when called, so wrappers installed after import see the calls,
# and imports the modules that only some routes use.

def _result(value: float, base: LogBase | None, method: str,
            **extra) -> dict:
    out = {"value": value, "base": None if base is None else base.value,
           "method": method}
    out.update(extra)
    return out


def _exact(value):
    """Discrete route whose ``value(p1, p2, args)`` is exact in ``args.base``."""
    return lambda p, q, args: _result(value(p, q, args), args.base, "exact")


def _closed_form(nats):
    """Gaussian route whose ``nats(g1, g2, args)`` is a closed form in nats."""
    return lambda g, h, args: _result(args.base.from_nats(nats(g, h, args)),
                                      args.base, "closed-form")


def _base_free(method: str, value):
    """Route for a value that has no logarithm base (``bc``, ``tv``)."""
    return lambda p, q, args: _result(value(p, q, args), None, method)


def _geometric(route):
    """``route`` with the mean forced to the geometric mean."""
    return lambda p, q, args: route(p, q, argparse.Namespace(
        **{**vars(args), "mean": MeanSpec.geometric(args.alpha)}))


def _expfam_pair(g1: gaussian.GaussianParams, g2: gaussian.GaussianParams):
    """Two Gaussians as densities of one exponential family."""
    from . import expfam, gaussian
    fam = expfam.gaussian_family(g1.dim)
    return (expfam.ExpFamilyDensity(fam, gaussian.natural_flat(g1)),
            expfam.ExpFamilyDensity(fam, gaussian.natural_flat(g2)))


def _mu_sd(g: gaussian.GaussianParams) -> tuple[float, float]:
    """Mean and standard deviation of a 1-D Gaussian."""
    return float(g.mu[0]), math.sqrt(float(g.sigma[0, 0]))


def _chernoff(p1, p2, args) -> dict:
    value, alpha_star = discrete.chernoff(p1, p2, args.tol, args.base)
    return _result(value, args.base, "exact", alpha_star=alpha_star)


def _tv_gaussian(g1, g2, args) -> float:
    from . import gaussian
    if g1.dim != 1:
        raise ValueError("total variation is closed-form for d=1 only")
    return gaussian.tv_gaussian_1d(*_mu_sd(g1), *_mu_sd(g2))


def _gjsd_gaussian(g1, g2, args) -> float:
    from . import gaussian
    if args.mean.kind is not MeanKind.GEOMETRIC:
        raise ValueError(
            "normalized M-JSD has no Gaussian closed form for this mean; "
            "use js_m_plus with --samples for the extended variant"
        )
    return gaussian.gjsd_gaussian(g1, g2, args.alpha, args.beta)


def _monte_carlo(g1, g2, args, mean: MeanSpec, extended: bool) -> dict:
    if args.samples is None:
        raise ValueError(
            f"{args.div} between Gaussians requires --samples (Monte Carlo)"
        )
    if extended and args.base is not NATS:
        # one estimate sums the logarithmic and the mass terms, and only the
        # first may be rescaled
        raise ValueError("Monte Carlo extended divergences are reported in nats")
    from . import estimate
    cfg = estimate.EstimatorConfig(samples=args.samples, seed=args.seed,
                                   chunk_size=args.chunk_size)
    value, stderr = estimate.estimate_js_m_extended(
        estimate.gaussian_sampled(g1), estimate.gaussian_sampled(g2),
        mean, cfg, workers=args.workers)
    return _result(args.base.from_nats(value), args.base, "monte-carlo",
                   std_error=args.base.from_nats(stderr))


def _js_m_plus_gaussian(g1, g2, args) -> dict:
    if args.mean.kind is not MeanKind.GEOMETRIC:
        return _monte_carlo(g1, g2, args, args.mean, extended=True)
    from . import gaussian
    if args.alpha != 0.5 or args.beta != 0.5:
        raise ValueError("closed-form extended geometric JSD is balanced only")
    if args.base is NATS:
        value = gaussian.gjsd_extended_gaussian(g1, g2)
    else:
        # jeffreys/4 + (BC - 1): only the logarithmic part rescales
        value = (args.base.from_nats(gaussian.jeffreys_gaussian(g1, g2) / 4.0)
                 + math.expm1(-gaussian.bhattacharyya_gaussian(g1, g2)))
    return _result(value, args.base, "closed-form")


def _js_m_gamma_gaussian(g1, g2, args) -> dict:
    from . import estimate
    if args.mean.kind is MeanKind.GEOMETRIC:
        value = estimate.js_m_gamma(*_expfam_pair(g1, g2), args.mean,
                                    args.gamma, "closed_form")
        return _result(args.base.from_nats(value), args.base, "closed-form")
    if g1.dim != 1:
        raise ValueError("projective M-JSD quadrature is 1-D only")
    (m1, s1), (m2, s2) = _mu_sd(g1), _mu_sd(g2)
    reach = 13.0 * max(s1, s2)
    value = estimate.js_m_gamma(
        estimate.gaussian_sampled(g1), estimate.gaussian_sampled(g2), args.mean,
        args.gamma, "quadrature", support=(min(m1, m2) - reach, max(m1, m2) + reach))
    return _result(args.base.from_nats(value), args.base, "quadrature")


def _kl_gaussian(g1, g2, args) -> float:
    from . import gaussian
    return gaussian.kl_gaussian(g1, g2)


def _jeffreys_gaussian(g1, g2, args) -> float:
    from . import gaussian
    return gaussian.jeffreys_gaussian(g1, g2)


def _bhattacharyya_gaussian(g1, g2, args) -> float:
    from . import gaussian
    return gaussian.bhattacharyya_gaussian(g1, g2, args.alpha)


def _bc_gaussian(g1, g2, args) -> float:
    from . import gaussian
    return gaussian.bhattacharyya_coefficient_gaussian(g1, g2, args.alpha)


def _gamma_discrete(p1, p2, args) -> float:
    from . import estimate
    return args.base.from_nats(estimate.gamma_divergence(p1, p2, args.gamma, "exact"))


def _gamma_gaussian(g1, g2, args) -> float:
    from . import estimate
    return estimate.gamma_divergence(*_expfam_pair(g1, g2), args.gamma, "closed_form")


def _js_m_gamma_discrete(p1, p2, args) -> float:
    from . import estimate
    return args.base.from_nats(
        estimate.js_m_gamma(p1, p2, args.mean, args.gamma, "exact"))


_JS_M = _exact(lambda p, q, a: discrete.js_m(p, q, a.mean, a.beta, a.base))
_JS_M_PLUS = _exact(lambda p, q, a:
                    discrete.js_m_extended(p, q, a.mean, a.beta, a.base))
_KL_GAUSSIAN = _closed_form(_kl_gaussian)

# --div name: (discrete inputs may be unnormalized, discrete route,
#              Gaussian route or None)
_ROUTES = {
    "kl": (False, _exact(lambda p, q, a: discrete.kl(p, q, a.base)), _KL_GAUSSIAN),
    "kl_plus": (True, _exact(lambda p, q, a: discrete.kl_extended(p, q, a.base)),
                _KL_GAUSSIAN),
    "js": (False, _exact(lambda p, q, a: discrete.js(p, q, a.base)),
           lambda g, h, a: _monte_carlo(g, h, a, MeanSpec.arithmetic(), False)),
    "js_m": (False, _JS_M, _closed_form(_gjsd_gaussian)),
    "js_m_plus": (True, _JS_M_PLUS, _js_m_plus_gaussian),
    "jeffreys": (False, _exact(lambda p, q, a: discrete.jeffreys(p, q, a.base)),
                 _closed_form(_jeffreys_gaussian)),
    "bhattacharyya": (
        False, _exact(lambda p, q, a: discrete.bhattacharyya(p, q, a.alpha, a.base)),
        _closed_form(_bhattacharyya_gaussian)),
    "bc": (False, _base_free("exact", lambda p, q, a:
                             discrete.bhattacharyya_coefficient(p, q, a.alpha)),
           _base_free("closed-form", _bc_gaussian)),
    "chernoff": (False, _chernoff, None),
    "tv": (False,
           _base_free("exact", lambda p, q, a: discrete.total_variation(p, q)),
           _base_free("closed-form", _tv_gaussian)),
    "taneja": (False, _exact(lambda p, q, a: discrete.taneja_t(p, q, a.base)),
               None),
    "kl_mixtures": (False, _exact(lambda p, q, a: discrete.kl_between_mixtures(
        p, q, a.mean, a.mean2, a.base)), None),
    "gamma": (True, _exact(_gamma_discrete), _closed_form(_gamma_gaussian)),
    "js_m_gamma": (True, _exact(_js_m_gamma_discrete), _js_m_gamma_gaussian),
    "gjsd": (False, _geometric(_JS_M), _geometric(_closed_form(_gjsd_gaussian))),
    "gjsd_plus": (True, _geometric(_JS_M_PLUS), _geometric(_js_m_plus_gaussian)),
}


def _route(div: str, kind: str):
    route = _ROUTES[div][1 if kind == "discrete" else 2]
    if route is None:  # every divergence has a discrete route
        raise ValueError(f"divergence {div!r} is not available for Gaussian inputs")
    return route


def cmd_compute(args) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.samples is not None:
        from . import estimate
        estimate._sample_count(args.samples, "--samples")
    # parsed before the inputs are read: a bad --mean or --mean2 fails on
    # every route
    args.mean = MeanSpec.parse(args.mean, args.alpha)
    args.mean2 = MeanSpec.parse(args.mean2)
    args.base = LogBase(args.base)
    kind = "gaussian" if args.gaussian else "discrete"
    p1, p2 = _load_pair(kind, (args.p1, args.p2),
                        unnormalized=_ROUTES[args.div][0])
    print(json.dumps(_route(args.div, kind)(p1, p2, args)))
    return 0


def cmd_list(args) -> int:
    """Each ``--div`` with the inputs its routes take."""
    rows = [("div", "discrete inputs", "gaussian inputs")]
    rows += [(div, "any total mass" if unnormalized else "normalized",
              "no" if gaussian_route is None else "yes")
             for div, (unnormalized, _, gaussian_route) in _ROUTES.items()]
    first, second = (max(len(row[i]) for row in rows) + 2 for i in (0, 1))
    for div, discrete_inputs, gaussian_inputs in rows:
        print(f"{div:<{first}}{discrete_inputs:<{second}}{gaussian_inputs}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from . import verification
    checks = verification.run_suite(args.suite)
    if args.json:
        # a NaN or infinite residual is written as null: strict JSON
        report = [{key: None if isinstance(v, float) and not math.isfinite(v) else v
                   for key, v in check.__dict__.items()} for check in checks]
        print(json.dumps(report, indent=2, allow_nan=False))
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

_SWEEP_TARGETS = ("gamma_divergence", "estimate_z", "estimate_js_m_extended",
                  "bhattacharyya")


def _sweep_row(target: str, kind: str, p1, p2, mean: MeanSpec, gamma: float,
               alpha: float, cfg: estimate.EstimatorConfig
               ) -> tuple[float, float | None, float | None]:
    """Returns (computed value, std_error, oracle)."""
    from . import estimate, expfam, gaussian
    args = argparse.Namespace(base=NATS, gamma=gamma, alpha=alpha)
    if target == "gamma_divergence":
        return (_route("gamma", kind)(p1, p2, args)["value"], None,
                _route("kl", kind)(p1, p2, args)["value"])

    if target == "bhattacharyya":
        computed = _route("bhattacharyya", kind)(p1, p2, args)["value"]
        if kind == "gaussian":
            e1, e2 = _expfam_pair(p1, p2)
            return computed, None, expfam.skew_jensen(e1.family, e1.theta,
                                                      e2.theta, alpha)
        try:
            thetas = [expfam.categorical_theta(p.weights) for p in (p1, p2)]
        except DomainViolation:  # a zero weight: no categorical embedding
            return computed, None, None
        return computed, None, expfam.skew_jensen(
            expfam.categorical_family(p1.size), *thetas, alpha)

    if kind == "discrete":
        oracle = (discrete.m_mixture(p1, p2, mean)[1] if target == "estimate_z"
                  else discrete.js_m_extended(p1, p2, mean))
    elif mean.kind is MeanKind.GEOMETRIC:
        # Z = exp(-B_alpha); each KL+ to Z m_alpha is KL + B_alpha + Z - 1
        b = gaussian.bhattacharyya_gaussian(p1, p2, mean.alpha)
        oracle = (math.exp(-b) if target == "estimate_z"
                  else gaussian.gjsd_gaussian(p1, p2, mean.alpha, 0.5)
                  + (math.expm1(-b) + b))
    else:
        oracle = (1.0 if mean.kind is MeanKind.ARITHMETIC and target == "estimate_z"
                  else None)
    sampled = (estimate.categorical_sampled if kind == "discrete"
               else estimate.gaussian_sampled)
    fn = estimate.estimate_z if target == "estimate_z" else estimate.estimate_js_m_extended
    return (*fn(sampled(p1), sampled(p2), mean, cfg), oracle)


def cmd_sweep(args) -> int:
    import csv
    from . import estimate
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = _loads(handle.read(), args.spec)
    if not isinstance(spec, dict):
        raise ValueError("sweep spec must be a JSON object")
    est = spec.get("estimator", {})
    if not isinstance(est, dict):
        raise ValueError("sweep spec 'estimator' must be a JSON object")
    parameter = spec.get("parameter")
    if parameter not in ("gamma", "samples", "alpha"):
        raise ValueError("sweep spec needs parameter: gamma | samples | alpha")
    values = spec.get("values", [])
    counts = parameter == "samples"
    message = f"sweep spec 'values' must be a list of {'whole ' if counts else ''}numbers"
    if not isinstance(values, list):
        raise ValueError(message)
    grid = [_json_number(v, message, integral=counts) for v in values]
    if counts:
        grid = [estimate._sample_count(v, "sweep spec 'values'") for v in grid]
    elif not all(map(math.isfinite, grid)):
        raise ValueError("sweep spec 'values' must be finite")

    inputs = spec.get("inputs")
    if not isinstance(inputs, dict) or not {"kind", "p1", "p2"} <= inputs.keys():
        raise ValueError("sweep spec needs inputs: {kind, p1, p2}")
    target = spec.get("target", "gamma_divergence")
    if target not in _SWEEP_TARGETS:
        raise ValueError(f"unknown sweep target {target!r}")
    if target == "gamma_divergence" and parameter == "alpha":
        raise ValueError("sweep target 'gamma_divergence' has no alpha")
    descriptor = spec.get("mean", "geometric")
    alpha = _json_number(spec.get("alpha", 0.5), "sweep spec 'alpha' must be a number")
    gamma = _json_number(spec.get("gamma", 1e-3), "sweep spec 'gamma' must be a number")
    fields = {key: _json_number(est.get(key, default),
                                f"sweep spec 'estimator.{key}' must be a whole number",
                                integral=True)
              for key, default in (("samples", 10_000), ("seed", args.seed),
                                   ("chunk_size", 1 << 16))}
    estimate._sample_count(fields["samples"], "sweep spec 'estimator.samples'")
    cfg = estimate.EstimatorConfig(**fields)
    fixed = MeanSpec.parse(descriptor, alpha)
    if parameter == "gamma":
        row_inputs = [(fixed, v, alpha, cfg) for v in grid]
    elif parameter == "samples":
        row_inputs = [(fixed, gamma, alpha, replace(cfg, samples=v)) for v in grid]
    else:  # an alpha grid reaches the mean of the estimate targets
        row_inputs = [(MeanSpec.parse(descriptor, v), gamma, v, cfg) for v in grid]
    p1, p2 = _load_pair(inputs["kind"], (inputs["p1"], inputs["p2"]))
    # every row is computed before the header, so an error leaves stdout empty
    rows = [_sweep_row(target, inputs["kind"], p1, p2, *row) for row in row_inputs]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["parameter", "value", "std_error", "oracle", "abs_error"])
    for grid_value, (computed, stderr, oracle) in zip(grid, rows):
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
    compute.add_argument("--div", required=True, choices=tuple(_ROUTES))
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

    listing = sub.add_parser("list", help="list each --div and the inputs it takes")
    listing.set_defaults(func=cmd_list)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
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
