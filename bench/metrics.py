"""Metric names, units and how each is computed.

``END_TO_END`` and ``PER_LAYER`` are the single source for the metric names;
``BENCHMARK.json`` lists the same names (a test keeps the two in step).

Which end-to-end metric each layer metric is expected to move, and on which
workload, is written next to the layer metrics below.  A later change that
claims a gain on one layer cites the layer metric and the end-to-end metric
named here; a layer that does no work on a workload reports 0 there.
"""

from __future__ import annotations

import re
import statistics

from tracing import Span, self_times

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# (name, unit, better).  Throughput and percentiles are computed over the
# whole window, which ends on a cycle boundary (see harness.end_to_end).
END_TO_END = (
    ("setup_s", "s", "lower"),          # median of 5 set-ups, each in its own process
    ("ops_per_s", "1/s", "higher"),     # operations / time spent inside them
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),     # cli_cold: largest compute child
)

DISCRETE_ONE_PASS = ("m_mixture", "js", "js_m", "js_m_extended", "kl_extended",
                     "jeffreys", "bhattacharyya", "f_divergence",
                     "total_variation")
SUITES = ("counterexamples", "identities", "bounds", "gaussian_oracle",
          "mc_convergence")

# Layer metric -> the end-to-end metric it should move (workload in brackets).
PER_LAYER = (
    # means: ops_per_s [reused_large]
    ("means.evaluate.calls", "count", "lower"),
    ("means.evaluate.self_s", "s", "lower"),
    ("means.evaluate.elements_per_s", "1/s", "higher"),
    # means: ops_per_s [monte_carlo] (per-chunk mixture of log densities)
    ("means.log_evaluate.calls", "count", "lower"),
    ("means.log_evaluate.self_s", "s", "lower"),
    ("means.log_evaluate.elements_per_s", "1/s", "higher"),
    # construction and validation: setup_s [reused_large]
    ("discrete.DiscreteDensity.calls", "count", "lower"),
    ("discrete.DiscreteDensity.self_s", "s", "lower"),
    # one-pass sums: ops_per_s [reused_large]
    *((f"discrete.{f}.self_s", "s", "lower") for f in DISCRETE_ONE_PASS),
    ("discrete.m_mixture.calls", "count", "lower"),
    ("discrete.atoms_per_s", "1/s", "higher"),
    # Chernoff's search loop: ops_per_s [reused_large].  It is
    # one call per cycle, above p90, so it does not set latency_p90_ms.
    ("discrete.chernoff.calls", "count", "lower"),
    ("discrete.chernoff.self_s", "s", "lower"),
    # per-size medians of whole calls: the ROADMAP baseline cases
    *((f"discrete.{f}.{a}.p50_us", "us", "lower")
      for f in ("js", "js_m", "chernoff") for a in ("a8", "a1m")),
    # Gaussian closed forms: ops_per_s [reused_large] (d = 64; the d = 1, 8
    # pairs run after the timed window)
    ("gaussian.GaussianParams.calls", "count", "lower"),
    ("gaussian.GaussianParams.self_s", "s", "lower"),
    ("gaussian.kl_gaussian.calls", "count", "lower"),
    ("gaussian.kl_gaussian.self_s", "s", "lower"),
    ("gaussian.geometric_mixture_params.calls", "count", "lower"),
    ("gaussian.geometric_mixture_params.self_s", "s", "lower"),
    *((f"gaussian.{f}.self_s", "s", "lower")
      for f in ("jeffreys_gaussian", "bhattacharyya_gaussian", "gjsd_gaussian",
                "gjsd_extended_gaussian", "natural_flat")),
    # split by d, so a d = 64 regression cannot hide behind a d = 1 gain
    *((f"gaussian.{f}.{d}.p50_us", "us", "lower")
      for f in ("kl_gaussian", "gjsd_gaussian") for d in ("d1", "d8", "d64")),
    # exponential-family route: ops_per_s [reused_large]
    *((f"expfam.{f}.self_s", "s", "lower")
      for f in ("gjsd_ef", "skew_jensen", "bregman")),
    ("expfam.gjsd_ef.calls", "count", "lower"),
    # estimators: ops_per_s and latency [monte_carlo]
    *((f"estimate.{f}.self_s", "s", "lower")
      for f in ("estimate_js_m_extended", "estimate_z", "js_m_gamma")),
    ("estimate.estimate_kl_extended.calls", "count", "lower"),
    ("estimate.estimate_kl_extended.self_s", "s", "lower"),
    ("estimate.gamma_divergence.calls", "count", "lower"),
    ("estimate.gamma_divergence.self_s", "s", "lower"),
    ("estimate.sampler.self_s", "s", "lower"),
    ("estimate.log_density.self_s", "s", "lower"),
    # draws per second of the Monte Carlo operations, untraced
    ("estimate.samples_per_s_1w", "1/s", "higher"),
    ("estimate.samples_per_s_2w", "1/s", "higher"),
    # 2-worker rate / (2 x 1-worker rate): the thread pool [monte_carlo]
    ("estimate.parallel_efficiency.d1", "ratio", "higher"),
    ("estimate.parallel_efficiency.d8", "ratio", "higher"),
    # median untraced js_m_gamma quadrature call: latency_p90_ms [monte_carlo]
    ("estimate.quadrature_s", "s", "lower"),
    # verify all: whole wall time untraced, per suite traced [cli_cold]
    ("verification.verify_all_s", "s", "lower"),
    *((f"verification.{s}_s", "s", "lower") for s in SUITES),
    ("verification.checks_failed", "count", "lower"),
    # process start, import and dispatch: latency_p50_ms [cli_cold]
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    # the tracer itself
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),   # traced / untraced ops_per_s
    ("trace.max_function_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

SIZE_BUCKETS = {"a8": 8, "a1m": 1_000_000, "d1": 1, "d8": 8, "d64": 64}


def percentiles(values: list[float]) -> dict[str, float]:
    """p50 and p90 by linear interpolation, with the sample count they rest on."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return {"p50": at(0.5), "p90": at(0.9), "samples": len(ordered)}


def failed_ratio(attempted: int, failed: int) -> float:
    """Operations that raised or failed their check, over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def layer_metrics(spans: list[Span], op_seconds: float) -> dict[str, float]:
    """Per-layer metrics computed from the spans of one traced phase.

    ``op_seconds`` is the traced time spent inside operations, the base of
    ``trace.max_function_share``.  Metrics not derived from spans (rates of
    untraced operations, process start-up) are filled in by the workloads.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    out: dict[str, float] = {"trace.spans": float(len(spans))}
    for name, _, _ in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        group = by_name.get(stem, [])
        if kind == "calls":
            out[name] = float(len(group))
        elif kind == "self_s":
            out[name] = sum(own[s.sid] for s in group)
        elif kind == "elements_per_s":
            busy = sum(own[s.sid] for s in group)
            out[name] = sum(s.size for s in group) / busy if busy > 0 else 0.0
        elif kind == "p50_us":
            fn, _, bucket = stem.rpartition(".")
            times = [s.duration for s in by_name.get(fn, [])
                     if s.size == SIZE_BUCKETS[bucket]]
            out[name] = statistics.median(times) * 1e6 if times else 0.0

    # one-pass discrete sums entered from outside the discrete layer
    names = {s.sid: s.name for s in spans}
    atoms = busy = 0.0
    for s in spans:
        layer, _, fn = s.name.partition(".")
        parent = names.get(s.parent, "")
        if (layer == "discrete" and fn in DISCRETE_ONE_PASS
                and not parent.startswith("discrete.")):
            atoms += s.size
            busy += s.duration
    out["discrete.atoms_per_s"] = atoms / busy if busy > 0 else 0.0

    for suite in SUITES:
        out[f"verification.{suite}_s"] = sum(
            s.duration for s in by_name.get(f"verification.{suite}", []))

    shares = [sum(s.duration for s in group) for group in by_name.values()]
    out["trace.max_function_share"] = (max(shares) / op_seconds
                                       if shares and op_seconds > 0 else 0.0)
    return out
