"""The three workloads: what each runs, why it exists, how its outputs are checked.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned, because library callers and CLI users
wait for each result.  Operations come in fixed cycles (a cycle is one pass
over the workload's mix); a run always ends on a cycle boundary, so the mix
is the same in every run whatever the machine's speed.  All inputs come from
``--seed``; the library only sees the generated inputs.

reused_large
    Two discrete pairs with 1M atoms and two Gaussian pairs with d = 64 are
    built in set-up and reused by every operation.  Time goes into numpy and
    LAPACK kernels, not construction.  A per-density cache would show a gain
    here, and its construction cost in this workload's setup_s.  The 1M-atom
    arrays are 8 MB each, which fits in the last-level cache reported in the
    run record, so discrete.atoms_per_s measures a cache-resident kernel, not
    DRAM bandwidth.  After the timed window, a small pair (8 atoms, and
    Gaussians with d = 1 and 8) is also built once and put through every
    discrete and Gaussian operation SMALL_REPEATS times.  Those calls are
    checked and traced but not timed into the end-to-end metrics: they give
    the per-layer figures at small sizes (the a8, d1 and d8 medians, and the
    discrete operations the large mix does not call).
monte_carlo
    estimate_js_m_extended, estimate_z and Monte Carlo gamma_divergence at
    d = 1 and 8, geometric and power:-0.5 means, each at workers = 1 and
    then workers = 2, plus one 1-D quadrature js_m_gamma (power:0.5).  The
    only workload where the chunk kernel, means.log_evaluate and the thread
    pool do the work; the others bypass them.
cli_cold
    Cold ``python -m geojsd`` processes one at a time: ``compute`` on each
    route (exact, closed-form, a small Monte Carlo run, quadrature), and
    ``verify all`` once per run.  The only place that measures interpreter
    start, the import (today mostly scipy) and the cli and verification
    modules.

In reused_large the mix is weighted so that no public function takes more
than half of the traced time (trace.max_function_share): Chernoff at 1M atoms
costs about 20 one-pass sums and would otherwise hide every other layer.

A fourth workload, fresh_small (a new 2-64 atom or d = 1, 8 pair per call,
so per-call overhead dominated), was dropped: its throughput is set by the
Python interpreter's per-call work, which moved most with the speed of a
shared host, and its run-to-run spread exceeded what the benchmark can bound.
Constructor and dispatch work is still measured per layer on reused_large.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

import reference as ref
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

GAUSSIAN_OPS = ("kl_gaussian", "jeffreys_gaussian", "bhattacharyya_gaussian",
                "gjsd_gaussian", "gjsd_extended_gaussian", "gjsd_ef")
F_GENERATORS = ("kl", "js", "extended_gjs", "jeffreys", "taneja",
                "bhattacharyya_coeff")


@dataclass
class Op:
    """One timed call and the untimed check of its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    samples: int = 0        # Monte Carlo draws the call makes
    workers: int = 0
    group: str = ""         # dimension label for per-d rates
    reused: bool = False    # inputs were constructed before the call


@dataclass
class ProcessResult:
    code: int
    stdout: str
    max_rss_mb: float


class Record(NamedTuple):
    """An executed operation: what it was, its latency, whether it passed.

    A tuple of plain values: the garbage collector stops tracking it, so
    thousands of records do not make collections slower as a run goes on.
    """

    name: str
    latency: float
    ok: bool
    output: str             # exact text of the output, for traced/untraced identity
    samples: int
    workers: int
    group: str
    reused: bool


_reported_errors = 0


def execute(op: Op) -> Record:
    """Time one operation, then check its output outside the timed region.

    An exception or a failed check counts the operation as failed; the run
    goes on, so failed_ratio can count every failure.
    """
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # the loop must keep running to count failures
        latency = time.perf_counter() - start
        _report(op)
        return _record(op, latency, False, "error")
    latency = time.perf_counter() - start
    try:
        ok = bool(op.check(out))
    except Exception:
        _report(op)
        ok = False
    text = out.stdout if isinstance(out, ProcessResult) else repr(out)
    return _record(op, latency, ok, text)


def _record(op: Op, latency: float, ok: bool, output: str) -> Record:
    return Record(op.name, latency, ok, output, op.samples, op.workers, op.group,
                  op.reused)


def _report(op: Op) -> None:
    global _reported_errors
    _reported_errors += 1
    if _reported_errors <= 3:
        sys.stderr.write(f"operation {op.name} raised:\n{traceback.format_exc()}")


def library() -> SimpleNamespace:
    """The geojsd modules.  Ops look functions up on these at call time, so
    a traced phase sees the wrappers the tracer installs."""
    from geojsd import discrete, estimate, expfam, gaussian, verification
    from geojsd.means import MeanSpec
    return SimpleNamespace(discrete=discrete, estimate=estimate, expfam=expfam,
                           gaussian=gaussian, verification=verification,
                           MeanSpec=MeanSpec)


def discrete_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    """A strictly positive normalized vector, as in the verification corpus."""
    w = rng.uniform(0.05, 1.0, size)
    return w / w.sum()


def gaussian_moments(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, Sigma) as in the verification corpus: Sigma = A A' + (0.4 + u) I."""
    mu = rng.uniform(-3.0, 3.0, d)
    a = rng.normal(size=(d, d))
    return mu, a @ a.T + (0.4 + rng.uniform()) * np.eye(d)


def mean_key(m) -> tuple[str, float | None]:
    return m.kind.value, m.gamma


def discrete_call(lib, op: str, arg, p1, p2):
    fn = getattr(lib.discrete, op)
    if op in ("js_m", "js_m_extended"):
        return fn(p1, p2, arg)
    if op == "f_divergence":
        return fn(p1, p2, lib.discrete.F_GENERATORS[arg])
    return fn(p1, p2)


def discrete_refs(op: str, arg, w1: np.ndarray, w2: np.ndarray) -> list[float]:
    if op in ("js_m", "js_m_extended"):
        kind, gamma = mean_key(arg)
        return ref.discrete_expected(op, w1, w2, kind, gamma)
    return ref.discrete_expected(op, w1, w2, generator=arg)


def discrete_check(op: str, arg, w1: np.ndarray, w2: np.ndarray,
                   refs: list[float] | None = None) -> Callable[[Any], bool]:
    if op == "chernoff":
        return lambda out: ref.chernoff_ok(w1, w2, out)
    if refs is None:
        return lambda out: ref.matches(out, discrete_refs(op, arg, w1, w2))
    return lambda out: ref.matches(out, refs)


def gaussian_call(lib, op: str, g1, g2, family=None):
    if op == "gjsd_ef":
        fam = lib.expfam.gaussian_family(g1.dim) if family is None else family
        return lib.expfam.gjsd_ef(fam, lib.gaussian.natural_flat(g1),
                                  lib.gaussian.natural_flat(g2))
    return getattr(lib.gaussian, op)(g1, g2)


def op_label(op: str, arg=None) -> str:
    if arg is None:
        return op
    return f"{op}[{arg if isinstance(arg, str) else arg.label}]"


def warm_up(lib) -> None:
    """One call of every operation kind on tiny inputs: lazy imports and
    first-call costs are paid before timing starts."""
    rng = np.random.default_rng(0)
    w1, w2 = discrete_weights(rng, 8), discrete_weights(rng, 8)
    p1 = lib.discrete.DiscreteDensity.probability(w1)
    p2 = lib.discrete.DiscreteDensity.probability(w2)
    for op, arg in small_discrete_mix(lib):
        discrete_call(lib, op, arg, p1, p2)
    g1 = lib.gaussian.GaussianParams(*gaussian_moments(rng, 2))
    g2 = lib.gaussian.GaussianParams(*gaussian_moments(rng, 2))
    for op in GAUSSIAN_OPS:
        gaussian_call(lib, op, g1, g2)


def small_discrete_mix(lib) -> list[tuple[str, Any]]:
    means_ = lib.verification.IDENTITY_MEANS
    return ([("js", None)]
            + [("js_m", m) for m in means_]
            + [("js_m_extended", m) for m in means_]
            + [("jeffreys", None), ("bhattacharyya", None),
               ("total_variation", None)]
            + [("f_divergence", g) for g in F_GENERATORS]
            + [("chernoff", None)])


class Workload:
    name = ""
    traced_cycles = 1       # cycles replayed untraced and traced in a traced run
    in_process = True       # False: the library runs in child processes

    def setup(self, seed: int) -> None:
        """Import, generate and construct inputs, warm up.  Timed as setup_s."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """References for the correctness gate; untimed."""

    def build_inputs(self, tracer: Tracer | None = None) -> None:
        """Construct the reused inputs (again, under tracing, in a traced run)."""

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extras(self, records: list) -> dict[str, float]:
        """Numbers from untraced operation records beyond the end-to-end set."""
        return {}

    def traced_extras(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer numbers this workload measures besides the spans."""
        return {}

    def finish(self) -> tuple[list[Record], dict[str, float]]:
        """Operations run once after the timed cycles, outside the latency
        metrics, and the numbers they give."""
        return [], {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# reused_large
# ---------------------------------------------------------------------------

LARGE_ATOMS = 1_000_000
LARGE_DIM = 64
SMALL_ATOMS = 8
SMALL_DIMS = (1, 8)
SMALL_REPEATS = 25          # passes over the small pairs; per-layer medians rest on these


class ReusedLarge(Workload):
    name = "reused_large"
    traced_cycles = 1

    def setup(self, seed: int) -> None:
        self.lib = library()
        rng = np.random.default_rng([seed, 1])
        self.raw_discrete = [(discrete_weights(rng, LARGE_ATOMS),
                              discrete_weights(rng, LARGE_ATOMS)) for _ in range(2)]
        self.raw_gaussian = [(gaussian_moments(rng, LARGE_DIM),
                              gaussian_moments(rng, LARGE_DIM)) for _ in range(2)]
        M = self.lib.MeanSpec
        self.one_pass = (("js", None), ("js_m", M.geometric()),
                         ("js_m", M.power(-0.5)), ("js_m_extended", M.geometric()))
        small = np.random.default_rng([seed, 4])
        self.raw_small = (discrete_weights(small, SMALL_ATOMS),
                          discrete_weights(small, SMALL_ATOMS))
        self.raw_small_gaussian = {d: (gaussian_moments(small, d), gaussian_moments(small, d))
                                   for d in SMALL_DIMS}
        self.small_mix = small_discrete_mix(self.lib)
        self.build_inputs()
        warm_up(self.lib)

    def build_inputs(self, tracer: Tracer | None = None) -> None:
        density = self.lib.discrete.DiscreteDensity.probability
        params = self.lib.gaussian.GaussianParams
        self.discrete_pairs = [(density(w1), density(w2))
                               for w1, w2 in self.raw_discrete]
        self.gaussian_pairs = [(params(*a), params(*b)) for a, b in self.raw_gaussian]
        self.family = self.lib.expfam.gaussian_family(LARGE_DIM)
        self.small_pair = tuple(density(w) for w in self.raw_small)
        self.small_gaussian = {d: (params(*a), params(*b), self.lib.expfam.gaussian_family(d))
                               for d, (a, b) in self.raw_small_gaussian.items()}

    def prepare_checks(self) -> None:
        self.refs = {(i, op_label(op, arg)): discrete_refs(op, arg, w1, w2)
                     for i, (w1, w2) in enumerate(self.raw_discrete)
                     for op, arg in self.one_pass}
        self.gaussian_refs = [ref.GaussianPairRef(*a, *b) for a, b in self.raw_gaussian]
        w1, w2 = self.raw_small
        self.small_checks = [discrete_check(op, arg, w1, w2,
                                            None if op == "chernoff"
                                            else discrete_refs(op, arg, w1, w2))
                             for op, arg in self.small_mix]
        self.small_gaussian_refs = {d: ref.GaussianPairRef(*a, *b)
                                    for d, (a, b) in self.raw_small_gaussian.items()}

    def cycle(self, index: int) -> list[Op]:
        # Per cycle: 20 one-pass sums, 12 Gaussian calls, 1 Chernoff.  Chernoff
        # then takes under half the time, and both the median and p90 fall
        # inside the group of 1M-atom sums: d = 64 LAPACK calls swung about
        # twice as much between runs on a shared machine as the numpy sums.
        lib = self.lib
        ops = []
        for r in range(5):
            i = (5 * index + r) % 2
            w1, w2 = self.raw_discrete[i]
            for op, arg in self.one_pass:
                label = op_label(op, arg)

                def run(op=op, arg=arg, i=i):
                    p1, p2 = self.discrete_pairs[i]
                    return discrete_call(lib, op, arg, p1, p2)

                ops.append(Op(label, run,
                              discrete_check(op, arg, w1, w2, self.refs[(i, label)]),
                              reused=True))
            if r >= 2:
                continue
            j = r
            for op in GAUSSIAN_OPS:
                def run(op=op, j=j):
                    g1, g2 = self.gaussian_pairs[j]
                    return gaussian_call(lib, op, g1, g2, self.family)

                def check(out, op=op, j=j):
                    return self.gaussian_refs[j].ok(op, out)

                ops.append(Op(f"{op}[d{LARGE_DIM}]", run, check, reused=True))
        k = index % 2
        w1, w2 = self.raw_discrete[k]

        def chernoff(k=k):
            return lib.discrete.chernoff(*self.discrete_pairs[k])

        ops.append(Op("chernoff", chernoff, discrete_check("chernoff", None, w1, w2),
                      reused=True))
        return ops

    def small_ops(self) -> list[Op]:
        """One pass of every discrete and Gaussian operation on the small pairs."""
        lib = self.lib
        ops = []
        for (op, arg), check in zip(self.small_mix, self.small_checks):
            def run(op=op, arg=arg):
                return discrete_call(lib, op, arg, *self.small_pair)

            ops.append(Op(f"{op_label(op, arg)}[a{SMALL_ATOMS}]", run, check, reused=True))
        for d in SMALL_DIMS:
            for op in GAUSSIAN_OPS:
                def run(op=op, d=d):
                    return gaussian_call(lib, op, *self.small_gaussian[d])

                def check(out, op=op, d=d):
                    return self.small_gaussian_refs[d].ok(op, out)

                ops.append(Op(f"{op}[d{d}]", run, check, reused=True))
        return ops

    def finish(self) -> tuple[list[Record], dict[str, float]]:
        """The small pairs, after the window: checked and traced, not timed
        into the end-to-end metrics."""
        return [execute(op) for _ in range(SMALL_REPEATS) for op in self.small_ops()], {}


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

# Draws per call and chunk size: 4 and 2 chunks, so two workers have work,
# and calls short enough (about 10-100 ms) that a run holds many of each.
MC_SAMPLES = {1: 1 << 17, 8: 1 << 16}
MC_CHUNK = 1 << 15
MC_REFERENCE_SAMPLES = {1: 1 << 19, 8: 1 << 18}
GAMMA_MC = 0.5
QUADRATURE_GAMMA = 1e-3                     # the CLI's default --gamma
QUADRATURE_SIGMAS = 13.0                    # the CLI's 1-D support half-width


def mc_moments(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A Gaussian close to the standard one, so importance weights stay tame."""
    mu = rng.uniform(-0.5, 0.5, d)
    a = rng.normal(size=(d, d)) * (0.3 / np.sqrt(d))
    return mu, a @ a.T + rng.uniform(0.7, 1.3) * np.eye(d)


def support_1d(m1, s1, m2, s2) -> tuple[float, float]:
    sd = max(float(np.sqrt(s1[0, 0])), float(np.sqrt(s2[0, 0])))
    lo = min(float(m1[0]), float(m2[0])) - QUADRATURE_SIGMAS * sd
    hi = max(float(m1[0]), float(m2[0])) + QUADRATURE_SIGMAS * sd
    return lo, hi


def samples_drawn(kind: str, samples: int) -> int:
    # the extended M-JSD runs one extended-KL estimate per argument
    return 2 * samples if kind == "estimate_js_m_extended" else samples


class MonteCarlo(Workload):
    name = "monte_carlo"
    traced_cycles = 4

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.lib = library()
        rng = np.random.default_rng([seed, 2])
        self.moments = {d: (mc_moments(rng, d), mc_moments(rng, d)) for d in (1, 8)}
        M = self.lib.MeanSpec
        self.means = {"geometric": M.geometric(), "power:-0.5": M.power(-0.5)}
        self.quadrature_mean = M.power(0.5)
        self.build_inputs()
        est = self.lib.estimate
        for d in (1, 8):
            s1, s2, proposal = self.sampled[d]
            cfg = est.EstimatorConfig(samples=1 << 12, seed=1, chunk_size=1 << 10)
            for w in (1, 2):
                est.estimate_js_m_extended(s1, s2, self.means["geometric"], cfg, workers=w)
                est.estimate_z(s1, s2, self.means["power:-0.5"], cfg, workers=w)
                est.gamma_divergence(s1, s2, GAMMA_MC, "monte_carlo", cfg=cfg,
                                     proposal=proposal, workers=w)

    def build_inputs(self, tracer: Tracer | None = None) -> None:
        lib = self.lib
        self.sampled = {}
        for d, ((m1, s1), (m2, s2)) in self.moments.items():
            densities = []
            for mu, sigma in ((m1, s1), (m2, s2)):
                s = lib.estimate.gaussian_sampled(lib.gaussian.GaussianParams(mu, sigma))
                if tracer is not None:
                    # the callables the benchmark passes in are its own to wrap
                    s = lib.estimate.SampledDensity(
                        tracer.wrap(s.log_density, "estimate.log_density"),
                        tracer.wrap(s.sampler, "estimate.sampler"))
                densities.append(s)
            proposal = lib.estimate.arithmetic_mixture_proposal(*densities)
            self.sampled[d] = (densities[0], densities[1], proposal)

    def prepare_checks(self) -> None:
        self.closed = {d: ref.GaussianPairRef(m1, s1, m2, s2)
                       for d, ((m1, s1), (m2, s2)) in self.moments.items()}
        self.power_refs = {
            d: ref.power_mc_reference(m1, s1, m2, s2, -0.5, MC_REFERENCE_SAMPLES[d],
                                      seed=self.seed + 7919 * d, chunk=MC_CHUNK)
            for d, ((m1, s1), (m2, s2)) in self.moments.items()}
        self.gamma_refs = {d: ref.gauss_gamma_divergence(m1, s1, m2, s2, GAMMA_MC)
                           for d, ((m1, s1), (m2, s2)) in self.moments.items()}
        (m1, s1), (m2, s2) = self.moments[1]
        self.quadrature_support = support_1d(m1, s1, m2, s2)
        self.quadrature_ref = ref.js_m_gamma_1d(
            float(m1[0]), float(s1[0, 0]), float(m2[0]), float(s2[0, 0]),
            0.5, QUADRATURE_GAMMA, self.quadrature_support)
        self.first_worker_output: dict[tuple, Any] = {}

    def _check(self, key: tuple, kind: str, mean: str | None, d: int,
               workers: int) -> Callable[[Any], bool]:
        def check(out) -> bool:
            if workers == 1:
                self.first_worker_output[key] = out
            elif self.first_worker_output.get(key) != out:
                return False        # results must not depend on the worker count
            if kind == "gamma_divergence":
                return abs(out - self.gamma_refs[d]) <= ref.GAMMA_MC_ABS_TOL
            value, se = out
            target = "z" if kind == "estimate_z" else "js_plus"
            if mean == "geometric":
                closed = self.closed[d]
                expected = (np.exp(-closed.bhattacharyya) if target == "z"
                            else closed.gjsd_extended)
                return ref.within_sigmas(value, se, float(expected))
            expected, expected_se = self.power_refs[d][target]
            return ref.within_sigmas(value, se, expected, expected_se)
        return check

    def cycle(self, index: int) -> list[Op]:
        # 20 calls at d = 1 (each kind twice, with fresh draws), 10 at d = 8
        # and one quadrature: the d = 1 calls are the faster group, so the
        # median falls inside it and p90 inside the d = 8 group, not on the
        # gap between the two.
        lib = self.lib
        est = lib.estimate
        ops = []
        kinds = [("estimate_js_m_extended", "geometric"),
                 ("estimate_js_m_extended", "power:-0.5"),
                 ("estimate_z", "geometric"), ("estimate_z", "power:-0.5"),
                 ("gamma_divergence", None)]
        for d, repeats in ((1, 2), (8, 1)):
            for slot, (kind, mean) in enumerate(kinds):
                for rep in range(repeats):
                    key = (index, d, slot, rep)
                    cfg = est.EstimatorConfig(
                        samples=MC_SAMPLES[d], chunk_size=MC_CHUNK,
                        seed=int(np.random.SeedSequence([self.seed, *key])
                                 .generate_state(1, np.uint64)[0]))
                    for workers in (1, 2):
                        def run(kind=kind, mean=mean, d=d, cfg=cfg, workers=workers):
                            s1, s2, proposal = self.sampled[d]
                            fn = getattr(lib.estimate, kind)
                            if kind == "gamma_divergence":
                                return fn(s1, s2, GAMMA_MC, "monte_carlo", cfg=cfg,
                                          proposal=proposal, workers=workers)
                            return fn(s1, s2, self.means[mean], cfg, workers=workers)

                        drawn = samples_drawn(kind, cfg.samples)
                        label = f"{kind}[{mean or 'mc'},d{d},w{workers}]"
                        ops.append(Op(label, run,
                                      self._check(key, kind, mean, d, workers),
                                      samples=drawn, workers=workers, group=f"d{d}",
                                      reused=True))

        def quadrature():
            s1, s2, _ = self.sampled[1]
            return lib.estimate.js_m_gamma(s1, s2, self.quadrature_mean,
                                           QUADRATURE_GAMMA, "quadrature",
                                           support=self.quadrature_support)

        ops.append(Op("js_m_gamma[quadrature]", quadrature,
                      lambda out: (abs(out - self.quadrature_ref)
                                   <= ref.quadrature_abs_tol(QUADRATURE_GAMMA)),
                      reused=True))
        return ops

    def extras(self, records: list) -> dict[str, float]:
        return mc_rates(records)


def mc_rates(records: list) -> dict[str, float]:
    """Draws per second at 1 and 2 workers, their ratio per d, quadrature time."""
    def rate(select) -> float:
        chosen = [r for r in records if r.samples and select(r)]
        busy = sum(r.latency for r in chosen)
        return sum(r.samples for r in chosen) / busy if busy > 0 else 0.0

    out = {"estimate.samples_per_s_1w": rate(lambda r: r.workers == 1),
           "estimate.samples_per_s_2w": rate(lambda r: r.workers == 2)}
    for d in ("d1", "d8"):
        one = rate(lambda r: r.workers == 1 and r.group == d)
        two = rate(lambda r: r.workers == 2 and r.group == d)
        out[f"estimate.parallel_efficiency.{d}"] = two / (2.0 * one) if one > 0 else 0.0
    quad = [r.latency for r in records if r.name == "js_m_gamma[quadrature]"]
    out["estimate.quadrature_s"] = statistics.median(quad) if quad else 0.0
    return out


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

COMPUTE_KEYS = {"value", "base", "method"}
CLI_MC_SAMPLES = 20_000


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], stderr_path: Path) -> ProcessResult:
    """Run one child to completion and reap it with wait4, which returns the
    child's own peak RSS."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(Path(stderr_path).read_text(encoding="utf-8")[-2000:])
    return ProcessResult(proc.returncode, stdout, usage.ru_maxrss / 1024.0)


class CliCold(Workload):
    name = "cli_cold"
    traced_cycles = 1
    in_process = False

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.tracer: Tracer | None = None
        self.children = 0
        self.child_info: list[dict] = []
        self.rss: list[float] = []
        self.dir = OUT / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.stderr = self.dir / "stderr.txt"
        rng = np.random.default_rng([seed, 3])
        self.weights = (discrete_weights(rng, 8), discrete_weights(rng, 8))
        self.closed_pair = (gaussian_moments(rng, 2), gaussian_moments(rng, 2))
        self.pair_1d = (mc_moments(rng, 1), mc_moments(rng, 1))
        for name, w in zip(("p1.txt", "p2.txt"), self.weights):
            (self.dir / name).write_text("\n".join(repr(float(x)) for x in w) + "\n")
        for prefix, pair in (("g", self.closed_pair), ("h", self.pair_1d)):
            for k, (mu, sigma) in enumerate(pair, start=1):
                (self.dir / f"{prefix}{k}.json").write_text(json.dumps(
                    {"mu": mu.tolist(), "sigma": sigma.tolist()}))
        code = run_process(self.argv(self.commands(0)[0][1]), self.stderr).code
        if code != 0:
            raise RuntimeError(f"warm-up compute exited with {code}")

    def commands(self, index: int) -> list[tuple[str, list[str]]]:
        def f(name: str) -> str:
            return str(self.dir / name)

        discrete_files = ["--p1", f("p1.txt"), "--p2", f("p2.txt")]
        closed = ["--gaussian", "--p1", f("g1.json"), "--p2", f("g2.json")]
        one_d = ["--gaussian", "--p1", f("h1.json"), "--p2", f("h2.json")]
        return [
            ("exact", ["compute", "--div", "js", *discrete_files]),
            ("closed-form", ["compute", "--div", "gjsd", *closed]),
            ("monte-carlo", ["compute", "--div", "js", *one_d, "--samples",
                             str(CLI_MC_SAMPLES), "--seed", str(self.seed + index)]),
            ("quadrature", ["compute", "--div", "js_m_gamma", "--mean", "power:0.5",
                            *one_d]),
        ]

    def argv(self, args: list[str]) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "geojsd", *args]
        return [sys.executable, str(ROOT / "bench" / "cli_child.py"),
                str(self.dir / f"spans-{self.children}.txt.gz"),
                repr(time.perf_counter()), "--", *args]

    def prepare_checks(self) -> None:
        w1, w2 = self.weights
        (m1, s1), (m2, s2) = self.closed_pair
        (h1, v1), (h2, v2) = self.pair_1d
        support = support_1d(h1, v1, h2, v2)
        self.expected = {
            "exact": ref.js(w1, w2),
            "closed-form": ref.GaussianPairRef(m1, s1, m2, s2),
            "monte-carlo": ref.js_1d(float(h1[0]), float(v1[0, 0]), float(h2[0]),
                                     float(v2[0, 0]), support),
            "quadrature": ref.js_m_gamma_1d(float(h1[0]), float(v1[0, 0]), float(h2[0]),
                                            float(v2[0, 0]), 0.5, QUADRATURE_GAMMA,
                                            support),
        }

    def _check(self, route: str, out: ProcessResult) -> bool:
        if out.code != 0:
            return False
        result = json.loads(out.stdout)
        keys = COMPUTE_KEYS | ({"std_error"} if route == "monte-carlo" else set())
        if set(result) != keys or result["method"] != route:
            return False
        value = result["value"]
        expected = self.expected[route]
        if route == "exact":
            return ref.matches(value, [expected])
        if route == "closed-form":
            return expected.ok("gjsd_gaussian", value)
        if route == "monte-carlo":
            return ref.within_sigmas(value, result["std_error"], expected)
        return abs(value - expected) <= ref.quadrature_abs_tol(QUADRATURE_GAMMA)

    def _spawn(self, args: list[str]) -> ProcessResult:
        out = run_process(self.argv(args), self.stderr)
        if self.tracer is not None:
            self._collect(self.children)
        else:
            self.rss.append(out.max_rss_mb)
        self.children += 1
        return out

    def _collect(self, child: int) -> None:
        path = self.dir / f"spans-{child}.txt.gz"
        self.child_info.append(self.tracer.load(path, prefix=child + 1))
        path.unlink()

    def cycle(self, index: int) -> list[Op]:
        return [Op(f"compute[{route}]", lambda args=args: self._spawn(args),
                   lambda out, route=route: self._check(route, out))
                for route, args in self.commands(index)]

    def build_inputs(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer

    def peak_rss_mb(self) -> float:
        return max(self.rss)

    def finish(self) -> tuple[list[Record], dict[str, float]]:
        """``verify all`` once: exit 0 and every check reported as passed.

        The text report is read, not ``--json``: at the time of writing,
        ``verify gaussian_oracle --json`` exits 1 with a TypeError (a numpy
        bool in ``Check.passed``), which is a library defect of its own.
        """
        op = Op("verify[all]", lambda: self._spawn(["verify", "all"]),
                lambda out: out.code == 0 and verify_failures(out.stdout) == 0)
        record = execute(op)
        failures = verify_failures(record.output)
        return [record], {"verification.verify_all_s": record.latency,
                          "verification.checks_failed": float(
                              -1 if failures is None else failures)}

    def traced_extras(self, tracer: Tracer) -> dict[str, float]:
        compute = [h for h in self.child_info if h["argv"][0] == "compute"]
        return {
            "cli.interpreter_s": statistics.median(h["interpreter_s"] for h in compute),
            "cli.import_s": statistics.median(h["import_s"] for h in compute),
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def verify_failures(report: str) -> int | None:
    """Failed checks in a ``verify`` text report; None if it has no checks."""
    status = [line.split(None, 1)[0] for line in report.splitlines()
              if line.startswith(("PASS ", "FAIL "))]
    return status.count("FAIL") if status else None


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ReusedLarge, MonteCarlo, CliCold)}
