"""Tests of the benchmark's own logic.

Run from the repository root:  python -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentiles and failure counting ---------------------------------------

def test_percentiles_carry_their_sample_count():
    summary = metrics.percentiles([5.0, 1.0, 4.0, 2.0, 3.0])
    assert summary == {"p50": 3.0, "p90": 4.6, "samples": 5}


def test_percentiles_of_one_sample():
    assert metrics.percentiles([7.0]) == {"p50": 7.0, "p90": 7.0, "samples": 1}
    with pytest.raises(ValueError):
        metrics.percentiles([])


def test_failed_ratio_counts_exceptions_and_failed_checks():
    def boom():
        raise ArithmeticError("raised inside the library call")

    ops = [workloads.Op("passes", lambda: 1.0, lambda out: out == 1.0),
           workloads.Op("raises", boom, lambda out: True),
           workloads.Op("wrong", lambda: 2.0, lambda out: out == 1.0),
           workloads.Op("check_raises", lambda: 1.0, lambda out: 1 / 0)]
    records = [workloads.execute(op) for op in ops]
    assert [r.ok for r in records] == [True, False, False, False]
    failed = sum(not r.ok for r in records)
    assert metrics.failed_ratio(len(records), failed) == 0.75
    assert metrics.failed_ratio(10, 0) == 0.0
    with pytest.raises(ValueError):
        metrics.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_ratio(2, 3)


# -- self time ----------------------------------------------------------------

def test_covered_merges_overlapping_intervals_and_clips_to_the_span():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_of_nested_spans():
    spans = [Span(0, "outer", 0.0, 10.0, None, 1),
             Span(1, "middle", 1.0, 7.0, 0, 1),
             Span(2, "inner", 2.0, 3.0, 1, 1),
             Span(3, "inner", 4.0, 6.0, 1, 1)]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 3.0, 2: 1.0, 3: 2.0}


def test_self_time_with_children_on_other_threads():
    # two parallel chunks overlap in time; only their union is subtracted
    spans = [Span(0, "estimate", 0.0, 10.0, None, 1),
             Span(1, "chunk", 1.0, 6.0, 0, 2),
             Span(2, "chunk", 2.0, 8.0, 0, 3)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_adopts_pool_spans_into_the_submitting_call():
    tracer = Tracer()
    chunk = tracer.wrap(lambda x: x * 2, "chunk")

    def estimate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(chunk, range(4)))

    assert tracer.wrap(estimate, "estimate")() == 12
    outer = next(s for s in tracer.spans if s.name == "estimate")
    chunks = [s for s in tracer.spans if s.name == "chunk"]
    assert len(chunks) == 4
    assert all(s.parent == outer.sid for s in chunks)
    assert any(s.thread != threading.get_ident() for s in chunks)


def test_install_wraps_public_functions_and_uninstall_restores_them():
    from geojsd import cli, discrete, means, verification
    originals = (discrete.js, means.evaluate, cli.main,
                 discrete.DiscreteDensity.__init__, dict(verification.SUITES))
    tracer = Tracer()
    tracer.install()
    try:
        assert discrete.js is not originals[0]
        p = discrete.DiscreteDensity.probability([0.25, 0.75])
        q = discrete.DiscreteDensity.probability([0.5, 0.5])
        value = discrete.js_m(p, q, means.MeanSpec.geometric())
    finally:
        tracer.uninstall()
    assert (discrete.js, means.evaluate, cli.main,
            discrete.DiscreteDensity.__init__, dict(verification.SUITES)) == originals
    names = {s.name for s in tracer.spans}
    assert {"discrete.DiscreteDensity", "discrete.js_m", "discrete.m_mixture",
            "means.evaluate"} <= names
    untraced = discrete.js_m(p, q, means.MeanSpec.geometric())
    assert repr(untraced) == repr(value)


def test_layer_metrics_from_spans():
    spans = [Span(0, "discrete.js", 0.0, 2.0, None, 1, size=8),
             Span(1, "discrete.js", 3.0, 7.0, None, 1, size=8),
             Span(2, "discrete.js_m", 10.0, 20.0, None, 1, size=1_000_000),
             Span(3, "discrete.m_mixture", 11.0, 15.0, 2, 1, size=1_000_000),
             Span(4, "means.evaluate", 12.0, 14.0, 3, 1, size=1_000_000)]
    out = metrics.layer_metrics(spans, op_seconds=16.0)
    assert out["discrete.js.a8.p50_us"] == pytest.approx(3e6)
    assert out["discrete.js_m.a1m.p50_us"] == pytest.approx(1e7)
    assert out["discrete.js_m.self_s"] == pytest.approx(6.0)
    assert out["discrete.m_mixture.self_s"] == pytest.approx(2.0)
    assert out["means.evaluate.elements_per_s"] == pytest.approx(5e5)
    # only the two top-level js calls and js_m count; m_mixture is nested
    assert out["discrete.atoms_per_s"] == pytest.approx(1_000_016 / 16.0)
    assert out["trace.max_function_share"] == pytest.approx(10.0 / 16.0)
    assert out["trace.spans"] == 5.0


def test_span_file_round_trip(tmp_path):
    tracer = Tracer()
    tracer.spans = [Span(0, "cli.main", 1.5, 2.25, None, 7, 0),
                    Span(1, "discrete.js", 1.75, 2.0, 0, 7, 8)]
    tracer.dump(tmp_path / "spans.txt.gz", {"argv": ["compute"]})
    merged = Tracer()
    header = merged.load(tmp_path / "spans.txt.gz", prefix=1)
    assert header == {"argv": ["compute"]}
    offset = 1 << 32
    assert merged.spans == [Span(offset, "cli.main", 1.5, 2.25, None, 7 + offset, 0),
                            Span(1 + offset, "discrete.js", 1.75, 2.0, offset,
                                 7 + offset, 8)]


# -- correctness gate -----------------------------------------------------------

def _small_pair(seed: int = 0):
    rng = np.random.default_rng(seed)
    return workloads.discrete_weights(rng, 8), workloads.discrete_weights(rng, 8)


def test_gate_passes_true_outputs_and_fires_on_perturbed_references():
    lib = workloads.library()
    w1, w2 = _small_pair()
    p1 = lib.discrete.DiscreteDensity.probability(w1)
    p2 = lib.discrete.DiscreteDensity.probability(w2)
    geo = lib.MeanSpec.geometric()
    refs = workloads.discrete_refs("js_m", geo, w1, w2)
    assert len(refs) == 2   # JS + KL(A, M) and J/4 - B

    def run():
        return lib.discrete.js_m(p1, p2, geo)

    good = workloads.execute(workloads.Op("js_m", run,
                                          workloads.discrete_check("js_m", geo, w1, w2, refs)))
    perturbed = [r + 1e-9 for r in refs]
    bad = workloads.execute(workloads.Op("js_m", run,
                                         workloads.discrete_check("js_m", geo, w1, w2,
                                                                  perturbed)))
    assert good.ok and not bad.ok
    assert metrics.failed_ratio(2, sum(not r.ok for r in (good, bad))) == 0.5


def test_gate_checks_chernoff_value_and_equalizer():
    lib = workloads.library()
    w1, w2 = _small_pair(1)
    value, alpha = lib.discrete.chernoff(lib.discrete.DiscreteDensity.probability(w1),
                                         lib.discrete.DiscreteDensity.probability(w2))
    assert ref.chernoff_ok(w1, w2, (value, alpha))
    assert not ref.chernoff_ok(w1, w2, (value + 1e-9, alpha))
    assert not ref.chernoff_ok(w1, w2, (value, alpha + 1e-3))


def test_gaussian_references_agree_with_the_library_and_reject_a_shift():
    lib = workloads.library()
    rng = np.random.default_rng(2)
    (m1, s1), (m2, s2) = workloads.gaussian_moments(rng, 8), workloads.gaussian_moments(rng, 8)
    g1, g2 = lib.gaussian.GaussianParams(m1, s1), lib.gaussian.GaussianParams(m2, s2)
    pair = ref.GaussianPairRef(m1, s1, m2, s2)
    for op in workloads.GAUSSIAN_OPS:
        value = workloads.gaussian_call(lib, op, g1, g2)
        assert pair.ok(op, value), op
        assert not pair.ok(op, value + 1e-6 * pair.scale), op


def test_monte_carlo_geometric_estimate_within_sigmas_of_closed_form():
    lib = workloads.library()
    rng = np.random.default_rng(3)
    (m1, s1), (m2, s2) = workloads.mc_moments(rng, 1), workloads.mc_moments(rng, 1)
    est = lib.estimate
    d1 = est.gaussian_sampled(lib.gaussian.GaussianParams(m1, s1))
    d2 = est.gaussian_sampled(lib.gaussian.GaussianParams(m2, s2))
    value, se = est.estimate_js_m_extended(d1, d2, lib.MeanSpec.geometric(),
                                           est.EstimatorConfig(samples=1 << 16, seed=5))
    closed = ref.GaussianPairRef(m1, s1, m2, s2).gjsd_extended
    assert ref.within_sigmas(value, se, closed)
    assert not ref.within_sigmas(value, se, closed + 10 * ref.MC_SIGMAS * se)


def test_gamma_divergence_reference_matches_the_closed_form_route():
    lib = workloads.library()
    rng = np.random.default_rng(4)
    (m1, s1), (m2, s2) = workloads.mc_moments(rng, 8), workloads.mc_moments(rng, 8)
    fam = lib.expfam.gaussian_family(8)
    e1 = lib.expfam.ExpFamilyDensity(fam, lib.gaussian.natural_flat(
        lib.gaussian.GaussianParams(m1, s1)))
    e2 = lib.expfam.ExpFamilyDensity(fam, lib.gaussian.natural_flat(
        lib.gaussian.GaussianParams(m2, s2)))
    library_value = lib.estimate.gamma_divergence(e1, e2, 0.5, "closed_form")
    assert ref.gauss_gamma_divergence(m1, s1, m2, s2, 0.5) == pytest.approx(
        library_value, rel=1e-10)


def test_power_reference_does_not_depend_on_its_chunk_size():
    rng = np.random.default_rng(5)
    (m1, s1), (m2, s2) = workloads.mc_moments(rng, 8), workloads.mc_moments(rng, 8)
    whole = ref.power_mc_reference(m1, s1, m2, s2, -0.5, 5000, seed=9, chunk=5000)
    chunked = ref.power_mc_reference(m1, s1, m2, s2, -0.5, 5000, seed=9, chunk=1024)
    for key in ("z", "js_plus"):
        assert chunked[key] == pytest.approx(whole[key], rel=1e-9)


def test_verify_report_parsing():
    report = "PASS  a  ok\nFAIL  b  residual 1e-3\nPASS  c  ok\n----\n2 passed, 1 failed\n"
    assert workloads.verify_failures(report) == 1
    assert workloads.verify_failures("Traceback (most recent call last):\n") is None


# -- inputs -----------------------------------------------------------------------

def _reused_large(seed: int) -> tuple[list[str], np.ndarray]:
    w = workloads.ReusedLarge()
    w.setup(seed)
    w.prepare_checks()
    return [repr(op.run()) for op in w.small_ops()], w.raw_discrete[0][0]


def test_seed_decides_the_inputs():
    first, large = _reused_large(1)
    again, large_again = _reused_large(1)
    assert first == again and np.array_equal(large, large_again)
    other, large_other = _reused_large(2)
    assert len(other) == len(first)
    assert all(a != b for a, b in zip(first, other))
    assert not np.array_equal(large, large_other)


def test_monte_carlo_inputs_depend_on_the_seed():
    a, b = workloads.MonteCarlo(), workloads.MonteCarlo()
    a.setup(1)
    b.setup(2)
    assert not np.array_equal(a.moments[8][0][1], b.moments[8][0][1])


# -- names ------------------------------------------------------------------------

def test_every_emitted_name_is_well_formed():
    names = [n for n, _, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(u) for _, u, _ in metrics.END_TO_END + metrics.PER_LAYER)
    assert all(metrics.NAME_RE.match(w) for w in workloads.WORKLOADS)


def test_benchmark_json_lists_the_metrics_the_harness_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert next(m for m in spec["end_to_end"] if m["name"] == "setup_s")["bound"] == \
        max(m["bound"] for m in spec["end_to_end"])
