"""Run one workload: set it up, measure it (or trace it), check it, report it.

The last line of standard output is the result the benchmark contract asks
for; the line before it is a JSON record with everything else a reader needs
to interpret the numbers (environment, input properties, failed_ratio,
sample counts, per-operation medians).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, UNITS, failed_ratio, layer_metrics, percentiles
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 5   # setup_s is the median of this many set-ups, each in its own process


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="geojsd benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("reused_large", "monte_carlo", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_setup(name: str, seed: int):
    """Import the library, generate and construct inputs, warm up."""
    start = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed)
    return workload, time.perf_counter() - start


def setup_in_child(args: argparse.Namespace) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise RuntimeError(f"set-up child exited with {out.returncode}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_window(workload, seconds: float) -> tuple[list, int]:
    """Whole cycles until at least ``seconds`` of wall time have passed.

    Returns the records and the number of cycles.
    """
    import workloads
    records = []
    cycles = 0
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        records += [workloads.execute(op) for op in workload.cycle(cycles)]
        cycles += 1
    return records, cycles


def run_cycles(workload, cycles: int) -> list:
    import workloads
    return [workloads.execute(op) for c in range(cycles) for op in workload.cycle(c)]


def busy(records: list) -> float:
    return sum(r.latency for r in records)


def end_to_end(workload, window: list, setup_times: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles over the whole window of whole cycles."""
    pcts = percentiles([r.latency for r in window])
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(window) / busy(window),
        "latency_p50_ms": pcts["p50"] * 1e3,
        "latency_p90_ms": pcts["p90"] * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def traced(workload, args) -> tuple[dict[str, float], list, list, bool]:
    """Replay a fixed set of cycles untraced, then traced; compare outputs.

    Returns (per-layer metrics, untraced records, traced records, identical).
    """
    base = run_cycles(workload, workload.traced_cycles)
    base_finish, finish_numbers = workload.finish()
    tracer = Tracer()
    if workload.in_process:
        tracer.install()
    try:
        workload.build_inputs(tracer)
        spans_from = len(tracer.spans)
        again = run_cycles(workload, workload.traced_cycles)
        again_finish, _ = workload.finish()
    finally:
        tracer.uninstall()
        workload.build_inputs(None)
    identical = ([r.output for r in base + base_finish]
                 == [r.output for r in again + again_finish])

    layers = {name: 0.0 for name, _, _ in PER_LAYER}
    layers.update(layer_metrics(tracer.spans, busy(again + again_finish)))
    layers.update(workload.extras(base))
    layers.update(finish_numbers)
    layers.update(workload.traced_extras(tracer))
    layers["trace.overhead_ratio"] = busy(base) / busy(again)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.txt.gz",
                {"workload": args.workload, "seed": args.seed,
                 "setup_spans": spans_from})
    return layers, base + base_finish, again + again_finish, identical


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = 0
    array_bytes = 8 * 1_000_000
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "llc_bytes": llc,
        "llc_note": (f"a 1M-atom weight array is {array_bytes / 2**20:.1f} MiB and the "
                     f"last-level cache {llc / 2**20:.0f} MiB, so discrete.atoms_per_s "
                     + ("measures a cache-resident kernel, not DRAM bandwidth"
                        if 0 < 4 * array_bytes <= llc else
                        "may include DRAM traffic")),
    }


def op_summary(records: list) -> dict[str, dict]:
    by_name: dict[str, list] = {}
    for r in records:
        by_name.setdefault(r.name, []).append(r)
    return {name: {"calls": len(rs),
                   "p50_ms": statistics.median(r.latency for r in rs) * 1e3,
                   "failed": sum(not r.ok for r in rs)}
            for name, rs in sorted(by_name.items())}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "geojsd" / "__init__.py").is_file():
        sys.stderr.write(f"error: library sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        workload, seconds = timed_setup(args.workload, args.seed)
        workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    # setup_s is an end-to-end metric, so a traced run sets up only once
    setup_times = [setup_in_child(args) for _ in range(0 if args.trace else SETUP_RUNS - 1)]
    workload, seconds = timed_setup(args.workload, args.seed)
    setup_times.append(seconds)
    try:
        workload.prepare_checks()
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "setup_runs_s": setup_times}
        if args.trace:
            metrics, base, again, identical = traced(workload, args)
            records = base + again
            record["outputs_identical_traced_untraced"] = identical
            names = [name for name, _, _ in PER_LAYER]
        else:
            window, cycles = run_window(workload, args.seconds)
            metrics = end_to_end(workload, window, setup_times)
            finish_records, extras = workload.finish()
            records = window + finish_records
            identical = True
            record.update(cycles=cycles,
                          latency_samples=len(window),
                          reused_input_share=sum(r.reused for r in window) / len(window),
                          **workload.extras(window), **extras)
            names = [name for name, _, _ in END_TO_END]
    finally:
        workload.close()

    failed = sum(not r.ok for r in records)
    record["failed_ratio"] = failed_ratio(len(records), failed)
    record["environment"] = environment()
    record["ops"] = op_summary(records)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }))
    return 0
