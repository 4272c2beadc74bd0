"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup-miss --seed 1 --seconds 10 --trace 0

The workload runs in whole rounds until ``--seconds`` of wall time have
passed.  Every round is a fresh set-up from the same seed, so every round
models exactly the same operations; the runner checks that it does.

``--trace 0`` prints the end-to-end metrics: wall-clock ones measured
with ``time.perf_counter`` (``setup_s``, ``ops_per_s``) or the OS
(``peak_rss_mb``), and modelled ones in simulated time, all named
``sim_*``.  ``--trace 1`` runs with per-layer spans installed and prints
the per-layer metrics instead.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
output check names itself on stderr and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics and their units.  Wall-clock metrics never hold
#: simulated time and ``sim_*`` metrics never hold wall-clock time.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_us": "sim_us",
    "sim_latency_p99_us": "sim_us",
    "sim_ops_per_s": "ops/sim_s",
}

#: Per-layer metrics and their units (the --trace 1 output).
PER_LAYER = {
    "trace.wall_s": "s", "trace.ops_per_s": "ops/s",
    "sim.self_s": "s", "sim.events": "count", "sim.host_ns_per_event": "ns",
    "net.self_s": "s", "net.calls": "count", "net.frames": "count",
    "net.wire_bytes": "B", "net.frames_per_op": "ratio",
    "rdma.self_s": "s", "rdma.reads": "count", "rdma.writes": "count",
    "rdma.atomics": "count", "rdma.bytes_read": "B",
    "rdma.bytes_written": "B", "rdma.naks": "count",
    "rdma.retransmissions": "count",
    "switches.self_s": "s", "switches.tm_peak_bytes": "B",
    "switches.tm_drops": "count",
    "core.self_s": "s", "core.remote_lookups": "count",
    "core.reads_per_miss": "ratio", "core.cache_hit_ratio": "ratio",
    "core.faa_ops_issued": "count", "core.faa_updates_per_op": "ratio",
    "core.pktbuf_stored": "count", "core.pktbuf_loaded": "count",
    "cuckoo.self_s": "s", "cuckoo.kicks": "count",
    "tiering.self_s": "s", "tiering.promotions": "count",
    "tiering.demotions": "count", "tiering.moves_skipped": "count",
    "tiering.fast_hit_ratio": "ratio", "policies.self_s": "s",
    "cluster.self_s": "s", "cluster.counters_repaired": "count",
    "linkguard.self_s": "s", "linkguard.resent": "count",
    "linkguard.masked_losses": "count",
    "resilience.self_s": "s", "resilience.breaker_opens": "count",
    "faults.self_s": "s", "faults.corrupted_frames": "count",
    "apps.self_s": "s", "apps.connections_migrated": "count",
    "workloads.self_s": "s", "hosts.self_s": "s", "obs.self_s": "s",
    "testbed.self_s": "s", "bench.self_s": "s", "unattributed.self_s": "s",
}


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of already sorted exact samples."""
    rank = max(1, math.ceil(fraction * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def measure(cls, seed: int, seconds: float):
    """Whole rounds until *seconds* have passed: [(setup_s, run_s, result)]."""
    rounds = []
    start = time.perf_counter()
    while True:
        workload = cls(seed)
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        workload.run()
        t2 = time.perf_counter()
        result = workload.finish()
        rounds.append((t1 - t0, t2 - t1, result))
        del workload
        if time.perf_counter() - start >= seconds:
            return rounds


def signature(result) -> tuple:
    return (
        result.attempted, result.completed, result.injected_loss,
        result.latencies_ns, result.sim_span_ns, result.counts,
    )


def modelled(result) -> dict:
    """The ``sim_*`` metrics of one round, from its exact samples."""
    samples = sorted(result.latencies_ns)
    return {
        "sim_latency_p50_us": percentile(samples, 0.50) / 1e3,
        "sim_latency_p99_us": percentile(samples, 0.99) / 1e3,
        "sim_ops_per_s": result.completed / (result.sim_span_ns / 1e9),
    }


def summarize(name: str, rounds, tracer=None) -> dict:
    """Checks across rounds, then the metrics for the requested mode."""
    from checks import check, check_rounds_repeat

    first = rounds[0][2]
    for _setup, _run, result in rounds[1:]:
        check_rounds_repeat(f"{name}.rounds_repeat", signature(first),
                            signature(result))
    check(
        f"{name}.p99_supported",
        len(first.latencies_ns) >= 1000,
        f"{len(first.latencies_ns)} samples cannot support a p99",
    )
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(r[0] for r in rounds),
            "ops_per_s": statistics.median(r[2].completed / r[1] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        metrics.update(modelled(first))
        return {key: (metrics[key], unit) for key, unit in END_TO_END.items()}

    layers = tracer.report()
    # The self times add up to the traced wall time by construction
    # (unattributed is the rest); what can go wrong is a child span
    # outlasting its parent or the window, which leaves a negative one.
    negative = {k: v for k, v in layers.items()
                if k.endswith(".self_s") and v < -1e-9}
    check(f"{name}.trace_self_nonnegative", not negative,
          f"negative self times {negative}")
    n = len(rounds)
    metrics = dict(first.counts)
    metrics.update({k: v for k, v in layers.items() if k in PER_LAYER})
    metrics["trace.wall_s"] = tracer.wall_s
    # Untraced ops_per_s over this is the tracing overhead.
    metrics["trace.ops_per_s"] = statistics.median(
        r[2].completed / r[1] for r in rounds)
    metrics["net.calls"] = layers["net.spans"] / n
    events = first.counts["sim.events"] * n
    metrics["sim.host_ns_per_event"] = layers["sim.self_s"] * 1e9 / events
    return {key: (metrics[key], unit) for key, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from checks import CheckFailed
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin()
    correct = True
    try:
        rounds = measure(cls, args.seed, args.seconds)
        if tracer is not None:
            tracer.end()
            tracer.uninstall()
        metrics = summarize(args.workload, rounds, tracer)
    except CheckFailed as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        correct = False
        rounds, metrics = [], {}

    attempted = sum(r[2].attempted for r in rounds)
    failed = sum(r[2].failed for r in rounds)
    if rounds:
        first = rounds[0][2]
        print(
            f"perfbench workload={args.workload} seed={args.seed} "
            f"trace={args.trace} rounds={len(rounds)} "
            f"ops_attempted={attempted} ops_failed={failed} "
            f"injected_loss={sum(r[2].injected_loss for r in rounds)} "
            f"latency_samples={len(first.latencies_ns)}"
        )
        # The modelled figures in both modes, so traced and untraced runs
        # can be compared for equality.
        print("modelled " + " ".join(
            f"{key}={value!r}" for key, value in modelled(first).items()
        ))
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
