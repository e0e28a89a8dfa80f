"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload search|reshard|serve \
        --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload up three times (``setup_s`` is the
import time plus the median set-up), runs whole rounds for about
``--seconds`` seconds, checks every output independently and prints the
end-to-end metrics.  ``--trace 1`` first runs the same untraced, then
replays exactly as many rounds with every layer wrapped by the span
recorder (:mod:`spans`), and prints the per-layer metrics, the tracing
overhead and the share of operation time no span covers; the spans are
written to ``perfbench/_out/trace-<workload>-<seed>.json``.

The last line of standard output is the result object; progress goes to
standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(result, setup_times) -> dict:
    return {
        "setup_s": metric(IMPORT_S + statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "ops_per_s": metric(
            (result.attempted - result.failed) / result.wall_s, "1/s"
        ),
        "op_p50_ms": metric(statistics.median(result.latencies_ms), "ms"),
        "embedding_cost_ms": metric(result.embedding_cost_ms, "ms"),
    }


def _serve_pairs(recorder, requests):
    """Per HTTP request: (round trip, time inside the service verb).

    Each client keeps one request in flight for its own deployment, so
    the outermost service span of that deployment inside the request's
    window is the verb that served it.
    """
    by_name: dict[str, list] = {}
    for span in recorder.spans:
        if span[spans.LAYER] == "service" and span[spans.OUTER]:
            by_name.setdefault(span[spans.ATTRS], []).append(span)
    for entries in by_name.values():
        entries.sort(key=lambda s: s[spans.START])
    pairs = []
    cursor: dict[str, int] = {}
    for name, t0, t1 in sorted(requests, key=lambda r: r[1]):
        entries = by_name.get(name, [])
        i = cursor.get(name, 0)
        while i < len(entries) and entries[i][spans.START] < t0:
            i += 1
        inside = 0.0
        while i < len(entries) and entries[i][spans.END] <= t1:
            inside += entries[i][spans.END] - entries[i][spans.START]
            i += 1
        cursor[name] = i
        pairs.append((t1 - t0, inside))
    return pairs


def per_layer(recorder, counters, traced, untraced, workload) -> dict:
    ops = max(traced.attempted, 1)
    totals = recorder.layer_totals()

    def layer(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def per_op(value, unit):
        return metric(value / ops, unit)

    names_by_layer: dict[tuple[str, str], int] = {}
    for span in recorder.spans:
        key = (span[spans.LAYER], span[spans.NAME].rsplit(".", 1)[-1])
        names_by_layer[key] = names_by_layer.get(key, 0) + (
            1 if span[spans.OUTER] else 0
        )
    simulator_batch = sum(
        n for (lay, fn), n in names_by_layer.items()
        if lay == "simulator" and fn.endswith("_batch")
    )
    simulator_single = sum(
        n for (lay, fn), n in names_by_layer.items()
        if lay == "simulator" and fn in ("plan_cost", "device_compute_costs")
    )
    lookups, hits = recorder.cache_counts
    padded = counters["kernel_padded"]

    # Engine spans directly under a reshard span: the full re-search.
    full_search = sum(
        span[spans.END] - span[spans.START]
        for span in recorder.spans
        if span[spans.LAYER] == "engine"
        and span[spans.PARENT] is not None
        and span[spans.PARENT][spans.LAYER] == "reshard"
    )

    if workload == "serve":
        pairs = _serve_pairs(recorder, traced.extra["requests"])
        overhead = [1000 * (rtt - inside) for rtt, inside in pairs]
        uncovered = sum(rtt - inside for rtt, inside in pairs) / sum(
            rtt for rtt, _ in pairs
        )
        rtt_p90 = percentile(untraced.latencies_ms, 0.9)
    else:
        overhead = [0.0]
        op_total = covered = 0.0
        for span in recorder.spans:
            if span[spans.LAYER] == "op":
                op_total += span[spans.END] - span[spans.START]
            elif span[spans.PARENT] is not None and (
                span[spans.PARENT][spans.LAYER] == "op"
            ):
                covered += span[spans.END] - span[spans.START]
        uncovered = (op_total - covered) / op_total
        rtt_p90 = 0.0

    return {
        "kernels.calls": per_op(layer("kernels", "calls"), "count/op"),
        "kernels.rows": per_op(counters["kernel_rows"], "count/op"),
        "kernels.row_fill": metric(
            counters["kernel_rows"] / padded if padded else 0.0, "ratio"
        ),
        "kernels.s": per_op(layer("kernels", "incl_s"), "s/op"),
        "features.s": per_op(layer("features", "incl_s"), "s/op"),
        "simulator.batch_calls": per_op(simulator_batch, "count/op"),
        "simulator.single_calls": per_op(simulator_single, "count/op"),
        "simulator.self_s": per_op(layer("simulator", "self_s"), "s/op"),
        "cache.lookups": per_op(lookups, "count/op"),
        "cache.hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "grid.calls": per_op(layer("grid", "calls"), "count/op"),
        "grid.self_s": per_op(layer("grid", "self_s"), "s/op"),
        "beam.evaluations": per_op(counters["beam_evaluations"], "count/op"),
        "beam.self_s": per_op(layer("beam", "self_s"), "s/op"),
        "engine.self_s": per_op(layer("engine", "self_s"), "s/op"),
        "reshard.self_s": per_op(layer("reshard", "self_s"), "s/op"),
        "reshard.full_search_s": per_op(full_search, "s/op"),
        "reshard.migrated_mb": metric(untraced.extra.get("migrated_mb", 0.0), "MB"),
        "reshard.carry_p50_ms": metric(untraced.extra.get("carry_ms", 0.0), "ms"),
        "reshard.carry_shards": metric(
            untraced.extra.get("carry_shards", 0), "count"
        ),
        "diff.calls": per_op(layer("diff", "calls"), "count/op"),
        "diff.s": per_op(layer("diff", "incl_s"), "s/op"),
        "table.uid_reads": per_op(next(recorder.uid_reads), "count/op"),
        "server.overhead_p50_ms": metric(statistics.median(overhead), "ms"),
        "server.rtt_p90_ms": metric(rtt_p90, "ms"),
        "schema.s": per_op(layer("schema", "incl_s"), "s/op"),
        "store.writes": per_op(layer("store.write", "calls"), "count/op"),
        "store.write_s": per_op(layer("store.write", "incl_s"), "s/op"),
        "store.reads": per_op(layer("store.read", "calls"), "count/op"),
        "store.read_s": per_op(layer("store.read", "incl_s"), "s/op"),
        "validator.calls": per_op(layer("validator", "calls"), "count/op"),
        "validator.s": per_op(layer("validator", "incl_s"), "s/op"),
        "provenance.digest_calls": per_op(layer("provenance", "calls"), "count/op"),
        "provenance.s": per_op(layer("provenance", "incl_s"), "s/op"),
        "audit.s": per_op(layer("audit", "incl_s"), "s/op"),
        "service.self_s": per_op(layer("service", "self_s"), "s/op"),
        "trace.overhead_pct": metric(
            100 * (traced.wall_s / untraced.wall_s - 1), "%"
        ),
        "trace.uncovered_share": metric(uncovered, "ratio"),
    }


def _run_once(workload, seconds=None, rounds=None, recorder=None):
    """Set up, run (traced when a recorder is given), verify, tear down."""
    state = workload.setup()
    counters = None
    try:
        if recorder is not None:
            counters = spans.install_layers(recorder)
        try:
            result = workload.run(
                state, seconds=seconds, rounds=rounds, recorder=recorder
            )
        finally:
            if recorder is not None:
                recorder.uninstall()
        workload.verify(state, result)
    finally:
        workload.teardown(state)
    return result, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed)

    errors = checks.selftest()
    if args.trace == 0:
        setup_times = []
        state = None
        try:
            for _ in range(SETUP_REPEATS):
                if state is not None:
                    workload.teardown(state)
                    state = None
                started = time.perf_counter()
                state = workload.setup()
                setup_times.append(time.perf_counter() - started)
            result = workload.run(state, seconds=args.seconds)
            workload.verify(state, result)
        finally:
            if state is not None:
                workload.teardown(state)
        metrics = end_to_end(result, setup_times)
    else:
        untraced, _ = _run_once(workload, seconds=args.seconds)
        recorder = spans.Recorder()
        result, counters = _run_once(
            workload, rounds=untraced.rounds, recorder=recorder
        )
        errors += untraced.errors
        metrics = per_layer(recorder, counters, result, untraced, args.workload)
        recorder.dump(HERE / "_out" / f"trace-{args.workload}-{args.seed}.json")

    errors += result.errors
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {result.rounds} rounds, "
        f"{result.attempted} ops, {result.failed} failed, "
        f"{result.wall_s:.2f}s measured",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
