"""Benchmark of the streaming reachability service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 40 --trace 0

The run generates its inputs and reference answers from ``--seed``, then
repeats rounds (set-up plus measured phase, each on a fresh service) for
about ``--seconds``.  Times are scaled to a reference host speed by the
probe in ``calibrate.py``.  It prints every metric with its unit and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  A traced run alternates untraced and traced rounds, so
it also reports the tracing overhead, and writes its spans under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import SpeedProbe  # noqa: E402
from tracing import Span, Tracer, layer_targets, self_time, self_times, write_spans  # noqa: E402
from workloads import PATHS, WORKLOADS, Inputs, Round, make_inputs, run_round, warm_up  # noqa: E402

Metrics = Dict[str, Tuple[float, str]]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Restart the peak-RSS mark so input generation is not counted."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError as exc:
        print(f"peak RSS not reset ({exc}); it includes input generation", file=sys.stderr)


def end_to_end(rounds: List[Round], rss_mb: float) -> Tuple[Metrics, Dict[str, str]]:
    """End-to-end metrics of untraced rounds, plus each one's sample basis.

    Every time is already scaled to reference host speed (see
    ``calibrate.py``), so the host's drift between and within runs cancels.
    """
    visible = [s for r in rounds for s in r.visible_s]
    queries = [s for r in rounds for s in r.query_s]
    setups = [s for r in rounds for s in r.setup_s]
    io = [i for r in rounds for i in r.query_io]
    live = sum(r.after["live_blocks"] for r in rounds)
    written = sum(r.after["writes"] for r in rounds)
    allocated = live + sum(r.after["garbage_blocks"] for r in rounds)
    metrics: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ingest_events_per_s": (
            ratio(sum(r.events for r in rounds), sum(r.ingest_s for r in rounds)), "events/s",
        ),
        "visible_ms_p50": (percentile(visible, 0.50) * 1e3, "ms"),
        "visible_ms_p90": (percentile(visible, 0.90) * 1e3, "ms"),
        "query_ms_p50": (percentile(queries, 0.50) * 1e3, "ms"),
        "query_ms_p99": (percentile(queries, 0.99) * 1e3, "ms"),
        "query_io_mean": (mean(io), "io"),
        "write_amp": (ratio(written, live), "ratio"),
        "space_amp": (ratio(allocated, live), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }

    def beyond(n: int, fraction: float) -> str:
        return f"n={n}, {n - math.ceil(fraction * n)} beyond"

    basis = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ingest_events_per_s": f"{len(rounds)} streams",
        "visible_ms_p50": f"n={len(visible)}",
        "visible_ms_p90": beyond(len(visible), 0.90),
        "query_ms_p50": f"n={len(queries)} query positions",
        "query_ms_p99": beyond(len(queries), 0.99),
        "query_io_mean": f"n={len(io)} calls",
        "write_amp": f"{written} blocks written / {live} live, over all rounds",
        "space_amp": f"{allocated} allocated / {live} live, over all rounds",
    }
    return metrics, basis


def layer_metrics(r: Round) -> Metrics:
    """Per-layer metrics of one traced round."""
    groups: Dict[str, List[Span]] = {}
    for span in r.spans:
        groups.setdefault(span.name, []).append(span)

    def durations(name: str) -> List[float]:
        return [span.duration * 1e3 for span in groups.get(name, [])]

    def total_ms(name: str) -> float:
        return sum(durations(name))

    def delta(key: str) -> float:
        return r.after[key] - r.before[key]

    merges = durations("merge")
    quarter = len(merges) // 4
    prepared = [span.attrs or {} for span in groups.get("merge.prepare", [])]
    witnesses = [span.attrs or {} for span in groups.get("bmbfs", [])]
    has_bmbfs = {span.parent for span in groups.get("bmbfs", [])}
    own = self_time(r.spans)
    union_self = [
        own[span.span_id] * 1e3
        for span in groups.get("overlay.evaluate", [])
        if span.span_id not in has_bmbfs
    ]
    relabels, full = delta("label_relabels"), delta("label_full_relabels")
    pcache = delta("pcache_hits"), delta("pcache_misses")
    qcache = delta("cache_hits"), delta("cache_misses")
    reads = delta("random_reads"), delta("sequential_reads"), delta("buffer_hits")
    union_scanned = [visited for path, _, _, visited in r.paths if path == "union"]

    metrics: Metrics = {
        "ingest.busy_ms": (total_ms("ingest"), "ms"),
        "ingest.batch_ms_p50": (percentile(durations("ingest"), 0.5), "ms"),
        "ingest.contacts_closed": (delta("contacts_closed"), "count"),
        "merge.count": (float(len(merges)), "count"),
        "merge.prepare_ms_p50": (percentile(durations("merge.prepare"), 0.5), "ms"),
        "merge.build_ms_p50": (percentile(durations("merge.build"), 0.5), "ms"),
        "merge.adopt_ms_p50": (percentile(durations("merge.adopt"), 0.5), "ms"),
        "merge.busy_ms": (sum(merges), "ms"),
        "merge.growth": (
            ratio(percentile(merges[-quarter:], 0.5), percentile(merges[:quarter], 0.5))
            if quarter else 0.0,
            "ratio",
        ),
        "merge.inputs_kb_first": (mean([w["kb"] for w in prepared[:quarter]]), "KiB"),
        "merge.inputs_kb_last": (
            mean([w["kb"] for w in prepared[-quarter:]]) if quarter else 0.0, "KiB",
        ),
        "merge.prefix_contacts_last": (prepared[-1]["contacts"] if prepared else 0.0, "count"),
        "contacts.network_ms": (total_ms("contacts.network"), "ms"),
        "graph.patch_ms": (total_ms("graph.patch"), "ms"),
        "graph.apply_ms": (total_ms("graph.apply"), "ms"),
        "graph.records_written": (delta("graph_records_written"), "count"),
        "graph.vertices": (r.after["graph_vertices"], "count"),
        "graph.partitions": (r.after["graph_partitions"], "count"),
        "labels.patch_ms": (total_ms("labels.patch"), "ms"),
        "labels.full_relabels": (full, "count"),
        "labels.incremental_share": (ratio(relabels, relabels + full), "ratio"),
        "lsm.append_ms": (total_ms("lsm.append"), "ms"),
        "lsm.compact_ms": (total_ms("lsm.compact"), "ms"),
        "lsm.records_written": (delta("snapshot_records_written"), "count"),
        "lsm.compactions": (delta("compactions"), "count"),
        "lsm.read_ms": (total_ms("lsm.read"), "ms"),
        "lsm.reads": (float(len(groups.get("lsm.read", []))), "count"),
        "lsm.runs_skipped": (delta("runs_skipped"), "count"),
        "lsm.blocks_skipped": (delta("blocks_skipped"), "count"),
        "bloom.rejections": (delta("bloom_rejections"), "count"),
        "union.ms_p50": (percentile(union_self, 0.5), "ms"),
        "union.arrival_ms": (total_ms("union.arrival"), "ms"),
        "union.contacts_scanned_mean": (mean(union_scanned), "count"),
        "bmbfs.ms_p50": (percentile(durations("bmbfs"), 0.5), "ms"),
        "bmbfs.visited_mean": (mean([w["visited"] for w in witnesses]), "count"),
        "bmbfs.io_mean": (mean([w["io"] for w in witnesses]), "io"),
        "labels.rejections": (delta("label_rejections"), "count"),
        "labels.frontier_prunes": (delta("label_frontier_prunes"), "count"),
        "pcache.hit_rate": (ratio(pcache[0], sum(pcache)), "ratio"),
        "qcache.hit_rate": (ratio(qcache[0], sum(qcache)), "ratio"),
        "storage.random_reads": (reads[0], "count"),
        "storage.sequential_reads": (reads[1], "count"),
        "storage.writes": (delta("writes"), "count"),
        "storage.buffer_hit_rate": (ratio(reads[2], sum(reads)), "ratio"),
        "storage.live_blocks": (r.after["live_blocks"], "count"),
        "storage.garbage_blocks": (r.after["garbage_blocks"], "count"),
        "path.queries": (float(len(r.paths)), "count"),
    }
    for path in PATHS:
        taken = [(ms, io) for p, ms, io, _ in r.paths if p == path]
        metrics[f"path.{path}.count"] = (float(len(taken)), "count")
        metrics[f"path.{path}.share"] = (ratio(len(taken), len(r.paths)), "ratio")
        metrics[f"path.{path}.ms_p50"] = (percentile([t[0] for t in taken], 0.5) * 1e3, "ms")
        metrics[f"path.{path}.io_mean"] = (mean([t[1] for t in taken]), "io")
    per_name = self_times(r.spans)
    for name, _, _, _ in layer_targets():
        metrics[f"self_ms.{name}"] = (per_name.get(name, 0.0) * 1e3, "ms")
    metrics["trace.spans"] = (float(len(r.spans)), "count")
    return metrics


def error_rate(rounds: List[Round]) -> float:
    queries = sum(r.queries for r in rounds)
    return ratio(sum(r.mismatches + r.raised for r in rounds), queries)


def per_layer(rounds: List[Round]) -> Metrics:
    """Median of each per-layer metric over traced rounds, plus the overhead."""
    traced = [layer_metrics(r) for r in rounds if r.traced]
    metrics: Metrics = {
        name: (statistics.median(m[name][0] for m in traced), unit)
        for name, (_, unit) in traced[0].items()
    }
    untraced_busy = statistics.median(r.busy_s for r in rounds if not r.traced)
    traced_busy = statistics.median(r.busy_s for r in rounds if r.traced)
    metrics["trace.overhead"] = (ratio(traced_busy, untraced_busy), "ratio")
    metrics["error_rate"] = (error_rate(rounds), "ratio")
    return metrics


def run_rounds(
    streams: List[Inputs], seconds: float, trace: bool, probe: Optional[SpeedProbe] = None
) -> List[Round]:
    """Repeat cycles of rounds for ``seconds``.

    An untraced cycle runs one round per stream, so every stream weighs the
    same in the run's figures.  A traced cycle is an untraced and a traced
    round on the same stream, the next cycle on the next stream.  Another
    cycle starts only if one as long as the last still ends within
    ``seconds``, so runs do not overshoot by most of a cycle.  There is
    always at least one cycle.
    """
    probe = probe or SpeedProbe()
    rounds: List[Round] = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        for traced in (False, True) if trace else [False] * len(streams):
            number = len(rounds) // 2 if trace else len(rounds)
            gc.collect()
            tracer = Tracer() if traced else None
            rounds.append(run_round(streams[number % len(streams)], tracer, probe))
        now = time.perf_counter()
        if now - started + (now - began) > seconds:
            return rounds


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    made = time.perf_counter()
    streams = make_inputs(args.workload, args.seed)
    probe = SpeedProbe()
    warm_up(streams[0])
    made = time.perf_counter() - made
    # The generated stream and reference answers live for the whole run;
    # freezing them keeps the collector from rescanning them inside the
    # program's calls, which a service fed from the network would not pay.
    gc.collect()
    gc.freeze()
    reset_peak_rss()
    started = time.perf_counter()
    rounds = run_rounds(streams, args.seconds, bool(args.trace), probe)
    rss = peak_rss_mb()

    untraced = [r for r in rounds if not r.traced]
    e2e, basis = end_to_end(untraced, rss)
    failed = sum(r.mismatches + r.raised for r in rounds)
    print(f"workload {args.workload}, seed {args.seed}: inputs and warm-up in {made:.1f} s, "
          f"{len(rounds)} rounds "
          f"({len(rounds) - len(untraced)} traced) in {time.perf_counter() - started:.1f} s; "
          f"host speed factor per round {' '.join(f'{r.speed:.3f}' for r in rounds)}")
    for name, (value, unit) in e2e.items():
        note = f"  ({basis[name]})" if name in basis else ""
        print(f"  {name:<24} {value:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<24} {error_rate(rounds):>14.4f} ratio  "
          f"({failed} of {sum(r.queries for r in rounds)} queries)")
    metrics = e2e
    if args.trace:
        metrics = per_layer(rounds)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {unit}")
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out, [r.spans for r in rounds if r.traced])
        print(f"  spans written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
