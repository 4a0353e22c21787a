"""Incremental ReachGraph maintenance: patch the DAG instead of rebuilding it.

Run with::

    python examples/incremental_graph_merges.py

Every streaming merge freezes the delta into the snapshot and extends the
ReachGraph fast path over the grown prefix.  Rebuilding the index on every
merge — reduction, augmentation, partitioning, every vertex record rewritten
— would make merge cost grow with the stream instead of with the delta.  The
streaming service builds the index once, at its first merge, and patches it
from then on: open component vertices at the frontier are extended or split
as new contacts arrive, newly complete augmentation windows add their long
edges, fresh vertices join fresh partitions, and only *dirty* partitions are
rewritten on disk.

The example drains one stream and prints the write ledgers next to what a
from-scratch batch build after every merge would have written (a full build
writes one record per vertex): ``graph_records_written`` (vertex records
written over the whole stream), ``graph_rebuilds`` (full builds — exactly 1)
and ``graph_superseded_blocks`` (on-device garbage the rewrites leave
behind).  The patched index must then answer every query exactly like a
batch :class:`~repro.reachgraph.ReachGraphIndex` built over the whole
dataset — patching may only change the cost, never an answer.
"""

from __future__ import annotations

import time
from typing import Tuple

from repro import ReachabilityEngine, StreamingConfig
from repro.streaming import replay
from repro.workloads import random_queries


def timed_step(service, step) -> Tuple[float, int]:
    """Run one ingest or merge: its wall time, and what a batch build would
    write if the step merged (the vertex count of the grown index)."""
    merges = service.num_merges
    started = time.perf_counter()
    step()
    seconds = time.perf_counter() - started
    if service.num_merges == merges:
        return seconds, 0
    return seconds, service.overlay.snapshot_processor.index.num_vertices


def main() -> None:
    engine = ReachabilityEngine.from_dataset_name("rwp-tiny")
    dataset = engine.dataset
    workload = list(random_queries(dataset, count=25, seed=3))

    service = engine.streaming(
        streaming_config=StreamingConfig(merge_policy="delta-size", max_delta_contacts=24)
    )
    steps = [
        timed_step(service, lambda batch=batch: service.ingest(batch))
        for batch in replay(dataset, batch_ticks=8).batches()
    ]
    # Freeze the tail so the graph covers the full prefix.
    steps.append(timed_step(service, service.merge))
    drain_seconds = sum(seconds for seconds, _ in steps)
    batch_build_records = sum(records for _, records in steps)

    stats = service.stats
    print(
        f"{stats.merges} merges in {drain_seconds:.3f}s — "
        f"{stats.graph_records_written} vertex records written "
        f"(a batch build per merge: {batch_build_records}), "
        f"{stats.graph_rebuilds} full build(s), "
        f"{stats.graph_superseded_blocks} superseded partition block(s)"
    )
    assert stats.graph_rebuilds == 1, "later merges must patch, not rebuild"
    assert stats.graph_records_written < batch_build_records

    engine.build_reachgraph()  # the batch build over the whole dataset
    streamed = [bool(service.query(q).reachable) for q in workload]
    batch = [bool(engine.evaluate(q, method="reachgraph").reachable) for q in workload]
    assert streamed == batch, "the patched index must answer like a batch build"
    print(f"patched and batch-built indexes answered all {len(workload)} queries identically")


if __name__ == "__main__":
    main()
