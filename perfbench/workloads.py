"""Workload inputs and one measured round against the streaming service.

Every workload replays a random-waypoint stream of the ``rwp-small`` family,
generated from the benchmark seed, through the public
:class:`~repro.streaming.StreamingReachabilityService` API with one
closed-loop client: each ``ingest`` or ``query`` call is issued only after
the previous one returned.  The program sees the batches and queries and
nothing else; the reference answers are computed here, before any timing.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.reference import evaluate_reachability
from repro.contacts.join import build_contact_network
from repro.core.types import QueryResult, ReachabilityQuery, TimeInterval
from repro.streaming import DatasetReplaySource, StreamBatch, StreamingReachabilityService
from repro.workloads.datasets import DATASETS, DatasetSpec

from calibrate import SpeedProbe
from tracing import Span, Tracer


@dataclass(frozen=True)
class Workload:
    """How one workload drives the service.

    ``setup_repeats`` builds the service that many times per round (keeping
    the last), because one construction is too short to time on its own.
    ``passes`` replays the post-stream query list that many times per round.
    ``streams`` is the number of differently seeded streams a run cycles
    through, one per round, so that one dataset's quirks weigh less.
    """

    name: str
    horizon: int
    batch_ticks: int
    setup_repeats: int
    passes: int
    streams: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Twice the canned horizon and no queries inside the stream, so merge
        # cost that grows with the prefix shows.  The drained, merged snapshot
        # then answers the frozen query mix: BM-BFS, labels, Bloom and both
        # caches work while ingest and merge sit idle.
        Workload("ingest", horizon=1200, batch_ticks=8, setup_repeats=100, passes=4, streams=2),
        # Windows ending at the watermark take the union scan over run reads,
        # with merges running inline between the reads.
        Workload(
            "live-mixed", horizon=600, batch_ticks=4, setup_repeats=100, passes=1, streams=2
        ),
    )
}

#: Answer paths, in the order a query is attributed to them.
PATHS = ("cache", "bloom", "label", "graph", "union")

#: Query counts of the post-drain mix of one stream (60/25/13/2 %) and its
#: hot-set size.
FROZEN_MIX = {"paper": 600, "hot": 250, "short": 130, "unknown": 20}
HOT_SET = 64
#: Batches of the untimed warm-up before the first round.
WARM_UP_BATCHES = 16
LIVE_QUERIES_PER_BATCH = 8
#: Post-drain queries between two ticks of the speed probe.
QUERIES_PER_TICK = 25


@dataclass
class Inputs:
    """Everything generated from a seed before any timing starts."""

    workload: Workload
    spec: DatasetSpec
    batches: List[StreamBatch]
    batch_queries: List[List[ReachabilityQuery]]
    final_queries: List[ReachabilityQuery]
    truth: Dict[ReachabilityQuery, QueryResult]


def _window(rng: random.Random, horizon: TimeInterval, lo: int, hi: int) -> TimeInterval:
    length = rng.randint(lo, hi)
    start = rng.randint(horizon.start, horizon.end - length + 1)
    return TimeInterval(start, start + length - 1)


def _paper_query(rng: random.Random, objects: List[int], horizon: TimeInterval) -> ReachabilityQuery:
    return ReachabilityQuery(*rng.sample(objects, 2), _window(rng, horizon, 150, 350))


def _frozen_queries(rng: random.Random, objects: List[int], horizon: TimeInterval) -> List[ReachabilityQuery]:
    hot = [_paper_query(rng, objects, horizon) for _ in range(HOT_SET)]
    unknown_base = max(objects) + 1
    queries = [_paper_query(rng, objects, horizon) for _ in range(FROZEN_MIX["paper"])]
    queries += [rng.choice(hot) for _ in range(FROZEN_MIX["hot"])]
    queries += [
        ReachabilityQuery(*rng.sample(objects, 2), _window(rng, horizon, 1, 2))
        for _ in range(FROZEN_MIX["short"])
    ]
    for _ in range(FROZEN_MIX["unknown"]):
        known = rng.choice(objects)
        stranger = unknown_base + rng.randrange(1000)
        ends = (stranger, known) if rng.random() < 0.5 else (known, stranger)
        queries.append(ReachabilityQuery(*ends, _window(rng, horizon, 150, 350)))
    rng.shuffle(queries)
    return queries


def _live_queries(
    rng: random.Random, objects: List[int], horizon: TimeInterval, watermark: int
) -> List[ReachabilityQuery]:
    queries = []
    for _ in range(LIVE_QUERIES_PER_BATCH):
        start = max(horizon.start, watermark - rng.randint(50, 300) + 1)
        queries.append(ReachabilityQuery(*rng.sample(objects, 2), TimeInterval(start, watermark)))
    return queries


def make_inputs(name: str, seed: int) -> List[Inputs]:
    """Generate each stream of the workload, its queries and their answers.

    Stream ``k`` of ``n`` replays the dataset seeded ``seed * n + k``, so
    different benchmark seeds never share a stream.
    """
    workload = WORKLOADS[name]
    return [_make_stream(workload, seed * workload.streams + k) for k in range(workload.streams)]


def _make_stream(workload: Workload, seed: int) -> Inputs:
    name = workload.name
    spec = dataclasses.replace(DATASETS["rwp-small"], seed=seed, horizon=workload.horizon)
    dataset = spec.generate()
    batches = list(DatasetReplaySource(dataset, batch_ticks=workload.batch_ticks).batches())
    rng = random.Random(f"{name}/{seed}")
    objects, horizon = dataset.object_ids, dataset.horizon
    batch_queries: List[List[ReachabilityQuery]] = [[] for _ in batches]
    final_queries: List[ReachabilityQuery] = []
    if name == "ingest":
        final_queries = _frozen_queries(rng, objects, horizon)
    else:
        batch_queries = [_live_queries(rng, objects, horizon, b.watermark) for b in batches]
    # A window that ends at the watermark sees the same contacts in the
    # ingested prefix as in the whole stream, so one batch-built network
    # answers every query, including the live ones.
    network = build_contact_network(dataset, spec.contact_threshold)
    truth: Dict[ReachabilityQuery, QueryResult] = {}
    for query in final_queries + [q for qs in batch_queries for q in qs]:
        if query not in truth:
            truth[query] = evaluate_reachability(network, query)
    return Inputs(workload, spec, batches, batch_queries, final_queries, truth)


def agrees(result: QueryResult, expected: QueryResult) -> bool:
    """``reachable`` always, ``earliest_time`` whenever the service gives one."""
    if result.reachable != expected.reachable:
        return False
    return result.earliest_time is None or result.earliest_time == expected.earliest_time


@dataclass
class Round:
    """Observations of one round; ``run.py`` turns them into metrics."""

    traced: bool
    setup_s: List[float] = field(default_factory=list)
    visible_s: List[float] = field(default_factory=list)
    ingest_s: float = 0.0
    events: int = 0
    #: Per query position (batch query, or post-drain list entry), the
    #: median of its times over the round's passes.
    query_s: List[float] = field(default_factory=list)
    query_io: List[float] = field(default_factory=list)
    busy_s: float = 0.0
    #: Reference seconds per measured second over the whole round.
    speed: float = 1.0
    attempted: int = 0
    queries: int = 0
    mismatches: int = 0
    raised: int = 0
    #: ``(path, seconds, io, visited)`` per query; traced rounds only.
    paths: List[Tuple[str, float, float, int]] = field(default_factory=list)
    #: Public counters at the start and at the end of the measured phase.
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)


def _ledger(service: StreamingReachabilityService) -> Dict[str, float]:
    """Cumulative public counters of the service and its overlay device."""
    stats = service.stats
    storage = service.overlay.storage
    io = storage.stats
    processor = service.overlay.snapshot_processor
    return {
        "compactions": stats.compactions,
        "snapshot_records_written": stats.snapshot_records_written,
        "graph_records_written": stats.graph_records_written,
        "label_rejections": stats.label_rejections,
        "label_frontier_prunes": stats.label_frontier_prunes,
        "label_relabels": stats.label_relabels,
        "label_full_relabels": stats.label_full_relabels,
        "bloom_rejections": stats.bloom_rejections,
        "pcache_hits": stats.partition_cache_hits,
        "pcache_misses": stats.partition_cache_misses,
        "runs_skipped": stats.snapshot_runs_skipped,
        "blocks_skipped": stats.snapshot_blocks_skipped,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "contacts_closed": service.ingestor.num_closed_contacts,
        "random_reads": io.random_reads,
        "sequential_reads": io.sequential_reads,
        "buffer_hits": io.buffer_hits,
        "writes": io.writes,
        "live_blocks": storage.live_blocks,
        "garbage_blocks": storage.garbage_blocks,
        "graph_vertices": processor.index.num_vertices if processor else 0,
        "graph_partitions": processor.index.num_partitions if processor else 0,
    }


def _build(inputs: Inputs, name: str) -> StreamingReachabilityService:
    spec = inputs.spec
    return StreamingReachabilityService(
        environment_size=spec.environment_size,
        contact_config=spec.contact_config,
        grid_config=spec.grid_config,
        name=name,
    )


def _path_markers(service: StreamingReachabilityService) -> Tuple[int, int, int]:
    overlay = service.overlay
    return service.stats.cache_hits, overlay.bloom_rejections, overlay.label_rejections


def run_round(inputs: Inputs, tracer: Optional[Tracer], probe: SpeedProbe) -> Round:
    """Set the service up, then drive the measured phase once.

    ``probe`` ticks after every batch and every ``QUERIES_PER_TICK``
    post-drain queries, outside the timed calls.  When the round ends,
    ``setup_s``, ``visible_s``, ``query_s`` and ``ingest_s`` are scaled to
    reference host speed by the ticks around each sample, and ``query_s``
    is reduced to one median per query position; ``busy_s`` and ``paths``
    stay as measured.
    """
    workload = inputs.workload
    out = Round(traced=tracer is not None)
    first_tick = len(probe.samples)
    visible_at: List[int] = []
    query_at: List[int] = []
    query_tags: List[str] = []

    def ingest(batch: StreamBatch) -> None:
        out.attempted += 1
        started = clock()
        try:
            service.ingest(batch)
        except Exception:
            traceback.print_exc()
            out.raised += 1
            return
        elapsed = clock() - started
        out.visible_s.append(elapsed)
        visible_at.append(len(probe.samples))
        out.ingest_s += elapsed
        out.events += len(batch.samples)

    for repeat in range(workload.setup_repeats):
        started = time.perf_counter()
        service = _build(inputs, f"bench-{workload.name}")
        out.setup_s.append(time.perf_counter() - started)
        if repeat + 1 < workload.setup_repeats:
            service.close()

    out.before = _ledger(service)
    clock: Callable[[], float] = time.perf_counter
    if tracer is not None:
        tracer.install()
        clock = tracer.now

    def ask(query: ReachabilityQuery, tag: str) -> None:
        out.attempted += 1
        out.queries += 1
        if tracer is not None:
            tracer.tag = tag
            markers = _path_markers(service)
            first_span = len(tracer.spans)
        started = clock()
        try:
            result = service.query(query)
        except Exception:
            traceback.print_exc()
            out.raised += 1
            return
        elapsed = clock() - started
        out.busy_s += elapsed
        out.query_s.append(elapsed)
        query_at.append(len(probe.samples))
        query_tags.append(tag)
        out.query_io.append(result.io)
        if not agrees(result, inputs.truth[query]):
            out.mismatches += 1
        if tracer is not None:
            cache, bloom, label = (
                after - prior for after, prior in zip(_path_markers(service), markers)
            )
            traversed = any(
                span is not None and span.name == "bmbfs"
                for span in tracer.spans[first_span:]
            )
            path = (
                "cache" if cache else "bloom" if bloom else "label" if label
                else "graph" if traversed else "union"
            )
            out.paths.append((path, elapsed, result.io, result.visited))

    try:
        for number, batch in enumerate(inputs.batches):
            if tracer is not None:
                tracer.tag = f"b{number}"
            ingest(batch)
            for index, query in enumerate(inputs.batch_queries[number]):
                ask(query, f"b{number}q{index}")
            probe.tick()
        out.busy_s += out.ingest_s
        if inputs.final_queries:
            # Untimed: post-drain queries see one merged snapshot, so
            # their latency does not hinge on where the last merge fell.
            service.merge()
        for _ in range(workload.passes):
            for number, query in enumerate(inputs.final_queries):
                ask(query, f"q{number}")
                if number % QUERIES_PER_TICK == 0:
                    probe.tick()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.speed = probe.factor(first_tick)
    out.setup_s = [s * probe.factor_near(first_tick, first_tick) for s in out.setup_s]
    out.visible_s = [s * probe.factor_near(i, first_tick) for s, i in zip(out.visible_s, visible_at)]
    # A post-drain query is timed once per pass; its median drops the
    # passes a host hiccup landed on, which would otherwise fill the tail
    # of sub-millisecond latencies.
    passes: Dict[str, List[float]] = {}
    for s, i, tag in zip(out.query_s, query_at, query_tags):
        passes.setdefault(tag, []).append(s * probe.factor_near(i, first_tick))
    out.query_s = [statistics.median(times) for times in passes.values()]
    out.ingest_s = sum(out.visible_s)
    out.after = _ledger(service)
    service.close()
    if tracer is not None:
        out.spans = tracer.finished()
    return out


def warm_up(inputs: Inputs) -> None:
    """Run the first batches and their queries once, untimed and unchecked."""
    service = _build(inputs, f"warm-up-{inputs.workload.name}")
    try:
        for batch, queries in list(zip(inputs.batches, inputs.batch_queries))[:WARM_UP_BATCHES]:
            service.ingest(batch)
            for query in queries:
                service.query(query)
        service.merge()
    finally:
        service.close()
