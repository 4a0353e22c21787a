"""Tests for the query fast path: interval labels, zone maps, partition cache.

Three pruning layers ride in front of the exact evaluators, and each is
one-sided — a positive pruning verdict must be *provably* exact, a negative
one falls through to the traversal that was always correct:

* :class:`~repro.reachgraph.ReachLabelIndex` — GRAIL-style interval labels
  over the reversed reduced DAG, appended to across streaming merges;
* per-run zone maps on the LSM snapshot store (min/max contact time plus an
  object-id Bloom filter), skipping provably disjoint runs without IO;
* the cross-query :class:`~repro.reachgraph.PartitionCache`, shared by every
  query path and invalidated whenever the graph mutates.

The acceptance bar is the repo-wide one: with every layer on or off, in any
combination, answers are bit-identical to the batch reference at every
watermark — including after close/reopen and for queries issued between the
build and adopt phases of a merge.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equivalence import (
    EQUIVALENCE_LABEL_MODES,
    assert_methods_agree,
    assert_reopened_matches_prefix,
    backend_storage_config,
    prefix_network,
    reference_evaluator,
)
from repro.core import (
    IndexConstructionError,
    ReachabilityQuery,
    ReachGraphConfig,
    StreamingConfig,
    TimeInterval,
)
from repro.reachgraph import (
    ContactDag,
    DagPatch,
    PartitionCache,
    ReachGraphIndex,
    ReachLabelIndex,
    reduce_contact_network,
)
from repro.storage import StorageSystem
from repro.streaming import (
    DatasetReplaySource,
    SnapshotQueryService,
    StreamingReachabilityService,
    build_merge,
)
from repro.streaming.delta import ObjectBloomFilter
from repro.workloads.queries import random_queries

TINY_THRESHOLD = 30.0

# The label axis itself is parametrized by tests/conftest.py's
# pytest_generate_tests (honouring --labels); assert the canned axis here so
# a drive-by edit to the tuple cannot silently drop a mode from CI.
assert EQUIVALENCE_LABEL_MODES == (True, False)


def exhaustive_reachability(dag: ContactDag) -> set:
    """Every reachable ``(source_id, target_id)`` pair of ``dag``, by DFS."""
    pairs = set()
    for source in range(dag.num_nodes):
        stack = [source]
        seen = {source}
        while stack:
            node = stack.pop()
            pairs.add((source, node))
            for child in dag.successors(node):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
    return pairs


def assert_rejections_exact(labels: ReachLabelIndex, dag: ContactDag) -> None:
    """A ``rejects`` verdict must never contradict exhaustive reachability."""
    reachable = exhaustive_reachability(dag)
    for source in range(dag.num_nodes):
        for target in range(dag.num_nodes):
            if labels.rejects(source, target):
                assert (source, target) not in reachable, (
                    f"labels rejected reachable pair {source}->{target}"
                )


def chain_dag(length: int) -> ContactDag:
    """A single path ``0 -> 1 -> ... -> length-1`` (ids are topological)."""
    dag = ContactDag(TimeInterval(0, length), num_objects=2)
    for position in range(length):
        dag.add_node(TimeInterval(position, position), frozenset({1, 2}))
        if position:
            dag.add_edge(position - 1, position)
    return dag


def dag_prefix(predecessors, num_nodes: int) -> ContactDag:
    """The first ``num_nodes`` vertices of a DAG given per-vertex predecessors."""
    dag = ContactDag(TimeInterval(0, num_nodes), num_objects=2)
    for node_id in range(num_nodes):
        dag.add_node(TimeInterval(node_id, node_id), frozenset({1, 2}))
        for pred in sorted(predecessors[node_id]):
            dag.add_edge(pred, node_id)
    return dag


@st.composite
def growing_dags(draw):
    """Per-vertex predecessor sets (ids are topological) plus patch cuts."""
    num_nodes = draw(st.integers(min_value=1, max_value=24))
    predecessors = [
        draw(st.sets(st.integers(min_value=0, max_value=node_id - 1), max_size=3))
        if node_id
        else set()
        for node_id in range(num_nodes)
    ]
    cuts = (
        draw(st.sets(st.integers(min_value=1, max_value=num_nodes - 1), max_size=4))
        if num_nodes > 1
        else set()
    )
    return predecessors, sorted(cuts) + [num_nodes]


def suffix_patch(dag: ContactDag, base_nodes: int) -> DagPatch:
    """A patch describing how ``dag`` extends a ``base_nodes``-vertex prefix."""
    return DagPatch(
        base_end=dag.nodes[base_nodes - 1].interval.end,
        base_nodes=base_nodes,
        new_end=dag.horizon.end,
        extensions=(),
        new_nodes=tuple(
            (node.node_id, node.interval.start, node.interval.end, tuple(node.members))
            for node in dag.nodes[base_nodes:]
        ),
        new_edges=tuple(
            (source, target)
            for source in range(dag.num_nodes)
            for target in dag.successors(source)
            if target >= base_nodes
        ),
        new_long_edges=(),
        window_cursors=(),
    )


# ----------------------------------------------------------------------
# interval labels (unit)
# ----------------------------------------------------------------------
class TestReachLabelIndex:
    def test_build_is_exact_on_figure1(self, figure1_dag):
        labels = ReachLabelIndex.build(figure1_dag)
        labels.check_consistency(figure1_dag)
        assert labels.num_labels == figure1_dag.num_nodes
        assert_rejections_exact(labels, figure1_dag)

    def test_build_is_exact_on_generated_dag(self, tiny_network):
        dag, _ = reduce_contact_network(tiny_network)
        labels = ReachLabelIndex.build(dag)
        labels.check_consistency(dag)
        assert_rejections_exact(labels, dag)
        # The axis is useful, not vacuous: a real contact DAG has provably
        # unreachable pairs and the labels must find some of them for free.
        labels.rejections = 0
        reachable = exhaustive_reachability(dag)
        unreachable = dag.num_nodes * dag.num_nodes - len(reachable)
        assert unreachable > 0
        for source in range(dag.num_nodes):
            for target in range(dag.num_nodes):
                labels.rejects(source, target)
        assert 0 < labels.rejections <= unreachable

    def test_rejects_never_fires_on_identity(self, figure1_dag):
        labels = ReachLabelIndex.build(figure1_dag)
        for node_id in range(figure1_dag.num_nodes):
            assert not labels.rejects(node_id, node_id)

    def test_patch_base_mismatch_is_rejected(self):
        dag = chain_dag(6)
        labels = ReachLabelIndex.build(dag)
        with pytest.raises(ValueError):
            labels.apply_patch(suffix_patch(dag, base_nodes=3), dag)

    def test_incremental_patch_stays_exact(self):
        dag = chain_dag(8)
        # Branch the tail so the patch carries real fan-out, not just a path.
        dag.add_node(TimeInterval(8, 8), frozenset({1, 2}))
        dag.add_node(TimeInterval(8, 9), frozenset({1, 2}))
        dag.add_edge(7, 8)
        dag.add_edge(7, 9)
        dag.add_node(TimeInterval(9, 9), frozenset({1, 2}))
        dag.add_edge(8, 10)

        prefix = chain_dag(8)
        labels = ReachLabelIndex.build(prefix)
        labels.apply_patch(suffix_patch(dag, base_nodes=8), dag)
        labels.check_consistency(dag)
        assert labels.num_labels == dag.num_nodes
        assert labels.append_passes == 1
        # The new vertices rank above every old one: 8 is a successor of 7.
        assert labels.label(8)[1] > labels.label(7)[1]
        assert_rejections_exact(labels, dag)

    @given(growing_dags())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_patches_only_append_and_stay_exact(self, growing):
        predecessors, cuts = growing
        dag = dag_prefix(predecessors, cuts[0])
        labels = ReachLabelIndex.build(dag)
        labels.check_consistency(dag)
        for base_nodes, num_nodes in zip(cuts, cuts[1:]):
            old_labels = [labels.label(n) for n in range(base_nodes)]
            dag = dag_prefix(predecessors, num_nodes)
            labels.apply_patch(suffix_patch(dag, base_nodes), dag)
            assert [labels.label(n) for n in range(base_nodes)] == old_labels
            labels.check_consistency(dag)
            assert_rejections_exact(labels, dag)
        assert labels.append_passes == len(cuts) - 1


# ----------------------------------------------------------------------
# interval labels (maintained through the streaming service)
# ----------------------------------------------------------------------
def _service(dataset, contact_config, **overrides):
    overrides.setdefault("max_delta_contacts", 48)
    return StreamingReachabilityService.for_dataset(
        dataset,
        contact_config=contact_config,
        streaming_config=StreamingConfig(**overrides),
    )


class TestLabelsInService:
    def test_labels_are_patched_across_incremental_merges(
        self, tiny_dataset, tiny_contact_config
    ):
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        assert service.num_merges > 1
        index = service.overlay.snapshot_processor.index
        labels = index.labels
        assert labels is not None
        assert labels.num_labels == index.dag.num_nodes
        # Every increment is one append pass; nothing is ever relabelled.
        assert labels.append_passes == index.num_increments
        labels.check_consistency(index.dag)
        assert_rejections_exact(labels, index.dag)
        service.close()

    def test_stats_count_one_append_pass_per_increment(
        self, tiny_dataset, tiny_contact_config
    ):
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        index = service.overlay.snapshot_processor.index
        labels = index.labels
        assert labels is not None
        stats = service.stats
        assert stats.label_relabels == index.num_increments > 0
        assert stats.label_full_relabels == 0
        labels.check_consistency(index.dag)
        service.close()

    def test_patch_into_an_old_vertex_is_refused(
        self, tiny_dataset, tiny_network, tiny_contact_config
    ):
        """An edge into an old vertex would give it an ancestor its label
        does not cover, so a rejection could be false: the index must refuse
        the patch before touching the graph or its labels."""
        index = ReachGraphIndex(
            tiny_dataset,
            ReachGraphConfig(resolutions=(2, 4), partition_depth=8),
            tiny_contact_config,
            contact_network=tiny_network,
        ).build()
        dag = index.dag
        base_nodes = dag.num_nodes
        end = dag.horizon.end
        old_labels = [index.labels.label(n) for n in range(base_nodes)]
        patch = DagPatch(
            base_end=end,
            base_nodes=base_nodes,
            new_end=end,
            extensions=(),
            new_nodes=((base_nodes, end, end, (tiny_dataset.object_ids[0],)),),
            new_edges=((base_nodes - 1, base_nodes), (base_nodes, 0)),
            new_long_edges=(),
            window_cursors=(),
        )
        with pytest.raises(IndexConstructionError, match="targets an old vertex"):
            index.apply_increment(patch, tiny_dataset)
        assert index.num_vertices == base_nodes
        assert index.labels.num_labels == base_nodes
        assert [index.labels.label(n) for n in range(base_nodes)] == old_labels

    def test_labels_follow_frontier_repacks(self, tiny_dataset, tiny_contact_config):
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            graph_repack_min_partitions=2,
        )
        generation_log = set()
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=8).batches():
            service.ingest(batch)
            generation_log.add(service.overlay.partition_cache.generation)
        service.merge()
        index = service.overlay.snapshot_processor.index
        if service.stats.graph_repacks:
            # A repack rewrites partition placement but not vertex identity:
            # the labels must still cover and satisfy the patched DAG.
            assert index.labels is not None
            index.labels.check_consistency(index.dag)
        assert len(generation_log) > 1, "merges must bump the cache generation"
        service.close()

    def test_disabling_labels_leaves_index_bare(
        self, tiny_dataset, tiny_contact_config
    ):
        service = _service(tiny_dataset, tiny_contact_config, graph_labels=False)
        service.drain(tiny_dataset)
        service.merge()
        assert service.overlay.snapshot_processor.index.labels is None
        for query in random_queries(tiny_dataset, count=10, seed=3):
            service.query(query)
        stats = service.stats
        assert stats.label_rejections == 0
        assert stats.label_frontier_prunes == 0
        service.close()

    def test_labels_survive_close_reopen(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(max_delta_contacts=48),
            storage_config=storage_config,
        )
        service.drain(tiny_dataset)
        service.merge()
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        index = reopened.overlay.snapshot_processor.index
        assert index.labels is not None
        assert index.labels.num_labels == index.dag.num_nodes
        rebuilt = ReachLabelIndex.build(index.dag)
        assert [index.labels.label(n) for n in range(index.labels.num_labels)] == [
            rebuilt.label(n) for n in range(rebuilt.num_labels)
        ], "reopened labels must equal a build over the restored DAG"
        assert_reopened_matches_prefix(
            reopened,
            tiny_dataset,
            TINY_THRESHOLD,
            random_queries(tiny_dataset, count=20, seed=11),
            context="labels restored",
        )
        reopened.close()

    def test_catalog_with_persisted_labels_reopens(
        self, graph_labels, tmp_path, tiny_dataset, tiny_contact_config
    ):
        """Catalogs written before labels became derived data hold the label
        arrays (forward ranks) under ``labels``, or ``None`` with labels off.
        Reopening ignores the arrays and rebuilds labels from the DAG."""
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(
                max_delta_contacts=48, graph_labels=graph_labels
            ),
            storage_config=storage_config,
        )
        service.drain(tiny_dataset)
        service.merge()
        num_nodes = service.overlay.snapshot_processor.index.dag.num_nodes
        service.close()
        storage = StorageSystem(storage_config, name=f"{service.name}-overlay")
        manifest = storage.get_metadata("overlay-manifest")
        forward_ranks = [num_nodes - n for n in range(num_nodes)]
        manifest["graph"]["index"]["labels"] = (
            {
                "ranks": forward_ranks,
                "lows": [1] * num_nodes,
                "next_new_rank": -3,
                "dirty_ratio": 0.25,
                "full_relabels": 7,
                "incremental_passes": 2,
                "patched_labels": 40,
            }
            if graph_labels
            else None
        )
        storage.put_metadata("overlay-manifest", manifest)
        storage.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        index = reopened.overlay.snapshot_processor.index
        if graph_labels:
            rebuilt = ReachLabelIndex.build(index.dag)
            assert [index.labels.label(n) for n in range(num_nodes)] == [
                rebuilt.label(n) for n in range(rebuilt.num_labels)
            ]
            index.labels.check_consistency(index.dag)
        else:
            assert index.labels is None
        assert_reopened_matches_prefix(
            reopened,
            tiny_dataset,
            TINY_THRESHOLD,
            random_queries(tiny_dataset, count=20, seed=13),
            context=f"catalog with persisted labels, graph_labels={graph_labels}",
        )
        reopened.close()


# ----------------------------------------------------------------------
# zone maps: Bloom filters and run pruning
# ----------------------------------------------------------------------
class TestObjectBloomFilter:
    def test_no_false_negatives(self):
        bloom = ObjectBloomFilter.from_objects(range(0, 400, 3))
        for object_id in range(0, 400, 3):
            assert bloom.may_contain(object_id)

    def test_rejects_most_absent_ids(self):
        bloom = ObjectBloomFilter.from_objects(range(64))
        false_positives = sum(
            1 for object_id in range(10_000, 11_000) if bloom.may_contain(object_id)
        )
        # 10 bits/object with k=4 gives ~1% theoretical FP; leave headroom.
        assert false_positives < 100

    def test_deterministic_across_instances(self):
        first = ObjectBloomFilter.from_objects([5, 9, 1_000_003])
        second = ObjectBloomFilter.from_objects([1_000_003, 9, 5])
        assert first.bits == second.bits

    def test_manifest_roundtrip(self):
        bloom = ObjectBloomFilter.from_objects(range(17))
        restored = ObjectBloomFilter.from_manifest(bloom.to_manifest())
        assert restored.bits == bloom.bits
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes


class TestRunPruning:
    @staticmethod
    def _multi_run_service(dataset, contact_config):
        """An LSM service whose snapshot holds several time-disjoint runs."""
        service = _service(
            dataset,
            contact_config,
            merge_policy="delta-size",
            max_delta_contacts=10_000,
            compaction_max_runs=64,  # keep the runs separate for the test
        )
        for batch in DatasetReplaySource(dataset, batch_ticks=20).batches():
            service.ingest(batch)
            service.merge()
        return service

    def test_read_overlapping_skips_disjoint_runs(
        self, tiny_dataset, tiny_contact_config
    ):
        """Regression: a narrow-interval read used to load every run's blocks;
        the zone maps must now skip runs whose whole span misses the query."""
        service = self._multi_run_service(tiny_dataset, tiny_contact_config)
        store = service.overlay.snapshot_store
        assert store.num_runs > 1, "the workload must produce several runs"
        horizon = tiny_dataset.horizon
        everything = store.read_overlapping(horizon)
        skipped_runs_before = store.runs_skipped
        skipped_blocks_before = store.blocks_skipped
        narrow = TimeInterval(horizon.start, horizon.start + 10)
        pruned = store.read_overlapping(narrow)
        assert store.runs_skipped > skipped_runs_before
        assert store.blocks_skipped > skipped_blocks_before
        expected = [
            contact for contact in everything if contact.validity.overlaps(narrow)
        ]
        assert sorted(
            (c.first, c.second, c.validity.start, c.validity.end) for c in pruned
        ) == sorted(
            (c.first, c.second, c.validity.start, c.validity.end) for c in expected
        ), "pruning must never change the contacts a read returns"
        service.close()

    def test_zone_maps_survive_close_reopen(
        self, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(
                max_delta_contacts=10_000, compaction_max_runs=64
            ),
            storage_config=storage_config,
        )
        for batch in DatasetReplaySource(tiny_dataset, batch_ticks=20).batches():
            service.ingest(batch)
            service.merge()
        live_store = service.overlay.snapshot_store
        assert live_store.num_runs > 1
        missing = max(tiny_dataset.object_ids) + 1_000
        assert not live_store.may_contain(missing)
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        store = reopened.overlay.snapshot_store
        assert store.num_runs == live_store.num_runs
        # The restored zone maps answer identically: absent objects stay
        # provably absent, and narrow reads still skip disjoint runs.
        assert not store.may_contain(missing)
        for object_id in tiny_dataset.object_ids:
            assert store.may_contain(object_id) == live_store.may_contain(object_id)
        narrow = TimeInterval(
            tiny_dataset.horizon.start, tiny_dataset.horizon.start + 10
        )
        store.read_overlapping(narrow)
        assert store.runs_skipped > 0
        reopened.close()

    def test_bloom_rejection_answers_without_io(
        self, tiny_dataset, tiny_contact_config
    ):
        service = self._multi_run_service(tiny_dataset, tiny_contact_config)
        missing = max(tiny_dataset.object_ids) + 1_000
        known = tiny_dataset.object_ids[0]
        result = service.query(
            ReachabilityQuery(missing, known, TimeInterval(0, tiny_dataset.horizon.end))
        )
        assert not result.reachable
        assert result.io == 0.0
        assert service.stats.bloom_rejections > 0
        service.close()


# ----------------------------------------------------------------------
# the cross-query partition cache
# ----------------------------------------------------------------------
class TestPartitionCache:
    def test_lru_eviction_order(self):
        cache = PartitionCache(capacity=2)
        cache.insert(1, ())
        cache.insert(2, ())
        assert cache.lookup(1) is not None  # 1 is now the most recent
        cache.insert(3, ())  # evicts 2, the least recent
        assert cache.lookup(2) is None
        assert cache.lookup(1) is not None
        assert cache.lookup(3) is not None
        assert len(cache) == 2

    def test_capacity_zero_disables_caching(self):
        cache = PartitionCache(capacity=0)
        cache.insert(1, ())
        assert cache.lookup(1) is None
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0

    def test_negative_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            PartitionCache(capacity=-1)

    def test_invalidate_clears_and_bumps_generation(self):
        cache = PartitionCache(capacity=4)
        cache.insert(1, ())
        generation = cache.generation
        cache.invalidate()
        assert cache.generation == generation + 1
        assert cache.lookup(1) is None

    def test_service_queries_share_one_cache(self, tiny_dataset, tiny_contact_config):
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        for query in random_queries(tiny_dataset, count=30, seed=7):
            service.query(query)
        stats = service.stats
        assert stats.partition_cache_hits > 0, (
            "a varied workload over one graph must re-touch partitions"
        )
        assert stats.partition_cache_misses > 0
        service.close()

    def test_cache_size_zero_disables_sharing(self, tiny_dataset, tiny_contact_config):
        service = _service(tiny_dataset, tiny_contact_config, partition_cache_size=0)
        service.drain(tiny_dataset)
        service.merge()
        for query in random_queries(tiny_dataset, count=30, seed=7):
            service.query(query)
        assert service.stats.partition_cache_hits == 0
        service.close()

    def test_mutation_invalidates_the_cache(self, tiny_dataset, tiny_contact_config):
        service = _service(tiny_dataset, tiny_contact_config, max_delta_contacts=10_000)
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=20).batches())
        for batch in batches[: len(batches) // 2]:
            service.ingest(batch)
        service.merge()
        generation = service.overlay.partition_cache.generation
        for batch in batches[len(batches) // 2 :]:
            service.ingest(batch)
        service.merge()
        assert service.overlay.partition_cache.generation > generation, (
            "adopting a merge mutates the graph and must invalidate the cache"
        )
        service.close()


# ----------------------------------------------------------------------
# whole-path equivalence (the graph_labels axis)
# ----------------------------------------------------------------------
class TestFastPathEquivalence:
    # Many small appends (a merge every few contacts) against few large ones:
    # labels appended over many patches must answer like labels appended
    # over a few.
    @pytest.mark.parametrize("max_delta_contacts", (4, 64))
    def test_equivalence_at_every_watermark(
        self, graph_labels, max_delta_contacts, tiny_dataset, tiny_contact_config
    ):
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            graph_labels=graph_labels,
            max_delta_contacts=max_delta_contacts,
        )
        workload = random_queries(tiny_dataset, count=12, seed=29)
        for position, batch in enumerate(
            DatasetReplaySource(tiny_dataset, batch_ticks=8).batches()
        ):
            service.ingest(batch)
            if position % 3 != 1:
                continue
            assert_methods_agree(
                reference_evaluator(
                    prefix_network(
                        tiny_dataset, TINY_THRESHOLD, through=service.watermark
                    )
                ),
                {f"labels-{graph_labels}": service.query},
                workload,
                context=(
                    f"graph_labels={graph_labels}, "
                    f"max_delta_contacts={max_delta_contacts}, "
                    f"watermark={service.watermark}"
                ),
            )
        assert service.num_merges > 1
        index = service.overlay.snapshot_processor.index
        labels = index.labels
        if graph_labels:
            assert labels.append_passes == index.num_increments
            labels.check_consistency(index.dag)
        else:
            assert labels is None
        service.close()

    def test_mid_merge_queries_stay_exact(
        self, graph_labels, tiny_dataset, tiny_contact_config
    ):
        """Queries issued between a merge's build and adopt phases see the old
        snapshot plus the live delta — with or without labels, answers must
        match the reference over the full ingested prefix throughout."""
        service = _service(
            tiny_dataset,
            tiny_contact_config,
            graph_labels=graph_labels,
            max_delta_contacts=10_000,
        )
        batches = list(DatasetReplaySource(tiny_dataset, batch_ticks=12).batches())
        for batch in batches[: len(batches) - 2]:
            service.ingest(batch)
        service.merge()
        for batch in batches[len(batches) - 2 :]:
            service.ingest(batch)
        workload = random_queries(tiny_dataset, count=12, seed=41)
        reference = reference_evaluator(
            prefix_network(tiny_dataset, TINY_THRESHOLD, through=service.watermark)
        )
        inputs = service.prepare_merge()
        build = build_merge(inputs)
        assert_methods_agree(
            reference,
            {"mid-merge": service.query},
            workload,
            context=f"graph_labels={graph_labels}, between build and adopt",
        )
        service.adopt_merge(build, inputs)
        assert_methods_agree(
            reference,
            {"post-adopt": service.query},
            workload,
            check_earliest=True,
            context=f"graph_labels={graph_labels}, after adopt",
        )
        service.close()

    def test_close_reopen_with_and_without_labels(
        self, graph_labels, tmp_path, tiny_dataset, tiny_contact_config
    ):
        storage_config = backend_storage_config("file", storage_dir=str(tmp_path))
        service = StreamingReachabilityService.for_dataset(
            tiny_dataset,
            contact_config=tiny_contact_config,
            streaming_config=StreamingConfig(
                max_delta_contacts=48, graph_labels=graph_labels
            ),
            storage_config=storage_config,
        )
        service.drain(tiny_dataset)
        service.merge()
        service.close()
        reopened = SnapshotQueryService.open(storage_config, name=service.name)
        index = reopened.overlay.snapshot_processor.index
        assert (index.labels is not None) == graph_labels
        assert_reopened_matches_prefix(
            reopened,
            tiny_dataset,
            TINY_THRESHOLD,
            random_queries(tiny_dataset, count=20, seed=47),
            context=f"graph_labels={graph_labels}, reopened",
        )
        reopened.close()

    def test_negative_heavy_mix_rejects_and_matches_reference(
        self, tiny_dataset, tiny_contact_config
    ):
        """The point of the fast path: on a negative-heavy mix the pruning
        layers must actually fire — and never flip an answer doing so."""
        service = _service(tiny_dataset, tiny_contact_config)
        service.drain(tiny_dataset)
        service.merge()
        objects = tiny_dataset.object_ids
        horizon = tiny_dataset.horizon
        workload = [
            # Tight one-tick windows: most pairs cannot meet in time.
            ReachabilityQuery(
                objects[i % len(objects)],
                objects[(i * 7 + 3) % len(objects)],
                TimeInterval(start, start + 1),
            )
            for i, start in enumerate(range(horizon.start, horizon.end - 1, 7))
        ] + [
            # Unknown endpoints: the Bloom layer's bread and butter.
            ReachabilityQuery(max(objects) + 50, objects[0], horizon),
            ReachabilityQuery(objects[1], max(objects) + 51, horizon),
        ]
        assert_methods_agree(
            reference_evaluator(
                prefix_network(tiny_dataset, TINY_THRESHOLD, through=horizon.end)
            ),
            {"negative-heavy": service.query},
            workload,
            context="negative-heavy mix",
        )
        stats = service.stats
        assert stats.bloom_rejections > 0
        assert stats.label_rejections + stats.label_frontier_prunes > 0, (
            "the label layer must prune something on a negative-heavy mix"
        )
        service.close()
