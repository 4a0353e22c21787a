"""Unit and integration tests for the ReachGraph index and its query strategies."""

from __future__ import annotations

import random

import pytest

from repro.baselines import evaluate_reachability
from repro.core import (
    ContactConfig,
    IndexConstructionError,
    IndexNotBuiltError,
    QueryError,
    ReachabilityQuery,
    ReachGraphConfig,
    TimeInterval,
    UnknownObjectError,
)
from repro.reachgraph import ReachGraphIndex, ReachGraphQueryProcessor, STRATEGIES


@pytest.fixture(scope="module")
def figure1_reachgraph(figure1_dataset, figure1_network):
    return ReachGraphIndex(
        figure1_dataset,
        ReachGraphConfig(resolutions=(2,), partition_depth=2),
        ContactConfig(distance_threshold=10.0),
        contact_network=figure1_network,
    ).build()


class TestReachGraphIndexConstruction:
    def test_build_populates_reports(self, tiny_reachgraph):
        report = tiny_reachgraph.build_report
        assert report is not None
        assert report.reduction.dag_vertices == tiny_reachgraph.num_vertices
        assert report.num_partitions == tiny_reachgraph.num_partitions
        assert report.num_blocks == tiny_reachgraph.num_blocks > 0

    def test_double_build_rejected(self, tiny_reachgraph):
        with pytest.raises(IndexConstructionError):
            tiny_reachgraph.build()

    def test_unbuilt_index_refuses_access(self, tiny_dataset, tiny_contact_config):
        index = ReachGraphIndex(tiny_dataset, contact_config=tiny_contact_config)
        with pytest.raises(IndexNotBuiltError):
            index.read_partition(0)
        with pytest.raises(QueryError):
            ReachGraphQueryProcessor(index)

    def test_find_vertex_id_agrees_with_dag(self, tiny_reachgraph):
        dag = tiny_reachgraph.dag
        for object_id in list(tiny_reachgraph.dataset.object_ids)[:5]:
            for t in (0, 37, 100):
                assert tiny_reachgraph.find_vertex_id(object_id, t) == dag.node_of(
                    object_id, t
                )

    def test_find_vertex_for_unknown_object_raises(self, tiny_reachgraph):
        with pytest.raises(UnknownObjectError):
            tiny_reachgraph.find_vertex_id(123_456, 0)

    def test_partition_records_round_trip(self, tiny_reachgraph):
        records = tiny_reachgraph.read_partition(0)
        assert records
        for record in records:
            assert tiny_reachgraph.partition_of(record.node_id) == 0
            node = tiny_reachgraph.dag.node(record.node_id)
            assert record.interval == node.interval
            assert set(record.members) == set(node.members)
            assert list(record.successors) == tiny_reachgraph.dag.successors(
                record.node_id
            )

    def test_vertex_records_store_reverse_edges(self, tiny_reachgraph):
        dag = tiny_reachgraph.dag
        for partition_id in range(min(3, tiny_reachgraph.num_partitions)):
            for record in tiny_reachgraph.read_partition(partition_id):
                assert list(record.predecessors) == dag.predecessors(record.node_id)

    def test_long_successor_lookup(self, tiny_reachgraph):
        found_any = False
        for partition_id in range(tiny_reachgraph.num_partitions):
            for record in tiny_reachgraph.read_partition(partition_id):
                for resolution, successors in record.long_successors:
                    found_any = True
                    assert record.long_successors_at(resolution) == successors
        assert found_any, "expected at least one long edge in the tiny dataset"
        # Unknown resolution yields the empty tuple.
        record = tiny_reachgraph.read_partition(0)[0]
        assert record.long_successors_at(999) == ()


class TestFigure1Queries:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_paper_ground_truth_for_all_strategies(self, figure1_reachgraph, strategy):
        processor = ReachGraphQueryProcessor(figure1_reachgraph)
        assert processor.evaluate(
            ReachabilityQuery(1, 4, TimeInterval(0, 1)), strategy=strategy
        ).reachable
        assert not processor.evaluate(
            ReachabilityQuery(4, 1, TimeInterval(0, 1)), strategy=strategy
        ).reachable
        assert processor.evaluate(
            ReachabilityQuery(4, 1, TimeInterval(0, 3)), strategy=strategy
        ).reachable
        assert not processor.evaluate(
            ReachabilityQuery(1, 3, TimeInterval(2, 3)), strategy=strategy
        ).reachable


class TestReachGraphQueryProcessing:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_reference_on_random_queries(
        self, tiny_reachgraph, tiny_network, strategy
    ):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        rng = random.Random(29)
        horizon = tiny_network.horizon
        for _ in range(30):
            source, destination = rng.sample(tiny_network.object_ids, 2)
            start = rng.randint(horizon.start, horizon.end - 20)
            end = min(start + rng.randint(5, 70), horizon.end)
            query = ReachabilityQuery(source, destination, TimeInterval(start, end))
            expected = evaluate_reachability(tiny_network, query)
            actual = processor.evaluate(query, strategy=strategy)
            assert actual.reachable == expected.reachable, (strategy, query)

    def test_unknown_strategy_rejected(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        with pytest.raises(QueryError):
            processor.evaluate(
                ReachabilityQuery(0, 1, TimeInterval(0, 10)), strategy="dijkstra"
            )

    def test_unknown_objects_rejected(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        with pytest.raises(UnknownObjectError):
            processor.evaluate(ReachabilityQuery(55_555, 0, TimeInterval(0, 10)))

    def test_interval_outside_horizon_rejected(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        with pytest.raises(QueryError):
            processor.evaluate(ReachabilityQuery(0, 1, TimeInterval(9_000, 9_100)))

    def test_source_equals_destination(self, tiny_reachgraph):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        result = processor.evaluate(ReachabilityQuery(3, 3, TimeInterval(0, 50)))
        assert result.reachable

    def test_queries_charge_io_and_count_visits(self, tiny_reachgraph, tiny_network):
        # use_labels=False pins the unpruned traversal: with labels on, this
        # unreachable pair is rejected from the interval labels alone and
        # legitimately visits nothing.
        processor = ReachGraphQueryProcessor(tiny_reachgraph, use_labels=False)
        objects = tiny_network.object_ids
        query = ReachabilityQuery(objects[1], objects[-1], TimeInterval(0, 100))
        assert not evaluate_reachability(tiny_network, query).reachable
        result = processor.evaluate(query)
        assert result.io > 0
        assert result.visited > 0
        # The label layer answers the same query with zero vertex visits and
        # no partition reads: only the two endpoint hash-bucket reads are charged.
        labelled = ReachGraphQueryProcessor(tiny_reachgraph).evaluate(query)
        assert not labelled.reachable
        assert labelled.visited == 0
        assert labelled.io < result.io

    def test_bmbfs_visits_no_more_than_bbfs(self, tiny_reachgraph, tiny_network):
        """The multi-resolution traversal should never explore more vertices
        than the single-resolution bidirectional traversal (Figure 13 trend)."""
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        rng = random.Random(31)
        horizon = tiny_network.horizon
        total_bm = total_b = 0
        for _ in range(20):
            source, destination = rng.sample(tiny_network.object_ids, 2)
            query = ReachabilityQuery(
                source, destination, TimeInterval(horizon.start, horizon.end)
            )
            total_bm += processor.evaluate(query, strategy="bm-bfs").visited
            total_b += processor.evaluate(query, strategy="b-bfs").visited
        assert total_bm <= total_b

    def test_edfs_visits_at_least_as_many_as_bmbfs(self, tiny_reachgraph, tiny_network):
        processor = ReachGraphQueryProcessor(tiny_reachgraph)
        rng = random.Random(37)
        horizon = tiny_network.horizon
        total_bm = total_dfs = 0
        for _ in range(20):
            source, destination = rng.sample(tiny_network.object_ids, 2)
            query = ReachabilityQuery(
                source, destination, TimeInterval(horizon.start, horizon.end)
            )
            total_bm += processor.evaluate(query, strategy="bm-bfs").visited
            total_dfs += processor.evaluate(query, strategy="e-dfs").visited
        assert total_bm <= total_dfs
