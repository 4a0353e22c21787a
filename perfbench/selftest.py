"""Self-test of the benchmark: determinism, seed sensitivity, clean tracing.

Run from the root of a checkout (takes a few minutes)::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import gc
import json

import pytest

from calibrate import SpeedProbe
from run import ROOT, end_to_end, per_layer, run_rounds
from tracing import Tracer, layer_targets
from workloads import WORKLOADS, make_inputs

#: End-to-end metrics that are counts, not times: same seed, same value.
E2E_COUNTS = ("query_io_mean", "write_amp", "space_amp")


#: Per-layer ratios of two wall times.
TIME_RATIOS = ("merge.growth", "trace.overhead")


def _layer_counts(metrics):
    """Per-layer metrics that must repeat exactly (no wall time in them)."""
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit != "ms" and name not in TIME_RATIOS
    }


def _measure(workload: str, seed: int):
    rounds = run_rounds(make_inputs(workload, seed), seconds=0, trace=True)
    untraced = [r for r in rounds if not r.traced]
    e2e, _ = end_to_end(untraced, rss_mb=1.0)
    return rounds, e2e, per_layer(rounds)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_counts(workload):
    first_rounds, first_e2e, first_layers = _measure(workload, seed=7)
    second_rounds, second_e2e, second_layers = _measure(workload, seed=7)
    for name in E2E_COUNTS:
        assert first_e2e[name] == second_e2e[name], name
    assert _layer_counts(first_layers) == _layer_counts(second_layers)
    assert "merge.count" in _layer_counts(first_layers)
    assert "path.graph.share" in _layer_counts(first_layers)
    for rounds in (first_rounds, second_rounds):
        assert all(r.mismatches == 0 and r.raised == 0 for r in rounds)


def test_other_seed_changes_inputs():
    one, other = make_inputs("live-mixed", 1), make_inputs("live-mixed", 2)
    assert len(one) == WORKLOADS["live-mixed"].streams
    streams = one + other
    for a, b in zip(streams, streams[1:]):
        assert a.batches[0].samples != b.batches[0].samples
        assert a.batch_queries != b.batch_queries
    assert one[0].batches[0].samples == make_inputs("live-mixed", 1)[0].batches[0].samples


def test_speed_probe_leaves_the_collector_alone():
    probe = SpeedProbe()
    gc.collect()
    allocated = gc.get_count()[0]
    for _ in range(1000):
        probe.tick()
    # The collector runs when this count reaches its threshold (700).
    assert gc.get_count()[0] - allocated < 10
    assert probe.factor() > 0


def test_untraced_rounds_install_no_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced round installed the tracer")

    originals = [vars(owner)[attr] for _, owner, attr, _ in layer_targets()]
    monkeypatch.setattr(Tracer, "install", refuse)
    inputs = make_inputs("live-mixed", 3)
    run_rounds(inputs, seconds=0, trace=False)
    monkeypatch.undo()
    run_rounds(inputs, seconds=0, trace=True)
    assert [vars(owner)[attr] for _, owner, attr, _ in layer_targets()] == originals


def test_benchmark_json_names_every_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rounds, e2e, layers = _measure("live-mixed", seed=5)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()
    }
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)
