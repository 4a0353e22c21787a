"""Span tracing installed from outside the program.

A :class:`Tracer` replaces the public entry points of each layer (listed in
:func:`layer_targets`) with timing wrappers for the length of one traced
round, and restores the originals afterwards.  Spans are kept in memory as
plain tuples and written out when the benchmark ends.

Work the tracer does for its own bookkeeping (pickling merge inputs to weigh
them) runs inside :meth:`Tracer.paused`, and :meth:`Tracer.now` excludes that
time, so neither span durations nor the latencies the benchmark measures with
``now`` are charged for it.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: Optional[str]
    attrs: Optional[Dict[str, float]]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _inputs_witness(inputs: Any) -> Dict[str, float]:
    """Pickled size and contact count of one ``MergeInputs``."""
    return {
        "kb": len(pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL)) / 1024.0,
        "contacts": float(len(inputs.contacts)),
    }


def _traversal_witness(result: Any) -> Dict[str, float]:
    """Vertices visited and normalized IO of one BM-BFS answer."""
    return {"visited": float(result.visited), "io": float(result.io)}


def layer_targets() -> List[Tuple[str, Any, str, Optional[Callable[[Any], Dict[str, float]]]]]:
    """``(span name, owner, attribute, result observer)`` for every traced call.

    Owners are classes or modules of the program; each attribute is looked up
    where the caller resolves it at call time (e.g. ``build_merge`` in the
    executor module, ``earliest_arrival`` in the overlay module).
    """
    from repro import reachgraph
    from repro.contacts.network import ContactNetwork
    from repro.reachgraph import ReachGraphIndex, ReachGraphQueryProcessor, ReachLabelIndex
    from repro.streaming import delta, parallel
    from repro.streaming.delta import ContactSnapshotStore, ReachGraphDeltaOverlay
    from repro.streaming.ingest import StreamIngestor
    from repro.streaming.service import StreamingReachabilityService as Service

    return [
        ("service.ingest", Service, "ingest", None),
        ("service.query", Service, "query", None),
        ("merge", Service, "merge", None),
        ("merge.prepare", Service, "prepare_merge", _inputs_witness),
        ("merge.build", parallel, "build_merge", None),
        ("merge.adopt", Service, "adopt_merge", None),
        ("ingest", StreamIngestor, "ingest", None),
        ("contacts.network", ContactNetwork, "__init__", None),
        ("graph.build", ReachGraphIndex, "build", None),
        ("graph.patch", reachgraph, "compute_graph_patch", None),
        ("graph.apply", ReachGraphIndex, "apply_increment", None),
        ("graph.repack", ReachGraphIndex, "repack_frontier", None),
        ("labels.build", ReachLabelIndex, "build", None),
        ("labels.patch", ReachLabelIndex, "apply_patch", None),
        ("lsm.append", ContactSnapshotStore, "append_run", None),
        ("lsm.compact", ContactSnapshotStore, "maybe_compact", None),
        ("lsm.read", ContactSnapshotStore, "read_overlapping", None),
        ("overlay.evaluate", ReachGraphDeltaOverlay, "evaluate", None),
        ("union.arrival", delta, "earliest_arrival", None),
        ("bmbfs", ReachGraphQueryProcessor, "evaluate", _traversal_witness),
    ]


class Tracer:
    """Records nested spans around the program's layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.tag: Optional[str] = None
        self._stack: List[int] = []
        self._paused = 0.0
        self._saved: List[Tuple[Any, str, Any]] = []

    def now(self) -> float:
        """Wall clock that excludes the tracer's own paused bookkeeping."""
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - started

    def _wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[[Any], Dict[str, float]]],
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                stack.pop()
                spans[span_id] = Span(span_id, name, start, end, parent, self.tag, None)
            if observe is not None:
                with self.paused():
                    spans[span_id] = spans[span_id]._replace(attrs=observe(result))
            return result

        return traced

    def install(self) -> None:
        """Replace every layer target with a traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attribute, observe in layer_targets():
            original = vars(owner)[attribute]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(self._wrap(name, original.__func__, observe))
            else:
                wrapped = self._wrap(name, original, observe)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]


def self_time(spans: List[Span]) -> Dict[int, float]:
    """Seconds of self time per span id: duration minus its direct children."""
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time summed per span name."""
    own = self_time(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def write_spans(path: Any, rounds: List[List[Span]]) -> None:
    """Write every span as one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for number, spans in enumerate(rounds):
            for span in spans:
                record = span._asdict()
                record["round"] = number
                handle.write(json.dumps(record) + "\n")
