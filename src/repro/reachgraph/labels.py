"""GRAIL-style interval labels over the reversed reduced DAG, append-only.

The :class:`ReachLabelIndex` assigns every DN vertex a label
``[low(v), rank(v)]`` where ``rank`` is a postorder DFS rank over the
*reversed* ``DN_1`` (walking predecessors, from the successor-less vertices
in id order) and ``low(v)`` is the minimum rank over ``v``'s ancestors
(including ``v`` itself).  Postorder over the reversed DAG ranks every
ancestor below its descendants, so the GRAIL containment property reads: if
``u`` reaches ``v`` then ``low(v) <= rank(u) <= rank(v)``.  The contrapositive
is the fast path — whenever ``rank(u)`` falls outside ``[low(v), rank(v)]``
the target is *provably* unreachable from ``u``, with no traversal and no IO.
The test is one-sided: a rank inside the interval proves nothing, and the
exact traversal remains the tie-breaker.

Labelling the reversed DAG makes streaming maintenance append-only.  Vertex
creation order is a topological order (an edge always points from a vertex
that ends at ``t - 1`` to one that starts at ``t``), and a
:class:`~repro.reachgraph.dag.DagPatch` only ever adds edges whose *target* is
a new vertex.  So an old vertex never gains an ancestor, and its
``(low, rank)`` — a function of its ancestors alone — never changes.  Each
new vertex, in id order, takes the next rank (above every rank so far, hence
above all its ancestors) and ``low = min(rank, lows of its predecessors)``.
A merge's label work is therefore O(new vertices + their in-edges), with no
fallback.  Appended labels can be looser than a fresh postorder, which only
costs rejections, never exactness.

Long edges are shortcuts over ``DN_1`` paths, so reachability over ``DN_1``
equals reachability over the hyper graph — the labels are computed on the
base DAG only and remain valid for pruning long-edge traversal too.  Labels
are derived data: they are not persisted, and a reopened index rebuilds them
from the restored DAG.
"""

from __future__ import annotations

from typing import List, Tuple

from .dag import ContactDag, DagPatch

__all__ = ["ReachLabelIndex"]


class ReachLabelIndex:
    """Reversed-postorder interval labels, extended append-only per patch.

    Built once from a :class:`~repro.reachgraph.dag.ContactDag` and then
    extended by :meth:`apply_patch` whenever the owning index applies a
    :class:`~repro.reachgraph.dag.DagPatch`.  Ranks are always a permutation
    of ``1..num_labels``.
    """

    def __init__(self) -> None:
        self._ranks: List[int] = []
        self._lows: List[int] = []
        # Ledgers.
        self.append_passes = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, dag: ContactDag) -> "ReachLabelIndex":
        """Label every vertex of ``dag`` with a deterministic reversed postorder."""
        num_nodes = dag.num_nodes
        ranks = [0] * num_nodes
        visited = [False] * num_nodes
        counter = 0
        # Roots (vertices without successors) in id order; children in
        # predecessor-list order.  Every vertex reaches some root, so the
        # traversal ranks them all, reproducibly across processes.
        for root in range(num_nodes):
            if visited[root] or dag.successors(root):
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            visited[root] = True
            while stack:
                node_id, child_index = stack[-1]
                predecessors = dag.predecessors(node_id)
                if child_index < len(predecessors):
                    stack[-1] = (node_id, child_index + 1)
                    child = predecessors[child_index]
                    if not visited[child]:
                        visited[child] = True
                        stack.append((child, 0))
                else:
                    stack.pop()
                    counter += 1
                    ranks[node_id] = counter
        index = cls()
        index._ranks = ranks
        index._lows = list(ranks)
        # Vertex ids are a topological order, so a forward id sweep folds
        # every predecessor's low before its successors read it.
        index._extend_lows(dag, 0)
        return index

    def _extend_lows(self, dag: ContactDag, first: int) -> None:
        lows = self._lows
        for node_id in range(first, dag.num_nodes):
            low = lows[node_id]
            for pred in dag.predecessors(node_id):
                if lows[pred] < low:
                    low = lows[pred]
            lows[node_id] = low

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_labels(self) -> int:
        """Number of labelled vertices."""
        return len(self._ranks)

    def label(self, node_id: int) -> Tuple[int, int]:
        """The ``(low, rank)`` interval of a vertex."""
        return (self._lows[node_id], self._ranks[node_id])

    def rejects(self, source_id: int, target_id: int) -> bool:
        """True when labels *prove* ``target_id`` is unreachable from ``source_id``.

        One-sided: ``False`` means "maybe reachable" and the caller must fall
        back to exact traversal.  A ``True`` answer is always exact.
        """
        if source_id == target_id:
            return False
        rank = self._ranks[source_id]
        if rank > self._ranks[target_id] or rank < self._lows[target_id]:
            self.rejections += 1
            return True
        return False

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply_patch(self, patch: DagPatch, dag: ContactDag) -> None:
        """Label the vertices ``patch`` appended to ``dag``.

        Every new vertex, in id order, takes the next rank and the minimum
        of that rank and its predecessors' lows.  Labels of the
        ``patch.base_nodes`` old vertices are only read, never written.
        """
        if len(self._ranks) != patch.base_nodes:
            raise ValueError(
                f"label index covers {len(self._ranks)} vertices but the patch "
                f"extends a base of {patch.base_nodes}"
            )
        for node_id, _, _, _ in patch.new_nodes:
            if node_id != len(self._ranks):
                raise ValueError("patch vertex ids must continue the numbering")
            self._ranks.append(node_id + 1)
            self._lows.append(node_id + 1)
        self._extend_lows(dag, patch.base_nodes)
        self.append_passes += 1

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_consistency(self, dag: ContactDag) -> None:
        """Raise when any label violates the containment invariant.

        Verifies ``rank(parent) < rank(child)`` and
        ``low(child) <= low(parent)`` for every DN_1 edge — the two local
        conditions that make :meth:`rejects` exact.  Used by tests.
        """
        if dag.num_nodes != len(self._ranks):
            raise AssertionError("label index does not cover the DAG")
        for node_id in range(dag.num_nodes):
            if self._lows[node_id] > self._ranks[node_id]:
                raise AssertionError(f"low > rank at vertex {node_id}")
            for child in dag.successors(node_id):
                if self._ranks[child] <= self._ranks[node_id]:
                    raise AssertionError(
                        f"edge {node_id}->{child} violates rank ordering"
                    )
                if self._lows[child] > self._lows[node_id]:
                    raise AssertionError(
                        f"edge {node_id}->{child} violates low containment"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReachLabelIndex(labels={self.num_labels}, "
            f"passes={self.append_passes})"
        )
