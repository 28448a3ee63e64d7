"""Maximal connected acyclic subgraph plugins for directed graphs.

Solutions are vertex sets (induced variant) or arc sets (edge variant)
that are acyclic and connected in the underlying undirected sense.
Candidates make the incoming element a source or a sink by dropping the
appropriate side of its neighborhood.
"""

from __future__ import annotations

from ..graphs import (Graph, bits, edge_canonical_order, mask_cc, mask_of,
                      spanned_masks)
from .base import GraphProblem


def _connected_acyclic(und, out, mask: int) -> bool:
    """True iff the masked vertex set is connected in the underlying
    undirected sense and acyclic, given undirected and out-neighbor masks."""
    if mask and mask_cc(und, mask, (mask & -mask).bit_length() - 1) != mask:
        return False
    left = mask
    while left:
        removed = 0
        for u in bits(left):
            if not (out[u] & left):
                removed |= 1 << u
        if not removed:
            return False  # every remaining vertex has an out-arc: cycle
        left &= ~removed
    return True


def _layer_order(g: Graph, vertices) -> list[int]:
    """Lexicographically smallest order of G[vertices] with connected
    prefixes in which every vertex has an empty backward out- or
    in-neighborhood.

    The feasibility memo is keyed by placed subsets, so time and space are
    bounded only by 2^|vertices|.  It is used only by the ``canonical_order``
    of both dag families, which neither engine calls.
    """
    verts = sorted(vertices)
    full = mask_of(verts)

    def feasible(placed: int, v: int) -> bool:
        if placed and not g.und_mask[v] & placed:
            return False
        return not (g.out_mask[v] & placed and g.in_mask[v] & placed)

    memo: dict[int, bool] = {}

    def completable(placed: int) -> bool:
        if placed == full:
            return True
        hit = memo.get(placed)
        if hit is not None:
            return hit
        ok = any(feasible(placed, v) and completable(placed | (1 << v))
                 for v in verts if not (placed >> v) & 1)
        memo[placed] = ok
        return ok

    order: list[int] = []
    placed = 0
    while placed != full:
        for v in verts:
            if (placed >> v) & 1:
                continue
            if feasible(placed, v) and completable(placed | (1 << v)):
                order.append(v)
                placed |= 1 << v
                break
        else:
            raise ValueError("no valid vertex order exists")
    return order


class DagInducedConnected(GraphProblem):
    variant = "dag-induced-connected"
    directed = True
    connected = True

    def _solution_mask(self, mask: int) -> bool:
        return _connected_acyclic(self.g.und_mask, self.g.out_mask, mask)

    def _candidates(self, smask: int, incoming):
        for v in incoming:
            for drop in (self.g.out_mask[v], self.g.in_mask[v]):
                yield self._restrict((smask & ~drop) | (1 << v), v)

    def comp_budget(self) -> int:
        return 2 * self.ground_size

    def canonical_order(self, solution) -> list[int]:
        return _layer_order(self.g, solution)


class DagEdgeConnected(GraphProblem):
    variant = "dag-edge-connected"
    ground_kind = "e"
    directed = True
    connected = True

    def _solution_mask(self, emask: int) -> bool:
        return _connected_acyclic(*spanned_masks(self.g, emask))

    def _adjacent_mask(self, emask: int) -> int:
        # arcs sharing an endpoint with the set
        m = 0
        for e in bits(emask):
            u, v = self.g.edges[e]
            m |= self.g.edge_mask_at[u] | self.g.edge_mask_at[v]
        return m

    def _restrict(self, emask: int, v: int) -> int:
        """An arc candidate cut down to the arcs of vertex v's component in
        the subgraph it spans."""
        und, _, span = spanned_masks(self.g, emask)
        keep = 0
        for u in bits(mask_cc(und, span, v)):
            keep |= self.g.edge_mask_at[u]
        return keep & emask

    def _candidates(self, emask: int, incoming):
        edges = self.g.edges
        at = self.g.edge_mask_at
        for e in incoming:
            tail, head = edges[e]
            # drop the tail's in-arcs (tail becomes a source) or the
            # head's out-arcs (head becomes a sink)
            tail_in = sum(1 << x for x in bits(emask & at[tail])
                          if edges[x][1] == tail)
            head_out = sum(1 << x for x in bits(emask & at[head])
                           if edges[x][0] == head)
            for drop, anchor in ((tail_in, tail), (head_out, head)):
                yield self._restrict((emask & ~drop) | (1 << e), anchor)

    def comp_budget(self) -> int:
        return 2 * self.ground_size

    def canonical_order(self, solution) -> list[int]:
        return edge_canonical_order(self.g, solution, _layer_order)
