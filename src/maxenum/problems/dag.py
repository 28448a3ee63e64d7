"""Maximal connected acyclic subgraph plugins for directed graphs.

Solutions are vertex sets (induced variant) or arc sets (edge variant)
that are acyclic and connected in the underlying undirected sense.
Candidates make the incoming element a source or a sink by dropping the
appropriate side of its neighborhood.
"""

from __future__ import annotations

from ..graphs import bits, spanned_masks
from .base import GraphProblem


def _acyclic(out, mask: int) -> bool:
    """True iff the masked vertex set induces no directed cycle, given the
    out-neighbor masks."""
    left = mask
    while left:
        removed, scan = 0, left
        while scan:
            low = scan & -scan
            if not (out[low.bit_length() - 1] & left):
                removed |= low
            scan ^= low
        if not removed:
            return False  # every remaining vertex has an out-arc: cycle
        left &= ~removed
    return True


def _layer_order(und, out, mask: int) -> list[int]:
    """Lexicographically smallest order of the masked vertex set with
    connected prefixes in which every vertex has an empty backward out- or
    in-neighborhood, given undirected and out-neighbor masks.

    The feasibility memo is keyed by placed subsets, so time and space are
    bounded only by 2^|mask|.  It is used only by the ``canonical_order``
    of both dag families, which neither engine calls.
    """
    verts = list(bits(mask))
    inc = [0] * len(out)  # in-neighbor masks, inside the set
    for u in verts:
        for v in bits(out[u] & mask):
            inc[v] |= 1 << u

    def feasible(placed: int, v: int) -> bool:
        if placed and not und[v] & placed:
            return False
        return not (out[v] & placed and inc[v] & placed)

    memo: dict[int, bool] = {}

    def completable(placed: int) -> bool:
        if placed == mask:
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
    while placed != mask:
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
    vertex_order = staticmethod(_layer_order)

    def _solution_mask(self, mask: int) -> bool:
        return _acyclic(self.g.out_mask, mask)

    def _candidates(self, smask: int, incoming):
        for v in incoming:
            for drop in (self.g.out_mask[v], self.g.in_mask[v]):
                yield (smask & ~drop) | (1 << v)

    def comp_budget(self) -> int:
        return 2 * self.ground_size


class DagEdgeConnected(GraphProblem):
    variant = "dag-edge-connected"
    ground_kind = "e"
    directed = True
    connected = True
    vertex_order = staticmethod(_layer_order)

    def _solution_mask(self, emask: int) -> bool:
        _, out, span = spanned_masks(self.g, emask)
        return _acyclic(out, span)

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
            for drop in (tail_in, head_out):
                yield (emask & ~drop) | (1 << e)

    def comp_budget(self) -> int:
        return 2 * self.ground_size
