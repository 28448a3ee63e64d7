"""Maximal connected acyclic subgraph plugins for directed graphs.

Solutions are vertex sets (induced variant) or arc sets (edge variant)
that are acyclic and connected in the underlying undirected sense.
Candidates make the incoming element a source or a sink by dropping the
appropriate side of its neighborhood.  Completion asks a test local to the
added element (``_extension_test``) instead of peeling the whole set: a
solution is acyclic, so a cycle of the grown set runs through the added
element, and it closes exactly when the element reaches itself (Bender,
Fineman, Gilbert & Tarjan, "A new approach to incremental cycle detection
and related problems", ACM Trans. Algorithms, 2016).  The induced variant
walks forward from the added vertex along the arcs inside the set
(``graphs.mask_cc`` over ``Graph.out_mask``) and rejects when it meets a
vertex with an arc into it; the edge variant asks whether the added arc's
head reaches its tail along the arcs of the set (``graphs.span_depth``).
The families' canonical
order, the least layered order, is a test witness (``tests/proximity.py``):
its search is exponential in the set size, and no engine reads it.
"""

from __future__ import annotations

from ..graphs import mask_cc, span_depth, spanned_masks
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


class DagInducedConnected(GraphProblem):
    variant = "dag-induced-connected"
    directed = True
    connected = True

    def _extension_test(self, x: int, e: int) -> bool:
        # the vertices e reaches along arcs inside x + e, e among them; one
        # with an arc into e closes a cycle, a 2-cycle e -> a -> e included
        g = self.g
        return not mask_cc(g.out_mask, x | 1 << e, e) & g.in_mask[e]

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

    def _extension_test(self, x: int, e: int) -> bool:
        # the arc uv closes a directed cycle exactly when v already reaches
        # u along the arcs of x; an element of the reach keeps x connected
        u, v = self.g.edges[e]
        return span_depth(self.g.out_arcs, self.g.end_masks, x, v, u) < 0

    def _solution_mask(self, emask: int) -> bool:
        _, out, span = spanned_masks(self.g, emask)
        return _acyclic(out, span)

    def _candidates(self, emask: int, incoming):
        g = self.g
        for e in incoming:
            tail, head = g.edges[e]
            # drop the tail's in-arcs (tail becomes a source) or the
            # head's out-arcs (head becomes a sink)
            for drop in (g.in_arcs[tail], g.out_arcs[head]):
                yield (emask & ~drop) | (1 << e)

    def comp_budget(self) -> int:
        return 2 * self.ground_size
