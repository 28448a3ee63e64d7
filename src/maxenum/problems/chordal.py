"""Maximal chordal subgraph plugins: induced, connected induced, edge.

Candidates keep one maximal clique around the incoming element and drop
the rest of its neighborhood, which preserves chordality: the incoming
element becomes simplicial and the remainder is a subgraph of the old
solution with a vertex's edges deleted.
"""

from __future__ import annotations

from ..graphs import (bits, edge_adjacency, edges_by_vertex_order,
                      mask_components, mask_of, peo_of_adjacency,
                      perfect_elimination_order)
from .base import GraphProblem, tuple_of


def _maximal_cliques_chordal(adj: dict[int, set[int]]) -> list[tuple[int, ...]]:
    """Maximal cliques of a chordal adjacency, in elimination-order position."""
    peo = peo_of_adjacency(adj)
    if peo is None:
        raise ValueError("adjacency is not chordal")
    later: set[int] = set(adj)
    cliques: list[frozenset] = []
    for u in peo:
        later.discard(u)
        cliques.append(frozenset({u} | (adj[u] & later)))
    kept: list[frozenset] = []
    for i, c in enumerate(cliques):
        if any(c < d for d in cliques) or any(c == d for d in cliques[:i]):
            continue
        kept.append(c)
    return [tuple(sorted(c)) for c in kept]


class _ChordalInducedBase(GraphProblem):
    def _solution_mask(self, mask: int) -> bool:
        if self.connected and len(mask_components(self.g.und_mask, mask)) > 1:
            return False
        adj = {u: set(bits(self.g.und_mask[u] & mask)) for u in bits(mask)}
        return peo_of_adjacency(adj) is not None

    def cliques_at(self, solution, v: int) -> list[tuple[int, ...]]:
        """Maximal cliques of G[solution + {v}] containing v.

        These are the maximal cliques of the chordal graph induced by the
        solution vertices adjacent to v, each extended by v itself.
        """
        smask = mask_of(solution)
        if (smask >> v) & 1:
            raise ValueError(f"vertex {v} already in the solution")
        core = self.g.und_mask[v] & smask
        if not core:
            return [(v,)]
        adj = {u: set(bits(self.g.und_mask[u] & core)) for u in bits(core)}
        return [tuple(sorted(c + (v,))) for c in _maximal_cliques_chordal(adj)]

    def _neighbor_masks(self, smask: int):
        stuple = tuple_of(smask)
        for v in range(self.g.n):
            if (smask >> v) & 1:
                continue
            nb = self.g.und_mask[v] & smask
            for q in self.cliques_at(stuple, v):
                qmask = mask_of(q)
                cand = (smask & ~(nb & ~qmask)) | (1 << v)
                yield self.comp_mask(self._restrict(cand, v))

    def comp_budget(self) -> int:
        n = self.ground_size
        return n * (n + 1)

    def canonical_order(self, solution) -> list[int]:
        peo = perfect_elimination_order(self.g, solution)
        if peo is None:
            raise ValueError("not a chordal vertex set")
        return list(reversed(peo))


class ChordalInduced(_ChordalInducedBase):
    variant = "chordal-induced"
    connected = False


class ChordalInducedConnected(_ChordalInducedBase):
    variant = "chordal-induced-connected"
    connected = True


class ChordalEdge(GraphProblem):
    """Maximal edge sets inducing a chordal subgraph (exp engine only)."""

    variant = "chordal-edge"
    ground_kind = "e"

    def _solution_mask(self, emask: int) -> bool:
        return peo_of_adjacency(edge_adjacency(self.g, emask)) is not None

    def _comp_mask(self, emask: int) -> int:
        # edge-induced chordal subgraphs are not hereditary-completable in a
        # single pass: an edge rejected now can become addible after another
        # edge supplies its chord, so rescan until a full pass adds nothing
        while True:
            added = False
            for e in range(self.g.m):
                b = 1 << e
                if not (emask & b) and self.sol(emask | b):
                    emask |= b
                    added = True
                    break
            if not added:
                return emask

    def _cliques_containing(self, emask: int, w: int) -> list[tuple[int, ...]]:
        adj = edge_adjacency(self.g, emask)
        if w not in adj:
            return [(w,)]
        return [c for c in _maximal_cliques_chordal(adj) if w in c]

    def _neighbor_masks(self, emask: int):
        for e in range(self.g.m):
            if (emask >> e) & 1:
                continue
            a, b = self.g.edges[e]
            for w, other in ((a, b), (b, a)):
                # keep the other endpoint's edges into a clique around w,
                # making the other endpoint simplicial after adding e
                for q in self._cliques_containing(emask, w):
                    qmask = mask_of(q)
                    keep = 0
                    for e2 in bits(self.g.edge_mask_at[other] & emask):
                        x, y = self.g.edges[e2]
                        mate = y if x == other else x
                        if (qmask >> mate) & 1:
                            keep |= 1 << e2
                    cand = (emask & ~self.g.edge_mask_at[other]) | keep | (1 << e)
                    yield self.comp_mask(cand)

    def comp_budget(self) -> int:
        return 2 * self.ground_size * (self.g.n + 1)

    def canonical_order(self, solution) -> list[int]:
        elist = sorted(solution)
        peo = peo_of_adjacency(edge_adjacency(self.g, mask_of(elist)))
        if peo is None:
            raise ValueError("not a chordal edge set")
        return edges_by_vertex_order(self.g, elist, reversed(peo))
