"""Problem contract shared by every maximal-subgraph plugin.

A plugin states only what is specific to its family: a membership
predicate over ground-element bitmasks (``_solution_mask``), a candidate
rule (``_neighbor_masks``, or ``_candidates`` for the pspace families)
and a canonical order.  Completion, the adjacency closure of connected
families and the input checks of graph families live here once, driven
by the class flags ``ground_kind``, ``directed`` and ``connected``.
Solutions cross the API as sorted tuples of element ids; all hot paths
run on bitmasks with per-instance memoization of the predicate.
"""

from __future__ import annotations

from typing import Iterable

from ..graphs import (Graph, bits, component_bfs_order, mask_cc,
                      mask_components, mask_dists, mask_of)


def tuple_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


class Problem:
    variant: str = ""
    ground_kind: str = "v"  # "v": vertex ids, "e": edge ids
    connected = False  # solutions must be connected; completion grows by adjacency

    def __init__(self, ground_size: int):
        self.ground_size = ground_size
        self.comp_calls = 0
        self._sol_cache: dict[int, bool] = {}

    # -- membership ---------------------------------------------------
    def _solution_mask(self, mask: int) -> bool:
        raise NotImplementedError

    def sol(self, mask: int) -> bool:
        cache = self._sol_cache
        hit = cache.get(mask)
        if hit is None:
            hit = self._solution_mask(mask)
            cache[mask] = hit
        return hit

    def is_solution(self, elems: Iterable[int]) -> bool:
        return self.sol(mask_of(elems))

    def is_maximal_solution(self, elems: Iterable[int]) -> bool:
        # single-element extensions suffice: every family here is strongly
        # accessible, so a larger solution implies an addable element
        mask = mask_of(elems)
        if not self.sol(mask):
            return False
        for e in range(self.ground_size):
            b = 1 << e
            if not (mask & b) and self.sol(mask | b):
                return False
        return True

    # -- completion ----------------------------------------------------
    def _comp_mask(self, mask: int) -> int:
        if self.connected:
            return self._comp_connected(mask)
        return self._comp_hereditary(mask)

    def comp_mask(self, mask: int) -> int:
        if not self.sol(mask):
            raise ValueError("completion requires a solution as input")
        self.comp_calls += 1
        return self._comp_mask(mask)

    def comp(self, elems: Iterable[int]) -> tuple[int, ...]:
        return tuple_of(self.comp_mask(mask_of(elems)))

    def first_solution(self) -> tuple[int, ...]:
        return tuple_of(self.comp_mask(0))

    def _comp_hereditary(self, mask: int) -> int:
        # ascending single pass; a failed element can never become addable
        for e in range(self.ground_size):
            b = 1 << e
            if not (mask & b) and self.sol(mask | b):
                mask |= b
        return mask

    def _adjacent_mask(self, mask: int) -> int:
        """Candidate elements adjacent to the current set (connected comp):
        the graph neighbors of the vertices in it."""
        adj = self.g.und_mask
        m = 0
        for u in bits(mask):
            m |= adj[u]
        return m

    def _restrict(self, cand: int, v: int) -> int:
        """A vertex candidate cut down to v's component when solutions must
        be connected."""
        if self.connected:
            return mask_cc(self.g.und_mask, cand, v)
        return cand

    def _comp_connected(self, mask: int) -> int:
        if mask == 0:
            for e in range(self.ground_size):
                if self.sol(1 << e):
                    mask = 1 << e
                    break
            else:
                return 0
        rejected = 0
        while True:
            cands = self._adjacent_mask(mask) & ~mask & ~rejected
            added = False
            for e in bits(cands):
                b = 1 << e
                if self.sol(mask | b):
                    mask |= b
                    added = True
                    break  # rescan: smaller ids may have become adjacent
                rejected |= b
            if not added:
                return mask

    # -- neighboring ----------------------------------------------------
    def _neighbor_masks(self, smask: int) -> Iterable[int]:
        raise NotImplementedError

    def neighbors(self, solution: Iterable[int]) -> list[tuple[int, ...]]:
        """Maximal solutions adjacent to ``solution`` in the solution graph.

        Deterministic order; duplicates collapsed to first occurrence.
        """
        smask = mask_of(solution)
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for m in self._neighbor_masks(smask):
            if m not in seen:
                seen.add(m)
                out.append(tuple_of(m))
        return out

    # -- instrumentation / test surface ---------------------------------
    def comp_budget(self) -> int:
        """Upper bound on comp calls in a single neighbors() invocation."""
        raise NotImplementedError

    def canonical_order(self, solution: Iterable[int]) -> list[int]:
        raise NotImplementedError

    def prefix_overlap(self, elems: Iterable[int], target: Iterable[int]) -> int:
        """Length of the longest prefix of target's canonical order inside elems."""
        have = set(elems)
        k = 0
        for e in self.canonical_order(target):
            if e not in have:
                break
            k += 1
        return k


class GraphProblem(Problem):
    """A family of vertex sets (``ground_kind`` "v") or edge sets ("e") of
    one graph, directed exactly when ``directed`` is set."""

    directed = False

    def __init__(self, g: Graph):
        if g.directed != self.directed:
            kind = "a directed" if self.directed else "an undirected"
            raise ValueError(f"{self.variant} expects {kind} graph")
        super().__init__(g.n if self.ground_kind == "v" else g.m)
        self.g = g


class PspaceProblem(GraphProblem):
    """Contract addition for the dictionary-free parent-forest traversal.

    The four families supported here are vertex problems on an undirected
    graph where every single vertex is a solution, ordered by BFS either
    from a root (connected-hereditary) or per component leader
    (hereditary).  Their candidate rule is ``_candidates``, which serves
    both engines: completed by ``comp_mask`` for ``neighbors`` and by the
    lexicographic completion for ``neighbors_at``.
    """

    order_hereditary = False  # per-component leader keys when True

    def _candidates(self, smask: int, incoming: Iterable[int]) -> Iterable[int]:
        """Uncompleted candidate masks for each incoming vertex outside the
        solution, in a fixed order."""
        raise NotImplementedError

    def _neighbor_masks(self, smask: int):
        incoming = (v for v in range(self.g.n) if not (smask >> v) & 1)
        for cand in self._candidates(smask, incoming):
            yield self.comp_mask(cand)

    def neighbors_at(self, solution: Iterable[int], w: int) -> list[tuple[int, ...]]:
        """Canonical-reconstruction candidates for extender w (lex completion).

        The result holds no duplicates: the parent-forest traversal accepts
        a child only when it is regenerated by the first matching candidate,
        and a repeated candidate would defeat that identity check.
        """
        from ..pspace import comp_lex

        stuple = tuple(sorted(solution))
        if w in stuple:
            return [stuple]
        cands = self._candidates(mask_of(stuple), (w,))
        return list(dict.fromkeys(comp_lex(self, tuple_of(c)) for c in cands))

    def canonical_order(self, solution) -> list[int]:
        return component_bfs_order(self.g, solution)

    def addable(self, xmask: int) -> list[int]:
        out = []
        for e in range(self.ground_size):
            b = 1 << e
            if not (xmask & b) and self.sol(xmask | b):
                out.append(e)
        return out

    def order_keys(self, xmask: int, v: int, elems: Iterable[int]) -> dict[int, tuple]:
        """Sort keys for elements of X and X+ under the BFS order rooted at v.

        Extensions are keyed by the values they take in G[X + {e}].  Keys are
        (component-leader slot, distance from leader, id); the leader slot is
        0 for v's own component and leader id + 1 otherwise, so the root
        component always sorts first.
        """
        adj = self.g.und_mask
        keys: dict[int, tuple] = {}
        if not (xmask >> v) & 1:
            raise ValueError(f"order root {v} is not in the set")
        if not self.order_hereditary:
            dist = mask_dists(adj, xmask, v)
            for e in elems:
                if (xmask >> e) & 1:
                    keys[e] = (0, dist[e], e)
                else:
                    nb = [dist[u] for u in bits(adj[e] & xmask) if u in dist]
                    if not nb:
                        raise ValueError(f"element {e} not attached to the set")
                    keys[e] = (0, 1 + min(nb), e)
            return keys

        comps = mask_components(adj, xmask)
        info: dict[int, tuple[int, int]] = {}
        comp_data = []
        for comp in comps:
            if (comp >> v) & 1:
                leader, slot = v, 0
            else:
                leader = (comp & -comp).bit_length() - 1
                slot = leader + 1
            dl = mask_dists(adj, comp, leader)
            comp_data.append((comp, leader, slot, dl))
            for u in bits(comp):
                info[u] = (slot, dl[u])
        for e in elems:
            if (xmask >> e) & 1:
                slot, d = info[e]
                keys[e] = (slot, d, e)
                continue
            touched = [cd for cd in comp_data if adj[e] & cd[0]]
            members = [e] + [u for cd in touched for u in (cd[1],)]
            if any((cd[0] >> v) & 1 for cd in touched):
                leader, slot = v, 0
            else:
                leader = min(members)
                slot = leader + 1
            if leader == e:
                keys[e] = (slot, 0, e)
            else:
                home = next(cd for cd in touched if (cd[0] >> leader) & 1)
                d = 1 + min(home[3][u] for u in bits(adj[e] & home[0]))
                keys[e] = (slot, d, e)
        return keys
