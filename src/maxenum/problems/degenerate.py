"""Maximal k-degenerate subgraph plugins: induced and edge (exp engine only).

Both predicates run one worklist k-core peel (Batagelj & Zaversnik
2003), ``_peel_core``, which returns the (k+1)-core.  Completion asks a
test that peels only until the added element goes (``_extension_test``):
a solution x has no (k+1)-core, so any (k+1)-core of x + e holds e, as a
new core holds the inserted element in core maintenance (Li, Yu & Mao
2014).  A peel that rejects e leaves that core C, or for kdeg-edge the
edge set of the (k+1)-core of the graph x + e spans, and W = C - e is a
certificate: each vertex of C has at least k+1 neighbors (edges) in C,
so for any set Y holding W, Y + e holds C and is not k-degenerate.
Inside a run (``run_memos``) the test keeps these by element
(``_cores``) and rejects e unpeeled where a kept W for e lies inside x.
Each element keeps at most ``CORE_CAP``, most recently hit or found
first, so a run keeps at most ``CORE_CAP`` times the ground size masks;
outside a run none is kept and the test always peels.  On the
kdeg-induced cell of ``hereditary-exp`` (k = 1, part 0, seed 1) runs
peel 39,109 times instead of 115,746, with the same 47,247 completions.
Candidates keep, for each incoming element, every set of at most k
(induced) or k-1 (edge, per endpoint) of its neighbors, in lexicographic
order of their sorted ids.  The families' canonical order, the reversed
degeneracy order of each component, is a test witness
(``tests/proximity.py``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from ..graphs import Graph, mask_of, spanned_masks
from .base import GraphProblem, tuple_of

# certificates kept per element in a run: a miss scans them all, and with
# no cap lists grew to 147 on G(22, 50) at k = 2, whose runs then took 1.2
# times as long as with no certificates; caps of 8, 12 and 16 timed alike
# at k = 1, 2 and 3, and none slower than no certificates
CORE_CAP = 16


def _peel_core(adj, mask: int, k: int, until: int = -1) -> int:
    """The (k+1)-core of the set, or 0 once deleting vertices of degree
    <= k, each as soon as a worklist sees it, deletes every vertex of
    ``until`` in it, all of them by default; the peel stops when the last
    of them goes.  What is left at the end is the (k+1)-core, which is
    unique, so any order will do: the set is k-degenerate iff it is 0."""
    left = scan = mask
    while scan:
        low = scan & -scan
        scan ^= low
        a = adj[low.bit_length() - 1] & left
        if a.bit_count() <= k:
            left ^= low
            if not left & until:
                return 0
            scan |= a
    return left if left & until else 0


class _KDegenerate(GraphProblem):
    min_k = 0
    _cores = None  # certificates of an enumerate run in progress, by element

    def __init__(self, g: Graph, k: int):
        super().__init__(g)
        if type(k) is not int:
            raise ValueError(f"k must be an integer: k={k!r}")
        if k < self.min_k:
            raise ValueError(f"{self.variant} needs k >= {self.min_k}: k={k}")
        self.k = k

    def run_memos(self, **engine_memos):
        """The engine's run memos, and the run's certificates (``_cores``)."""
        return super().run_memos(_cores={}, **engine_memos)

    def _certified(self, x: int, e: int) -> bool:
        """Whether the run keeps a certificate for e that lies inside x; a
        hit moves to the front of e's list."""
        cores = self._cores
        if cores:
            certs = cores.get(e)
            if certs:
                for w in certs:
                    if w | x == x:
                        if w is not certs[0]:
                            certs.remove(w)
                            certs.insert(0, w)
                        return True
        return False

    def _certify(self, e: int, core: int) -> bool:
        """Whether ``core``, the (k+1)-core a test found in x + e, or 0, is
        empty; inside a run a core is kept, without e, at the front of e's
        list, which drops its last when longer than ``CORE_CAP``."""
        cores = self._cores
        if core and cores is not None:
            certs = cores.setdefault(e, [])
            certs.insert(0, core & ~(1 << e))
            if len(certs) > CORE_CAP:
                certs.pop()
        return not core


class KDegenerateInduced(_KDegenerate):
    variant = "kdeg-induced"

    def _solution_mask(self, mask: int) -> bool:
        return not _peel_core(self.g.und_mask, mask, self.k)

    def _extension_test(self, x: int, e: int) -> bool:
        # x has no (k+1)-core, so x + e has one exactly when e survives the
        # peel: e with at most k neighbors in x goes first, and a kept
        # certificate inside x rejects e unpeeled
        und = self.g.und_mask
        if (und[e] & x).bit_count() <= self.k:
            return True
        if self._certified(x, e):
            return False
        return self._certify(e, _peel_core(und, x | 1 << e, self.k, 1 << e))

    def _candidates(self, smask: int, incoming):
        for v in incoming:
            nb = tuple_of(self.g.und_mask[v] & smask)
            base = (smask & ~mask_of(nb)) | (1 << v)
            for size in range(min(self.k, len(nb)) + 1):
                for kept in combinations(nb, size):
                    yield base | mask_of(kept)

    def comp_budget(self) -> int:
        n = self.ground_size
        return n * sum(comb(n, i) for i in range(self.k + 1))


class KDegenerateEdge(_KDegenerate):
    variant = "kdeg-edge"
    ground_kind = "e"
    min_k = 1

    def _solution_mask(self, emask: int) -> bool:
        # the induced peel, run on the spanned subgraph
        und, _, span = spanned_masks(self.g, emask)
        return not _peel_core(und, span, self.k)

    def _extension_test(self, x: int, e: int) -> bool:
        # the induced test's argument on the spanned subgraph: x + e has a
        # (k+1)-core exactly when e survives the peel, each peeled vertex
        # dropping its edges; an endpoint with fewer than k edges in x goes
        # first, and e with it.  What is left of a full peel is the edge set
        # of the spanned (k+1)-core
        at, k = self.g.edge_mask_at, self.k
        u, v = self.g.edges[e]
        if (at[u] & x).bit_count() < k or (at[v] & x).bit_count() < k:
            return True
        if self._certified(x, e):
            return False
        und = self.g.und_mask
        left = x | 1 << e
        scan = (1 << self.g.n) - 1
        while scan:
            low = scan & -scan
            scan ^= low
            w = low.bit_length() - 1
            a = at[w] & left
            if a and a.bit_count() <= k:
                if (a >> e) & 1:
                    return True
                left ^= a
                scan |= und[w]
        return self._certify(e, left)

    def _candidates(self, emask: int, incoming):
        for e in incoming:
            for w in self.g.edges[e]:
                inc = tuple_of(self.g.edge_mask_at[w] & emask)
                base = (emask & ~self.g.edge_mask_at[w]) | (1 << e)
                for size in range(min(self.k - 1, len(inc)) + 1):
                    for kept in combinations(inc, size):
                        yield base | mask_of(kept)

    def comp_budget(self) -> int:
        m = self.ground_size
        return 2 * m * sum(comb(m, i) for i in range(self.k))
