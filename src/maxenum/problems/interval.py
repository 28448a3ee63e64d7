"""Maximal proper interval subgraph plugins: connected induced and induced.

A vertex set is a solution when every component admits a unit-interval
arrangement: an ordering in which each vertex's earlier neighbors form a
clique occupying a suffix of the order.  Recognition builds the
lexicographically smallest such arrangement greedily, in polynomial time.
Candidate generation inserts the incoming vertex into an exact integer
realization of that arrangement at the finitely many combinatorially
distinct positions, then repairs the arrangement by deleting the vertices
that contradict it.  Completion lays out only the component that the
added vertex joins (``_extension_test``).
"""

from __future__ import annotations

from typing import Optional

from ..graphs import bits, chordal_cliques, mask_cc, mask_components
from .base import GraphProblem, tuple_of


class _ProperIntervalBase(GraphProblem):
    # -- recognition -----------------------------------------------------
    def component_layout(self, cmask: int) -> Optional[tuple[int, ...]]:
        """Lexicographically smallest unit-interval order of a connected
        vertex set, or None when there is none: each vertex's neighbors
        among the earlier ones form a clique that ends the order so far.

        The true-twin classes of a connected proper interval graph run in
        one sequence, unique up to reversal (Roberts 1969; Deng, Hell &
        Huang 1996), so from each start the fitting vertex with the most
        placed neighbors, then the fewest in the set, then the smallest id
        comes next in that order, if one starts there.
        """
        und = self.g.und_mask
        verts = tuple_of(cmask)
        for start in verts:
            order, pre = [start], [0, 1 << start]  # pre[i]: mask of order[:i]
            while len(order) < len(verts):
                placed = pre[-1]
                fit = []
                for x in verts:
                    nb = und[x] & placed
                    cnt = nb.bit_count()
                    # nb must be the last cnt placed, and those form a clique: else x,
                    # seeing all but the last, outranked the last when it was placed
                    if cnt and not (placed >> x) & 1 and nb == placed ^ pre[-cnt - 1]:
                        fit.append((-cnt, (und[x] & cmask).bit_count(), x))
                if not fit:
                    break
                order.append(min(fit)[2])
                pre.append(placed | 1 << order[-1])
            if len(order) == len(verts):
                return tuple(order)
        return None if verts else ()

    def _solution_mask(self, mask: int) -> bool:
        # the base has already made a connected variant's set one component
        comps = [mask] if self.connected else mask_components(self.g.und_mask, mask)
        return all(self.component_layout(c) is not None for c in comps)

    def _extension_test(self, x: int, e: int) -> bool:
        # the other components of x + e are components of the solution x
        return self.component_layout(mask_cc(self.g.und_mask, x | 1 << e, e)) is not None

    # -- realization and insertion ----------------------------------------
    def _realize(self, order) -> list[int]:
        """Exact integer start positions for a component arrangement, for
        intervals of length ``1 << len(order)``.

        Starts strictly increase and overlap holds exactly for graph edges
        (|difference| < the length); midpoint choices leave slack around
        every non-forced boundary.  The t-th start is a multiple of
        2^(len(order) - t), so every start and every boundary is even.
        """
        und = self.g.und_mask
        unit = 1 << len(order)
        starts: list[int] = []
        placed = 0
        for t, x in enumerate(order):
            if t == 0:
                starts.append(0)
                placed |= 1 << x
                continue
            cnt = (und[x] & placed).bit_count()
            a = t - cnt
            base = starts[t - 1]
            if a > 0:
                base = max(base, starts[a - 1] + unit)
            hi = starts[a] + unit
            # exact: base and hi are multiples of 2^(len(order) - t + 1)
            starts.append((base + hi) // 2)
            placed |= 1 << x
        return starts

    def _insert_positions(self, starts) -> list[int]:
        """Candidate start positions of a new interval: for every existing
        interval, just before/after its start is reached by the new right
        end, exactly aligned, and just before/after its end is passed by the
        new left end.  Starts and boundaries are even, so an offset of 1
        lands strictly between two of them."""
        unit = 1 << len(starts)
        out = []
        for s in starts:
            out.extend((s - unit - 1, s - unit + 1, s, s + unit - 1, s + unit + 1))
        return out

    # -- repairs -----------------------------------------------------------
    def _repair_connected(self, smask: int, order, starts, v: int, sv) -> int:
        """Drop the vertices contradicting v's inserted interval: everything
        after v, neighbors that miss it, and overlapping non-neighbors."""
        nmask = self.g.und_mask[v]
        unit = 1 << len(order)
        removed = 0
        for w, sw in zip(order, starts):
            after = sw > sv
            overlap = abs(sv - sw) < unit
            is_nb = (nmask >> w) & 1
            if after or (is_nb and not overlap) or (overlap and not is_nb):
                removed |= 1 << w
        return (smask & ~removed) | (1 << v)

    def _repair_induced(self, cimask: int, order, starts, v: int, sv,
                        t_prev: int) -> int:
        """Component repair when a previous interval t_prev is pinned: drop
        the order positions between t_prev and v, later intervals touching
        v or t_prev, and v's overlap contradictions."""
        nmask = self.g.und_mask[v]
        pmask = self.g.und_mask[t_prev]
        stp = starts[order.index(t_prev)]
        unit = 1 << len(order)
        removed = 0
        for w, sw in zip(order, starts):
            b = 1 << w
            overlap = abs(sv - sw) < unit
            is_nb = (nmask >> w) & 1
            if stp < sw < sv:
                removed |= b
            elif sw > sv and ((nmask >> w) & 1 or (pmask >> w) & 1):
                removed |= b
            elif is_nb and not overlap:
                removed |= b
            elif overlap and not is_nb:
                removed |= b
        return (cimask & ~removed) | (1 << v)

    # -- neighboring ---------------------------------------------------------
    def _hosts(self, smask: int, v: int) -> list[int]:
        """Host sets to insert v into: the solution itself, the solution with
        v's neighbors cut down to one maximal clique, the solution minus any
        one vertex, and for each pair (a adjacent to v, b not) the solution
        minus everything that distinguishes a from b.

        Inserting into the solution's own arrangement can be impossible when
        that arrangement pins vertices that the target solution treats as
        interchangeable; a distinguisher of such a pair can never belong to
        the surviving prefix, so deleting all of them first both releases
        the tie and keeps the prefix intact.
        """
        und = self.g.und_mask
        hosts = [smask]
        core = und[v] & smask
        for q in chordal_cliques(und, core):
            hosts.append(smask & ~(core & ~q))
        for z in bits(smask):
            hosts.append(smask & ~(1 << z))
        for a in bits(core):
            for b in bits(smask & ~und[v]):
                diff = (und[a] ^ und[b]) & smask & ~(1 << a) & ~(1 << b)
                if diff:
                    hosts.append(smask & ~diff)
        return list(dict.fromkeys(hosts))

    def _twin_classes(self, cmask: int) -> dict[int, int]:
        """Map each vertex of the component to its true-twin class mask."""
        # true twins are the vertices of one closed neighborhood in the component
        und = self.g.und_mask
        closed, classes = {}, {}
        left = cmask
        while left:
            low = left & -left
            u = low.bit_length() - 1
            c = closed[u] = (und[u] & cmask) | low
            classes[c] = classes.get(c, 0) | low
            left ^= low
        return {u: classes[c] for u, c in closed.items()}

    def _reps(self, cmask: int, v: int):
        """Arrangements of a host component worth trying for extender v:
        the canonical one, its reverse, and both with every run of mutually
        interchangeable vertices reordered to put v's non-neighbors first."""
        lay = self.component_layout(cmask)
        rev = tuple(reversed(lay))
        out = [lay, rev]
        classes = self._twin_classes(cmask)
        nmask = self.g.und_mask[v]

        def split(order):
            res = []
            i = 0
            while i < len(order):
                cls = classes[order[i]]
                j = i
                while j < len(order) and classes[order[j]] == cls:
                    j += 1
                run = order[i:j]
                res.extend(sorted(run, key=lambda u: ((nmask >> u) & 1, u)))
                i = j
            return tuple(res)

        out.append(split(lay))
        out.append(split(rev))
        return list(dict.fromkeys(out))

    def _candidates(self, smask: int, incoming):
        und = self.g.und_mask
        for v in incoming:
            if self.connected:
                # the first insertion position lies before every interval,
                # and a component without a neighbor of v keeps none of them:
                # both leave v alone once cut, so yield that once and arrange
                # only the host components that touch v, each once; a repeated
                # candidate cuts to a set the base has already asked, so each
                # is yielded once
                yield 1 << v
                uncut = {1 << v}
                for cmask in dict.fromkeys(c for host in self._hosts(smask, v)
                                           for c in mask_components(und, host) if c & und[v]):
                    for order in self._reps(cmask, v):
                        starts = self._realize(order)
                        for sv in self._insert_positions(starts):
                            cand = self._repair_connected(cmask, order, starts, v, sv)
                            if cand not in uncut:
                                uncut.add(cand)
                                yield cand
                continue
            # the incoming vertex may start a new component: drop all its
            # neighbors and keep the rest of the solution untouched
            yield (smask & ~und[v]) | (1 << v)
            tried: set[tuple] = set()
            arranged: dict[int, list] = {}  # _reps of each component, once per v
            for host in self._hosts(smask, v):
                comps = mask_components(und, host)
                for t_prev in bits(und[v] & host):
                    ci = next(c for c in comps if (c >> t_prev) & 1)
                    keep = host & ~ci & ~und[v]
                    if ci not in arranged:
                        arranged[ci] = self._reps(ci, v)
                    for order in arranged[ci]:
                        key = (order, keep, t_prev)
                        if key in tried:
                            continue
                        tried.add(key)
                        starts = self._realize(order)
                        stp = starts[order.index(t_prev)]
                        unit = 1 << len(order)
                        for sv in self._insert_positions(starts):
                            if sv <= stp or sv - stp >= unit:
                                continue  # pinned interval precedes and overlaps v
                            yield keep | self._repair_induced(ci, order, starts, v,
                                                              sv, t_prev)

    def comp_budget(self) -> int:
        # hosts per extender: the solution, the clique prunings, the single
        # deletions and the pair-unifying deletions; each host contributes at
        # most four arrangements per component with 5 insertion points per
        # member; actual calls stay far below this because candidates repeat
        n = self.ground_size
        hosts = (n * n) // 4 + 2 * n + 2
        if self.connected:
            return 20 * n * n * hosts + n
        return 40 * self.g.m * n * hosts + n


class ProperIntervalInduced(_ProperIntervalBase):
    variant = "pinterval-induced"
    connected = False


class ProperIntervalConnected(_ProperIntervalBase):
    variant = "pinterval-induced-connected"
    connected = True
