"""Maximal proper interval subgraph plugins: connected induced and induced.

A vertex set is a solution when every component admits a unit-interval
arrangement: an ordering in which each vertex's earlier neighbors form a
clique occupying a suffix of the order.  Recognition builds the
lexicographically smallest such arrangement greedily, in polynomial time.
Completion lays out only the component that the added vertex joins
(``_extension_test``).
Candidate generation inserts the incoming vertex into an exact integer
realization of an arrangement (``_reps``: the canonical one, its reverse,
and both with each run of true twins, one closed neighborhood, reordered)
at the finitely many combinatorially distinct positions, then deletes the
vertices that contradict it by one rule for both variants (``_repair``).
Each arrangement gets a table (``_table``) once per ``neighbor_masks``
call: its prefix masks and the distinct signatures of its positions, the
masks of the intervals a new one there overlaps, follows and precedes.
The realization reads only the arrangement's shape, the number of earlier
neighbors of each vertex, so the signatures are found once per shape, as
indices into the order (``_signatures``), and read off the prefix masks.
A repair is then three mask operations, and a position whose signature
repeats is not repaired again.
Inside a run (``family_memos``) three memos keep what depends on a key
alone, one entry per distinct key the run meets, and outside a run none
is kept: each component's layout, or None, by its mask (``_layouts``),
which the extension test and the candidate rule read; the index
signatures by shape (``_shapes``), where a shape of L vertices starts at
0 and then steps up by at most one (each vertex's earlier neighbors end
the order), so L vertices have at most the Catalan number C(L-1) shapes;
and the at most four arrangements ``_reps`` gives, by the component and
v's neighbors in it (``_arrangements``).  None is capped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from typing import Optional

from ..graphs import bits, chordal_cliques, mask_cc, mask_components
from .base import GraphProblem, run_kept


class _ProperIntervalBase(GraphProblem):
    family_memos = ("_layouts", "_shapes", "_arrangements")
    _layouts = None  # component layouts of an enumerate run in progress, by mask
    _shapes = None  # insertion signatures of a run, by arrangement shape
    _arrangements = None  # _reps of a run, by component and v's neighbors in it

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
        verts = bits(cmask)
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

    def _layout(self, cmask: int) -> Optional[tuple[int, ...]]:
        """``component_layout(cmask)``, kept by its mask inside a run."""
        return run_kept(self._layouts, cmask, self.component_layout, cmask)

    def _solution_mask(self, mask: int) -> bool:
        # the base has already made a connected variant's set one component
        comps = [mask] if self.connected else mask_components(self.g.und_mask, mask)
        return all(self.component_layout(c) is not None for c in comps)

    def _extension_test(self, x: int, e: int) -> bool:
        # the other components of x + e are components of the solution x
        return self._layout(mask_cc(self.g.und_mask, x | 1 << e, e)) is not None

    # -- realization and insertion ----------------------------------------
    @staticmethod
    def _realize(shape) -> list[int]:
        """Exact integer start positions for an arrangement of this shape,
        the number of earlier neighbors of each vertex of the order, for
        intervals of length ``1 << len(shape)``.

        Starts strictly increase and overlap holds exactly for graph edges
        (|difference| < the length); midpoint choices leave slack around
        every non-forced boundary.  The t-th start is a multiple of
        2^(len(shape) - t), so every start and every boundary is even.
        """
        unit = 1 << len(shape)
        starts = [0] if shape else []
        for t in range(1, len(shape)):
            a = t - shape[t]
            base = starts[t - 1]
            if a > 0:
                base = max(base, starts[a - 1] + unit)
            hi = starts[a] + unit
            # exact: base and hi are multiples of 2^(len(shape) - t + 1)
            starts.append((base + hi) // 2)
        return starts

    def _signatures(self, shape) -> list[tuple[int, int, int, int]]:
        """The distinct signatures of the start positions of a new interval
        in an arrangement of this shape, in order of first occurrence, as
        order indices (a, b, c, d): it overlaps the intervals ``order[b:a]``,
        and ``order[c:]`` start after it and ``order[:d]`` before it.  The
        masks differ where the indices do, since an overlap is empty only
        with a = b = c = d.  The positions are, for every existing interval,
        just before/after its start is reached by the new right end, exactly
        aligned, and just before/after its end is passed by the new left
        end; starts and boundaries are even, so an offset of 1 lands
        strictly between two of them.  The starts strictly increase, so each
        index is found by bisection."""
        starts = self._realize(shape)
        unit = 1 << len(shape)
        sigs: dict[tuple[int, int, int, int], None] = {}
        for s in starts:
            for sv in (s - unit - 1, s - unit + 1, s, s + unit - 1, s + unit + 1):
                sigs[(bisect_left(starts, sv + unit), bisect_right(starts, sv - unit),
                      bisect_right(starts, sv), bisect_left(starts, sv))] = None
        return list(sigs)

    def _table(self, order) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
        """The insertion table of an arrangement: the mask of each vertex
        and those before it in the order, and the distinct signatures
        (overlapped, later, earlier) of the start positions of a new
        interval, in order of first occurrence: the masks of the intervals
        it overlaps, that start after it and that start before it, read off
        the prefix masks of the order at the indices ``_signatures`` gives
        for the arrangement's shape, kept by shape inside a run."""
        und = self.g.und_mask
        shape, pre = [], [0]  # pre[i]: mask of order[:i]
        for u in order:
            shape.append((und[u] & pre[-1]).bit_count())
            pre.append(pre[-1] | 1 << u)
        shape = tuple(shape)
        full = pre[-1]
        return dict(zip(order, pre[1:])), [
            (pre[a] ^ pre[b], full ^ pre[c], pre[d])
            for a, b, c, d in run_kept(self._shapes, shape, self._signatures, shape)]

    # -- repair ------------------------------------------------------------
    def _repair(self, cmask: int, v: int, sig, upto: int = -1, touch: int = -1) -> int:
        """Insert v into ``cmask`` at a position of signature ``sig`` from
        ``_table`` and drop the vertices contradicting its interval: those
        whose overlap with it disagrees with their adjacency to v, the
        earlier intervals outside ``upto`` and the later ones in ``touch``.
        Unpinned, both are everything: nothing lies between, and every
        later interval goes.  Pinned at an earlier interval t, ``upto`` is
        t's entry of the table, so the order positions strictly between t
        and v go, and ``touch`` holds the neighbors of v and of t."""
        over, later, earlier = sig
        removed = (over ^ self.g.und_mask[v] & cmask) | (earlier & ~upto) | (later & touch)
        return cmask & ~removed | 1 << v

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

    def _reps(self, cmask: int, v: int):
        """Arrangements of a host component worth trying for extender v
        (``_arrange``), kept by the component and v's neighbors in it
        inside a run."""
        nb = self.g.und_mask[v] & cmask
        return run_kept(self._arrangements, (cmask, nb), self._arrange, cmask, nb)

    def _arrange(self, cmask: int, nb: int):
        """The canonical arrangement of a host component, its reverse, and
        both with every run of true twins (one closed neighborhood in the
        component, so interchangeable in any arrangement) reordered to put
        the non-neighbors of the extender, whose neighbors there are
        ``nb``, first."""
        und = self.g.und_mask
        lay = self._layout(cmask)
        rev = lay[::-1]

        def split(order):
            runs = groupby(order, key=lambda u: (und[u] & cmask) | 1 << u)
            return tuple([u for _, run in runs
                          for u in sorted(run, key=lambda u: ((nb >> u) & 1, u))])

        return list(dict.fromkeys((lay, rev, split(lay), split(rev))))

    def _candidates(self, smask: int, incoming):
        und = self.g.und_mask
        tables: dict[tuple, tuple] = {}  # _table of each arrangement, once per call

        def table(order):
            got = tables.get(order)
            if got is None:
                got = tables[order] = self._table(order)
            return got

        for v in incoming:
            if self.connected:
                # the first insertion position lies before every interval,
                # and a component without a neighbor of v keeps none of them:
                # both leave v alone once cut, so yield that once and arrange
                # only the host components that touch v, each once; a repeated
                # candidate cuts to a set whose completion the base has already
                # looked up or computed, so each is yielded once
                yield 1 << v
                uncut = {1 << v}
                for cmask in dict.fromkeys(c for host in self._hosts(smask, v)
                                           for c in mask_components(und, host) if c & und[v]):
                    for order in self._reps(cmask, v):
                        for sig in table(order)[1]:
                            cand = self._repair(cmask, v, sig)
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
                        upto, sigs = table(order)
                        upto, touch = upto[t_prev], und[v] | und[t_prev]
                        for sig in sigs:
                            # the pinned interval precedes and overlaps v
                            if (sig[0] & sig[2]) >> t_prev & 1:
                                yield keep | self._repair(ci, v, sig, upto, touch)

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
