"""Problem contract shared by every maximal-subgraph plugin.

A plugin states only what is specific to its family: a membership
predicate over ground-element bitmasks (``_solution_mask``), a candidate
rule (``_candidates``) and an extension test local to the added element
(``_extension_test``).  The four parent-forest
families share one solution order, ``bfs_order``, which the pspace
engine reads.  The other families' canonical orders, which define
proximity in the paper but which no engine reads, are test witnesses
(``tests/proximity.py``).  Driven
by the class flags ``ground_kind``, ``directed``, ``connected`` and
``hereditary``, the rest lives here once: the input checks of graph
families and their element adjacency table ``adj_masks`` (a vertex's graph
neighbors, or the edges that share an endpoint with an edge); one
connectivity walk, ``graphs.mask_cc`` over ``adj_masks``, by which the
neighbor loop (``_neighbor_loop``) cuts each candidate of a connected
family to the component of the one element it adds to the solution, and
``sol`` rejects a non-empty set of a connected family that is not the
component of its lowest element; that loop keeps one map from each cut
candidate to its completion, the exp run's memo for ``neighbor_masks`` in
a run and a fresh one per call otherwise, and completes only a candidate
the map lacks, by ``comp_mask`` for ``neighbor_masks`` and by
``comp_lex_mask`` for ``neighbor_masks_at``; the extension rule
``_reach``, the elements that can extend a set (for a connected family,
those adjacent to it), which completion, ``addable`` and maximality all
scan.  A completion computes the reach once and, for a connected family
or one that is not ``hereditary``, grows it with each added element
(``_grow_reach``), and it asks whether an element extends the
current solution through ``_extension_test``, which each of the sixteen
families gives, with its predicate's verdicts and without re-deciding the
grown set: an element of the reach keeps a connected family's set one
component, so no test walks connectivity.  Three of them,
bipartite-edge, chordal-edge and dag-edge-connected, walk the graph the
set spans from one endpoint of the added edge (``graphs.span_depth``),
over the edge tables the ``Graph`` holds; dag-induced-connected walks
forward from the added vertex (``graphs.mask_cc`` over the out-arcs), and
the hulls read, for the added point, the obstacle walls it does not lie
in.
An element the test rejects stays rejected in a ``hereditary`` family,
so one that is not ``connected`` completes in one ascending pass;
chordal-edge, where a later edge can supply a rejected edge's chord, is
not one, and its completion rescans from the smallest id after each
addition.  ``addable`` and maximality always ask the predicate, so they
check that test rather than share it.
Each engine completes by one loop, ``comp_mask`` for exp and
``comp_lex_mask`` for pspace, and each loop keeps its run's memo rule:
it looks its input up, and a completion found there is not counted in
``comp_calls``; a computed one is counted once, stops at the first set
it reaches that the run has completed, and is stored under every set it
reached and then under its input.  Both take a solution mask on trust,
as ``neighbor_masks`` does: the engines and ``pspace`` pass sets grown
from checked ones.  The public tuple entries, ``comp`` and
``pspace.comp_lex``, check their input first (``_solution_input``): a
non-solution raises ContractViolation, uncounted and never stored.  The
seeded form of ``comp_lex_mask`` stops at the first element it would add
below its seed; the run's memo keeps the set it reached under each set
it passed, and a later full request finishes from it, uncounted.
A lexicographic round that must choose takes the least element in the
order rooted at its seed by one walk of the layers of G[X]
(``_lex_pick``), which stops before any component whose leader lies
above the smallest addable element.
Both engines walk bitmasks; solutions cross the public API (``neighbors``,
``neighbors_at``, ``comp``) as sorted tuples of element ids, checked on
the way in, and ``neighbors`` and ``neighbors_at`` refuse a set that is
not a maximal solution.  ``sol`` is the plain predicate, with no memo: a
run never asks it, and nothing keeps its verdicts.
A run's memos are opened by ``run_memos``, on the instance, and the
outer ones restored when the run ends; calls outside a run keep none.
Every run has its engine's completion memo (``_comp_memo`` for
``enumerate_exp``, ``_lex_memo`` for ``enumerate_pspace``, capped by
``_LexMemo``).  A family names its own in ``family_memos``, each a fresh
dict in a run, and none changes a verdict, a candidate or its order:
``_cores`` and ``_kept`` in ``degenerate``, ``_cliques`` in ``chordal``,
``_walls_at`` in ``geometry``, and ``_layouts``, ``_shapes``,
``_arrangements``, ``_tables`` and ``_cliques`` in ``interval``, whose
docstrings give each memo's key and bound.  What a family builds from a
key alone it gets through ``run_kept``, once per key in a run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable

from ..graphs import ContractViolation, Graph, bits, checked_mask, mask_cc


_MISSING = object()


def run_kept(memo, key, build, *args):
    """``build(*args)``, which depends on ``key`` alone, kept under ``key``
    in the run memo ``memo``: built once per key inside a run, and every
    time outside one (``memo`` None)."""
    if memo is None:
        return build(*args)
    got = memo.get(key, _MISSING)
    if got is _MISSING:
        got = memo[key] = build(*args)
    return got


def bfs_order(und, mask: int) -> list[int]:
    """The parent-forest solution order of the masked vertex set: each
    component's BFS layers from its smallest vertex, each layer ascending,
    the components by ascending smallest vertex.  This is the one
    definition of the order; the other layer walks (``_lex_pick``,
    ``pspace._prefix`` and ``bipartite._two_color_masks``) follow it
    inline."""
    order, left, layer = [], mask, mask & -mask
    while layer:
        left ^= layer
        nbrs = 0
        while layer:
            low = layer & -layer
            u = low.bit_length() - 1
            order.append(u)
            nbrs |= und[u]
            layer ^= low
        layer = nbrs & left or left & -left
    return order


class Problem:
    variant: str = ""
    ground_kind: str = "v"  # "v": vertex ids, "e": edge ids
    connected = False  # solutions must be connected; completion grows by adjacency
    hereditary = True  # an element rejected at a solution stays rejected as it grows

    def __init__(self, ground_size: int):
        self.ground_size = ground_size
        self.comp_calls = 0

    # -- membership ---------------------------------------------------
    def _solution_mask(self, mask: int) -> bool:
        raise NotImplementedError

    def sol(self, mask: int) -> bool:
        """The membership predicate."""
        # a set of a connected family is one component, or no solution
        return ((not self.connected or not mask
                 or mask_cc(self.adj_masks, mask, (mask & -mask).bit_length() - 1) == mask)
                and self._solution_mask(mask))

    # the family's run memos, by attribute name: each is None on the class
    # and a fresh dict inside a run
    family_memos: tuple[str, ...] = ()

    @contextmanager
    def run_memos(self, **engine_memos):
        """Open one engine run's memos and the family's (``family_memos``),
        by attribute name, and restore the outer ones when the run ends,
        however it ends."""
        memos = {name: {} for name in self.family_memos}
        memos.update(engine_memos)
        outer = {name: getattr(self, name) for name in memos}
        try:
            for name, memo in memos.items():
                setattr(self, name, memo)
            yield
        finally:
            for name, memo in outer.items():
                setattr(self, name, memo)

    def _mask(self, elems: Iterable[int]) -> int:
        """The bitmask of element ids given from outside, each checked to
        lie in the ground set."""
        return checked_mask(elems, self.ground_size,
                            "element id {e} out of range for ground size {n}")

    def is_solution(self, elems: Iterable[int]) -> bool:
        return self.sol(self._mask(elems))

    def is_maximal_solution(self, elems: Iterable[int]) -> bool:
        # single-element extensions suffice: every family here is strongly
        # accessible, so a larger solution implies an addable element
        mask = self._mask(elems)
        return self.sol(mask) and not self.addable(mask)

    def _maximal_mask(self, elems: Iterable[int]) -> int:
        """The mask of ids given from outside, checked as ``_mask`` checks
        them; a set that is not a maximal solution raises
        ContractViolation."""
        mask = self._mask(elems)
        if not (self.sol(mask) and not self.addable(mask)):
            raise ContractViolation(f"{bits(mask)} is not a maximal solution")
        return mask

    def _solution_input(self, elems: Iterable[int]) -> int:
        """The mask of ids given from outside to a completion, checked as
        ``_mask`` checks them; a set that is not a solution raises
        ContractViolation."""
        mask = self._mask(elems)
        if not self.sol(mask):
            raise ContractViolation("completion requires a solution as input")
        return mask

    # -- extension and completion --------------------------------------
    def _reach(self, mask: int) -> int:
        """The elements outside ``mask`` that can extend it: for a connected
        family with a non-empty set only the adjacent ones, since any other
        disconnects it; otherwise every other ground element."""
        if self.connected and mask:
            return self._adjacent_mask(mask) & ~mask
        return ((1 << self.ground_size) - 1) & ~mask

    def _grow_reach(self, reach: int, mask: int, b: int) -> int:
        """``_reach(mask | b)`` from ``reach == _reach(mask)``, for one
        element b outside ``mask``: every ``_adjacent_mask`` is a union over
        the elements, so the reach only gains the neighbors of b."""
        if self.connected:
            # the reach of the empty set is everything, not its neighbors
            reach = reach | self._adjacent_mask(b) if mask else self._adjacent_mask(b)
        return reach & ~(mask | b)

    def _extension_test(self, x: int, e: int) -> bool:
        """Whether ``x | 1 << e`` is a solution, for a solution x and an
        element e of ``_reach(x)``, which keeps a connected family's set one
        component: the family's predicate's verdict, found by a test local
        to e rather than by deciding the grown set anew."""
        raise NotImplementedError

    def addable(self, mask: int) -> list[int]:
        """The elements whose single addition keeps ``mask`` a solution,
        ascending.  It asks the predicate, never ``_extension_test``, so
        maximality checks stay independent of the test completion uses."""
        return [e for e in bits(self._reach(mask)) if self.sol(mask | 1 << e)]

    _comp_memo = None  # the completions of an enumerate_exp run in progress

    def comp_mask(self, mask: int) -> int:
        """Grow the solution ``mask`` to a maximal one: test the least
        untested element of its reach by ``_extension_test`` until none is
        left.  The reach grows with each addition, so a connected family
        may next test a smaller id; a family that is not ``hereditary``
        also forgets its rejections after each addition.  A hereditary
        family that is not connected tests each element outside ``mask``
        once, in one ascending pass:
        its reach is every other element, and once b is added every
        element below b has been tested.

        Each addition is the least element of the current set's reach that
        keeps it a solution, so the rest of the loop depends on the set
        reached alone.  Inside an exp run the loop therefore returns a
        completion of ``mask`` found in the run's memo, uncounted, though
        the neighbor loop looks its candidates up there first and calls
        this only for one the memo lacks; a computed one, counted in
        ``comp_calls``, stops at the first set it reaches that the memo
        holds, and is stored under every set it reached, the last included,
        and then under ``mask``.
        """
        memo = self._comp_memo
        if memo is not None:
            done = memo.get(mask)
            if done is not None:
                return done
        self.comp_calls += 1
        ok = self._extension_test
        hereditary = self.hereditary
        regrow = self.connected or not hereditary  # else one ascending pass
        start, reached = mask, []
        reach = left = self._reach(mask)
        rejected = 0
        while left:
            b = left & -left
            left ^= b
            if not ok(mask, b.bit_length() - 1):
                rejected |= b
                continue
            if regrow:
                reach = self._grow_reach(reach, mask, b)
                # a rejected element may extend the larger set, unless hereditary
                left = reach & ~rejected if hereditary else reach
            mask |= b
            if memo is not None:
                done = memo.get(mask)
                if done is not None:
                    mask = done
                    break
                reached.append(mask)
        if memo is not None:
            for m in reached:
                memo[m] = mask
            memo[start] = mask
        return mask

    def comp(self, elems: Iterable[int]) -> tuple[int, ...]:
        return bits(self.comp_mask(self._solution_input(elems)))

    def _adjacent_mask(self, mask: int) -> int:
        """The elements adjacent to a set of a connected family: the union of
        its elements' rows of ``adj_masks``."""
        adj = self.adj_masks
        m = 0
        while mask:
            low = mask & -mask
            m |= adj[low.bit_length() - 1]
            mask ^= low
        return m

    # -- neighboring ----------------------------------------------------
    def _candidates(self, smask: int, incoming: Iterable[int]) -> Iterable[int]:
        """Uncompleted candidate masks for each incoming element outside the
        solution, in a fixed order.  Each candidate holds exactly one element
        outside the solution, its incoming element; the neighbor loop cuts
        it to that element's component for a connected family, so a rule
        yields uncut candidates and may repeat one."""
        raise NotImplementedError

    def _neighbor_loop(self, smask: int, incoming: Iterable[int],
                       complete: Callable[[int], int],
                       known: dict[int, int] | None) -> tuple[int, ...]:
        """The distinct completions, by ``complete``, of the candidates of
        the solution mask ``smask`` for the incoming elements, in the order
        of their first occurrence, as a tuple: an exp run holds one for each
        open level of its walk, and a tuple takes one allocation to a list's
        two.  Each candidate is cut, for a connected family, to the component
        of the one element it adds, and looked up by ``get`` in ``known``,
        a map from sets to their completions: the exp run's memo, which
        ``complete`` fills, or, when ``known`` is None, a fresh one for the
        call, which the loop fills.  Only a cut candidate that ``known``
        lacks is completed, so each distinct one is completed at most once
        per call."""
        found: dict[int, None] = {}
        own = known is None
        if own:
            known = {}
        for cand in self._candidates(smask, incoming):
            if self.connected:
                cand = mask_cc(self.adj_masks, cand, (cand & ~smask).bit_length() - 1)
            done = known.get(cand)
            if done is None:
                done = complete(cand)
                if own:
                    known[cand] = done
            found[done] = None
        return tuple(found)

    def neighbor_masks(self, smask: int) -> tuple[int, ...]:
        """Maximal solutions adjacent to the solution mask ``smask`` in the
        solution graph, as masks: the completions by ``comp_mask`` of the
        candidates for every element outside it, in ascending element order,
        each kept at its first occurrence."""
        full = (1 << self.ground_size) - 1
        return self._neighbor_loop(smask, bits(full & ~smask), self.comp_mask,
                                   self._comp_memo)

    def neighbors(self, solution: Iterable[int]) -> list[tuple[int, ...]]:
        """``neighbor_masks`` of a maximal solution as sorted tuples, with
        element ids checked; any other set raises ContractViolation."""
        return [bits(m) for m in self.neighbor_masks(self._maximal_mask(solution))]

    # -- instrumentation / test surface ---------------------------------
    def comp_budget(self) -> int:
        """Upper bound on the completions a single ``neighbor_masks`` call
        requests; inside an exp run, those its memo answers are not counted
        in ``comp_calls``, so the counted ones stay within it too."""
        raise NotImplementedError


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
        # each element's adjacent elements: graph neighbors, or the edges
        # that share an endpoint (the edge itself among them)
        at = g.edge_mask_at
        self.adj_masks = (g.und_mask if self.ground_kind == "v"
                          else tuple(at[u] | at[v] for u, v in g.edges))


class PspaceProblem(GraphProblem):
    """Contract addition for the dictionary-free parent-forest traversal.

    The four families supported here are vertex problems on an undirected
    graph where every single vertex is a solution, ordered by the BFS
    layers rooted at the seed (``bfs_order``, their canonical order,
    which ``pspace`` reads for the core, the parent check and ``restr``).
    Their candidate rule ``_candidates`` serves both engines: completed by
    ``comp_mask`` for ``neighbor_masks`` and by the lexicographic
    completion ``comp_lex_mask`` for ``neighbor_masks_at``.
    Each family gives its own ``_extension_test``, which both completions
    ask, so a run asks the predicate nothing.
    """

    def neighbors_at(self, solution: Iterable[int], w: int) -> list[tuple[int, ...]]:
        """``neighbor_masks_at`` of a maximal solution as tuples, with element
        ids checked; any other set raises ContractViolation."""
        self._mask((w,))  # checks w
        smask = self._maximal_mask(solution)
        return [bits(m) for m in self.neighbor_masks_at(smask, w)]

    def neighbor_masks_at(self, smask: int, w: int) -> tuple[int, ...]:
        """Canonical-reconstruction candidates for an extender w of the
        solution mask ``smask``: the distinct lexicographic completions of
        its candidates, through the loop ``neighbor_masks`` runs.  A
        solution that holds w is its own only candidate."""
        if (smask >> w) & 1:
            return (smask,)
        # the run's lexicographic memo also holds stopped markers
        return self._neighbor_loop(smask, (w,), self.comp_lex_mask, None)

    _lex_memo = None  # the completions of an enumerate_pspace run in progress

    def comp_lex_mask(self, xmask: int, seeded: bool = False) -> int:
        """Grow the solution ``xmask`` to a maximal one lexicographically:
        repeatedly add the addable element of least order key, under the
        order rooted at the current seed (the smallest element).
        ``seeded`` asks only for a completion whose seed is still that of
        ``xmask``; any other gives 0, and the loop stops at the first
        element it would add below that seed, with the stopped marker
        ``~reached``, where ``reached`` holds that element.

        Only its reach and its rejected elements carry across rounds: the
        reach is computed once and grown with each added element
        (``_grow_reach``), an element is tested by the family's
        ``_extension_test`` alone, and one rejected stays rejected, since
        all four families are hereditary, or hereditary once connected.
        Only a round with two or more addable elements reads the order:
        it adds the one that ``_lex_pick`` walks to, the least in the order
        rooted at the current seed.

        Each addition depends on the current set alone, so two loops that
        reach one set end at one set.  Inside a pspace run the loop reads
        the run's memo at its input and at each set it reaches, and ends at
        a completion found there, or, when seeded, at a marker: it was
        stored under a set of the same seed, whose greedy path adds an
        element below that seed.  A full loop goes on from a marker's
        ``reached``, which holds the set it hit.  Only a request whose input
        the memo lacks is counted in ``comp_calls``; the result is stored
        under every set the loop reached and then under its input.
        """
        ok = self._extension_test
        memo = self._lex_memo
        seed = xmask & -xmask
        stop = seed if seeded else 0
        start, reached = xmask, []
        done = None if memo is None else memo.get(xmask)
        if done is None:
            self.comp_calls += 1
        elif done >= 0 or seeded:
            # a marker ~reached has no bit of reached, so not the seed either
            return 0 if seeded and done & -done != seed else done
        else:
            xmask = ~done  # a full request finishes a stopped one
        reach = self._reach(xmask)
        rejected = 0
        while True:
            ext = 0
            scan = reach & ~rejected
            while scan:
                b = scan & -scan
                scan ^= b
                if ok(xmask, b.bit_length() - 1):
                    ext |= b
                else:
                    rejected |= b
            if not ext:
                break
            if not xmask:
                raise ContractViolation("an empty set has no seed")
            if not ext & (ext - 1):
                b = ext  # the order is not needed to choose
            else:
                b = self._lex_pick(xmask, ext)
            if b < stop:
                xmask = ~(xmask | b)
                break
            reach = self._grow_reach(reach, xmask, b)
            xmask |= b
            if memo is not None:
                done = memo.get(xmask)
                if done is not None and (done >= 0 or stop):
                    xmask = done
                    break
                reached.append(xmask)
                if done is not None:
                    # a full loop finishes a stopped one from the set it reached
                    xmask = ~done
                    reach = self._reach(xmask)
        if memo is not None:
            for m in reached:
                memo[m] = xmask
            memo[start] = xmask
        return 0 if seeded and xmask & -xmask != seed else xmask

    def _lex_pick(self, xmask: int, ext: int) -> int:
        """The bit of the element of ``ext`` least in the order rooted at the
        seed of ``xmask``.  An element e outside X that the layer at depth d
        of a component of G[X] touches first joins it: its key is (0, d + 1,
        e) in the seed's component, (L + 1, d + 1, e) in one of leader L < e;
        an element that joins none leads a component of its own, (e + 1, 0,
        e).  So the smallest element m of ``ext`` has a key of at most
        (m + 1, 0, m), and only a component of leader below m can beat it.
        The walk takes the components in ``bfs_order``'s order, the seed's
        first, whose keys beat every other, then the others by ascending
        leader while the leader lies below m.  The first layer whose
        neighbors hold an element of ``ext`` gives the least key, to its
        smallest such element; when none does, m wins."""
        und = self.g.und_mask
        m = ext & -ext
        left, layer = xmask, xmask & -xmask
        while layer:
            left ^= layer
            nbrs = 0
            while layer:
                low = layer & -layer
                nbrs |= und[low.bit_length() - 1]
                layer ^= low
            hit = nbrs & ext
            if hit:
                return hit & -hit
            layer = nbrs & left
            if not layer:
                layer = left & -left  # the next component's leader
                if layer > m:
                    break
        return m
