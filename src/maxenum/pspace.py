"""Dictionary-free traversal of the solution space via a parent forest.

For commutable set systems whose canonical orders are prefix-closed, every
maximal solution S has a well-defined core (the longest prefix of its
solution order whose lexicographic completion differs from S), a parent
(the completion of the core) and a pivot element right after the core.
Children of a node are regenerated on demand, one pivot w at a time, and
each regenerated child is judged once by the parent check instead of
being looked up in a visited-solution dictionary.  The walk runs on masks
(``children``, ``has_parent`` and ``_regenerate`` take and give masks)
and yields them to ``engine.drain``, the consumer both engines share; a
solution becomes a sorted tuple only at the sink and in the public
wrappers ``comp_lex``, ``core_of`` and ``restr``.  Its DFS stack holds
one ``children`` generator per node on the path from the root, each with
its candidate masks ``neighbor_masks_at(parent, w)`` and at most n judged
child masks per candidate, one per (candidate, seed) pair; on t triangles
joined in a path (3^t solutions) it is t + 1 deep, as
``tests/test_exact_counts.py`` checks for forests and bipartite-induced.
Every memo goes with its run, and a run keeps one, its completion memo,
cleared at ``LEX_MEMO_CAP`` entries (the families keep no predicate
memo): a run holds its stack and at most that many memo entries, so its
memory no longer grows with the solutions visited, only with the depth
of the parent forest; that test file also bounds the ``tracemalloc``
peak of a forests run on chained triangles from t = 5 to t = 6.

Besides one completion memo, four things keep the regeneration cheap.
Different parents regenerate the same candidates and prefixes, so a run
keeps the completions it has done, cleared at ``LEX_MEMO_CAP`` entries,
under every set each one reached; a completion stops at a set the run
has already completed.
The lexicographic completion (``PspaceProblem.comp_lex_mask``) carries
only its reach and its rejected elements across rounds, and reads the
order only in a round that must choose between two or more addable
elements: one walk of the layers of G[X], the seed's component first
(``PspaceProblem._lex_pick``), adds the smallest addable element that
the first touching layer reaches, and it walks no component whose
leader lies above the smallest addable element, which wins when no
walked layer touches one.  Root discovery and ``_regenerate`` discard a
completion whose seed changed, so they ask for the seeded form, which
stops at the first element it would add below its seed; the memo keeps
the stopped set, under each set it passed, for a later full request to
finish.  ``children`` drops a whole (parent, pivot) pair before it builds any
candidate when the parent holds nothing below the pivot, or, for a
connected family, nothing next to it; it drops a (candidate r, seed s)
pair before any walk unless s lies below the pivot, has no smaller
neighbor in r, has a neighbor in r or is its smallest element, and lies
in the parent: a pair that fails one of them yields no child (see
``children``).  Root discovery skips a seed with a smaller neighbor,
whose seeded completion never keeps it (see ``_pspace_masks``).
One walk, ``_prefix``, reads the elements before the pivot off a set's
BFS layers, inline in the order ``base.bfs_order`` defines, and stops at
the first layer that meets a forbidden mask: ``_regenerate`` forbids the
elements below its seed, the parent check (``has_parent``) those outside
the parent.  So the parent check judges the pivot first: the prefix
before the pivot must lie in the parent and complete to it, and only
then is the child's whole order built and the longer prefixes scanned;
``core_of`` and ``restr`` run the same scan down to the first element.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .engine import Counters, drain, walk
from .graphs import ContractViolation, bits, mask_of
from .problems import PSPACE_VARIANTS
from .problems.base import PspaceProblem, bfs_order

LEX_MEMO_CAP = 1024  # the most entries a run keeps in its completion memo


class _LexMemo(dict):
    """A run's completion memo, cleared when full: each set a completion
    reached maps to its completed mask, or to ``~reached`` where a seeded
    one stopped at ``reached``."""
    def __setitem__(self, xmask: int, done: int) -> None:
        # finishing a stopped completion overwrites its entry in place
        if len(self) >= LEX_MEMO_CAP and xmask not in self:
            self.clear()
        super().__setitem__(xmask, done)


def _require_forest_order(problem) -> None:
    """Refuse, with ContractViolation naming the pspace variants, a family
    without a parent-forest order; every public entry point asks first."""
    if not isinstance(problem, PspaceProblem):
        raise ContractViolation(f"{problem.variant} has no parent-forest order; "
                                f"pspace runs {', '.join(PSPACE_VARIANTS)}")


def comp_lex(problem: PspaceProblem, elems: Iterable[int]) -> tuple[int, ...]:
    """Lexicographic completion: repeatedly add the order-minimal addable
    element, under the order rooted at the current seed.  Element ids are
    checked against the ground set, and a set that is not a solution raises
    ContractViolation; the traversal itself completes masks with
    ``PspaceProblem.comp_lex_mask``, which takes them on trust."""
    _require_forest_order(problem)
    return bits(problem.comp_lex_mask(problem._solution_input(elems)))


def _core_scan(problem: PspaceProblem, order: list[int], smask: int,
               stop: int) -> Optional[tuple[int, int]]:
    """The largest j with stop <= j < len(order) whose prefix order[:j]
    completes to a set other than ``smask``, the mask of ``order``, with
    that completion; None when every such prefix completes to ``smask``."""
    prefix = smask
    for j in range(len(order) - 1, stop - 1, -1):
        prefix &= ~(1 << order[j])
        other = problem.comp_lex_mask(prefix)
        if other != smask:
            return j, other
    return None


def _core(problem: PspaceProblem, solution) -> Optional[tuple[list[int], int, int]]:
    """(solution order, core length, parent mask) of a maximal solution, or
    None for roots.  Any other set has no core, and a family outside pspace
    no order: ContractViolation (this serves ``core_of`` and ``restr``)."""
    _require_forest_order(problem)
    smask = problem._maximal_mask(solution)
    order = bfs_order(problem.g.und_mask, smask)
    hit = _core_scan(problem, order, smask, 1)
    return None if hit is None else (order, *hit)


def core_of(problem: PspaceProblem, solution) -> Optional[tuple[list[int], int]]:
    """(core prefix, pivot element) of a maximal solution, or None for roots.

    The core is the longest prefix of the solution order whose completion
    is not the solution itself; the pivot is the element right after it.
    A set that is not a maximal solution raises ContractViolation.
    """
    core = _core(problem, solution)
    if core is None:
        return None  # completion of the seed alone already yields the solution
    order, j, _ = core
    return order[:j], order[j]


def has_parent(problem: PspaceProblem, cmask: int, pmask: int, w: int) -> bool:
    """Whether the child mask ``cmask`` has the parent mask ``pmask`` and the
    pivot w, an element of the child; a w outside it, or not an int id,
    raises ContractViolation.

    With i the position of w in the child's solution order, this is exactly
    ``core_of(child) == (order[:i], w) and comp_lex(order[:i]) == parent``,
    judged pivot first: order[:i] must lie inside the parent, its completion,
    before it is completed and compared with the parent, and only then must
    every longer prefix complete to the child.  order[:i] is read off the
    child's layers by ``_prefix``, which stops at the first layer that
    leaves the parent; the whole order is built, by ``bfs_order``, only
    when order[:i] completes to the parent.  The verdict rests on the child
    alone, and nothing is kept between calls.
    """
    _require_forest_order(problem)
    if type(w) is not int or w < 0:
        raise ContractViolation(f"pivot {w!r} is not an element id")
    if not (cmask >> w) & 1:
        raise ContractViolation(f"pivot {w} is not in the child")
    if pmask == cmask:
        return False
    und = problem.g.und_mask
    core = _prefix(und, cmask, cmask & -cmask, w, ~pmask)
    if core <= 0 or problem.comp_lex_mask(core) != pmask:  # -1: leaves the parent
        return False
    return _core_scan(problem, bfs_order(und, cmask), cmask, core.bit_count() + 1) is None


def _prefix(und, xmask: int, first: int, w: int, forbidden: int) -> int:
    """The elements before w, an element of the set ``xmask``, in its order
    from the bit ``first``: every BFS layer before w's plus the members of
    w's layer below w, walked inline in the order ``base.bfs_order``
    defines (when a component runs out, the smallest element left leads the
    next); -1 as soon as a layer meets the mask ``forbidden``, wherever w
    lies."""
    wbit = 1 << w
    prefix, left, layer = 0, xmask, first
    while not layer & wbit:
        if layer & forbidden:
            return -1
        prefix |= layer
        left ^= layer
        nbrs = 0
        while layer:
            low = layer & -layer
            nbrs |= und[low.bit_length() - 1]
            layer ^= low
        layer = nbrs & left or left & -left
    layer &= wbit - 1
    return -1 if layer & forbidden else prefix | layer


def _regenerate(problem: PspaceProblem, rmask: int, s: int, w: int) -> int:
    """The completion of the elements of the candidate mask ``rmask`` up to
    w in its order rooted at s, or 0 when that completion is not rooted at
    s: when the prefix holds an element below s (``_prefix`` stops at the
    first layer that does), or the seeded completion adds one.  s lies in
    ``rmask`` and below w; a w outside ``rmask`` raises ContractViolation.
    """
    if not (rmask >> w) & 1:
        raise ContractViolation(f"pivot {w} is not in the candidate")
    prefix = _prefix(problem.g.und_mask, rmask, 1 << s, w, (1 << s) - 1)
    return 0 if prefix < 0 else problem.comp_lex_mask(prefix | 1 << w, seeded=True)


def restr(problem: PspaceProblem, solution) -> tuple[int, ...]:
    """First candidate of neighbor_masks_at(parent, pivot) regenerating the
    solution, the paper's rule for which candidate a child belongs to."""
    core = _core(problem, solution)
    if core is None:
        raise ContractViolation("roots have no generating candidate")
    order, j, pmask = core
    w, s, smask = order[j], order[0], mask_of(order)
    for rmask in problem.neighbor_masks_at(pmask, w):
        # the order on r is rooted at s, so r must hold s (it holds w)
        if (rmask >> s) & 1 and _regenerate(problem, rmask, s, w) == smask:
            return bits(rmask)
    raise ContractViolation("no candidate regenerates the solution")


def children(problem: PspaceProblem, pmask: int, w: int):
    """Yield, as masks, exactly the maximal solutions whose parent is the
    mask ``pmask`` and whose pivot is ``w``, each once; a w that is not an
    int in 0..n-1 raises ContractViolation before any candidate is built.

    ``has_parent`` accepts a child only when the elements before w in its
    order, a non-empty prefix, lie inside the parent.  So the whole pair
    (parent, w) yields nothing, and no candidate is built, when
    - the parent holds nothing below w: the child's seed, its smallest
      element, comes first in its order, so lies in the parent, and lies
      below w, which follows it;
    - the family is connected and w has no neighbor in the parent: a
      connected child's order is one BFS from its seed, so w, which is not
      the seed, has a neighbor in the layer before its own, and that layer
      comes before w, so lies in the parent.

    A (candidate r, seed s) pair is regenerated only when s can seed such
    a child:
    - s lies below w, since the child holds w and its seed is its
      smallest element;
    - s has no smaller neighbor in r, since such a neighbor lies in layer
      1 of r's order from s, and so in every prefix up to w (w != s);
    - s has a neighbor in r or is its smallest element, since a lone s is
      a component of its own, so the next layer is {min(r)}, which lies
      below s and before w (min(r) < s < w);
    - s lies in the parent, since s is the first element of the child's
      order and ``has_parent`` rejects a child whose elements before w
      leave the parent.
    The first three skip pairs that regenerate nothing.  The last skips a
    child at every pair that regenerates it, since all those pairs have
    its seed s, so it cuts only children that would be rejected.

    Each regenerated child is judged once, where its first (candidate,
    seed) pair regenerates it: whether it has this parent and pivot depends
    only on the child, and its seed fixes the seed of every pair that
    regenerates it, so a later pair would only repeat the verdict.
    """
    _require_forest_order(problem)
    n = problem.ground_size
    if type(w) is not int or not 0 <= w < n:
        raise ContractViolation(f"pivot {w!r} is not an element id in 0..{n - 1}")
    if (pmask >> w) & 1:
        return
    und = problem.g.und_mask
    if not pmask & ((1 << w) - 1):
        return  # no seed below w lies in the parent
    if problem.connected and not und[w] & pmask:
        return  # w has no neighbor in the parent
    judged = set()
    for rmask in problem.neighbor_masks_at(pmask, w):
        seeds = rmask & pmask & ((1 << w) - 1)
        while seeds:
            low = seeds & -seeds
            seeds ^= low
            s = low.bit_length() - 1
            near = und[s] & rmask
            if near & (low - 1):
                continue  # a smaller neighbor of s lies in every prefix
            if not near and low != rmask & -rmask:
                continue  # s is alone in r, and min(r) leads the next layer
            cmask = _regenerate(problem, rmask, s, w)
            if not cmask or cmask in judged:
                continue  # the child's seed is not s, or it was judged
            judged.add(cmask)
            if has_parent(problem, cmask, pmask, w):
                yield cmask


def _pspace_masks(problem: PspaceProblem, counters: Counters):
    """Yield each maximal solution mask of ``problem`` once: each root of
    the parent forest is walked at depth 1, with no set of visited solution
    masks (see ``children``).  ``comp_lex_mask`` reads and fills the run's
    completion memo, its only memo; ``Problem.run_memos`` opens it and
    restores the outer one, however the run ends.

    A root is the completion of {u} that keeps the seed u, and no u with a
    smaller neighbor gives one.  Let v be u's smallest neighbor, below u.
    In all four families every two-element set of adjacent elements is a
    solution, so v is addable to {u}.  The first round of the seeded
    completion of {u} picks v: as the only addable element, or else as the
    smallest addable neighbor of u, which ``_lex_pick`` takes from the
    layer {u}.  v lies below u, so the seeded completion stops there, and
    such a u is skipped uncompleted.

    The walk's stream counts, as exp's counts its own, one
    ``neighbors_calls`` for each pivot it asks ``children`` about and one
    ``child_checks_passed`` for each child yielded."""
    def child_stream(x):
        rest = ~x & ((1 << problem.ground_size) - 1)  # the pivots, ascending
        while rest:
            low = rest & -rest
            rest ^= low
            counters.neighbors_calls += 1
            for cmask in children(problem, x, low.bit_length() - 1):
                counters.child_checks_passed += 1
                yield cmask

    und = problem.g.und_mask
    # u = 0 is never skipped, so only an empty ground set has no seed; its one
    # solution, the empty set, is its only root
    seeds = [1 << u for u in range(problem.ground_size) if not und[u] & ((1 << u) - 1)]
    with problem.run_memos(_lex_memo=_LexMemo()):
        for seed in seeds or [0]:
            root = problem.comp_lex_mask(seed, seeded=True)
            if root & -root != seed:
                continue  # a root is discovered from its own seed only
            counters.roots_found += 1
            yield from walk(root, child_stream, 1)


def enumerate_pspace(problem: PspaceProblem, emit=None,
                     limit: Optional[int] = None) -> Counters:
    """Emit every maximal solution once without a visited-solution
    dictionary (see ``_pspace_masks``; ``engine.drain`` emits).  A family
    without a parent-forest order raises ContractViolation before the run
    starts."""
    _require_forest_order(problem)
    return drain(problem, _pspace_masks, emit, limit)
