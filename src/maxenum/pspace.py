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
Every memo goes with its run, but the run's predicate memo is unbounded:
it grows with the solutions visited, so a run is not yet polynomial-space.

Besides one completion memo, four things keep the regeneration cheap.
Different parents regenerate the same candidates and prefixes, so a run
keeps the completions it has done, cleared at ``LEX_MEMO_CAP`` entries,
under every set each one reached; a completion stops at a set the run
has already completed.
The lexicographic completion (``PspaceProblem._comp_lex_mask``) carries
only its reach and its rejected elements across rounds, and reads the
order only in a round that must choose between two or more addable
elements: it walks the layers of the seed's own component and stops at
the first one that touches an addable element, and builds order keys
only when none does.  Root discovery and ``_regenerate`` discard a
completion whose seed changed, so they ask for the seeded form, which
stops at the first element it would add below its seed; the memo keeps
the stopped set, under each set it passed, for a later full request to
finish.  ``children`` drops a (candidate r, seed s) pair before any walk
unless s lies below the pivot, has no smaller neighbor in r, has a
neighbor in r or is its smallest element, and lies in the parent: a pair
that fails one of them yields no child (see ``children``).
``_regenerate`` walks the order's BFS layers (``graphs.mask_layers``)
only up to the pivot, and drops the seed as soon as a layer holds a
smaller element.  The parent check
(``has_parent``) judges the pivot first: it walks the child's layers up
to the pivot and stops at the first that leaves the parent, the prefix
before the pivot must complete to the parent, and only then is the
child's whole order built and the longer prefixes scanned;
``core_of`` and ``restr`` run the same scan down to the first element.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .engine import Counters, drain, walk
from .graphs import ContractViolation, bits, mask_layers, mask_of
from .problems import PSPACE_VARIANTS
from .problems.base import PspaceProblem, tuple_of

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


def comp_lex(problem: PspaceProblem, elems: Iterable[int]) -> tuple[int, ...]:
    """Lexicographic completion: repeatedly add the order-minimal addable
    element, under the order rooted at the current seed.  Element ids are
    checked against the ground set; the traversal itself completes masks
    with ``PspaceProblem.comp_lex_mask``."""
    return tuple_of(problem.comp_lex_mask(problem._mask(elems)))


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
    None for roots.  Any other set has no core: ContractViolation."""
    stuple = tuple(sorted(solution))
    if not problem.is_maximal_solution(stuple):
        raise ContractViolation(f"{stuple} is not a maximal solution")
    order = problem.canonical_order(stuple)
    hit = _core_scan(problem, order, mask_of(stuple), 1)
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
    pivot w, an element of the child; a w outside it raises
    ContractViolation.

    With i the position of w in the child's solution order, this is exactly
    ``core_of(child) == (order[:i], w) and comp_lex(order[:i]) == parent``,
    judged pivot first: order[:i] must lie inside the parent, its completion,
    before it is completed and compared with the parent, and only then must
    every longer prefix complete to the child.  order[:i] is read off the
    child's layers (``graphs.mask_layers``) up to w's, and the walk stops at
    the first layer that leaves the parent; the whole order is built, by
    ``vertex_order``, only when order[:i] completes to the parent.  The
    verdict rests on the child alone, and nothing is kept between calls.
    """
    if not (cmask >> w) & 1:
        raise ContractViolation(f"pivot {w} is not in the child")
    if pmask == cmask:
        return False
    und, core = problem.g.und_mask, 0
    for _, _, layer, _ in mask_layers(und, cmask, (cmask & -cmask).bit_length() - 1):
        if (layer >> w) & 1:
            core |= layer & ((1 << w) - 1)
            break
        if layer & ~pmask:
            return False
        core |= layer
    if not core or core & ~pmask or problem.comp_lex_mask(core) != pmask:
        return False
    order = problem.vertex_order(und, problem.g.out_mask, cmask)
    return _core_scan(problem, order, cmask, core.bit_count() + 1) is None


def _regenerate(problem: PspaceProblem, rmask: int, s: int, w: int) -> int:
    """The completion of the elements of the candidate mask ``rmask`` up to
    w in its order rooted at s, or 0 when that completion is not rooted at
    s: when the prefix holds an element below s, or the seeded completion
    adds one.

    The prefix is every layer of ``mask_layers(rmask, s)`` before w's plus
    the members of w's layer up to w; the walk stops at the first layer that
    holds an element below s, wherever w lies.
    """
    prefix, below = 0, (1 << s) - 1
    for _, _, layer, _ in mask_layers(problem.g.und_mask, rmask, s):
        if (layer >> w) & 1:
            prefix |= layer & ((2 << w) - 1)
            break
        if layer & below:
            return 0
        prefix |= layer
    return 0 if prefix & below else problem.comp_lex_mask(prefix, seeded=True)


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
            return tuple_of(rmask)
    raise ContractViolation("no candidate regenerates the solution")


def children(problem: PspaceProblem, pmask: int, w: int,
             counters: Optional[Counters] = None):
    """Yield, as masks, exactly the maximal solutions whose parent is the
    mask ``pmask`` and whose pivot is ``w``, each once.

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
    if (pmask >> w) & 1:
        return
    if counters is not None:
        counters.neighbors_calls += 1
    und = problem.g.und_mask
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
            if not has_parent(problem, cmask, pmask, w):
                continue
            if counters is not None:
                counters.child_checks_passed += 1
            yield cmask


def _pspace_masks(problem: PspaceProblem, counters: Counters):
    """Yield each maximal solution mask of ``problem`` once: each root of
    the parent forest is walked at depth 1, with no set of visited solution
    masks (see ``children``).  ``comp_lex_mask`` reads and fills the run's
    completion memo; ``Problem.run_memos`` opens it and the ``RUN_MEMOS``
    and restores the outer memos, however the run ends."""
    def child_stream(x):
        for w in bits(~x & ((1 << problem.ground_size) - 1)):
            yield from children(problem, x, w, counters)

    with problem.run_memos(_lex_memo=_LexMemo()):
        # an empty ground set has one solution, the empty set, as its only root
        for seed in [1 << u for u in range(problem.ground_size)] or [0]:
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
    if not isinstance(problem, PspaceProblem):
        raise ContractViolation(f"{problem.variant} has no parent-forest order; "
                                f"pspace runs {', '.join(PSPACE_VARIANTS)}")
    return drain(problem, _pspace_masks, emit, limit)
