"""Dictionary-free traversal of the solution space via a parent forest.

For commutable set systems whose canonical orders are prefix-closed, every
maximal solution S has a well-defined core (the longest prefix of its
solution order whose lexicographic completion differs from S), a parent
(the completion of the core) and a pivot element right after the core.
Children of a node are regenerated on demand, one pivot w at a time, and
each regenerated child is judged once by the parent check instead of
being looked up in a visited-solution dictionary.  An open DFS level holds
its candidate list ``neighbors_at(parent, w)`` and the set of the child
masks it has judged, at most one per (candidate, seed) pair, so at most
n times the number of candidates.  The problem instance's predicate memo
(``Problem._sol_cache``) still grows with the solutions visited: it is
not yet bounded, so the run as a whole is not yet polynomial-space.

Four things keep the regeneration cheap.  Different parents regenerate the
same candidates and prefixes, so a run keeps the completions it has done
in a memo, cleared at ``LEX_MEMO_CAP`` entries.  The lexicographic
completion (``PspaceProblem.comp_lex_mask``) carries only its reach and
its rejected elements across rounds, and builds order keys only in a round
that must choose between two or more addable elements.  ``_regenerate``
walks the order's BFS layers (``graphs.mask_layers``) only up to the
pivot, and drops the seed as soon as a layer holds a smaller element.  The
parent check (``has_parent``) judges the pivot first: the prefix before it
must lie inside the parent and complete to it, and only then are the
longer prefixes scanned; ``core_of`` and ``parent_of`` run the same scan
down to the first element.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .engine import Counters, Emitter, walk
from .graphs import ContractViolation, mask_layers, mask_of
from .problems.base import PspaceProblem, tuple_of

LEX_MEMO_CAP = 1024  # the most completions a run keeps


class _LexMemo(dict):
    """A run's completions, mask -> completed mask, cleared when full."""
    def __setitem__(self, xmask: int, done: int) -> None:
        if len(self) >= LEX_MEMO_CAP:
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


def is_root(problem: PspaceProblem, solution) -> bool:
    """Whether a maximal solution is a root: its seed alone completes to it
    (on an empty ground set, the empty solution is the root).  Any other set
    raises ContractViolation, as in ``core_of``."""
    stuple = tuple(sorted(solution))
    if not problem.is_maximal_solution(stuple):
        raise ContractViolation(f"{stuple} is not a maximal solution")
    return comp_lex(problem, stuple[:1]) == stuple


def parent_of(problem: PspaceProblem, solution) -> Optional[tuple[int, ...]]:
    core = _core(problem, solution)
    return None if core is None else tuple_of(core[2])


def has_parent(problem: PspaceProblem, child, pmask: int, w: int) -> bool:
    """Whether ``child`` has the parent ``pmask`` and the pivot w, an
    element of the child.

    With i the position of w in the child's solution order, this is exactly
    ``core_of(child) == (order[:i], w) and comp_lex(order[:i]) == parent``,
    judged pivot first: order[:i] must lie inside the parent, its completion,
    before it is completed and compared with the parent, and only then must
    every longer prefix complete to the child.
    """
    order = problem.canonical_order(child)
    i = order.index(w)
    cmask, core = mask_of(child), mask_of(order[:i])
    if i == 0 or core & ~pmask or pmask == cmask:
        return False
    if problem.comp_lex_mask(core) != pmask:
        return False
    return _core_scan(problem, order, cmask, i + 1) is None


def _regenerate(problem: PspaceProblem, r, s: int, w: int) -> int:
    """The completion of the elements of candidate r up to w in r's order
    rooted at s, or 0 when that prefix holds an element below s: the seed
    of the completion is at most the smallest element of the prefix, so the
    completion could not be rooted at s.

    The prefix is every layer of ``mask_layers(r, s)`` before w's plus the
    members of w's layer up to w; the walk stops at the first layer that
    holds an element below s, wherever w lies.
    """
    prefix, below = 0, (1 << s) - 1
    for _, _, layer, _ in mask_layers(problem.g.und_mask, mask_of(r), s):
        if (layer >> w) & 1:
            prefix |= layer & ((2 << w) - 1)
            break
        if layer & below:
            return 0
        prefix |= layer
    return 0 if prefix & below else problem.comp_lex_mask(prefix)


def restr(problem: PspaceProblem, solution) -> tuple[int, ...]:
    """First candidate of neighbors_at(parent, pivot) regenerating the
    solution, the paper's rule for which candidate a child belongs to."""
    core = _core(problem, solution)
    if core is None:
        raise ContractViolation("roots have no generating candidate")
    order, j, pmask = core
    w, s, smask = order[j], order[0], mask_of(order)
    for r in problem.neighbors_at(tuple_of(pmask), w):
        # the order on r is rooted at s, so r must hold both s and w
        if w in r and s in r and _regenerate(problem, r, s, w) == smask:
            return r
    raise ContractViolation("no candidate regenerates the solution")


def children(problem: PspaceProblem, parent, w: int,
             counters: Optional[Counters] = None):
    """Yield exactly the maximal solutions whose parent is ``parent`` and
    whose pivot is ``w``, each once.

    Each regenerated child is judged once, where its first (candidate,
    seed) pair regenerates it: whether it has this parent and pivot depends
    only on the child, and its seed fixes the seed of every pair that
    regenerates it, so a later pair would only repeat the verdict.
    """
    ptuple = tuple(sorted(parent))
    if w in ptuple:
        return
    if counters is not None:
        counters.neighbors_calls += 1
    pmask = mask_of(ptuple)
    judged = set()
    for r in problem.neighbors_at(ptuple, w):
        if w not in r:
            continue
        for s in r:
            if s == w:
                continue
            cmask = _regenerate(problem, r, s, w)
            if cmask & -cmask != 1 << s or cmask in judged:
                continue  # the child's seed is not s, or it was judged
            judged.add(cmask)
            child = tuple_of(cmask)
            if not has_parent(problem, child, pmask, w):
                continue
            if counters is not None:
                counters.child_checks_passed += 1
            yield child


def enumerate_pspace(problem: PspaceProblem, emit=None,
                     limit: Optional[int] = None) -> Counters:
    """Emit every maximal solution once without a visited-solution dictionary.

    Each root of the parent forest is walked at depth 1 with no set of
    visited solution masks: each open DFS level holds only its
    candidate list and the child masks it has judged (see ``children``).
    ``comp_lex_mask`` reads and fills the run's completion memo, which goes
    when the run ends, however it ends; a memo open before it is restored.
    """
    emitter = Emitter(problem, emit, limit)
    counters = emitter.counters

    def child_stream(x):
        xset = set(x)
        for w in range(problem.ground_size):
            if w not in xset:
                yield from children(problem, x, w, counters)

    outer, problem._lex_memo = problem._lex_memo, _LexMemo()
    try:
        # an empty ground set has one solution, the empty set, as its only root
        for seed in [(u,) for u in range(problem.ground_size)] or [()]:
            if emitter.done:
                break
            root = comp_lex(problem, seed)
            if root[:1] != seed:
                continue  # a root is discovered from its own seed, root[0], only
            counters.roots_found += 1
            walk(root, child_stream, emitter, 1)
    finally:
        problem._lex_memo = outer
    return emitter.finish()
