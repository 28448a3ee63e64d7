"""Dictionary-free traversal of the solution space via a parent forest.

For commutable set systems whose canonical orders are prefix-closed, every
maximal solution S has a well-defined core (the longest prefix of its
solution order whose lexicographic completion differs from S), a parent
(the completion of the core) and a pivot element right after the core.
Children of a node are regenerated on demand and deduplicated by a
four-way identity check instead of a visited-solution dictionary, so the
traversal itself holds only the DFS stack.  The problem instance's
predicate memo (``Problem._sol_cache``) still grows with the solutions
visited: it is not yet bounded, so the run as a whole is not yet
polynomial-space.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .engine import Counters, Emitter, walk
from .graphs import ContractViolation, mask_of
from .problems.base import PspaceProblem, tuple_of


def seed_of(problem: PspaceProblem, elems: Iterable[int]) -> int:
    """Smallest element of the solution; in the pspace families every
    single vertex is a solution, so it roots the solution order."""
    elems = tuple(elems)
    if not elems:
        raise ContractViolation("an empty set has no seed")
    return min(elems)


def comp_lex(problem: PspaceProblem, elems: Iterable[int]) -> tuple[int, ...]:
    """Lexicographic completion: repeatedly add the order-minimal addable
    element, under the order rooted at the current seed."""
    xmask = mask_of(elems)
    if not problem.sol(xmask):
        raise ContractViolation("lexicographic completion needs a solution")
    problem.comp_calls += 1
    while True:
        ext = problem.addable(xmask)
        if not ext:
            return tuple_of(xmask)
        if not xmask:
            raise ContractViolation("an empty set has no seed")
        v = (xmask & -xmask).bit_length() - 1  # the seed: smallest element
        keys = problem.order_keys(xmask, v, ext)
        best = min(ext, key=keys.__getitem__)
        xmask |= 1 << best


def core_of(problem: PspaceProblem, solution) -> Optional[tuple[list[int], int]]:
    """(core prefix, pivot element) of a maximal solution, or None for roots.

    The core is the longest prefix of the solution order whose completion
    is not the solution itself; the pivot is the element right after it.
    """
    stuple = tuple(sorted(solution))
    order = problem.canonical_order(stuple)
    for i in range(len(order) - 1, 0, -1):
        if comp_lex(problem, order[:i]) != stuple:
            return order[:i], order[i]
    return None  # completion of the seed alone already yields the solution


def is_root(problem: PspaceProblem, solution) -> bool:
    stuple = tuple(sorted(solution))
    return comp_lex(problem, [seed_of(problem, stuple)]) == stuple


def parent_of(problem: PspaceProblem, solution) -> Optional[tuple[int, ...]]:
    cp = core_of(problem, solution)
    if cp is None:
        return None
    return comp_lex(problem, cp[0])


def pi_of(problem: PspaceProblem, solution) -> Optional[int]:
    cp = core_of(problem, solution)
    return None if cp is None else cp[1]


def _prefix_upto(problem: PspaceProblem, rtuple, s: int, w: int) -> list[int]:
    keys = problem.order_keys(mask_of(rtuple), s, rtuple)
    kw = keys[w]
    return [x for x in rtuple if keys[x] <= kw]


def restr(problem: PspaceProblem, solution,
          context: Optional[tuple] = None) -> tuple[int, ...]:
    """First candidate of neighbors_at(parent, pivot) regenerating the solution.

    ``context`` can supply (parent, pivot, seed, candidate list) when the
    caller already has them.
    """
    stuple = tuple(sorted(solution))
    if context is not None:
        parent, w, s, cands = context
    else:
        cp = core_of(problem, stuple)
        if cp is None:
            raise ContractViolation("roots have no generating candidate")
        parent = comp_lex(problem, cp[0])
        w = cp[1]
        s = seed_of(problem, stuple)
        cands = problem.neighbors_at(parent, w)
    for r in cands:
        # the order on r is rooted at s, so r must hold both s and w
        if w not in r or s not in r:
            continue
        if comp_lex(problem, _prefix_upto(problem, r, s, w)) == stuple:
            return r
    raise ContractViolation("no candidate regenerates the solution")


def children(problem: PspaceProblem, parent, w: int,
             counters: Optional[Counters] = None):
    """Yield exactly the maximal solutions whose parent is ``parent`` and
    whose pivot is ``w``, each once."""
    ptuple = tuple(sorted(parent))
    if w in ptuple:
        return
    if counters is not None:
        counters.neighbors_calls += 1
    cands = problem.neighbors_at(ptuple, w)
    # core data is recomputed per candidate; cache it per distinct child
    core_cache: dict[tuple, Optional[tuple]] = {}
    for r in cands:
        if w not in r:
            continue
        for s in sorted(e for e in r if e != w):
            prefix = _prefix_upto(problem, r, s, w)
            # the seed of the completion is at most the smallest element
            # of the prefix, so any smaller one rules this s out already
            if any(x < s for x in prefix):
                continue
            child = comp_lex(problem, prefix)
            if seed_of(problem, child) != s:
                continue
            info = core_cache.get(child)
            if info is None and child not in core_cache:
                cp = core_of(problem, child)
                if cp is None:
                    info = None
                else:
                    info = (comp_lex(problem, cp[0]), cp[1])
                core_cache[child] = info
            if info is None:
                continue  # child is a root; only the root loop emits it
            cparent, cpi = info
            if cparent != ptuple or cpi != w:
                continue
            if restr(problem, child, (ptuple, w, s, cands)) != r:
                continue
            if counters is not None:
                counters.child_checks_passed += 1
            yield child


def enumerate_pspace(problem: PspaceProblem, emit=None,
                     limit: Optional[int] = None) -> Counters:
    """Emit every maximal solution once without a visited-solution dictionary.

    Each root of the parent forest is walked at depth 1, holding the DFS
    stack and no trie or hash set of solutions; the problem's predicate
    memo (``Problem._sol_cache``) still grows with the solutions visited.
    """
    emitter = Emitter(problem, emit, limit)
    counters = emitter.counters

    def child_stream(x):
        xset = set(x)
        for w in range(problem.ground_size):
            if w not in xset:
                yield from children(problem, x, w, counters)

    # an empty ground set has one solution, the empty set, as its only root
    for seed in [(u,) for u in range(problem.ground_size)] or [()]:
        if emitter.done:
            break
        root = comp_lex(problem, seed)
        if root[:1] != seed:
            continue  # a root is discovered from its own seed, root[0], only
        counters.roots_found += 1
        walk(root, child_stream, emitter, 1)

    return emitter.finish(0)
