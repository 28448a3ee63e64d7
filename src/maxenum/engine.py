"""Generic solution-graph traversal with a visited-solution dictionary.

The engine knows nothing about graphs: a problem exposes a ground set, a
completion ``comp_mask`` and ``neighbor_masks``, which returns maximal
solutions, all on bitmasks.  The traversal is ``walk``, the mask DFS both
engines share, which yields solution masks; an exp run walks the tree of
first discoveries: a neighbor is a child of the solution whose
``neighbor_masks`` call first reached it, and a set of visited solution
masks decides which call that is.  Each engine's run is a generator of
solution masks, and one consumer, ``drain``, hands them to the sink as
sorted tuples, counts them and stops the run at its limit.  An exp run
also keeps, on the problem, the completions it has done, under each set a
completion reached on its way, so none is computed twice and a completion
stops where it reaches a set already completed; like the visited set,
they grow with the solutions reached and go when the run ends.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .problems.base import tuple_of


class PartialOutputError(RuntimeError):
    """The emission sink failed mid-run; ``emitted`` solutions got out."""

    def __init__(self, emitted: int, cause: BaseException):
        super().__init__(f"solution sink failed after {emitted} emissions: {cause!r}")
        self.emitted = emitted


@dataclass
class Counters:
    """Run instrumentation; every field is monotone during a run."""

    solutions_emitted: int = 0
    neighbors_calls: int = 0
    # completions computed, not memo hits; a completion, of either engine,
    # that stops at a set the run has completed counts once, as does a
    # stopped seeded completion, and finishing it later does not count again
    comp_calls: int = 0
    dict_operations: int = 0     # visited-set inserts, exp traversal only
    max_comp_gap: int = 0        # most comp calls between consecutive emissions
    roots_found: int = 0         # parent-forest traversal only
    child_checks_passed: int = 0  # parent-forest traversal only


class SolutionDict:
    """The visited solutions of an exp run, kept as a set of bitmasks.

    ``insert`` stores a non-negative int solution mask, True iff it was not
    stored before, and rejects any other key, a tuple too, with ValueError;
    ``len`` counts the stored solutions.  ``node_count`` is the same count
    under the name that the benchmark tracer (``perfbench/tracing.py``),
    which subclasses this class, reads in ``perfbench/worker.py``.
    """

    def __init__(self):
        self._masks: set[int] = set()

    def __len__(self) -> int:
        return len(self._masks)

    @property
    def node_count(self) -> int:
        return len(self._masks)

    def insert(self, mask: int) -> bool:
        """Insert a solution mask; True iff it was not present before."""
        if type(mask) is not int or mask < 0:
            raise ValueError(f"a solution key must be a non-negative int mask: {mask!r}")
        masks = self._masks
        if mask in masks:
            return False
        masks.add(mask)
        return True


def walk(root, kids: Callable, depth: int) -> Iterator[int]:
    """Yield the tree below ``root``, root included, by an iterative DFS.

    ``kids(node)`` is an iterator over a node's children, consumed one child
    per step.  A node is yielded in pre-order at even depth and in
    post-order at odd depth, the root sitting at ``depth``, so consecutive
    outputs are a bounded number of steps apart.
    """
    if depth % 2 == 0:
        yield root
    stack = [(root, depth, kids(root))]
    while stack:
        node, d, it = stack[-1]
        child = next(it, None)
        if child is not None:
            stack.append((child, d + 1, kids(child)))
            if d % 2 == 1:
                yield child
        else:
            stack.pop()
            if d % 2 == 1:
                yield node


def drain(problem, run: Callable, emit: Optional[Callable],
          limit: Optional[int]) -> Counters:
    """Emit the solution masks of ``run(problem, counters)`` and return the
    run's counters, with its completion calls filled in.

    ``emit`` receives each solution as a sorted tuple; a failing sink aborts
    the run with PartialOutputError.  ``limit`` stops the run after that
    many emissions (the emitted prefix is deterministic), and a limit <= 0
    starts no run.  A limit that is neither an int nor None (a bool, a
    float) raises ValueError before the run starts.  The run is closed
    however it ends, so the memos it opened are restored.
    """
    if limit is not None and type(limit) is not int:
        raise ValueError(f"limit must be an integer or None: limit={limit!r}")
    counters = Counters()
    if limit is not None and limit <= 0:
        return counters
    base = last = problem.comp_calls
    with closing(run(problem, counters)) as masks:
        for mask in masks:
            now = problem.comp_calls
            if counters.solutions_emitted:
                counters.max_comp_gap = max(counters.max_comp_gap, now - last)
            last = now
            if emit is not None:
                try:
                    emit(tuple_of(mask))
                except Exception as exc:
                    raise PartialOutputError(counters.solutions_emitted, exc) from exc
            counters.solutions_emitted += 1
            if counters.solutions_emitted == limit:
                break
    counters.comp_calls = problem.comp_calls - base
    return counters


def _exp_masks(problem, counters: Counters) -> Iterator[int]:
    """Yield each maximal solution mask of ``problem`` exactly once.

    From the completion of the empty set, ``neighbor_masks`` is invoked
    exactly once per distinct solution mask; duplicate and already-seen
    candidates are filtered through the set of visited solution masks;
    ``dict_operations`` counts its inserts, the first solution's included.

    The run opens its completion memo with ``Problem.run_memos``:
    ``_comp_memo``, solution mask -> completed mask, read and filled by
    ``comp_mask``: its keys are the candidates completed and every set a
    completion reached after an addition.  It is unbounded, as the visited
    set is, and goes when the run ends, however it ends; a memo open before
    it is restored.  The kdeg families open their capped certificate memo
    there too.  ``comp_calls`` counts completions computed, not memo hits.
    """
    seen = SolutionDict()

    def kids(smask):
        counters.neighbors_calls += 1
        for cand in problem.neighbor_masks(smask):
            counters.dict_operations += 1
            if seen.insert(cand):
                yield cand

    with problem.run_memos(_comp_memo={}):
        first = problem.comp_mask(0)
        counters.dict_operations += 1
        seen.insert(first)
        yield from walk(first, kids, 0)


def enumerate_exp(problem, emit: Optional[Callable] = None,
                  limit: Optional[int] = None) -> Counters:
    """Traverse the solution graph of ``problem``, emitting every maximal
    solution exactly once (see ``_exp_masks``; ``drain`` emits)."""
    return drain(problem, _exp_masks, emit, limit)
