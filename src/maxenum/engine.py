"""Generic solution-graph traversal with a visited-solution dictionary.

The engine knows nothing about graphs: a problem exposes a ground set, a
``first_solution`` starter, and a ``neighbors`` function returning maximal
solutions.  The traversal is ``walk``, the DFS both engines share, over the
tree of first discoveries: a neighbor is a child of the solution whose
``neighbors`` call first reached it, and a set of visited solution masks
decides which call that is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


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
    comp_calls: int = 0          # completions computed, not memo hits
    dict_operations: int = 0     # visited-set inserts, exp traversal only
    max_comp_gap: int = 0        # most comp calls between consecutive emissions
    roots_found: int = 0         # parent-forest traversal only
    child_checks_passed: int = 0  # parent-forest traversal only


class Emitter:
    """Output bookkeeping shared by both engines.

    Calling the emitter passes one solution to the sink, counts it and
    records the completion calls since the previous output; ``done`` turns
    true once ``limit`` solutions are out (at once for a limit <= 0).  A
    failing sink aborts the run with PartialOutputError.
    """

    def __init__(self, problem, emit: Optional[Callable], limit: Optional[int]):
        self.problem = problem
        self.emit = emit
        self.limit = limit
        self.counters = Counters()
        self.comp_base = problem.comp_calls
        self.last_mark: Optional[int] = None  # comp calls at the last output
        self.done = limit is not None and limit <= 0

    def __call__(self, sol) -> None:
        counters = self.counters
        now = self.problem.comp_calls
        if self.last_mark is not None:
            counters.max_comp_gap = max(counters.max_comp_gap, now - self.last_mark)
        self.last_mark = now
        if self.emit is not None:
            try:
                self.emit(sol)
            except Exception as exc:
                raise PartialOutputError(counters.solutions_emitted, exc) from exc
        counters.solutions_emitted += 1
        if self.limit is not None and counters.solutions_emitted >= self.limit:
            self.done = True

    def finish(self) -> Counters:
        """The run's counters, with its completion calls filled in."""
        self.counters.comp_calls = self.problem.comp_calls - self.comp_base
        return self.counters


class SolutionDict:
    """The visited solutions of an exp run, kept as a set of bitmasks.

    ``insert`` stores a solution given as its strictly ascending,
    non-negative element ids and returns True iff it was not stored before;
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

    def insert(self, seq) -> bool:
        """Insert an ascending id sequence; True iff it was not present before."""
        mask, last = 0, -1
        for e in seq:
            if e <= last:
                raise ValueError("solution keys must be strictly ascending "
                                 "and non-negative")
            mask |= 1 << e
            last = e
        masks = self._masks
        if mask in masks:
            return False
        masks.add(mask)
        return True


def walk(root, kids: Callable, emitter: Emitter, depth: int) -> None:
    """Emit the tree below ``root``, root included, by an iterative DFS.

    ``kids(node)`` is an iterator over a node's children, consumed one child
    per step.  A node is output in pre-order at even depth and in post-order
    at odd depth, the root sitting at ``depth``, so consecutive outputs are
    a bounded number of steps apart.  The walk stops once the emitter is done.
    """
    if depth % 2 == 0:
        emitter(root)
    stack = [(root, depth, kids(root))]
    while stack and not emitter.done:
        node, d, it = stack[-1]
        child = next(it, None)
        if child is not None:
            stack.append((child, d + 1, kids(child)))
            if d % 2 == 1:
                emitter(child)
        else:
            stack.pop()
            if d % 2 == 1:
                emitter(node)


def enumerate_exp(problem, emit: Optional[Callable] = None,
                  limit: Optional[int] = None) -> Counters:
    """Traverse the solution graph of ``problem``, emitting every maximal
    solution exactly once.

    ``neighbors`` is invoked exactly once per distinct solution; duplicate
    and already-seen candidates are filtered through the set of visited
    solution masks; ``dict_operations`` counts its inserts, the first
    solution's included.
    ``emit`` receives each solution as a sorted tuple; a failing sink aborts
    the run with PartialOutputError.  ``limit`` stops the run after that
    many emissions (the emitted prefix is deterministic).
    """
    emitter = Emitter(problem, emit, limit)
    if emitter.done:
        return emitter.counters
    counters = emitter.counters
    seen = SolutionDict()

    def kids(sol):
        counters.neighbors_calls += 1
        for cand in problem.neighbors(sol):
            counters.dict_operations += 1
            if seen.insert(cand):
                yield cand

    first = problem.first_solution()
    counters.dict_operations += 1
    seen.insert(first)
    walk(first, kids, emitter, 0)
    return emitter.finish()
