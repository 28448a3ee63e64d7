"""Span tracing of maxenum's layers, applied from outside the package.

The tracer rebinds public entry points: instance attributes on a problem,
module attributes of ``maxenum.pspace``, a timing subclass in place of
``maxenum.engine.SolutionDict`` and the ``graphs`` mask helpers in every
module that imported them.  The package itself is not edited.

Each call opens a span (name, start, parent) on an in-memory stack and
closes it with its end time.  A closed span folds into per-name totals:
calls, and self time, which is the span's duration minus the time its child
spans cover.  Closed spans are folded rather than kept one by one because a
single pass makes millions of predicate calls.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

PROBLEM_METHODS = ("sol", "comp_mask", "neighbors",
                   "addable", "order_keys", "neighbors_at")
PSPACE_FUNCTIONS = ("comp_lex", "core_of", "restr")
GRAPH_HELPERS = ("mask_components", "mask_dists", "mask_cc")


class Tracer:
    def __init__(self):
        # open spans, innermost last: [name, start, time covered by children]
        self.stack: list[list] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # results produced: list lengths, or values yielded by a generator
        self.items = defaultdict(int)
        self.tries: list = []

    def _open(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def _close(self) -> None:
        end = perf_counter()
        name, start, covered = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - covered
        if self.stack:
            self.stack[-1][2] += dur

    def span(self, name: str, fn, count_items: bool = False):
        calls, items = self.calls, self.items

        def traced(*args, **kwargs):
            calls[name] += 1
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if count_items:
                items[name] += len(out)
            return out
        return traced

    def generator_span(self, name: str, fn):
        """Wrap a generator function: one call, one span per resumption."""
        calls, items = self.calls, self.items

        def traced(*args, **kwargs):
            calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close()
                items[name] += 1
                yield item
        return traced

    def counter(self, name: str, fn):
        """Count calls without a span."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ---------------------------------------------------
    def install_modules(self) -> None:
        """Rebind the module-level entry points of engine, pspace and graphs."""
        import maxenum.engine
        import maxenum.graphs
        import maxenum.pspace as pspace

        for fname in PSPACE_FUNCTIONS:
            setattr(pspace, fname, self.span(f"pspace.{fname}", getattr(pspace, fname)))
        pspace.children = self.generator_span("pspace.children", pspace.children)

        loaded = [mod for name, mod in sys.modules.items()
                  if name == "maxenum" or name.startswith("maxenum.")]
        for fname in GRAPH_HELPERS:
            orig = getattr(maxenum.graphs, fname)
            traced = self.span(f"graphs.{fname}", orig)
            for mod in loaded:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, traced)

        maxenum.engine.SolutionDict = self._trie_class(maxenum.engine.SolutionDict)

    def _trie_class(self, base):
        tracer = self

        class TracedSolutionDict(base):
            def __init__(self):
                super().__init__()
                tracer.tries.append(self)

            def insert(self, seq):
                tracer.calls["engine.trie"] += 1
                tracer._open("engine.trie")
                try:
                    new = super().insert(seq)
                finally:
                    tracer._close()
                tracer.items["engine.trie"] += new
                return new
        return TracedSolutionDict

    def install_problem(self, problem) -> None:
        """Shadow the problem's contract methods with traced instance attributes."""
        for meth in PROBLEM_METHODS:
            fn = getattr(problem, meth, None)
            if fn is None:
                continue
            name = "problems.comp" if meth == "comp_mask" else f"problems.{meth}"
            count_items = meth in ("neighbors", "neighbors_at")
            setattr(problem, meth, self.span(name, fn, count_items))
        if hasattr(problem, "_solution_mask"):
            problem._solution_mask = self.counter("problems.sol.evals",
                                                  problem._solution_mask)
