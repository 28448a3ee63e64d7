"""The benchmark's tracer rebinds package names by string; each of them
must exist, or a ``--trace 1`` run of ``perfbench/run.py`` stops with an
error.  The tracer module is loaded here without installing it."""

import importlib.util
import sys
from pathlib import Path

import maxenum.engine
import maxenum.graphs
import maxenum.pspace
from maxenum.problems.base import Problem, PspaceProblem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rebound_names_exist(monkeypatch):
    tracing = load_tracing(monkeypatch)
    for name in (*tracing.PSPACE_FUNCTIONS, "children"):
        assert callable(getattr(maxenum.pspace, name, None)), name
    for name in tracing.GRAPH_HELPERS:
        assert callable(getattr(maxenum.graphs, name, None)), name
    assert isinstance(getattr(maxenum.engine, "SolutionDict", None), type)
    # the tracer skips a problem method it cannot find, without an error:
    # the pspace problems have every one of them, and all problems have
    # those the exp engine calls
    for name in tracing.PROBLEM_METHODS:
        assert callable(getattr(PspaceProblem, name, None)), name
        if name not in ("order_keys", "neighbors_at"):
            assert callable(getattr(Problem, name, None)), name


def test_traced_dictionary_counts_inserts_and_stored_keys(monkeypatch):
    # the traced pass of an exp workload reads these through the tracer's
    # subclass: calls and new keys per insert, and node_count per dictionary
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    traced = tracer._trie_class(maxenum.engine.SolutionDict)
    d = traced()
    assert d.insert((0, 2)) is True
    assert d.insert((0, 2)) is False
    assert tracer.calls["engine.trie"] == 2
    assert tracer.items["engine.trie"] == 1
    assert d.node_count == 1
    assert tracer.tries == [d]
