"""Every backticked dotted name in README.md resolves to a live module,
class or instance attribute of the package, so a name that leaves the
package cannot stay in the README as if it were still there."""

import importlib
import re
from pathlib import Path

import pytest

import maxenum
import maxenum.problems.base
from maxenum import Graph
from maxenum.problems import VARIANTS

from conftest import build_instance

README = Path(__file__).resolve().parents[1] / "README.md"
# a dotted name, with the argument list of a call written after it
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def readme_names() -> list[str]:
    return sorted(set(DOTTED.findall(README.read_text())))


def module(name: str):
    """The package module a name starts with: ``maxenum`` itself, or a
    module of the package or of its ``problems`` package; else None."""
    for full in (name, f"maxenum.{name}", f"maxenum.problems.{name}"):
        if full.split(".")[0] == "maxenum":
            try:
                return importlib.import_module(full)
            except ImportError:
                pass
    return None


def example(cls):
    """An instance of a class whose attributes are set in its constructor:
    a graph, or a problem built by the test corpus."""
    if cls is Graph:
        return Graph(2, [(0, 1)])
    variant = next(v for v, c in VARIANTS.items() if issubclass(c, cls))
    return build_instance(variant, 0)


def resolve(name: str):
    """The object a dotted name names; AttributeError when there is none.
    The name starts with a module or with a class the package exports, and
    an attribute a class lacks is looked up on an instance of it."""
    head, *rest = name.split(".")
    obj = module(head)
    if obj is None:
        owners = (maxenum, maxenum.problems, maxenum.problems.base)
        obj = next((getattr(m, head) for m in owners if hasattr(m, head)), None)
        if obj is None:
            raise AttributeError(f"no module or class named {head}")
    for part in rest:
        if isinstance(obj, type) and not hasattr(obj, part):
            obj = example(obj)
        obj = getattr(obj, part)
    return obj


def test_readme_names_a_dozen_dotted_names():
    assert len(readme_names()) >= 12


@pytest.mark.parametrize("name", readme_names())
def test_readme_dotted_name_resolves(name):
    resolve(name)


def test_a_removed_name_does_not_resolve():
    for name in ("maxenum.degeneracy_order", "PspaceProblem.order_keys",
                 "Hulls.obstacles_inside", "graphs.mask_layers", "Problem._sol_eval",
                 "degenerate._peel_ok_vertices"):
        with pytest.raises(AttributeError):
            resolve(name)
    assert resolve("Graph.und_mask") == Graph(2, [(0, 1)]).und_mask
