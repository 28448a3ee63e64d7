"""No module of the package imports a name it does not use.  A name counts
as used when the module reads it anywhere, or lists it in ``__all__`` to
re-export it.  No function or class the package defines goes unreferenced
by the package and the benchmark harness, apart from the documented
contract that only callers outside them use; an ``__all__`` entry alone
does not reference a definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "maxenum"
PERFBENCH = ROOT / "perfbench"
# the contract the README documents and the tests call: the membership
# test and the completion budget
UNREFERENCED_CONTRACT = {"is_solution", "comp_budget"}


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in sorted(SRC.rglob("*.py"))
              for line, name in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from os import path, sep\nimport os.path as osp\n"
                      "import sys\n__all__ = ['sep']\nprint(sys.argv)\n")
    assert unused_imports(module) == [(1, "path"), (2, "osp")]


def referenced_names(path: Path) -> set[str]:
    """Every name the module reads or reads an attribute by, and every
    identifier-like string it holds outside ``__all__``, such as the names
    the benchmark tracer rebinds with ``getattr`` and ``setattr``.  An
    ``__all__`` entry only exports a name, which no caller then needs."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = {id(entry) for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for entry in ast.walk(node.value)}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            refs.add(node.value)
    return refs


def unreferenced_definitions(defining: list[Path], referencing: list[Path]):
    """(path, line, name) of each function or class defined in ``defining``
    whose name no module of ``referencing`` mentions; dunders are exempt."""
    refs = set().union(*map(referenced_names, referencing))
    return [(path, node.lineno, node.name)
            for path in defining
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in refs
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_no_unreferenced_definitions():
    src = sorted(SRC.rglob("*.py"))
    dead = [f"{path.relative_to(SRC)}:{line}: {name}"
            for path, line, name in unreferenced_definitions(
                src, src + sorted(PERFBENCH.rglob("*.py")))
            if name not in UNREFERENCED_CONTRACT]
    assert not dead, "definitions nothing references:\n" + "\n".join(dead)


def test_an_unreferenced_definition_is_found(tmp_path):
    module = tmp_path / "mod.py"
    # f is exported and called, k only exported
    module.write_text("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
                      "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\n"
                      "__all__ = ['f', 'k']\nsetattr(A, 'm', g)\nf()\n")
    assert [(line, name) for _, line, name in
            unreferenced_definitions([module], [module])] == [(6, "h"), (7, "k")]


def imported_modules(path: Path) -> set[str]:
    """The absolute name of each module the package module at ``path``
    imports from, relative imports resolved against its package."""
    package = ["maxenum", *path.relative_to(SRC).parent.parts]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            names.add(".".join(base + ([node.module] if node.module else [])))
    return names


def test_layers_import_downward():
    # the engines and the oracle work on masks and list ids with graphs.bits,
    # so none of them reaches into the problem layer; graphs is the bottom
    for name in ("engine.py", "oracle.py", "graphs.py"):
        problems = [m for m in imported_modules(SRC / name)
                    if m == "maxenum.problems" or m.startswith("maxenum.problems.")]
        assert not problems, (name, problems)
    assert not [m for m in imported_modules(SRC / "graphs.py")
                if m.split(".")[0] == "maxenum"]
    # relative imports resolve, so an empty answer cannot pass the checks above
    assert "maxenum.problems.base" in imported_modules(SRC / "pspace.py")
    assert "maxenum.graphs" in imported_modules(SRC / "problems" / "base.py")
