"""No module of the package imports a name it does not use.  A name counts
as used when the module reads it anywhere, or lists it in ``__all__`` to
re-export it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "maxenum"


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
