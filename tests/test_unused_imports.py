"""No library module imports a name it never uses, apart from two pinned ones.

No linter is installed, so the check reads each module with `ast`: an
imported name is used when any `Name` node (an attribute's base included)
refers to it.  The package `__init__` imports only to re-export, so it is
left out."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modeqaoa"

# imported but not called; perfbench's trace-site test pins both imports
PINNED = {"baselines.compute_stats", "stage2.sample"}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_finds_bound_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .x import a, b as c, d\n\ndef f(v: d) -> None:\n    np.sum(c)\n")
    assert unused_imports(source) == {"os", "a"}


def test_only_pinned_imports_are_unused():
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py") if path.name != "__init__.py"
             for name in unused_imports(path.read_text())}
    assert found == PINNED
