"""No library module imports a name it never uses, apart from two pinned ones,
no module-level name of the library goes unloaded everywhere, and those that
only tests or perfbench load are listed.

No linter is installed, so both checks read the sources with `ast`.  An
imported name is used when any `Name` node (an attribute's base included)
refers to it.  The package `__init__` imports only to re-export, so it is
left out of the import check."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modeqaoa"

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


def module_names(source: str) -> set[str]:
    """The functions, classes and assigned names at a module's top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def loaded_names(source: str) -> set[str]:
    """Every name a source loads: a `Name` read, an attribute, or an import by name."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded |= {alias.name for alias in node.names}
    return loaded


def test_orphaned_names_finds_unloaded_definitions():
    source = ("import os\nA = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\n\n"
              "def f():\n    return A\n\nclass K:\n    x = B\n\ndef g():\n    os.sep = 0\n")
    other = "from m import C\nprint(m.D, f)\n"
    assert module_names(source) == {"A", "B", "C", "D", "E", "f", "K", "g"}
    assert module_names(source) - loaded_names(source) - loaded_names(other) == {"E", "K", "g"}


def test_no_orphaned_module_level_names():
    # a name left behind by a refactor is loaded nowhere in the library, its
    # tests or perfbench
    loaded = set().union(*(loaded_names(path.read_text())
                           for folder in ("src", "tests", "perfbench")
                           for path in (ROOT / folder).rglob("*.py")))
    orphans = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
               for name in module_names(path.read_text()) - loaded}
    assert orphans == set()


# module-level names that no library module loads: kept for tests and
# perfbench alone, each on purpose
TEST_ONLY = {"estimators.mode_confidence", "estimators.normalized_cut_variance",
             "resources.saving_ratios", "simulator.GateShift", "simulator.exact_expectation",
             "stage2.target_probability"}


def test_test_only_names_are_listed():
    # a helper a refactor leaves to the tests alone must join TEST_ONLY by hand;
    # __init__ only re-exports, so its loads do not count
    library = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    loaded = set().union(*(loaded_names(path.read_text()) for path in library))
    unloaded = {f"{path.stem}.{name}" for path in library
                for name in module_names(path.read_text()) - loaded}
    assert unloaded == TEST_ONLY
