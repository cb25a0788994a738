"""The package holds only what a run, a re-analysis or the benchmark reaches.

Every module-level function and class in src/driftlab must be referenced
outside its own definition somewhere in src/driftlab or perfbench, as a
name, an attribute or an imported name, or be exported in driftlab.__all__.
A helper that only tests use belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

import driftlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftlab"
TREES = (PACKAGE, ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreferenced_definitions(trees=TREES) -> list[str]:
    """module.name of each module-level def or class of the package no one names.

    A reference counts when it sits anywhere in the trees except inside
    the definition itself.
    """
    defined = []  # (path, name)
    references = []  # (path, enclosing top-level definition or None, names)
    for tree_dir in trees:
        for path in sorted(tree_dir.glob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            for stmt in module.body:
                owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
                if owner is not None and tree_dir == PACKAGE:
                    defined.append((path, owner))
                references.append((path, owner, _referenced_names(stmt)))
    exported = set(driftlab.__all__)
    return [
        f"{path.stem}.{name}"
        for path, name in defined
        if name not in exported
        and not any(
            name in names and (where, owner) != (path, name)
            for where, owner, names in references
        )
    ]


def test_every_package_definition_is_reached_outside_the_tests():
    assert unreferenced_definitions() == []
