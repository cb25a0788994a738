"""The package holds only what a run, a re-analysis or the benchmark reaches.

Every module-level function and class in src/driftlab must be referenced
outside its own definition somewhere in src/driftlab or perfbench, as a
name, an attribute or an imported name, or be exported in driftlab.__all__.
A helper that only tests use belongs in tests/oracles.py.

No module in src/driftlab or tests imports a name it never uses; a name
listed in the module's __all__ counts as used.
"""

import ast
from pathlib import Path

import driftlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftlab"
TESTS = ROOT / "tests"
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


def _bound_names(imp) -> list[str]:
    """The names an import statement binds; import a.b binds a."""
    if isinstance(imp, ast.ImportFrom) and imp.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in imp.names]


def _used_names(module) -> set[str]:
    """Names the module reads, plus the entries of its __all__."""
    used = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports() -> list[str]:
    """path:line name for each imported name its module never uses."""
    found = []
    for tree_dir in (PACKAGE, TESTS):
        for path in sorted(tree_dir.glob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            used = _used_names(module)
            for node in ast.walk(module):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.extend(
                        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                        for name in _bound_names(node)
                        if name not in used
                    )
    return found


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == []
