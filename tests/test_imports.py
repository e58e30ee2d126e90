"""Source hygiene: every name a module under src/formcalc imports is used."""

import ast
import pathlib

import formcalc


def imported_names(tree):
    """The name each import binds, mapped to the line of its import;
    ``from __future__`` imports bind no name the module reads."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_module_uses_its_imports():
    unused = {}
    for path in sorted(pathlib.Path(formcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = {name: line for name, line in imported_names(tree).items()
                 if name not in used}
        if names:
            unused[path.name] = names
    assert not unused, f"imported but never used (name: line): {unused}"
