"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import wittram


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_an_unused_name():
    # __init__.py imports names to re-export them
    package = pathlib.Path(wittram.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = sorted(set(_imported_names(tree)) - used)
        assert not unused, (path.name, unused)
