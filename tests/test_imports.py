"""Every name a module of the package imports is used in that module,
only grammar is imported inside a function, every function, class and
method it defines is named somewhere, no tuple is built from a
generator, no assert statement checks anything, only the command line
and the Witt module raise LimitExceeded, and only the valued module and
the command line pass DEFAULT_PRECISION to max()."""

import ast
import collections
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


def test_function_level_imports_are_only_of_grammar():
    # the renderers behind __str__ import grammar, which imports their
    # modules; that is the one import cycle, and every other import sits
    # at the top of its module
    package = pathlib.Path(wittram.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) != (1, "grammar")
                ):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found


def _mentions(node):
    """How often each name is read or imported inside node."""
    names = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_definition_is_named_outside_itself():
    # a function, class or method of the package that no module of
    # src/, tests/ or perfbench/ names outside its own body is dead code
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "wittram"
    trees = {
        path: ast.parse(path.read_text())
        for top in ("src", "tests", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
    }
    named = sum((_mentions(tree) for tree in trees.values()), collections.Counter())
    unnamed = []
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if named[name] <= _mentions(node)[name]:
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert not unnamed


def test_no_tuple_is_built_from_a_generator():
    """tuple(<generator>) allocates a 10-slot tuple and resizes it to its
    length.  The resize takes nothing from the free list of the new size,
    but freeing the tuple later adds one to it, and CPython keeps up to
    2,000 free tuples of each size from 1 to 20 until a full collection.
    After 4,000 fpu_certify items run in one process with their checks
    (CPython 3.11.7), those lists held 2.1 MB, most sizes at the 2,000
    cap, and ru_maxrss was 25.3 MiB; with the tuples built from lists,
    sizes 3 to 19 held at most 125 each and ru_maxrss was 21.2 MiB."""
    package = pathlib.Path(wittram.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple"
                    and any(isinstance(a, ast.GeneratorExp) for a in node.args)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_no_assert_statement():
    # python -O drops assert statements, so a check the package relies on
    # raises explicitly
    package = pathlib.Path(wittram.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_only_cli_and_witt_raise_limit_exceeded():
    # every work bound is checked where its input arrives: the command
    # line's options and literals, and the caps on the universal
    # polynomials; arithmetic is never bounded
    package = pathlib.Path(wittram.__file__).parent
    raising = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "LimitExceeded":
                    raising.add(path.name)
    assert raising == {"cli.py", "witt.py"}


def test_only_valued_and_cli_bound_by_default_precision():
    # max(..., DEFAULT_PRECISION) is ring_one() and the precision ** reports
    # in valued, and the literal exponent bound in cli; a copy elsewhere
    # would drift from them
    package = pathlib.Path(wittram.__file__).parent
    bounding = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "max"
                    and any(isinstance(a, ast.Name) and a.id == "DEFAULT_PRECISION"
                            for a in node.args)):
                bounding.add(path.name)
    assert bounding == {"cli.py", "valued.py"}
