"""Every name a cubalg module imports is used in that module, and no
module imports another module's private (`_`-prefixed) name.

An AST scan in place of a linter: `__init__.py` re-exports names and is
skipped, and so are `from __future__` imports, which bind no name.
"""

import ast
import pathlib

import cubalg

PACKAGE = pathlib.Path(cubalg.__file__).parent


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = [u for p in modules for u in unused_imports(p)]
    assert unused == []


def private_imports(path):
    tree = ast.parse(path.read_text())
    return ["%s:%d %s" % (path.name, node.lineno, alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    private = [u for p in modules for u in private_imports(p)]
    assert private == []
