"""Every name a cubalg module imports is used in that module, and no
module imports another module's private (`_`-prefixed) name.

An AST scan in place of a linter: `__init__.py` re-exports names and is
skipped, and so are `from __future__` imports, which bind no name.

The CLI loads an engine only in the verb that runs it: a fresh process
that builds the parser, or runs one verb, loads only the cubalg modules
that verb needs.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


def cubalg_modules_after(code, tmp_path):
    """The cubalg modules loaded once `code` has run in a fresh process."""
    report = ("import json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "                        if m.split('.')[0] == 'cubalg')))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code + "\n" + report],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return set(json.loads(out.stdout.splitlines()[-1]))


def run_verb(argv):
    """Code that runs one verb with its stdout discarded."""
    return ("import contextlib, io\n"
            "from cubalg.cli import dispatch\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = dispatch(%r)\n"
            "if status:\n"
            "    raise SystemExit(status)\n" % (argv,))


def test_parser_loads_no_engine(tmp_path):
    loaded = cubalg_modules_after(
        "import cubalg.cli\ncubalg.cli.build_parser()", tmp_path)
    assert loaded == {"cubalg", "cubalg.cli", "cubalg.emit"}


def test_chart_render_loads_no_algebra_engine(tmp_path):
    (tmp_path / "chart.json").write_text(json.dumps(
        {"s_max": 1, "t_values": [0, 2],
         "cells": [{"s": 0, "t": 0, "rank": 1, "torsion": []},
                   {"s": 1, "t": 2, "rank": 0, "torsion": [2]}]}))
    loaded = cubalg_modules_after(
        run_verb(["chart", "render", "--input", "chart.json"]), tmp_path)
    assert loaded <= {"cubalg", "cubalg.cli", "cubalg.emit", "cubalg.chart"}


def test_steenrod_verify_loads_no_curve_or_cobar_engine(tmp_path):
    loaded = cubalg_modules_after(
        run_verb(["steenrod", "verify", "--cutoff", "16"]), tmp_path)
    assert "cubalg.steenrod" in loaded
    unused = {"cubalg." + m for m in ("covers", "fgl", "regseq", "cobar",
                                      "curves", "series")}
    assert loaded & unused == set()
