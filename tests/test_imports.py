"""The package's import graph.

Modules import each other at the top, so that a cycle shows at import
time.  The one import made inside a function is that of the interpreter,
`_engine`, which only the commands that run a program load: `certify`
never compiles it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import aliascert

PACKAGE = Path(aliascert.__file__).resolve().parent


def _function_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        yield f"{path.name}:{node.lineno}", node


def test_a_function_imports_only_the_interpreter():
    found = list(_function_imports())
    assert found  # the interpreter is imported lazily
    for where, node in found:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, where
        assert node.module == "_engine" or (
            node.module is None and [a.name for a in node.names] == ["_engine"]), where


def test_importing_the_cli_leaves_the_interpreter_unloaded():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, aliascert.cli; sys.exit('aliascert._engine' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
