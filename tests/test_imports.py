"""The package's only runtime dependency is numpy: every module under
``src/dgsum`` imports numpy, the standard library or dgsum itself."""

import ast
import sys
from pathlib import Path

import dgsum

ALLOWED = {"numpy", "dgsum"} | set(sys.stdlib_module_names)


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_reads_every_import_form():
    source = ("import os.path, numpy as np\nfrom scipy import sparse\n"
              "from . import rouge\nfrom .numeric import Tensor\n"
              "def f():\n    import torch\n")
    assert imported_roots(source) == {"os", "numpy", "scipy", "torch"}


def test_src_imports_only_numpy_and_the_standard_library():
    modules = sorted(Path(dgsum.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    found = {root: path.name for path in modules
             for root in imported_roots(path.read_text(encoding="utf-8"))}
    assert "numpy" in found
    assert set(found) <= ALLOWED, {root: found[root] for root in set(found) - ALLOWED}
