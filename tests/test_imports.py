"""The package's only runtime dependency is numpy: every module under
``src/dgsum`` imports numpy, the standard library or dgsum itself."""

import ast
import sys
import types
import typing
from pathlib import Path

import numpy as np

import dgsum
from dgsum import corpus, training

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


# tape primitives that no ``src/dgsum`` module calls, each kept for a reason
UNCALLED_PRIMITIVES = {
    "masked_fill": "perfbench/spans.py patches it",
    "slice_axis": "perfbench/spans.py patches it",
    "leaky_relu": "perfbench/spans.py patches it",
    "transpose": "perfbench/spans.py patches it",
    "power": "acceptance criterion 3's gradient suite and demo 03 use it",
}


def tape_primitives(source: str) -> set[str]:
    """Names of the top-level functions in ``source`` that call ``_make``."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "_make" for n in ast.walk(node))}


def nm_calls(source: str) -> set[str]:
    """Names ``f`` of the calls ``nm.f(...)`` in ``source``."""
    return {node.func.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "nm"}


def test_tape_primitives_reads_make_calls_at_any_depth():
    source = ("def a(x):\n    return _make(x, (), None)\n"
              "def b(x):\n    def inner():\n        return _make(x, (), None)\n    return inner()\n"
              "def c(x):\n    return make(x)\n"
              "def _make(d, p, b):\n    return Tensor(d)\n")
    assert tape_primitives(source) == {"a", "b"}
    assert nm_calls("nm.add(x, nm.mul(y, 2))\nnm.MASK_FILL\nnp.add(x, y)\n") == {"add", "mul"}


def test_every_tape_primitive_has_a_caller_in_src():
    pkg = Path(dgsum.__file__).parent
    primitives = tape_primitives((pkg / "numeric" / "tensor.py").read_text(encoding="utf-8"))
    assert len(primitives) > 20
    called = set().union(*(nm_calls(path.read_text(encoding="utf-8"))
                           for path in pkg.rglob("*.py")))
    assert primitives - called == set(UNCALLED_PRIMITIVES)


def precision_switches(source: str) -> set[str]:
    """What would make precision process state in ``source``: calls of
    ``set_precision``, names a function rebinds with ``global``, and
    module-level names bound to a numpy dtype (``np.float64``, ``np.dtype(...)``)."""
    tree = ast.parse(source)
    found = {"set_precision()" for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "set_precision"}
    found |= {f"global {name}" for node in ast.walk(tree) if isinstance(node, ast.Global)
              for name in node.names}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value.func if isinstance(node.value, ast.Call) else node.value
            if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) \
                    and value.value.id in ("np", "numpy") \
                    and (value.attr == "dtype" or value.attr in np.sctypeDict):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {ast.unparse(t) for t in targets}
    return found


def test_precision_switches_reads_calls_globals_and_dtype_names():
    source = ("import numpy as np\n_DTYPE = np.float64\nWIDE: object = np.dtype('f8')\n"
              "MASK = np.zeros(3)\nEPS = 1e-8\n"
              "def f(mode):\n    global _DTYPE\n    _DTYPE = np.float32\n"
              "def g():\n    nm.set_precision('single')\n    set_precision('double')\n")
    assert precision_switches(source) == {"_DTYPE", "WIDE", "global _DTYPE", "set_precision()"}


def test_src_holds_no_process_wide_precision():
    """No module under ``src/dgsum`` calls ``set_precision`` or defines a
    module-level dtype switch: a model's precision is its parameters'."""
    found = {path.name: precision_switches(path.read_text(encoding="utf-8"))
             for path in Path(dgsum.__file__).parent.rglob("*.py")}
    assert {name: f for name, f in found.items() if f} == {}


LAYOUT_NAMES = {"BoundaryIndex", "layout"}


def layout_names(source: str) -> set[str]:
    """Which of ``LAYOUT_NAMES`` ``source`` names as code: a name, an
    attribute, an import, a definition, a parameter or a keyword argument."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found |= {node.name, node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        else:
            found.add(getattr(node, "id", None) or getattr(node, "attr", None)
                      or getattr(node, "arg", None))
    return found & LAYOUT_NAMES


def test_layout_names_reads_every_naming_form():
    assert layout_names("from .corpus import BoundaryIndex\n") == {"BoundaryIndex"}
    assert layout_names("import x as layout\n") == {"layout"}
    assert layout_names("corpus.layout(c, 16)\n") == {"layout"}
    assert layout_names("def layout():\n    pass\n") == {"layout"}
    assert layout_names("def f(layout):\n    pass\n") == {"layout"}
    assert layout_names("f(layout=1)\n") == {"layout"}
    assert layout_names("x: BoundaryIndex = None\n") == {"BoundaryIndex"}
    assert layout_names('"""the head layout"""\nbounds = 1\n') == set()


def test_only_serialization_and_graph_construction_name_the_layout():
    """The boundary index stops at the graph: past ``prepare_bundle`` a side
    of a cluster is its ids and its graph, and the encoder finds the
    delimiters in the ids."""
    found = {path.name: layout_names(path.read_text(encoding="utf-8"))
             for path in Path(dgsum.__file__).parent.rglob("*.py")}
    assert {name for name, f in found.items() if f} == {"corpus.py", "hetgraph.py"}


SOFTMAX_CORE = {"_softmax_rows", "_softmax_grad"}


def callers_of(source: str, names: set[str]) -> set[str]:
    """Names of the top-level functions and classes in ``source`` that call
    one of ``names``, by name or as an attribute, at any depth; a call
    outside them counts as ``<module>``."""
    found = set()
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found |= {owner for n in ast.walk(node) if isinstance(n, ast.Call)
                  and getattr(n.func, "id", getattr(n.func, "attr", None)) in names}
    return found


def test_callers_of_reads_calls_at_any_depth_and_by_attribute():
    source = ("def a(x):\n    _softmax_rows(x)\n"
              "def b(x):\n    def inner():\n        return tensor._softmax_grad(x, x)\n"
              "    return inner\n"
              "class C:\n    def f(self, x):\n        _softmax_rows(x)\n"
              "def d(x):\n    return softmax_rows(_softmax_grad)\n"
              "_softmax_rows(y)\n")
    assert callers_of(source, SOFTMAX_CORE) == {"a", "b", "C", "<module>"}


def test_only_softmax_and_the_attention_core_call_the_row_softmax():
    """``softmax`` and ``_attend``/``_attend_grad``, the one dense attention
    that both text kernels run, are the only callers of the in-place row
    softmax and its backward: no kernel keeps a softmax path of its own."""
    found = {path.name: callers_of(path.read_text(encoding="utf-8"), SOFTMAX_CORE)
             for path in Path(dgsum.__file__).parent.rglob("*.py")}
    assert {name: f for name, f in found.items() if f} == {
        "tensor.py": {"softmax", "_attend", "_attend_grad"}}


def named_types(hint) -> set:
    """The types a type hint names, at any depth."""
    args = typing.get_args(hint)
    return {typing.get_origin(hint)}.union(*map(named_types, args)) if args else {hint}


def test_named_types_reads_nested_hints():
    assert named_types(list[list[str]] | None) == {types.UnionType, list, str, type(None)}
    assert named_types(dict[str, tuple[int, float]]) == {dict, tuple, str, int, float}


def test_a_bundle_holds_no_parsed_text():
    """Past ``prepare_bundle`` a cluster is ids, graphs and token lists: no
    ``ClusterBundle`` field holds a parsed cluster, document or sentence."""
    hints = typing.get_type_hints(training.ClusterBundle)
    named = set().union(*map(named_types, hints.values()))
    assert not named & {corpus.DocumentCluster, corpus.Document, corpus.Sentence}
