"""The Giallar preprocessor: static analysis of a pass implementation.

The paper's preprocessor rewrites the pass source into straight-line
verification conditions.  In this reproduction the heavy lifting happens at
run time (loop templates are library calls and branches fork the symbolic
executor), so the preprocessor's remaining jobs are the static ones:

* check the pass stays inside the supported fragment (no raw ``for``/``while``
  loops over symbolic circuits - loops must go through the templates; no
  constructs the symbolic executor cannot handle),
* count branch statements (to bound the number of paths up front),
* record which loop templates and which verified utility functions the pass
  uses (for the reusability accounting of Section 8),
* identify non-critical statements (logging, property-set writes) which are
  ignored by the semantic obligations.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import sys
import textwrap
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.errors import UnsupportedPassError

#: Loop-template entry points (calls to these make a loop verifiable).
TEMPLATE_NAMES = {
    "iterate_all_gates",
    "while_gate_remaining",
    "collect_runs",
    "route_each_gate",
}

#: Verified utility-library functions (their calls are replaced by specs).
UTILITY_NAMES = {
    "next_gate",
    "merge_1q_gates",
    "shortest_path",
    "swap_path",
    "total_distance",
    "is_adjacent",
    "collect_1q_runs",
    "gates_on_qubit",
    "first_gate_on_qubit",
    "final_ops_on_qubits",
    "circuit_depth",
    "circuit_size",
    "count_ops",
    "num_tensor_factors",
    "longest_path_length",
    "expand_gate",
    "reverse_direction",
    "absorb_diagonal_before_measure",
    "drop_final_measurement",
    "drop_initial_reset",
    "consolidate_block",
}

#: Calls considered non-critical: they never affect the produced circuit.
NON_CRITICAL_CALLS = {"print", "log", "debug", "info", "warning"}


@dataclass
class PassAnalysis:
    """The preprocessor's report for one pass class."""

    pass_name: str
    lines_of_code: int
    branch_count: int
    templates_used: Tuple[str, ...]
    utilities_used: Tuple[str, ...]
    raw_loops: int
    non_critical_statements: int
    supported: bool
    unsupported_reason: str = ""


class _Analyzer(ast.NodeVisitor):
    def __init__(self) -> None:
        self.branches = 0
        self.templates: Set[str] = set()
        self.utilities: Set[str] = set()
        self.raw_loops = 0
        self.non_critical = 0
        self._loop_depth_inside_template_call = 0

    def visit_If(self, node: ast.If) -> None:
        self.branches += 1
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self.branches += 1
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self.raw_loops += 1
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self.raw_loops += 1
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in TEMPLATE_NAMES:
            self.templates.add(name)
        elif name in UTILITY_NAMES:
            self.utilities.add(name)
        elif name in NON_CRITICAL_CALLS:
            self.non_critical += 1
        self.generic_visit(node)


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@lru_cache(maxsize=None)
def _module_class_sources(module_name: str, stamp: Tuple) -> Dict[str, str]:
    """Source text of every class in a module, extracted with one parse.

    ``inspect.getsource`` re-tokenises the whole module per class, which
    dominated warm-cache runs; parsing the module AST once and slicing out
    every class body makes fingerprinting 44 passes take ~1 ms.  ``stamp``
    (the file's mtime and size) keys the memo so an edited-and-reloaded
    module is re-extracted.
    """
    del stamp  # part of the cache key only
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    segments: Dict[str, str] = {}

    def segment_of(node: ast.AST) -> str:
        # ast.get_source_segment re-splits the module per call; slicing the
        # shared line list keeps fingerprinting the whole suite around 1 ms.
        if node.end_lineno == node.lineno:
            return lines[node.lineno - 1][node.col_offset:node.end_col_offset]
        first = lines[node.lineno - 1][node.col_offset:]
        middle = lines[node.lineno:node.end_lineno - 1]
        last = lines[node.end_lineno - 1][:node.end_col_offset]
        return "".join([first, *middle, last])

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                segments[qualname] = segment_of(child)
                walk(child, f"{qualname}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{prefix}{child.name}.<locals>.")

    walk(tree, "")
    return segments


def _module_stamp(module_name: str) -> Optional[Tuple]:
    module = sys.modules.get(module_name)
    path = getattr(module, "__file__", None) if module is not None else None
    if path is None:
        return None
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (path, status.st_mtime_ns, status.st_size)


def pass_source(pass_class) -> Optional[str]:
    """The pass's source text, or ``None`` when it cannot be recovered.

    The pass key hashes this text and :func:`analyze_pass` analyses it.
    Dynamically created classes (``exec``/REPL) have no retrievable source;
    the engine treats them as uncacheable rather than risking a collision.
    """
    stamp = _module_stamp(pass_class.__module__)
    if stamp is not None:
        try:
            segments = _module_class_sources(pass_class.__module__, stamp)
        except (OSError, TypeError, SyntaxError):
            segments = {}
        source = segments.get(pass_class.__qualname__)
        if source is not None:
            return source
    try:
        return inspect.getsource(pass_class)
    except (OSError, TypeError):
        return None


def analyze_pass(pass_class: Type) -> PassAnalysis:
    """Statically analyse a pass class's ``run`` method."""
    source = pass_source(pass_class)
    if source is None:
        raise UnsupportedPassError(f"cannot retrieve source of {pass_class.__name__}")
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    analyzer = _Analyzer()
    run_node = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "run":
            run_node = node
            break
    if run_node is None:
        unsupported_marker = getattr(pass_class, "unsupported_reason", None)
        if unsupported_marker:
            # Out-of-scope passes (randomised routing, external solvers, ...)
            # declare why they are unsupported instead of providing run().
            return PassAnalysis(
                pass_name=pass_class.__name__,
                lines_of_code=0,
                branch_count=0,
                templates_used=(),
                utilities_used=(),
                raw_loops=0,
                non_critical_statements=0,
                supported=False,
                unsupported_reason=str(unsupported_marker),
            )
        raise UnsupportedPassError(f"{pass_class.__name__} does not define run()")
    analyzer.visit(run_node)

    lines = [line for line in source.splitlines() if line.strip() and not line.strip().startswith("#")]
    supported = True
    reason = ""
    unsupported_marker = getattr(pass_class, "unsupported_reason", None)
    if unsupported_marker:
        supported = False
        reason = str(unsupported_marker)
    elif analyzer.raw_loops > 0 and not analyzer.templates:
        # Raw loops are acceptable only when the pass declares they are bounded
        # or non-critical (e.g. iterating over a concrete coupling map).
        if not getattr(pass_class, "raw_loops_are_bounded", False):
            supported = False
            reason = (
                "the pass contains a raw loop that does not go through a Giallar "
                "loop template and is not declared bounded"
            )
    return PassAnalysis(
        pass_name=pass_class.__name__,
        lines_of_code=len(lines),
        branch_count=analyzer.branches,
        templates_used=tuple(sorted(analyzer.templates)),
        utilities_used=tuple(sorted(analyzer.utilities)),
        raw_loops=analyzer.raw_loops,
        non_critical_statements=analyzer.non_critical,
        supported=supported,
        unsupported_reason=reason,
    )
