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
import hashlib
import io
import sys
import textwrap
import tokenize
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.errors import UnsupportedPassError
from repro.verify.results import PassAnalysis

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
def _module_class_sources(module_name: str,
                          digest: str) -> Optional[Tuple[str, Dict[str, str]]]:
    """A module's source, and the text of every class in it, from one parse.

    Read from the module's file, and only if its bytes hash to ``digest``,
    the module graph's content digest of that file
    (:func:`repro.incremental.deps.module_digest`), which keys this memo:
    so a pass key and the ``sources`` digest recorded beside it always
    read the same version of the file.  ``None`` when the bytes differ
    (the file changed after it was hashed), which leaves the module's
    passes uncacheable until the module is hashed again, or when the file
    does not parse.  The text is decoded as :mod:`linecache` reads a
    source file, so it is what ``inspect.getsource`` returns.
    """
    from repro.incremental.deps import _BLOCK_NODES, module_source_path

    try:
        with open(module_source_path(module_name), "rb") as handle:
            data = handle.read()
        if hashlib.sha256(data).hexdigest() != digest:
            return None
        encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
        source = data.decode(encoding).replace("\r\n", "\n").replace("\r", "\n")
        if not source.endswith("\n"):
            source += "\n"
        tree = ast.parse(source)
    except (OSError, SyntaxError, ValueError):
        return None
    # Split where ast counts lines: str.splitlines would also break at a
    # form feed or other separators and shift every later class.
    lines = io.StringIO(source).readlines()
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

    def walk(block: List[ast.AST], prefix: str) -> None:
        # Classes are statements: a class or function body opens a
        # qualname scope, any other block (if, try, with, ...) does not.
        for node in block:
            if isinstance(node, ast.ClassDef):
                qualname = f"{prefix}{node.name}"
                segments[qualname] = segment_of(node)
                walk(node.body, f"{qualname}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(node.body, f"{prefix}{node.name}.<locals>.")
            else:
                for name in node._fields:
                    inner = getattr(node, name, None)
                    if isinstance(inner, list) and inner \
                            and isinstance(inner[0], _BLOCK_NODES):
                        walk(inner, prefix)

    walk(tree.body, "")
    return source, segments


def _module_sources(module_name: str) -> Optional[Tuple[str, Dict[str, str]]]:
    """:func:`_module_class_sources` of a module at the digest the module
    graph holds for it; ``None`` if it has no readable source of that
    digest."""
    from repro.incremental.deps import module_digest

    digest = module_digest(module_name)
    if digest is None:
        return None
    return _module_class_sources(module_name, digest)


def pass_source(pass_class) -> Optional[str]:
    """The pass's source text, or ``None`` when it cannot be recovered.

    The pass key hashes this text and :func:`analyze_pass` analyses it.
    Dynamically created classes (``exec``/REPL) have no retrievable source,
    nor does a class whose module file changed while it was being read;
    the engine treats them as uncacheable rather than risking a collision.
    """
    sources = _module_sources(pass_class.__module__)
    if sources is None:
        return None
    return sources[1].get(pass_class.__qualname__)


def pass_module_text(pass_class) -> str:
    """The pass module's text outside the definitions of its other passes.

    The pass key hashes this beside :func:`pass_source`: module-level
    helpers and constants the pass reads are covered, while an edit inside
    a sibling pass class moves only that sibling's key.
    """
    from repro.verify.passes import BasePass

    text, classes = _module_sources(pass_class.__module__) or ("", {})
    module = sys.modules.get(pass_class.__module__)
    for qualname, source in classes.items():
        value = getattr(module, qualname, None)
        if qualname != pass_class.__qualname__ and isinstance(value, type) \
                and issubclass(value, BasePass):
            text = text.replace(source, "", 1)
    return text


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
