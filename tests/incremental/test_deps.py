"""Dependency-index construction and persistence in the proof store."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine.cache import ProofCache
from repro.engine.fingerprint import pass_fingerprint, reset_memos
from repro.incremental import deps
from repro.incremental.deps import (
    DEPS_SCHEMA_VERSION,
    _import_nodes,
    _package_of,
    _resolve,
    _scan_imports,
    build_dep_entry,
    covered_modules,
    entry_watch_paths,
    identity_key,
    import_closure,
    module_row_records,
    module_source_path,
)
from repro.passes import CommutationAnalysis, CXCancellation, Depth

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


# --------------------------------------------------------------------------- #
# Dependency computation
# --------------------------------------------------------------------------- #
def test_pass_dependencies_cover_fingerprint_inputs():
    paths = entry_watch_paths(build_dep_entry(CXCancellation, None, "fp"))
    endings = {
        "passes/optimization.py",   # the pass's own module
        "verify/passes.py",         # its base class
        "symbolic/rules.py",        # the rule set
        "symbolic/commutation.py",
        "verify/discharge.py",      # the prover
        "prover/builtin.py",        # the default solver backend
        "circuit/gates.py",         # the gate library the executor reads
        "engine/fingerprint.py",    # ENGINE_VERSION / canonicalisation
        "incremental/deps.py",      # what the keys cover
    }
    for ending in endings:
        assert any(p.endswith(ending) for p in paths), ending


def test_toolchain_paths_are_a_subset_of_every_pass():
    toolchain = {module_source_path(name) for name in covered_modules(None)}
    assert toolchain <= entry_watch_paths(build_dep_entry(Depth, None, "fp"))
    assert toolchain <= entry_watch_paths(
        build_dep_entry(CommutationAnalysis, None, "fp"))


def test_a_pass_key_covers_exactly_its_watch_set(monkeypatch):
    """The modules whose digests a pass key reads are the ones its entry
    watches: a file outside the watch set cannot move the key, and every
    watched file does."""
    real = deps.module_digest
    for pass_class in (CXCancellation, Depth):
        reset_memos()
        hashed = set()

        def recording(name):
            hashed.add(name)
            return real(name)

        monkeypatch.setattr(deps, "module_digest", recording)
        key = pass_fingerprint(pass_class)
        monkeypatch.undo()
        files = {module_source_path(name) for name in hashed
                 if real(name) is not None}
        assert files == entry_watch_paths(build_dep_entry(pass_class, None, key))
    reset_memos()


def test_import_closure_is_transitive():
    closure = import_closure("repro.passes.optimization")
    assert "repro.passes.optimization" in closure
    # optimization.py imports utility.circuit_ops which imports verify.facts
    assert "repro.utility.circuit_ops" in closure
    assert "repro.verify.facts" in closure
    # nothing outside the package leaks in
    assert all(name.startswith("repro") for name in closure)


def test_identity_key_stable_under_source_edits_but_kwarg_sensitive():
    from repro.coupling.devices import linear_device

    base = identity_key(CXCancellation, None)
    assert base == identity_key(CXCancellation, None)
    assert base != identity_key(Depth, None)
    assert base != identity_key(CXCancellation,
                                {"coupling": linear_device(3)})
    assert identity_key(CXCancellation, {"coupling": linear_device(3)}) != \
        identity_key(CXCancellation, {"coupling": linear_device(4)})


def test_build_dep_entry_shape():
    key = pass_fingerprint(Depth)
    entry = build_dep_entry(Depth, None, key)
    # The closure is not copied into the entry: it is the module graph's.
    assert set(entry) == {"schema", "fingerprint", "solver", "module",
                          "qualname", "data_paths"}
    assert entry["schema"] == DEPS_SCHEMA_VERSION
    assert entry["fingerprint"] == key
    assert entry["module"] == "repro.passes.analysis"
    assert entry["qualname"] == "Depth"
    assert entry["data_paths"] == []
    json.dumps(entry)  # must be wire/sidecar serialisable


def test_relative_imports_resolve_against_the_module_name():
    # A checkout cloned into a directory itself named ``repro``: the path
    # holds two ``repro`` components, and only the module name says which
    # one is the package.
    checkout = os.path.join(os.sep, "home", "u", "repro", "src", "repro", "passes")
    module = os.path.join(checkout, "x.py")
    init = os.path.join(checkout, "__init__.py")
    assert _package_of("repro.passes.x", module, 1, "routing") == "repro.passes.routing"
    assert _package_of("repro.passes.x", module, 2, "verify") == "repro.verify"
    assert _package_of("repro.passes.x", module, 1, "") == "repro.passes"
    assert _package_of("repro.passes", init, 1, "routing") == "repro.passes.routing"
    assert _package_of("repro.passes", init, 2, "") == "repro"


def test_relative_imports_reach_the_dependency_set(tmp_path):
    package = tmp_path / "repro" / "src" / "repro" / "passes"
    package.mkdir(parents=True)
    source = package / "user_pass.py"
    source.write_text("from .routing import BasicSwap\n"
                      "from ..verify import passes\n")
    scanned = _scan_imports(source.read_bytes())
    # The module table keeps relative names as written ...
    assert {".routing", "..verify", "..verify.passes"} <= set(scanned)
    # ... and they resolve against the importing module on every run.
    imports = _resolve("repro.passes.user_pass", str(source), scanned)
    assert {"repro.passes.routing", "repro.verify", "repro.verify.passes"} <= set(imports)


#: One import in every statement context the scan must descend into.
IMPORTS_IN_EVERY_CONTEXT = textwrap.dedent("""
    import repro.module_level
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        from repro import type_checking

    def function():
        import repro.in_def

    async def coroutine():
        from repro import in_async_def
        async with lock:
            import repro.in_async_with

    class Outer:
        class Nested:
            def method(self):
                from repro.in_nested_class import name

    if flag:
        import repro.in_if
    elif other:
        import repro.in_elif
    else:
        import repro.in_else

    for item in items:
        import repro.in_for
    else:
        import repro.in_for_else

    while flag:
        import repro.in_while
    else:
        import repro.in_while_else

    with context():
        from . import in_with

    try:
        import repro.in_try
    except ImportError:
        import repro.in_except
    else:
        import repro.in_try_else
    finally:
        import repro.in_finally

    match value:
        case 1:
            import repro.in_case
        case _:
            import repro.in_default_case
""")

if sys.version_info >= (3, 11):
    IMPORTS_IN_EVERY_CONTEXT += textwrap.dedent("""
        try:
            import repro.in_try_star
        except* ValueError:
            import repro.in_except_star
    """)


def _walk_imports(tree):
    """The oracle: every import node ``ast.walk`` reaches."""
    return sorted(
        (node.lineno, node.col_offset, ast.dump(node))
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def _scanned_imports(tree):
    return sorted((node.lineno, node.col_offset, ast.dump(node))
                  for node in _import_nodes(tree))


def test_import_scan_reaches_every_statement_context():
    tree = ast.parse(IMPORTS_IN_EVERY_CONTEXT)
    expected_count = IMPORTS_IN_EVERY_CONTEXT.count("import ")
    assert len(_walk_imports(tree)) == expected_count
    assert _scanned_imports(tree) == _walk_imports(tree)


def test_import_scan_matches_ast_walk_on_every_package_module():
    modules = sorted(Path(REPO_SRC, "repro").rglob("*.py"))
    assert len(modules) > 100
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _scanned_imports(tree) == _walk_imports(tree), path


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter on this checkout; parse its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_module_source_path_executes_no_package():
    found = _fresh_python(
        """
        import json
        import sys

        from repro.incremental.deps import module_source_path

        names = sys.argv[1:]
        print(json.dumps({
            "paths": {name: module_source_path(name) for name in names},
            "loaded": [name for name in ("repro.dag", "repro.qasm")
                       if name in sys.modules],
        }))
        """,
        "repro.dag.converters", "repro.qasm.parser", "repro.qasm",
        # Attribute readings of ``from x import y``, imported parent or not.
        "repro.verify.passes.AnalysisPass", "repro.qasm.parse_qasm",
        "repro.dag.dagcircuit.DAGCircuit",
        "repro.no_such_module", "repro.no_such_package.module",
    )
    paths = found["paths"]
    assert paths["repro.dag.converters"].endswith(
        os.path.join("repro", "dag", "converters.py"))
    assert paths["repro.qasm"].endswith(os.path.join("repro", "qasm", "__init__.py"))
    for name in ("repro.dag.converters", "repro.qasm.parser", "repro.qasm"):
        # The same file this (fully imported) process resolves.
        assert paths[name] == module_source_path(name)
    for name in ("repro.verify.passes.AnalysisPass", "repro.qasm.parse_qasm",
                 "repro.dag.dagcircuit.DAGCircuit", "repro.no_such_module",
                 "repro.no_such_package.module"):
        assert paths[name] is None, name
    assert found["loaded"] == []


_SUITE_DEP_ENTRIES = """
    import json
    import sys

    if sys.argv[1] == "eager":
        import repro.bench, repro.dag, repro.qasm  # noqa: E401,F401

    from repro.cli import _known_passes, pass_kwargs_for
    from repro.engine.fingerprint import pass_fingerprint
    from repro.incremental.deps import build_dep_entry, entry_watch_paths

    entries = {
        name: build_dep_entry(cls, pass_kwargs_for(cls),
                              pass_fingerprint(cls, pass_kwargs_for(cls)))
        for name, cls in _known_passes().items()
    }
    print(json.dumps({
        name: dict(entry, watched=sorted(entry_watch_paths(entry)))
        for name, entry in entries.items()
    }))
"""


def test_dep_entries_do_not_depend_on_what_is_imported():
    lazy = _fresh_python(_SUITE_DEP_ENTRIES, "lazy")
    eager = _fresh_python(_SUITE_DEP_ENTRIES, "eager")
    assert len(lazy) == 47
    assert lazy == eager
    # The walk did reach the modules the lazy process never imported.
    assert any(path.endswith(os.path.join("repro", "dag", "converters.py"))
               for path in lazy["CXCancellation"]["watched"])


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #
def test_dep_index_persists_across_reopen(tmp_path):
    entry = build_dep_entry(Depth, None, pass_fingerprint(Depth))
    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("ident-1") is None
        cache.put_deps("ident-1", entry)
        assert cache.get_deps("ident-1") == entry

    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("ident-1") == entry
        assert cache.deps_snapshot() == {"ident-1": entry}


def test_dep_index_last_write_wins(tmp_path):
    first = build_dep_entry(Depth, None, "fp-old")
    second = build_dep_entry(Depth, None, "fp-new")
    with ProofCache(tmp_path) as cache:
        cache.put_deps("ident", first)
        cache.put_deps("ident", second)
        assert cache.get_deps("ident")["fingerprint"] == "fp-new"
    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("ident")["fingerprint"] == "fp-new"


def test_foreign_schema_entries_are_invisible(tmp_path):
    entry = build_dep_entry(Depth, None, pass_fingerprint(Depth))
    foreign = dict(entry, schema=DEPS_SCHEMA_VERSION + 1)
    with ProofCache(tmp_path) as cache:
        cache.put_deps("ok", entry)
    # A record written by a future schema lands in the same sidecar.
    with open(tmp_path / "deps.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"key": "future", "value": foreign}) + "\n")
    with ProofCache(tmp_path) as cache:
        assert cache.get_deps("future") is None
        assert cache.get_deps("ok") == entry
        assert "future" not in cache.deps_snapshot()


def test_jsonl_corrupt_dep_lines_are_skipped(tmp_path):
    entry = build_dep_entry(Depth, None, "fp")
    with ProofCache(tmp_path) as cache:
        cache.put_deps("ok", entry)
    with open(tmp_path / "deps.jsonl", "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        handle.write('{"key": "half"}\n')
        handle.write(json.dumps({"key": 7, "value": entry}) + "\n")
    with ProofCache(tmp_path) as cache:
        assert cache.deps_snapshot() == {"ok": entry}
        assert cache.stats.corrupt_lines == 3


def test_jsonl_identical_put_does_not_grow_sidecar(tmp_path):
    entry = build_dep_entry(Depth, None, "fp")
    with ProofCache(tmp_path) as cache:
        cache.put_deps("ok", entry)
    size_after_first = (tmp_path / "deps.jsonl").stat().st_size
    for _ in range(5):
        with ProofCache(tmp_path) as cache:
            cache.put_deps("ok", dict(entry))
    assert (tmp_path / "deps.jsonl").stat().st_size == size_after_first


def test_module_rows_are_stored_once_beside_the_entries(tmp_path):
    entries = {cls.__name__: build_dep_entry(cls, None, pass_fingerprint(cls))
               for cls in (CXCancellation, CommutationAnalysis, Depth)}
    with ProofCache(tmp_path) as cache:
        for name, entry in entries.items():
            cache.put_deps(name, entry)
    reachable = set(module_row_records(entries.values()))
    assert len(reachable) == len(covered_modules("repro.passes.optimization")
                                 | covered_modules("repro.passes.analysis"))
    keys = [json.loads(line)["key"]
            for line in (tmp_path / "deps.jsonl").read_text().splitlines()]
    assert {key for key in keys if key.startswith("module:")} == reachable
    # One row per digest, however many entries reach it.
    assert len(keys) == len(reachable) + len(entries)
    with ProofCache(tmp_path) as cache:
        assert cache.deps_snapshot() == entries


_OPEN_STORE_COUNTING_PARSES = """
    import ast
    import json
    import sys
    import types

    import repro.incremental.deps as deps

    parses = []
    counting = types.ModuleType("ast")
    counting.__dict__.update(vars(ast))
    counting.parse = lambda *args, **kwargs: parses.append(1) or ast.parse(*args, **kwargs)
    deps.ast = counting

    from repro.engine.cache import ProofCache

    with ProofCache(sys.argv[1]) as cache:
        watched = deps.dep_index_paths(cache.deps_snapshot())
        print(json.dumps({"parses": len(parses), "watched": watched,
                          "toolchain": cache.active_fingerprint}))
"""


def test_a_store_hands_its_module_rows_to_the_next_process(tmp_path):
    from repro.engine.fingerprint import toolchain_fingerprint

    entry = build_dep_entry(CXCancellation, None, pass_fingerprint(CXCancellation))
    with ProofCache(tmp_path) as cache:
        cache.put_deps("ident", entry)
    found = _fresh_python(_OPEN_STORE_COUNTING_PARSES, str(tmp_path))
    assert found["parses"] == 0
    assert found["toolchain"] == toolchain_fingerprint()
    assert set(found["watched"]) == entry_watch_paths(entry)
