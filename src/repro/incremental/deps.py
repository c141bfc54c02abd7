"""The dependency index: which files can change which cache keys.

A pass fingerprint (:func:`repro.engine.fingerprint.pass_fingerprint`)
hashes the pass's class source, its canonicalised constructor kwargs, and
the toolchain/rule-set hash.  The set of files whose edit can change that
key is therefore *statically known*: the pass's own module, every
intra-package module it transitively imports (conservative — an import can
only widen the set, never miss the module the class source lives in), and
the toolchain modules listed by
:func:`repro.engine.fingerprint.toolchain_modules`.

This module computes that file set by walking the import graph with
:mod:`ast` (stdlib only, no module execution), and defines the *dependency
entry* the proof-cache backends persist as a schema-versioned sidecar:

``identity key`` → ``{"schema": ..., "fingerprint": ..., "module": ...,
"qualname": ..., "paths": [...]}``

where the identity key names a *configuration* (class + constructor kwargs)
independently of its source text.  The identity key is the stable handle an
edit cannot change; the fingerprint recorded under it is the cache key the
configuration verified to last time.  ``verify_passes`` records entries at
verification time; :mod:`repro.incremental.detect` consumes them.
"""

from __future__ import annotations

import ast
import importlib.machinery
import os
import sys
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.engine.fingerprint import (
    _canon,
    _canon_kwarg,
    _sha256,
    toolchain_modules,
)
from repro.incremental.detect import normalize_path as _normalize

#: Bump when the dependency-entry layout changes incompatibly; sidecar
#: records written under another schema are ignored (and rewritten on the
#: next verification) rather than misread.
DEPS_SCHEMA_VERSION = 1

#: Only modules under this package participate in the import walk; the
#: stdlib and third-party dependencies are part of the interpreter
#: environment, not of the watched source tree.
_PACKAGE_ROOT = "repro"


@lru_cache(maxsize=None)
def module_source_path(module_name: str) -> Optional[str]:
    """The source file backing ``module_name``, or ``None`` (builtin, C ext).

    Prefers the already-imported module's ``__file__`` (cheap, and correct
    for reloaded modules); otherwise searches the parent package's path
    with :class:`importlib.machinery.PathFinder`, which — unlike
    :func:`importlib.util.find_spec` — executes no package on the way.
    Memoised, and dropped by :func:`reset_memos` after reloads (a module's
    backing file only moves across restarts otherwise).
    """
    module = sys.modules.get(module_name)
    path = getattr(module, "__file__", None) if module is not None else None
    if path is None:
        spec = _find_spec(module_name)
        path = spec.origin if spec is not None else None
    if path is None or not path.endswith(".py"):
        return None
    return _normalize(path)


def _find_spec(module_name: str) -> Optional[importlib.machinery.ModuleSpec]:
    """``module_name``'s import spec, or ``None``; imports nothing."""
    parent = module_name.rpartition(".")[0]
    search_path = None
    if parent:
        search_path = _submodule_search_path(parent)
        if search_path is None:
            return None  # the parent is a plain module, or missing
    try:
        return importlib.machinery.PathFinder.find_spec(module_name, search_path)
    except (ImportError, ValueError):
        return None


@lru_cache(maxsize=None)
def _submodule_search_path(package_name: str) -> Optional[Tuple[str, ...]]:
    """Where ``package_name``'s submodules live; ``None`` if not a package.

    Read from the imported package's ``__path__``, or else from the
    package's own spec, found the same way one level up.
    """
    package = sys.modules.get(package_name)
    if package is not None:
        path = getattr(package, "__path__", None)
    else:
        spec = _find_spec(package_name)
        path = spec.submodule_search_locations if spec is not None else None
    return tuple(path) if path is not None else None


def _stamp(path: str) -> Optional[Tuple[str, int, int]]:
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (path, status.st_mtime_ns, status.st_size)


@lru_cache(maxsize=None)
def _module_imports(module_name: str, stamp: Tuple) -> Tuple[str, ...]:
    """Package-internal module names imported by ``module_name``'s source.

    Parsed with :mod:`ast` — nothing is executed.  ``from package import
    name`` is ambiguous between a submodule and an attribute; both readings
    are resolved and whichever names an importable module survives, so
    ``from repro.utility import circuit_ops`` contributes
    ``repro.utility.circuit_ops`` while ``from repro.verify.passes import
    AnalysisPass`` contributes only ``repro.verify.passes``.  ``stamp``
    (path, mtime, size) keys the memo so an edited file is re-parsed.
    """
    path = stamp[0]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError, ValueError):
        return ()
    found: Set[str] = set()

    def note(name: Optional[str]) -> None:
        if name and (name == _PACKAGE_ROOT or name.startswith(_PACKAGE_ROOT + ".")):
            found.add(name)

    for node in _import_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                note(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = _package_of(module_name, path, node.level, base)
            note(base)
            for alias in node.names:
                if base:
                    note(f"{base}.{alias.name}")
    # Keep only names that actually resolve to source files (drops the
    # attribute reading of `from module import attribute`).
    resolved = tuple(sorted(
        name for name in found if module_source_path(name) is not None
    ))
    return resolved


#: The nodes a statement block holds: statements, handlers, match cases.
_BLOCK_NODES = (ast.stmt, ast.excepthandler, ast.match_case)


def _import_nodes(tree: ast.Module) -> Iterator[ast.stmt]:
    """Every ``Import`` and ``ImportFrom`` node in ``tree``, at any depth.

    Descends only through fields holding statement blocks: imports are
    statements and no expression can contain one, so this finds exactly
    what ``ast.walk`` would without visiting every expression node.
    """
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        for name in node._fields:
            block = getattr(node, name, None)
            if isinstance(block, list) and block and isinstance(block[0], _BLOCK_NODES):
                stack.extend(block)


def _package_of(module_name: str, path: str, level: int, base: str) -> str:
    """Resolve a ``from . import x``-style module name.

    The anchor is the importing module's package, taken from its name as
    the import system does: an ``__init__.py`` is its own package, any
    other module belongs to its parent.  The directories above the package
    play no part, so a checkout cloned into a directory that is itself
    called ``repro`` resolves the same names.
    """
    package = module_name.split(".")
    if os.path.basename(path) != "__init__.py":
        package = package[:-1]
    ascend = level - 1
    if ascend:
        package = package[:-ascend] if ascend < len(package) else []
    if not package:
        return base
    prefix = ".".join(package)
    return f"{prefix}.{base}" if base else prefix


def import_closure(module_name: str) -> Set[str]:
    """Transitive intra-package import closure of ``module_name`` (inclusive)."""
    seen: Set[str] = set()
    queue = [module_name]
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        path = module_source_path(name)
        if path is None:
            continue
        seen.add(name)
        stamp = _stamp(path)
        if stamp is None:
            continue
        for imported in _module_imports(name, stamp):
            if imported not in seen:
                queue.append(imported)
    return seen


_toolchain_paths_memo: Optional[Tuple[str, ...]] = None


def toolchain_dependency_paths() -> Tuple[str, ...]:
    """Source files of every module the toolchain fingerprint hashes.

    Includes ``engine/fingerprint.py`` itself: ``ENGINE_VERSION`` and the
    canonicalisation rules live there, so editing it can change every key.
    """
    global _toolchain_paths_memo
    if _toolchain_paths_memo is None:
        from repro.engine import fingerprint

        paths = {_normalize(fingerprint.__file__)}
        for module in toolchain_modules():
            path = getattr(module, "__file__", None)
            if path is not None:
                paths.add(_normalize(path))
        _toolchain_paths_memo = tuple(sorted(paths))
    return _toolchain_paths_memo


def reset_memos() -> None:
    """Forget memoised import walks and toolchain paths (after reloads)."""
    global _toolchain_paths_memo
    _toolchain_paths_memo = None
    _module_imports.cache_clear()
    module_source_path.cache_clear()
    _submodule_search_path.cache_clear()
    _module_dependency_paths.cache_clear()


@lru_cache(maxsize=None)
def _module_dependency_paths(module_name: str) -> Tuple[str, ...]:
    """The dependency file set shared by every pass in ``module_name``.

    Memoised per module: a suite's passes cluster into a handful of
    modules, and re-walking the import closure once per *pass* dominated
    cold resolution.  Dropped by :func:`reset_memos` after reloads.
    """
    paths: Set[str] = set(toolchain_dependency_paths())
    for name in import_closure(module_name):
        path = module_source_path(name)
        if path is not None:
            paths.add(path)
    return tuple(sorted(paths))


def pass_dependency_paths(pass_class) -> Tuple[str, ...]:
    """Every file whose edit can change ``pass_class``'s cache key.

    The union of the pass module's transitive intra-package import closure
    and the toolchain paths.  Deliberately conservative: a file in this set
    that does not actually feed the fingerprint costs one redundant
    fingerprint check on edit (which then hits the cache); a file missing
    from this set would let a stale verdict survive an edit.
    """
    return _module_dependency_paths(pass_class.__module__)


def kwarg_data_paths(pass_kwargs: Optional[Dict]) -> Tuple[str, ...]:
    """Data files the constructor arguments were loaded from.

    Values carrying a ``source_path`` attribute (file-backed coupling maps
    from :func:`repro.coupling.devices.load_device_map`) contribute it;
    nested lists/tuples/dicts are walked.  These are *data* dependencies:
    the cache key already covers their content (kwargs hash structurally),
    so the only job here is getting the file into the watchable surface.
    """
    found: Set[str] = set()

    def walk(value) -> None:
        source = getattr(value, "source_path", None)
        if isinstance(source, str):
            found.add(_normalize(source))
        if isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)

    for value in (pass_kwargs or {}).values():
        walk(value)
    return tuple(sorted(found))


def class_data_paths(pass_class) -> Tuple[str, ...]:
    """Data files the pass itself declares via ``data_dependencies``.

    Their content feeds the pass fingerprint
    (:func:`repro.engine.fingerprint.data_dependency_digest`), so an edit
    both moves the key *and* — through the dependency index built here —
    marks the configuration stale without re-fingerprinting anything else.
    """
    declared = getattr(pass_class, "data_dependencies", None) or ()
    return tuple(sorted(_normalize(os.fspath(path)) for path in declared))


def identity_key(pass_class, pass_kwargs: Optional[Dict] = None) -> str:
    """Stable key for one *configuration*, independent of its source text.

    Hashes the class's dotted name and canonicalised constructor kwargs —
    exactly the parts of :func:`~repro.engine.fingerprint.pass_fingerprint`
    an edit cannot change — so an edited pass keeps its identity while its
    fingerprint moves.
    """
    kwargs = {
        str(key): _canon_kwarg(value)
        for key, value in (pass_kwargs or {}).items()
    }
    return _sha256(_canon((
        "identity",
        pass_class.__module__,
        pass_class.__qualname__,
        kwargs,
    )))


def build_dep_entry(pass_class, pass_kwargs: Optional[Dict],
                    fingerprint: str, solver: str = "builtin") -> Dict[str, object]:
    """The persisted dependency record for one verified configuration.

    ``paths`` is the union of the Python-source surface
    (:func:`pass_dependency_paths`) and the configuration's *data* files —
    device maps the kwargs were loaded from, suites the pass declares —
    so editing a data file invalidates the right passes exactly like
    editing source does.  ``solver`` names the backend the recorded
    fingerprint was derived under; a run with a different ``--solver``
    must not be served through this entry (its fingerprint points at the
    other backend's cache keys), so the engine checks it on probe.
    """
    paths: Set[str] = set(pass_dependency_paths(pass_class))
    paths.update(kwarg_data_paths(pass_kwargs))
    paths.update(class_data_paths(pass_class))
    return {
        "schema": DEPS_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "solver": solver,
        "module": pass_class.__module__,
        "qualname": pass_class.__qualname__,
        "paths": sorted(paths),
    }


def load_dep_index(directory, backend: str = "jsonl") -> Dict[str, Dict]:
    """Read the persisted dependency index without loading the proof tier.

    The sqlite store is cheap to open (rows load on demand); the JSONL tier
    would load every proof just to reach the sidecar, so that backend reads
    ``deps.jsonl`` directly.
    """
    if backend == "sqlite":
        from repro.service.store import SqliteProofCache

        with SqliteProofCache(directory) as store:
            return store.deps_snapshot()
    from repro.engine.cache import read_deps_sidecar

    return read_deps_sidecar(directory)


def dep_index_paths(dep_index: Dict[str, Dict]) -> List[str]:
    """The union of every recorded entry's file set (the watchable surface)."""
    paths: Set[str] = set()
    for entry in dep_index.values():
        paths.update(entry.get("paths", ()))
    return sorted(paths)
