"""The module graph: which source files can change which cache keys.

One static import graph, read with :mod:`ast` (nothing is imported or
executed), answers "what can change a verdict?" for the keys and for the
incremental index alike.  A module's imports are read from its import
skeleton, the logical lines that hold its import statements, which one
lexer pass cuts out and :mod:`ast` parses far faster than the whole file;
where the skeleton cannot be trusted the whole file is parsed instead, so
both give the same names (:func:`_scan_imports`).  The graph follows every
``repro`` module and every module whose source file lies outside the
interpreter's stdlib and site-packages, such as a user's pass package or
a helper module beside a pass (:func:`_followed`).

The toolchain hash is the content digest of the import closure of
:data:`TOOLCHAIN_ROOTS`; a pass key adds its own module's closure
(:func:`closure_digest`); and a dependency entry's watch set
(:func:`entry_watch_paths`) is the same modules' files plus the entry's
data files, so a key covers exactly what the index watches.

Each scan result is a row of the *module table*: sha256 of a file's text →
the import names in it, relative ones as written.  A row never goes stale,
so the stores persist the rows their entries reach (``module:<sha256>``
sidecar records) and hand them back on open: a warm run hashes the closure
files and scans none, an edit scans the edited file.  Names resolve to
files on every run, so a submodule created later is still found.

A *dependency entry* is what the stores persist per verified configuration:

``identity key`` → ``{"schema": ..., "fingerprint": ..., "sources": ...,
"module": ..., "qualname": ..., "data_paths": [...]}``

where the identity key names a *configuration* (class + constructor kwargs)
independently of its source text.  The identity key is the stable handle an
edit cannot change; the fingerprint recorded under it is the cache key the
configuration verified to last time, and ``sources``
(:func:`sources_digest`) the digest of everything else that key read.
``verify_passes`` records entries at verification time and serves a
configuration through its recorded fingerprint while ``sources`` holds.
"""

from __future__ import annotations

# At module scope although a warm run parses nothing (it pays about 1 ms
# for it): perfbench/traced_verify.py counts parses by replacing this
# module's ``ast`` attribute, which a lazy import would bypass.
import ast
import hashlib
import importlib.machinery
import os
import re
import sys
from functools import lru_cache
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from repro.engine.fingerprint import ENGINE_VERSION, _canon, _canon_kwarg, _sha256
from repro.incremental.detect import normalize_path as _normalize

#: Bump when the dependency-entry layout changes incompatibly; sidecar
#: records written under another schema are ignored (and rewritten on the
#: next verification) rather than misread.  v2: module rows, no paths.
#: v3: module rows keep every name outside the standard library.
DEPS_SCHEMA_VERSION = 3

#: Modules of this package are always followed, wherever it is installed.
#: Any other module is followed when its source file lies outside the
#: interpreter's stdlib and site-packages (:func:`_library_dirs`): a
#: user's pass package and a sibling helper module are watched source,
#: while the stdlib and third-party libraries are the environment.
_PACKAGE_ROOT = "repro"

#: The toolchain is what these modules statically import: the verifier
#: (obligation generation and discharge) and the key derivation itself.
TOOLCHAIN_ROOTS = ("repro.verify.verifier", "repro.engine.fingerprint")

#: Sidecar keys of module-table rows; identity keys are bare hex digests.
MODULE_ROW_PREFIX = "module:"

#: The module table.  Keyed by content, so it serves every store and
#: checkout, and :func:`reset_memos` keeps it.
_module_table: Dict[str, Tuple[str, ...]] = {}

#: ``(st_mtime_ns, st_size)`` of every file :func:`module_digest` read,
#: taken before the read; :func:`files_edited` compares them.
_stamps: Dict[str, Optional[Tuple[int, int]]] = {}


def _in_package(name: str) -> bool:
    return name == _PACKAGE_ROOT or name.startswith(_PACKAGE_ROOT + ".")


@lru_cache(maxsize=None)
def _library_dirs() -> Tuple[str, ...]:
    """The interpreter's stdlib and site-packages directories.

    The stdlib is the directory :mod:`os` was loaded from; site-packages
    are every directory :mod:`site` lists, the user's included (and, in a
    virtual environment made with ``--system-site-packages``, its base
    installation's).  These are the directories the ``sysconfig`` stdlib
    and site-packages paths name, read from modules loaded at start-up:
    loading :mod:`sysconfig` would add about 2 ms to every run that
    resolves a third-party name, as every warm run does.
    """
    import site

    found = {os.path.dirname(os.__file__), site.getusersitepackages(),
             *site.getsitepackages()}
    return tuple(sorted(_normalize(directory) for directory in found))


def _followed(name: str) -> bool:
    """Whether the walk follows the imported module ``name``: it has a
    source file, and it is a package module or lies outside the
    interpreter's libraries."""
    path = module_source_path(name)
    if path is None:
        return False
    return _in_package(name) or not any(
        path.startswith(directory + os.sep) for directory in _library_dirs())


@lru_cache(maxsize=None)
def module_source_path(module_name: str) -> Optional[str]:
    """The source file backing ``module_name``, or ``None`` (builtin, C ext).

    Prefers the already-imported module's ``__file__`` (cheap); otherwise
    searches the parent package's path with
    :class:`importlib.machinery.PathFinder`, which — unlike
    :func:`importlib.util.find_spec` — executes no package on the way.
    Memoised, and dropped by :func:`reset_memos` (a module created after
    the first lookup is found only then).
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


# --------------------------------------------------------------------------- #
# Scanning one module
# --------------------------------------------------------------------------- #
#: Scans made since :func:`take_scan_counts` last ran, by path: the
#: import-only skeleton, or the whole-file parse it falls back to.
_scan_counts: Dict[str, int] = {"skeleton": 0, "whole_file": 0}


def take_scan_counts() -> Dict[str, int]:
    """The scans made since the last call, by path; starts a new count."""
    counts = dict(_scan_counts)
    for path in _scan_counts:
        _scan_counts[path] = 0
    return counts


def _scan_imports(source: bytes) -> Tuple[str, ...]:
    """The module names ``source``'s import statements mention.

    Parsed with :mod:`ast` — nothing is executed — from the file's import
    skeleton (:func:`_skeleton`), or from the whole file when the skeleton
    cannot be trusted; both give the same names.  A file :mod:`ast`
    rejects scans as no names, unless its skeleton parses: then its
    import statements count, which can only add modules to a closure.

    Absolute names of the standard library (by top-level name, in
    ``sys.stdlib_module_names``) are dropped, so the scan is a function of
    the source bytes alone; relative ones keep their leading dots until
    :func:`_resolve` anchors them at the importing module, which also
    decides which of the rest are followed.  ``from package import
    name`` is ambiguous between a submodule and an attribute, so both
    readings are kept and resolution keeps whichever names a file:
    ``from repro.utility import circuit_ops`` yields
    ``repro.utility.circuit_ops`` while ``from repro.verify.passes import
    AnalysisPass`` yields only ``repro.verify.passes``.
    """
    found = _skeleton_names(source)
    if found is None:
        _scan_counts["whole_file"] += 1
        found = _whole_file_names(source)
    else:
        _scan_counts["skeleton"] += 1
    return tuple(sorted(name for name in found if name.startswith(".")
                        or name.partition(".")[0] not in sys.stdlib_module_names))


def _skeleton_names(source: bytes) -> Optional[Set[str]]:
    """Every name the import skeleton mentions; ``None`` to fall back."""
    skeleton = _skeleton(source)
    if skeleton is None:
        return None
    try:
        return _import_names(ast.parse(skeleton))
    except (SyntaxError, ValueError):
        return None


def _whole_file_names(source: bytes) -> Set[str]:
    """Every name the file's import statements mention, read from a parse
    of the whole file; none if :mod:`ast` rejects it."""
    try:
        return _import_names(ast.parse(source))
    except (SyntaxError, ValueError):
        return set()


def _import_names(tree: ast.Module) -> Set[str]:
    """Every name ``tree``'s import statements mention, before the filter."""
    found: Set[str] = set()
    for node in _import_nodes(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        else:
            base = "." * node.level + (node.module or "")
            separator = "." if node.module else ""
            found.add(base)
            found.update(base + separator + alias.name for alias in node.names)
    return found


def _skeleton(source: bytes) -> Optional[str]:
    """The logical lines of ``source`` that hold an import statement.

    One pass of the lexer (:func:`_patterns`) finds the comments, string
    literals and ``import`` keywords.  Outside strings and comments each
    ``import`` is a hard keyword of exactly one ``Import``/``ImportFrom``
    statement; its logical line is copied from its start (any statement
    prefix, such as ``if flag:`` or ``a = 1;``, and lines joined by a
    backslash) through the statement's name list, parenthesised or
    backslash-continued.  The copies are dedented, so the skeleton holds
    the file's import nodes and parses with :mod:`ast` a good deal faster
    than the file.

    ``None`` when the copies could mean something the file does not: the
    file is not UTF-8, a copied line starts inside a string, or, where
    f-strings nest (Python 3.12+, PEP 701), the file holds an f-string
    literal.  A copied line that starts inside brackets carries an
    unmatched closer, and a prefix cut from its block (``try: import
    x``) is incomplete, so neither skeleton parses.
    """
    try:
        text = source.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lexer, kinds, tail, coding = _patterns()
    head_end = text.find("\n", text.find("\n") + 1)
    cookie = coding.search(text, 0, head_end if head_end >= 0 else len(text))
    if cookie is not None:
        encoding = cookie.group(1).lower().replace("_", "-")
        if encoding not in ("utf-8", "utf8") and not encoding.startswith("utf-8-"):
            return None  # ast would decode the file another way
    spans: List[List[int]] = []
    string_start = string_end = comment_end = -1
    for token in lexer.finditer(text):
        kind = kinds.get(token.lastindex)
        if kind is None:  # a string literal on one line
            continue
        if kind == "comment":
            comment_end = token.end()
        elif kind == "lines":  # a string literal that may span lines
            start, end = token.span()
            if text.find("\n", start, end) >= 0:
                string_start, string_end = start, end
        elif kind == "import":
            start = text.rfind("\n", 0, token.start()) + 1
            while True:
                # Only the last multi-line string before the keyword can
                # hold a line start the walk reaches: crossing an earlier
                # one would mean landing inside the last one first.
                if string_start < start < string_end:
                    return None
                # The previous line joins this one unless its backslash
                # ends a comment; a comment there would be the last one.
                if start < 2 or text[start - 2] != "\\" or comment_end == start - 1:
                    break
                start = text.rfind("\n", 0, start - 1) + 1
            end = tail.match(text, token.end()).end()
            if spans and start < spans[-1][1]:
                spans[-1][1] = end  # another statement of the same line
            else:
                spans.append([start, end])
        else:  # an f-string whose replacement fields may nest quotes
            return None
    return "".join(text[start:end].lstrip(" \t\f") + "\n" for start, end in spans)


@lru_cache(maxsize=None)
def _patterns():
    """The skeleton's lexer and its token kinds, and the import-tail and
    coding-cookie patterns.

    Compiled on the first scan, so a warm run, which scans nothing, does
    not pay for them.  String prefixes are not matched: raw, bytes and (up
    to Python 3.11) formatted literals end where a plain one does.
    """
    def quoted(pattern: str) -> List[str]:
        return [pattern.replace("Q", quote) for quote in "'\""]

    # Every alternative opens with a literal character, which lets the
    # engine skip to the next candidate in C.  An empty group after that
    # character tags the token's kind; a one-line string, the commonest
    # token, is untagged.  Multi-line strings are tried after one-line
    # ones, so a string spanning lines is found by its ``lines`` tag.
    alternatives = [("comment", "#()[^\n]*"), ("import", r"i()(?<!\wi)mport\b")]
    alternatives += [(None, pattern) for pattern in
                     quoted(r"Q(?!QQ)[^Q\\\n]*(?:\\[^\n][^Q\\\n]*)*Q")]
    alternatives += [("lines", pattern) for pattern in
                     quoted(r"Q()QQ[^Q\\]*(?:(?:\\.|Q(?!QQ))[^Q\\]*)*QQQ")
                     + quoted(r"Q()[^Q\\\n]*(?:\\.[^Q\\\n]*)*Q")]
    if sys.version_info >= (3, 12):
        alternatives += [("fstring", rf"{c}()(?<!\w{c})[rR]?['\"]") for c in "fFtT"]
        alternatives += [("fstring", rf"{c}()(?<!\w{c})[fFtT]['\"]") for c in "rR"]
    tagged = [kind for kind, _ in alternatives if kind is not None]
    kinds = dict(enumerate(tagged, start=1))
    lexer = "|".join(pattern for _, pattern in alternatives)
    # After ``import``: a parenthesised name list, whose comments may hold
    # a ``)``, or names up to the end of the statement.  A backslash is
    # tried as a line continuation first.
    tail = r"(?:[ \t\f]|\\\n)*(?:\((?:[^#)]|#[^\n]*\n)*\)|(?:\\\n|[^\n;#\\])*)"
    coding = r"^[ \t\f]*#.*?coding[:=][ \t]*([-\w.]+)"
    return (re.compile(lexer, re.DOTALL), kinds, re.compile(tail),
            re.compile(coding, re.MULTILINE))


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


def _resolve(module_name: str, path: str, names: Iterable[str]) -> Tuple[str, ...]:
    """The scanned ``names`` that name a followed module (:func:`_followed`)."""
    resolved: Set[str] = set()
    for name in names:
        if name.startswith("."):
            base = name.lstrip(".")
            name = _package_of(module_name, path, len(name) - len(base), base)
        if _followed(name):
            resolved.add(name)
    return tuple(sorted(resolved))


# --------------------------------------------------------------------------- #
# The graph
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def module_digest(module_name: str) -> Optional[str]:
    """The sha256 of ``module_name``'s source file; ``None`` if it has none.

    A digest the module table does not know yet is scanned here, once.
    Memoised per process and dropped by :func:`reset_memos`, which
    :func:`repro.engine.fingerprint.forget_edited` calls once
    :func:`files_edited` sees a file change.
    """
    path = module_source_path(module_name)
    if path is None:
        return None
    stamp = _stamp(path)
    try:
        with open(path, "rb") as handle:
            source = handle.read()
    except OSError:
        return None
    _stamps[path] = stamp
    digest = hashlib.sha256(source).hexdigest()
    if digest not in _module_table:
        _module_table[digest] = _scan_imports(source)
    return digest


def _stamp(path: str) -> Optional[Tuple[int, int]]:
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (status.st_mtime_ns, status.st_size)


def files_edited(module_names: Optional[Iterable[str]] = None) -> bool:
    """Whether a file :func:`module_digest` read has changed since.

    One stat per file: the files of ``module_names`` it read, or every
    file it read.  A file counts as changed when its modification time or
    size moved, so a touched file counts too.
    """
    if module_names is None:
        paths = list(_stamps)
    else:
        paths = [path for path in map(module_source_path, module_names)
                 if path in _stamps]
    return any(_stamp(path) != _stamps[path] for path in paths)


@lru_cache(maxsize=None)
def module_imports(module_name: str) -> Tuple[str, ...]:
    """Followed modules ``module_name`` imports, each backed by a source file."""
    digest = module_digest(module_name)
    if digest is None:
        return ()
    return _resolve(module_name, module_source_path(module_name),
                    _module_table[digest])


@lru_cache(maxsize=None)
def import_closure(*roots: str, known: FrozenSet[str] = frozenset()) -> FrozenSet[str]:
    """Transitive import closure of ``roots`` over followed modules
    (inclusive).

    ``known``, a closure already walked, joins the result unvisited.
    """
    seen: Set[str] = set(known)
    queue = list(roots)
    while queue:
        name = queue.pop()
        if name in seen or module_digest(name) is None:
            continue
        seen.add(name)
        queue.extend(module_imports(name))
    return frozenset(seen)


def covered_modules(module_name: Optional[str]) -> FrozenSet[str]:
    """Every module the key of a pass defined in ``module_name`` covers.

    The toolchain closure, through the toolchain digest, plus the pass
    module's own closure; ``None`` gives the toolchain closure alone.
    """
    toolchain = import_closure(*TOOLCHAIN_ROOTS)
    return import_closure(module_name, known=toolchain) if module_name else toolchain


@lru_cache(maxsize=None)
def closure_digest(module_name: Optional[str]) -> str:
    """Content digest of the modules a key covers, ``module_name`` left out.

    ``None`` digests the toolchain closure, which the toolchain hash wraps.
    A pass key folds in the digest for its module; the module's own text
    enters the key split by class instead, so that a sibling pass's edit
    does not move it.
    """
    names = sorted(covered_modules(module_name) - {module_name})
    return _sha256("".join(f"{name} {module_digest(name)}\n" for name in names))


@lru_cache(maxsize=None)
def sources_digest(module_name: str, solver: str,
                   data_digests: Tuple) -> Optional[str]:
    """The digest of everything a pass key reads besides its identity.

    ``ENGINE_VERSION``, the solver, the :func:`closure_digest` and the
    :func:`module_digest` of the pass's module, and its declared data
    files' digests (``data_digests``, as
    :func:`repro.engine.fingerprint.data_dependency_digest` read them for
    the key).  A pass key is a function of its identity and of these (see
    ``docs/caching.md``), so while an entry's recorded ``sources`` equals
    this, its recorded fingerprint is the key the configuration would
    derive.  ``None`` for a module without a source file: its entries are
    never fresh.  Memoised like the digests it combines.
    """
    digest = module_digest(module_name)
    if digest is None:
        return None
    return _sha256(_canon((ENGINE_VERSION, solver, closure_digest(module_name),
                           digest, data_digests)))


def entry_watch_paths(entry: Mapping) -> FrozenSet[str]:
    """Every file whose edit can move ``entry``'s fingerprint: its watch set.

    The files of the modules its key covers (:func:`covered_modules` of
    the entry's module) plus its data files.  The incremental run, stale
    detection and the watcher all ask this one function.
    """
    paths = map(module_source_path, covered_modules(entry.get("module")))
    return frozenset(paths).union(entry.get("data_paths") or ())


def dep_index_paths(dep_index: Dict[str, Dict]) -> List[str]:
    """The union of every recorded entry's watch set (the watchable surface)."""
    paths: Set[str] = set()
    for entry in dep_index.values():
        paths |= entry_watch_paths(entry)
    return sorted(paths)


def module_row_records(entries: Iterable[Mapping]) -> Dict[str, dict]:
    """The sidecar records of the module rows ``entries`` reach.

    A store writes these beside its entries (before them), so the next
    process rebuilds the same closures without parsing; ``repro cache gc``
    keeps exactly the ones its surviving entries reach.  Modules are
    visited in sorted order, so a store's bytes do not depend on the
    process's string hashing.
    """
    records: Dict[str, dict] = {}
    for module_name in sorted({entry.get("module") for entry in entries},
                              key=lambda name: name or ""):
        for name in sorted(covered_modules(module_name)):
            digest = module_digest(name)
            records[MODULE_ROW_PREFIX + digest] = {
                "schema": DEPS_SCHEMA_VERSION, "imports": list(_module_table[digest])}
    return records


def split_module_rows(records: Mapping[str, Mapping]) -> Dict[str, Mapping]:
    """Add the module rows among a store's sidecar records to the table.

    Returns the other records: the dependency entries.
    """
    entries = {}
    for key, value in records.items():
        if not key.startswith(MODULE_ROW_PREFIX):
            entries[key] = value
        elif isinstance(value, dict) and isinstance(value.get("imports"), list):
            _module_table.setdefault(key[len(MODULE_ROW_PREFIX):],
                                     tuple(value["imports"]))
    return entries


def reset_memos() -> None:
    """Forget memoised paths, digests and closures (after edits).

    The module table stays: a row is keyed by content, so it still holds
    for whichever file hashes to it.
    """
    for memo in (module_source_path, _submodule_search_path, module_digest,
                 module_imports, import_closure, closure_digest, sources_digest):
        memo.cache_clear()
    _stamps.clear()


# --------------------------------------------------------------------------- #
# Dependency entries
# --------------------------------------------------------------------------- #
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
                    fingerprint: str,
                    sources: Optional[str] = None) -> Dict[str, object]:
    """The persisted dependency record for one verified configuration.

    The Python-source surface is the module graph's answer for the pass's
    module (see :func:`entry_watch_paths`); ``data_paths`` adds the data
    files — device maps the kwargs were loaded from, suites the pass
    declares — so editing one invalidates the right passes exactly like
    editing source does.  ``sources`` is the :func:`sources_digest` the
    fingerprint was derived beside (the solver is hashed into it); the
    engine serves the configuration through ``fingerprint`` only while it
    holds, and an entry without one is never served.
    """
    data = set(kwarg_data_paths(pass_kwargs)) | set(class_data_paths(pass_class))
    return {
        "schema": DEPS_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "sources": sources,
        "module": pass_class.__module__,
        "qualname": pass_class.__qualname__,
        "data_paths": sorted(data),
    }

