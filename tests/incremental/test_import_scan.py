"""The import skeleton finds exactly the imports a whole-file parse finds.

``deps._scan_imports`` parses an import-only skeleton of each module and
falls back to the whole file when the skeleton cannot be trusted.  Every
test here compares the names the two readings mention, before the package
filter: a fallback is always exact, so only a skeleton that parses to
other names is a failure.
"""

import ast
import io
import json
import os
import random
import subprocess
import sys
import sysconfig
import tokenize
from functools import lru_cache
from pathlib import Path

import pytest

from repro.incremental.deps import (
    _scan_imports,
    _skeleton_names,
    _whole_file_names,
    take_scan_counts,
)
from repro.telemetry.analyze import load_trace, summarize_trace

REPO = Path(__file__).resolve().parents[2]
REPO_SRC = REPO / "src"

#: Below 3.12 f-strings lex as plain strings, so no module falls back.
LEXES_FSTRINGS = sys.version_info < (3, 12)


def _parses(source: bytes) -> bool:
    try:
        ast.parse(source)
    except (SyntaxError, ValueError):
        return False
    return True


def _assert_exact(source: bytes, label) -> bool:
    """Skeleton names equal whole-file names; True if the skeleton held."""
    skeleton = _skeleton_names(source)
    if skeleton is not None:
        assert skeleton == _whole_file_names(source), label
    return skeleton is not None


def _repo_files():
    roots = ("src", "tests", "perfbench", "tools", "benchmarks")
    return sorted(path for root in roots for path in (REPO / root).rglob("*.py"))


def _stdlib_sample(count=400, seed=19):
    stdlib = sysconfig.get_paths()["stdlib"]
    files = []
    for directory, subdirectories, names in os.walk(stdlib):
        subdirectories[:] = [name for name in subdirectories
                             if name not in ("site-packages", "dist-packages")]
        files.extend(os.path.join(directory, name)
                     for name in names if name.endswith(".py"))
    files.sort()
    return random.Random(seed).sample(files, min(count, len(files)))


# --------------------------------------------------------------------------- #
# Whole corpora
# --------------------------------------------------------------------------- #
def test_skeleton_is_exact_on_every_repo_file():
    files = _repo_files()
    assert len(files) > 200
    held = sum(_assert_exact(path.read_bytes(), path) for path in files)
    if LEXES_FSTRINGS:
        assert held == len(files)


@pytest.mark.filterwarnings("ignore::DeprecationWarning", "ignore::SyntaxWarning")
def test_skeleton_is_exact_on_a_stdlib_sample():
    checked = held = 0
    for path in _stdlib_sample():
        with open(path, "rb") as handle:
            source = handle.read()
        if not _parses(source):
            continue
        checked += 1
        held += _assert_exact(source, path)
    assert checked > 300
    if LEXES_FSTRINGS:
        assert held > 0.95 * checked


@pytest.mark.skipif(not LEXES_FSTRINGS,
                    reason="PEP 701 f-strings send most modules to the whole file")
def test_no_package_module_takes_the_whole_file_path():
    modules = sorted((REPO_SRC / "repro").rglob("*.py"))
    take_scan_counts()
    fallbacks = [path for path in modules if _skeleton_names(path.read_bytes()) is None]
    assert fallbacks == []
    for path in modules:
        _scan_imports(path.read_bytes())
    assert take_scan_counts() == {"skeleton": len(modules), "whole_file": 0}


# --------------------------------------------------------------------------- #
# Adversarial cases
# --------------------------------------------------------------------------- #
#: name -> (source, the skeleton must hold?, a package name it must find).
CASES = {
    "comment": ("# import repro.hidden\nimport repro.x\n", True, "repro.x"),
    "docstring": ('"""\nimport repro.hidden\n"""\nimport repro.x\n', True, "repro.x"),
    "single-quoted escaped quote": (
        "s = 'it\\'s; import repro.hidden'\nimport repro.x\n", True, "repro.x"),
    "double-quoted escaped quote": (
        's = "say \\"; import repro.hidden\\""\nimport repro.x\n', True, "repro.x"),
    "escaped backslash ends a string": (
        "s = '\\\\'; import repro.x\n", True, "repro.x"),
    "raw string escaped quote": (
        's = r"\\"; import repro.hidden"\nimport repro.x\n', True, "repro.x"),
    "bytes strings": (
        "b = b'import repro.hidden'; c = rb\"\\\"import repro.hidden\"\n"
        "import repro.x\n", True, "repro.x"),
    "triple single-quoted holding triple double quotes": (
        "s = '''\n\"\"\"\nimport repro.hidden\n'''\nimport repro.x\n", True, "repro.x"),
    "triple double-quoted escaped quotes": (
        's = """\\"""\nimport repro.hidden\n"""\nimport repro.x\n', True, "repro.x"),
    "one-quote string joined across lines": (
        "s = 'a \\\nimport repro.hidden'\nimport repro.x\n", True, "repro.x"),
    "statement prefix": ("a = 1; import repro.x\n", True, "repro.x"),
    "compound header prefix": ("if flag: import repro.x\n", True, "repro.x"),
    "try prefix falls back": (
        "try: import repro.x\nexcept ImportError: pass\n", False, "repro.x"),
    "backslash before import": ("from repro \\\n    import x\n", True, "repro.x"),
    "backslash-continued name list": (
        "from repro.y import a, \\\n    b\n", True, "repro.y.b"),
    "paren list with a closer in a comment": (
        "from repro.y import (\n    a,  # see f(b)\n    b,\n)\n", True, "repro.y.b"),
    "line starting inside brackets falls back": (
        "f(a,\n  b); import repro.x\n", False, "repro.x"),
    # Copied from its line start, this line would read as a comment
    # after ``import repro.hidden``.
    "triple-quoted string closing on the import line falls back": (
        "s = '''\nimport repro.hidden #'''; import repro.x\n", False, "repro.x"),
    "one-quote string closing on the import line falls back": (
        "s = 'a \\\nimport repro.hidden #'; import repro.x\n", False, "repro.x"),
    # Joining the line above would start the copy inside brackets.
    "comment ending in a backslash": (
        "f(a,\n  b)  # \\\nimport repro.x\n", True, "repro.x"),
    "two imports on one line": (
        "import repro.a; from repro.b import c\n", True, "repro.b.c"),
    "dot glued to import": ("from .import sibling\n", True, ".sibling"),
    "CRLF endings": (
        "import repro.a\r\nfrom repro.y import (\r\n    b,\r\n)\r\n", True, "repro.y.b"),
    "CR endings": ("import repro.a\rimport repro.b\r", True, "repro.b"),
    "byte order mark": ("\ufeffimport repro.x\n", True, "repro.x"),
    "tabs": ("if flag:\n\timport repro.x\n", True, "repro.x"),
    "form feeds": ("\x0cimport repro.a\ndef f():\n\x0c    import repro.x\n",
                   True, "repro.x"),
    "latin-1 cookie falls back": (
        "# -*- coding: latin-1 -*-\nimport repro.x\n", False, "repro.x"),
    "match and case bodies": (
        "match value:\n    case 1:\n        import repro.x\n"
        "    case _:\n        from repro import y\n", True, "repro.y"),
    "identifiers containing import": (
        "__import__('repro.hidden')\nimportlib = reimport = 1\nimport repro.x\n",
        True, "repro.x"),
}
if sys.version_info >= (3, 11):
    CASES["except-star body"] = (
        "try:\n    pass\nexcept* ValueError:\n    import repro.x\n", True, "repro.x")
if sys.version_info >= (3, 12):
    CASES["nested-quote f-string falls back"] = (
        's = f"{d["import repro.hidden"]}"\nimport repro.x\n', False, "repro.x")
if LEXES_FSTRINGS:
    CASES["f-string holding quotes and a hash"] = (
        "s = f\"{'#'} import repro.hidden\"\nimport repro.x\n", True, "repro.x")


@pytest.mark.parametrize("name", sorted(CASES))
def test_adversarial_case(name):
    text, holds, expected = CASES[name]
    source = text.encode("utf-8")
    whole = _whole_file_names(source)
    assert expected in whole and "repro.hidden" not in whole
    skeleton = _skeleton_names(source)
    assert (skeleton is not None) is holds
    if holds:
        assert skeleton == whole
    # The scan keeps every name but the standard library's.
    assert set(_scan_imports(source)) == {
        found for found in whole if found.startswith(".")
        or found.partition(".")[0] not in sys.stdlib_module_names}


def test_every_case_is_valid_python():
    for name, (text, _, _) in CASES.items():
        assert _parses(text.encode("utf-8")), name


# --------------------------------------------------------------------------- #
# Seeded splice fuzz
# --------------------------------------------------------------------------- #
#: Import forms spliced into modules; ``{i}`` is the indentation.
IMPORT_FORMS = (
    "{i}import repro.fuzz_a\n",
    "{i}import repro.fuzz_a as alias, os.path\n",
    "{i}from repro.fuzz_b import (c,  # ) (\n{i}    d as e,\n{i})\n",
    "{i}from repro import \\\n{i}    fuzz_c\n",
    "{i}from repro.fuzz_i \\\n{i}    import j\n",
    "{i}from repro.fuzz_b import d, \\\n{i}    e\n",
    "{i}from . import fuzz_d\n",
    "{i}from ..fuzz_e import *\n",
    "{i}if flag: import repro.fuzz_f\n",
    "{i}x = 1; from repro.fuzz_g import h; y = (1,\n{i}    2)\n",
    "{i}try: import repro.fuzz_h\n{i}except ImportError: pass\n",
)


@lru_cache(maxsize=None)
def _fuzz_targets(path):
    """A module's statement lines and its string and comment tokens."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    statements = sorted({node.lineno for node in ast.walk(ast.parse(text))
                         if isinstance(node, ast.stmt)})
    tokens = [token for token in tokenize.generate_tokens(io.StringIO(text).readline)
              if token.type in (tokenize.STRING, tokenize.COMMENT)]
    return lines, statements, tokens


def _splice(rng, path):
    lines, statements, tokens = _fuzz_targets(path)
    form = rng.choice(IMPORT_FORMS)
    if rng.random() < 0.5:
        # At a statement boundary, indented like the statement's line.
        row, col = rng.choice(statements) - 1, 0
        line = lines[row]
        insert = form.format(i=line[:len(line) - len(line.lstrip())])
    else:
        # Inside a string or a comment, on its first line; all of the form
        # fits in a triple-quoted string, one line of it elsewhere.
        token = rng.choice(tokens)
        (row, col), first = token.start, token.string.splitlines()[0]
        row, col = row - 1, rng.randint(col + 1, col + max(1, len(first) - 1))
        insert = form.format(i="")
        if not (token.type == tokenize.STRING
                and token.string.endswith(('"""', "'''"))):
            insert = insert.splitlines()[0]
    line = lines[row]
    return "".join(lines[:row]) + line[:col] + insert + line[col:] + "".join(lines[row + 1:])


@pytest.mark.filterwarnings("ignore::DeprecationWarning", "ignore::SyntaxWarning")
def test_seeded_splice_fuzz():
    modules = sorted((REPO_SRC / "repro").rglob("*.py"))
    checked = held = 0
    for seed in range(200):
        rng = random.Random(seed)
        source = _splice(rng, rng.choice(modules)).encode("utf-8")
        if not _parses(source):
            continue
        checked += 1
        held += _assert_exact(source, seed)
    assert checked >= 150
    if LEXES_FSTRINGS:
        assert held >= 0.8 * checked


# --------------------------------------------------------------------------- #
# The trace counts the scans
# --------------------------------------------------------------------------- #
def test_scan_counts_are_taken_once():
    take_scan_counts()
    _scan_imports(b"import repro.x\n")
    _scan_imports(b"try: import repro.x\nexcept ImportError: pass\n")
    assert take_scan_counts() == {"skeleton": 1, "whole_file": 1}
    assert take_scan_counts() == {"skeleton": 0, "whole_file": 0}


def test_a_traced_cold_run_counts_its_scans(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "verify", "--all", "--format", "json",
         "--cache-dir", str(tmp_path / "cache"), "--trace", str(tmp_path / "trace")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout)["summary"]["verified"] == 47
    scans = summarize_trace(load_trace(str(tmp_path / "trace")))["scans"]
    assert scans["skeleton"] + scans["whole_file"] > 0
    if LEXES_FSTRINGS:
        assert scans["whole_file"] == 0
        assert scans["skeleton"] > 0
