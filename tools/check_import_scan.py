#!/usr/bin/env python3
"""The import-skeleton oracle: the skeleton finds the same imports.

``repro.incremental.deps`` reads a module's imports from an import-only
skeleton of the file, and parses the whole file instead when the skeleton
cannot be trusted.  This checks the two against each other on every
``.py`` file under the running interpreter's ``stdlib`` and ``purelib``
directories (from :mod:`sysconfig`), or under the directories given on the
command line.  For each file :mod:`ast` accepts, the names the skeleton's
import statements mention must equal the names the whole file's mention,
compared before the package filter.

Run from the repository root::

    python tools/check_import_scan.py [DIR ...]

Prints the counts of files, mismatches, fallbacks (files whose skeleton
is not trusted, so the scan parses them whole) and files :mod:`ast`
rejects, and exits 1 on any mismatch.
"""

from __future__ import annotations

import ast
import os
import sys
import sysconfig
from pathlib import Path
from typing import Iterable, List

REPO_ROOT = Path(__file__).resolve().parent.parent

# CI invokes this script without PYTHONPATH=src.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.incremental.deps import _import_names, _skeleton_names  # noqa: E402


def python_files(roots: Iterable[str]) -> List[str]:
    """Every ``.py`` file under ``roots``, each once, sorted."""
    found = set()
    for root in roots:
        for directory, _, names in os.walk(root):
            found.update(os.path.realpath(os.path.join(directory, name))
                         for name in names if name.endswith(".py"))
    return sorted(found)


def main(argv: List[str]) -> int:
    paths = sysconfig.get_paths()
    roots = argv or sorted({paths["stdlib"], paths["purelib"]})
    files = mismatches = fallbacks = rejected = 0
    for path in python_files(roots):
        try:
            with open(path, "rb") as handle:
                source = handle.read()
        except OSError:
            continue
        files += 1
        try:
            whole = _import_names(ast.parse(source))
        except (SyntaxError, ValueError):
            rejected += 1
            continue
        skeleton = _skeleton_names(source)
        if skeleton is None:
            fallbacks += 1
        elif skeleton != whole:
            mismatches += 1
            print(f"mismatch: {path}: {sorted(skeleton ^ whole)}")
    print(f"import scan oracle ({sys.version.split()[0]}): {files} files, "
          f"{mismatches} mismatches, {fallbacks} fallbacks, "
          f"{rejected} rejected by ast")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
