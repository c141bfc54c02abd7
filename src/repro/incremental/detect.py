"""Change detection: which watched files an edit actually changed.

Polling is stdlib-only (the repo takes no third-party watcher dependency):
a :class:`ChangeDetector` snapshots ``(mtime_ns, size)`` per watched file
and, when the cheap stat differs, confirms the edit with a SHA-256 of the
content — so ``touch`` without a content change (editor save hooks, git
checkout of an identical file) does not invalidate anything.

A nonempty change set starts a ``repro watch`` cycle, which calls
``verify_passes(changed_paths=...)``: that run re-checks exactly the
configurations whose recorded sources digest moved, whatever the set
lists, and counts them as stale.  Watched paths are kept in
:func:`normalize_path` form.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, Optional, Set, Tuple


def normalize_path(path: os.PathLike) -> str:
    """The canonical absolute form under which paths are compared."""
    return os.path.realpath(os.path.abspath(os.fspath(path)))


def _sha256_file(path: str) -> Optional[str]:
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(65536), b""):
                digest.update(block)
        return digest.hexdigest()
    except OSError:
        return None


class FileState:
    """One watched file's snapshot: cheap stat plus content hash.
    Immutable, compared and hashed by its fields."""

    def __init__(self, mtime_ns: int, size: int, sha256: Optional[str]) -> None:
        # ``__setattr__`` refuses every assignment, so fill ``__dict__``.
        vars(self).update(mtime_ns=mtime_ns, size=size, sha256=sha256)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


def file_state(path: str) -> Optional[FileState]:
    """Snapshot one file, or ``None`` when it does not exist."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return FileState(mtime_ns=status.st_mtime_ns, size=status.st_size,
                     sha256=_sha256_file(path))


class ChangeDetector:
    """Stateful poller over a (growable) set of files.

    The first time a path is seen it is baselined silently — adding files
    to the watch set must not report them as edits.  ``poll`` returns the
    set of paths whose *content* changed since the previous poll (including
    deletions and re-appearances); a pure mtime bump with identical bytes
    updates the stored stat and reports nothing.
    """

    def __init__(self, paths: Iterable[os.PathLike] = ()) -> None:
        self._states: Dict[str, Optional[FileState]] = {}
        self.add_paths(paths)

    def add_paths(self, paths: Iterable[os.PathLike]) -> None:
        """Baseline new paths without reporting a change."""
        for path in paths:
            path = normalize_path(path)
            if path not in self._states:
                self._states[path] = file_state(path)

    @property
    def watched(self) -> Tuple[str, ...]:
        return tuple(sorted(self._states))

    def poll(self, paths: Optional[Iterable[os.PathLike]] = None) -> Set[str]:
        """Return the content-changed paths; update the snapshot either way.

        ``paths``, when given, additionally extends the watch set (new paths
        are baselined, not reported).
        """
        if paths is not None:
            self.add_paths(paths)
        changed: Set[str] = set()
        for path, previous in list(self._states.items()):
            try:
                status = os.stat(path)
            except OSError:
                if previous is not None:
                    changed.add(path)
                self._states[path] = None
                continue
            if previous is not None and \
                    status.st_mtime_ns == previous.mtime_ns and \
                    status.st_size == previous.size:
                continue  # cheap stat unchanged: no read, no hash
            current = FileState(mtime_ns=status.st_mtime_ns,
                                size=status.st_size,
                                sha256=_sha256_file(path))
            if previous is None or current.sha256 != previous.sha256:
                changed.add(path)
            self._states[path] = current
        return changed

