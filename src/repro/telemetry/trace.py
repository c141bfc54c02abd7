"""Spans, events, and the JSONL trace sink.

A **span** is a timed region (a pass verification, a subgoal discharge, a
pool map) with a name, a kind, free-form attributes, and a parent — the
innermost open span on the same thread.  An **event** is a zero-duration
point (a cache hit, a discharge, an import-scan count).  Both are emitted
as one JSON object per line to a schema-versioned trace file beside the
proof cache, or kept in memory (``--profile`` without ``--trace``).

Design rules that keep this safe to thread through every subsystem:

* **Off by default, near-zero overhead when off.**  Instrumented sites call
  :func:`current`, which returns ``None`` unless a tracer was configured;
  the guard is one global read and a comparison.
* **Monotonic clock.**  Span timestamps come from ``time.perf_counter``;
  they are only meaningful relative to other records in the same file
  (``node``), never across machines.
* **Deterministic structure.**  Span ids are sequential per-tracer
  integers and spans are written on *completion*, so two identical
  sequential runs produce identical span trees modulo ids and timestamps.
* **Bounded disk.**  The writer rotates ``trace-<node>.jsonl`` at a size
  cap and keeps a fixed number of rotated files.

Record shapes (``TRACE_SCHEMA_VERSION`` = 1)::

    {"t": "meta",  "schema": 1, "node": ..., "created_at": ...}
    {"t": "span",  "id": 7, "parent": 3, "name": ..., "kind": ...,
     "start": <perf_counter>, "dur": <seconds>, "attrs": {...}, "node": ...}
    {"t": "event", "id": 8, "parent": 3, "name": ..., "kind": ...,
     "ts": <perf_counter>, "attrs": {...}, "node": ...}
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SpanHandle",
    "TraceWriter",
    "Tracer",
    "configure",
    "current",
    "shutdown",
    "tracing",
]

#: Bump when record shapes change; readers refuse newer schemas.
TRACE_SCHEMA_VERSION = 1

#: Default per-file size cap before rotation (bytes) and rotated-file count.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_MAX_FILES = 3

_FILE_PREFIX = "trace-"


def trace_filename(node: str) -> str:
    """The live trace file name for one ``node`` (process/role)."""
    safe = "".join(ch if (ch.isalnum() or ch in "-_.") else "-" for ch in node)
    return f"{_FILE_PREFIX}{safe}.jsonl"


#: Records buffered before serialisation is forced (see ``TraceWriter``).
_PENDING_LIMIT = 1024


class TraceWriter:
    """Append-only JSONL sink with size-capped rotation.

    Rotation renames ``trace-<node>.jsonl`` to ``trace-<node>.jsonl.1``
    (shifting older generations up and dropping the oldest beyond
    ``max_files``) and starts a fresh file with a new ``meta`` line.

    Serialisation is deferred: :meth:`write` only appends the record dict
    to a pending list, and JSON encoding happens in batches on
    :meth:`flush` / :meth:`close` or when the list reaches
    ``_PENDING_LIMIT``.  ``json.dumps`` dominates the per-record cost, and
    keeping it out of the instrumented hot path is what holds tracing
    overhead down on warm runs.
    """

    def __init__(self, directory: str, node: str = "main", *,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 max_files: int = DEFAULT_MAX_FILES) -> None:
        self.directory = str(directory)
        self.node = node
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.path = os.path.join(self.directory, trace_filename(node))
        self.records_written = 0
        self._handle = None
        self._bytes = 0
        self._pending: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = self._handle.tell()
        if self._bytes == 0:
            self._write_line({
                "t": "meta",
                "schema": TRACE_SCHEMA_VERSION,
                "node": self.node,
                "created_at": time.time(),
            })

    def _write_line(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._bytes += len(line) + 1

    def _rotate(self) -> None:
        self._handle.close()
        self._handle = None
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")

    # ------------------------------------------------------------------ #
    def write(self, record: Dict[str, Any]) -> None:
        self._pending.append(record)
        self.records_written += 1
        if len(self._pending) >= _PENDING_LIMIT:
            self._drain()

    def _drain(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for record in pending:
            if self._handle is None:
                self._open()
            elif self._bytes >= self.max_bytes:
                self._rotate()
                self._open()
            self._write_line(record)

    def flush(self) -> None:
        self._drain()
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        self._drain()
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None


class SpanHandle:
    """Yielded by :meth:`Tracer.span`; mutate ``attrs`` to annotate the span
    before it closes."""

    __slots__ = ("attrs",)

    def __init__(self, attrs: Dict[str, Any]) -> None:
        self.attrs = attrs


class Tracer:
    """Emits spans and events to a :class:`TraceWriter` or an in-memory list.

    With ``writer=None`` records accumulate in :attr:`records` only.  With
    a writer, records stream to disk; pass ``keep=True`` to additionally
    retain them in memory (``repro verify --profile`` reads them back
    without re-parsing files).

    Thread-safe: the span stack is thread-local (each thread gets its own
    nesting), and record emission is serialised under a lock.
    """

    def __init__(self, writer: Optional[TraceWriter] = None,
                 node: str = "main", *, keep: Optional[bool] = None) -> None:
        self.writer = writer
        self.node = node
        self.keep = (writer is None) if keep is None else keep
        self.records: List[Dict[str, Any]] = []
        self.spans_emitted = 0
        self.events_emitted = 0
        self._lock = threading.Lock()
        self._next_id = 0
        self._tls = threading.local()

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if record["t"] == "span":
                self.spans_emitted += 1
            elif record["t"] == "event":
                self.events_emitted += 1
            if self.keep:
                self.records.append(record)
            if self.writer is not None:
                self.writer.write(record)

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, kind: str = "span",
             **attrs: Any) -> Iterator[SpanHandle]:
        """Open a timed region; the record is written when the region closes
        (so trace files list children before parents)."""
        span_id = self._allocate_id()
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        handle = SpanHandle(dict(attrs))
        start = time.perf_counter()
        try:
            yield handle
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self._emit({
                "t": "span",
                "id": span_id,
                "parent": parent,
                "name": name,
                "kind": kind,
                "start": start,
                "dur": duration,
                "attrs": handle.attrs,
                "node": self.node,
            })

    def event(self, name: str, kind: str = "event", **attrs: Any) -> None:
        """Record a zero-duration point under the innermost open span."""
        stack = self._stack()
        self._emit({
            "t": "event",
            "id": self._allocate_id(),
            "parent": stack[-1] if stack else None,
            "name": name,
            "kind": kind,
            "ts": time.perf_counter(),
            "attrs": attrs,
            "node": self.node,
        })

    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        if self.writer is not None:
            self.writer.flush()

    def close(self) -> Dict[str, Any]:
        """Close the sink; returns a small summary for user-facing output."""
        if self.writer is not None:
            self.writer.close()
        return {
            "node": self.node,
            "spans": self.spans_emitted,
            "events": self.events_emitted,
            "directory": self.writer.directory if self.writer else None,
        }


# --------------------------------------------------------------------- #
# Module-global switch.  ``current()`` is the single hot-path entry point:
# instrumented code does ``tracer = trace.current()`` and skips all
# telemetry work when it returns ``None``.
# --------------------------------------------------------------------- #

_ACTIVE: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def configure(directory: Optional[str] = None, *, node: str = "main",
              max_bytes: int = DEFAULT_MAX_BYTES,
              max_files: int = DEFAULT_MAX_FILES,
              keep: Optional[bool] = None) -> Tracer:
    """Install a tracer as the process-wide active one.

    With ``directory`` the tracer streams to ``trace-<node>.jsonl`` inside
    it; with ``directory=None`` it only collects in memory (``--profile``
    without ``--trace``).  Replaces any previously active tracer.
    """
    global _ACTIVE
    writer = None
    if directory is not None:
        writer = TraceWriter(directory, node=node, max_bytes=max_bytes,
                             max_files=max_files)
    _ACTIVE = Tracer(writer, node=node, keep=keep)
    return _ACTIVE


def shutdown() -> Optional[Dict[str, Any]]:
    """Close and deactivate the active tracer; returns its summary."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    if tracer is None:
        return None
    return tracer.close()


@contextmanager
def tracing(directory: Optional[str] = None, *, node: str = "main",
            **kwargs: Any) -> Iterator[Tracer]:
    """Scoped :func:`configure` / :func:`shutdown` pair."""
    global _ACTIVE
    previous = _ACTIVE
    tracer = configure(directory, node=node, **kwargs)
    try:
        yield tracer
    finally:
        tracer.close()
        _ACTIVE = previous


def _flush_before_fork() -> None:
    """Empty the sink's buffer in the parent before any fork.

    ``repro fuzz --workers N`` forks a worker pool while a trace may be
    open; a child inheriting buffered-but-unflushed bytes would re-emit
    them when its interpreter exits and flushes the shared handle.  An
    empty buffer at fork time makes inheritance harmless.
    """
    tracer = _ACTIVE
    if tracer is not None:
        try:
            tracer.flush()
        except Exception:
            pass  # a failed pre-fork flush must never block the fork


if hasattr(os, "register_at_fork"):  # POSIX; Windows never forks
    os.register_at_fork(before=_flush_before_fork)
