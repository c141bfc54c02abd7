"""Incremental re-verification: dependency tracking, change detection, watch.

The engine (PR 1) made re-verification cheap by caching proofs; the service
tier (PR 2) made many processes share that cache.  Both are still
*invocation-driven*: every ``repro verify`` re-fingerprints and re-schedules
the whole suite, even when nothing changed.  This package makes verification
*edit-driven*:

* :mod:`repro.incremental.deps` is the module graph: the static import
  closure the cache keys are computed over, and the set of source files
  each verified configuration's key can depend on (its pass module's
  closure plus the toolchain's), persisted as a schema-versioned sidecar
  next to the proof cache;
* :mod:`repro.incremental.detect` turns a set of changed paths — found by
  stdlib mtime/size/sha polling, no third-party watcher — into the minimal
  set of stale configurations;
* :mod:`repro.incremental.watch` runs the loop: poll, reload edited modules,
  route exactly the stale passes back through
  :func:`repro.engine.verify_passes`, and print per-cycle engine statistics.

``repro watch`` is the CLI surface; ``repro serve --watch`` runs the same
loop inside the daemon so invalidated entries are re-proved (pre-warmed)
before the next client asks.
"""

from repro.incremental.deps import (
    DEPS_SCHEMA_VERSION,
    build_dep_entry,
    class_data_paths,
    identity_key,
    kwarg_data_paths,
)
from repro.incremental.detect import (
    ChangeDetector,
    is_python_source,
    normalize_path,
    partition_changes,
    stale_identities,
)
from repro.incremental.watch import (
    WatchCycle,
    Watcher,
    refresh_classes,
    refresh_source_state,
)

__all__ = [
    "ChangeDetector",
    "DEPS_SCHEMA_VERSION",
    "WatchCycle",
    "Watcher",
    "build_dep_entry",
    "class_data_paths",
    "identity_key",
    "is_python_source",
    "kwarg_data_paths",
    "normalize_path",
    "partition_changes",
    "refresh_classes",
    "refresh_source_state",
    "stale_identities",
]
