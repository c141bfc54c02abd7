"""Incremental re-verification: dependency tracking, change detection, watch.

The engine makes re-verification cheap by caching proofs in a store that
many processes share, but a plain run is still *invocation-driven*: every
``repro verify`` re-fingerprints and re-schedules the whole suite, even
when nothing changed.  This package makes verification
*edit-driven*:

* :mod:`repro.incremental.deps` is the module graph: the static import
  closure the cache keys are computed over, and the set of source files
  each verified configuration's key can depend on (its pass module's
  closure plus the toolchain's), persisted as a schema-versioned sidecar
  next to the proof cache;
* :mod:`repro.incremental.detect` finds the watched files whose content
  changed, by stdlib mtime/size/sha polling (no third-party watcher);
* :mod:`repro.incremental.watch` runs the loop: poll, then, on a change,
  run :func:`repro.engine.verify_passes` in a fresh interpreter, which
  re-checks exactly the passes whose sources moved, and print per-cycle
  engine statistics.

``repro watch`` is the CLI surface.
"""
