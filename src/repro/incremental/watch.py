"""The edit-driven verification loop behind ``repro watch``.

Each cycle polls the watched files (the union of every dependency entry's
file set), and when something really changed:

1. reloads the edited modules in place and drops the memoised fingerprint
   state (:func:`refresh_source_state`) — a long-lived process must hash the
   *new* source, not the copy it imported at startup;
2. re-resolves the watched pass classes against their reloaded modules
   (:func:`refresh_classes`) — the old class objects still carry the old
   code;
3. routes the batch through :func:`repro.engine.verify_passes` with
   ``changed_paths`` set, so only the passes whose dependency files changed
   are re-fingerprinted (and, if their key moved, re-proved), and prints the
   per-cycle :class:`~repro.engine.driver.EngineStats` delta.

The first cycle is a full (warm or cold) verification that also records the
dependency index; every later cycle is bounded by what actually changed.
"""

from __future__ import annotations

import importlib
import linecache
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple, Type

from repro.incremental.deps import dep_index_paths
from repro.incremental.detect import ChangeDetector, normalize_path
from repro.telemetry import trace as _trace

#: Module prefixes that are never reloaded: the watcher's own machinery.
#: Reloading the engine or this package mid-cycle would swap out the very
#: functions executing the cycle; edits there need a process restart (and
#: do not affect proof validity of the *passes* — the toolchain hash covers
#: the prover, and every toolchain module is reloadable).
_UNRELOADABLE_PREFIXES = (
    "repro.engine.cache",
    "repro.engine.driver",
    "repro.engine.scheduler",
    # fingerprint.py is watched (editing it can change every key) but must
    # not be hot-reloaded: driver.py holds from-import bindings of its
    # functions, so a reload would rebind the module without changing what
    # the engine actually calls — silently applying half an edit is worse
    # than honestly requiring a restart (which refresh_source_state warns
    # about).
    "repro.engine.fingerprint",
    "repro.incremental",
    "repro.service",
    "repro.cli",
    # The tracer is module-global state threaded through the cycle itself;
    # reloading it mid-run would orphan the active sink.
    "repro.telemetry",
)


def _reloadable(module_name: str) -> bool:
    # Any watched module may be reloaded — passes can live outside the
    # repro package (user pass libraries) — except the watcher's own
    # machinery.  Only files in the watched (dependency-indexed) set reach
    # this check, so arbitrary third-party modules never do.
    return not any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in _UNRELOADABLE_PREFIXES
    )


def refresh_source_state(changed_paths) -> List[str]:
    """Reload the modules behind ``changed_paths``; reset fingerprint memos.

    Returns the names of the modules that were reloaded, in name order.
    ``reload`` updates a module object in place, but a ``from m import f``
    binding is re-read only in modules that are themselves reloaded: every
    other module keeps calling the pre-edit ``f``.  So the engine, which is
    never reloaded, imports the verifier and the discharge pipeline where
    it calls them; an edit to a function that an unedited module
    from-imported (``session.py`` binds ``gates.is_self_inverse``) still
    proves with the pre-edit code until the process restarts.  The
    fingerprint memos (toolchain, file digests, import closures, class
    sources) are dropped whenever a Python source changed, reloaded or
    not: keys hash the files on disk, including closure modules a
    verification never imports.

    Non-Python paths (edited *data* files — device maps, recorded suites)
    have no module to reload; they still invalidate passes through the
    dependency index, and the next verification re-reads them.
    """
    from repro.incremental.detect import partition_changes

    changed, _data = partition_changes(changed_paths)
    if not changed:
        return []
    linecache.checkcache()
    reloaded: List[str] = []
    for name in sorted(sys.modules):
        module = sys.modules.get(name)
        path = getattr(module, "__file__", None)
        if path is None or normalize_path(path) not in changed:
            continue
        if not _reloadable(name):
            print(f"repro watch: {path} changed but cannot be hot-reloaded "
                  f"({name} is part of the watcher/engine machinery); "
                  f"restart the watcher to pick up this edit",
                  file=sys.stderr)
            continue
        try:
            importlib.reload(module)
            reloaded.append(name)
        except Exception:
            # A half-saved file that does not parse: keep the old module,
            # the next cycle (after the save completes) will retry.
            continue
    from repro.engine.fingerprint import reset_memos

    reset_memos()
    if reloaded:
        from repro.smt.terms import reset_interning

        # The hash-cons table is process-global and unbounded; without
        # this, every reload leaks the previous version's terms (and the
        # solver memos that reference them) for the watcher's lifetime.
        reset_interning()
    return reloaded


def refresh_classes(pass_classes: Sequence[Type]) -> List[Type]:
    """Re-resolve each class from its (possibly reloaded) module.

    ``importlib.reload`` rebinds the module's attributes but cannot update
    class objects already referenced elsewhere; verifying the old object
    would hash — and prove — the pre-edit code.  Classes whose module or
    qualname no longer resolves keep their old object (a deleted class
    verifies as before until the caller drops it).
    """
    refreshed: List[Type] = []
    for pass_class in pass_classes:
        target = pass_class
        module = sys.modules.get(pass_class.__module__)
        if module is not None:
            obj = module
            try:
                for part in pass_class.__qualname__.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                obj = None
            if isinstance(obj, type):
                target = obj
        refreshed.append(target)
    return refreshed


@dataclass
class WatchCycle:
    """What one polling cycle observed and did."""

    index: int
    changed_paths: Tuple[str, ...] = ()
    reloaded_modules: Tuple[str, ...] = ()
    stats: Optional[object] = None          # EngineStats | None (quiet cycle)
    results: List = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def quiet(self) -> bool:
        """True when nothing changed and nothing was verified."""
        return self.stats is None

    @property
    def all_verified(self) -> bool:
        return bool(self.results) and all(r.verified for r in self.results)

    def summary_line(self) -> str:
        if self.quiet:
            return f"cycle {self.index}: no changes"
        edits = ", ".join(sorted(self.changed_paths)) or "initial"
        return f"cycle {self.index}: {edits}\n  {self.stats.summary_line()}"


class Watcher:
    """Poll, detect, reload, re-verify: the ``repro watch`` engine.

    ``use_daemon=True`` routes each batch through a running ``repro serve``
    daemon (with the usual silent in-process fallback); the stale-set
    computation stays local either way, so only invalidated work is ever
    re-requested.
    """

    def __init__(self, pass_classes: Sequence[Type], *,
                 cache_dir: Optional[str] = None,
                 jobs: int = 1,
                 use_daemon: bool = False,
                 counterexample_search: bool = True,
                 pass_kwargs_fn: Optional[Callable] = None,
                 extra_paths: Sequence[str] = ()) -> None:
        from repro.engine.driver import default_pass_kwargs

        self.pass_classes = list(pass_classes)
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.use_daemon = use_daemon
        self.counterexample_search = counterexample_search
        self.kwargs_fn = pass_kwargs_fn or default_pass_kwargs
        self.extra_paths = [normalize_path(path) for path in extra_paths]
        self.detector = ChangeDetector(self.extra_paths)
        self.cycles_run = 0
        self.last_results: List = []
        self._warned_unwatched_daemon = False

    # ------------------------------------------------------------------ #
    def _watching_daemon_client(self):
        """A client for the daemon — but only if that daemon is watching.

        A daemon started without ``--watch`` holds the pass classes it
        imported at startup; after an edit it would key new fingerprints
        from the on-disk source while proving the *old* in-memory code,
        caching a wrong verdict into the shared store.  A ``--watch``
        daemon catches up before serving, so only that kind may serve
        watch cycles; anything else falls back to in-process (which
        reloads locally and stays sound).
        """
        from repro.service.client import DaemonUnavailable, connect
        from repro.service.protocol import ProtocolError

        client = connect(self.cache_dir, probe=False)
        if client is None:
            return None
        try:
            status = client.status()
        except (DaemonUnavailable, ProtocolError):
            return None
        if status.get("watcher") is None:
            if not self._warned_unwatched_daemon:
                self._warned_unwatched_daemon = True
                print("repro watch: daemon is not running with --watch; "
                      "verifying in-process instead", file=sys.stderr)
            return None
        return client

    def _verify(self, changed_paths: Optional[Set[str]]):
        """One engine run: full on the first cycle, incremental after."""
        from repro.engine.driver import verify_passes

        if self.use_daemon:
            client = self._watching_daemon_client()
            if client is not None:
                from repro.service.client import verify_with_fallback

                # Protocol v2 ships changed_paths over the wire, so the
                # daemon-side run is incremental too: the watching daemon
                # has already absorbed the edit, and the request then
                # re-fingerprints only what it invalidated (the report's
                # stale_passes reflects it) instead of the whole suite.
                return verify_with_fallback(
                    self.pass_classes,
                    cache_dir=self.cache_dir,
                    jobs=self.jobs,
                    pass_kwargs_fn=self.kwargs_fn,
                    counterexample_search=self.counterexample_search,
                    client=client,
                    changed_paths=sorted(changed_paths) if changed_paths is not None else None,
                )
        return verify_passes(
            self.pass_classes,
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            pass_kwargs_fn=self.kwargs_fn,
            counterexample_search=self.counterexample_search,
            changed_paths=changed_paths,
        )

    def _refresh_watched_paths(self) -> None:
        """Watch the union of the dependency index's file sets.

        Reads only the dependency sidecar (never the proof entries); new
        paths are baselined silently, already-watched paths keep their
        snapshots.
        """
        from repro.engine.cache import default_cache_dir, read_deps_sidecar

        try:
            dep_index = read_deps_sidecar(self.cache_dir or default_cache_dir())
        except Exception:
            dep_index = {}
        self.detector.add_paths(dep_index_paths(dep_index))

    def run_cycle(self) -> WatchCycle:
        """Poll once; verify if needed.  The first cycle verifies everything."""
        tracer = _trace.current()
        if tracer is None:
            return self._run_cycle()
        with tracer.span("watch.cycle", kind="watch",
                         cycle=self.cycles_run) as handle:
            cycle = self._run_cycle()
            handle.attrs["quiet"] = cycle.quiet
            handle.attrs["changed"] = len(cycle.changed_paths)
        return cycle

    def _run_cycle(self) -> WatchCycle:
        started = time.perf_counter()
        index = self.cycles_run
        self.cycles_run += 1

        if index == 0:
            # Snapshot the already-known dependency surface *before* the
            # baseline verification: an edit saved while the baseline runs
            # must be detected on the next cycle, not silently recorded as
            # if it were the content that got verified.
            self._refresh_watched_paths()
            report = self._verify(changed_paths=None)
            self.last_results = list(report.results)
            # Configurations verified for the first time only now have dep
            # entries; their files join the watch set here (baselined at
            # post-verify state — the narrowest window polling allows).
            self._refresh_watched_paths()
            return WatchCycle(index=index, stats=report.stats,
                              results=list(report.results),
                              wall_seconds=time.perf_counter() - started)

        # No cache re-read on quiet polls: the dependency index can only
        # change when something verifies, so the watched set is refreshed
        # after verifying cycles (and at baseline), not per poll.
        tracer = _trace.current()
        if tracer is None:
            changed = self.detector.poll()
        else:
            # Stale detection timed apart from the verify that follows:
            # on a large dependency surface the stat() sweep itself is the
            # cycle's fixed cost.
            with tracer.span("watch.poll", kind="watch") as handle:
                changed = self.detector.poll()
                handle.attrs["changed"] = len(changed)
        if not changed:
            return WatchCycle(index=index,
                              wall_seconds=time.perf_counter() - started)
        reloaded = refresh_source_state(changed)
        self.pass_classes = refresh_classes(self.pass_classes)
        report = self._verify(changed_paths=changed)
        self.last_results = list(report.results)
        self._refresh_watched_paths()
        return WatchCycle(index=index,
                          changed_paths=tuple(sorted(changed)),
                          reloaded_modules=tuple(reloaded),
                          stats=report.stats,
                          results=list(report.results),
                          wall_seconds=time.perf_counter() - started)

    def watch(self, interval: float = 2.0, cycles: Optional[int] = None,
              printer: Optional[Callable[[str], None]] = print) -> WatchCycle:
        """Run cycles until interrupted (or ``cycles`` exhausted).

        Returns the last non-quiet cycle (or the last cycle, when every
        cycle was quiet).  ``interval`` seconds are slept between polls;
        the baseline cycle runs immediately.
        """
        last = latest = None
        try:
            while cycles is None or self.cycles_run < cycles:
                if self.cycles_run > 0:
                    time.sleep(interval)
                last = self.run_cycle()
                if not last.quiet:
                    latest = last
                    if printer is not None:
                        printer(last.summary_line())
                        if cycles is None and last.index == 0:
                            printer("watching for edits (ctrl-c to stop) ...")
        except KeyboardInterrupt:
            pass
        return latest if latest is not None else last
