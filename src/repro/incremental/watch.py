"""The edit-driven verification loop behind ``repro watch``.

Each cycle polls the watched files (the union of every dependency entry's
file set), and when something really changed it verifies in a fresh
interpreter: a child process, started with ``sys.executable`` on the
watcher's ``sys.path``, runs :func:`repro.engine.verify_passes` with
``changed_paths`` set on the same store, so only the passes whose sources
moved are re-fingerprinted (and, if their key moved, re-proved), and the
cycle reports how many they were.  The watcher rebuilds the child's
results and prints the per-cycle
:class:`~repro.engine.driver.EngineStats` line.

Why a fresh interpreter: ``from m import f`` binds ``f`` once, when the
importing module runs, so reloading ``m`` in place leaves every such
binding on the pre-edit code, and a long-lived process would key the
edited file while proving the old one.  A new interpreter holds no old
bindings.  The watcher itself only polls, reads the dependency index and
prints; it never imports the verifier or the prover.

The first cycle is a full (warm or cold) verification that also records
the dependency index; every later cycle is bounded by what actually
changed.  A cycle whose child fails (a half-saved file that does not
parse, an edited module that raises, an unwritable store) reports the
child's last error line; its change set joins the next cycle's, and a
failed first cycle is retried whole on the next poll.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple, Type

from repro.incremental.deps import dep_index_paths, reset_memos
from repro.incremental.detect import ChangeDetector, normalize_path
from repro.telemetry import trace as _trace

#: The child's program: read the request from stdin, search the watcher's
#: ``sys.path``, verify, and write the reply to stdout.  Then it exits the
#: way ``repro`` does (:func:`repro.cli.console_main`): the heap is frozen,
#: so teardown skips the final collections over it.
_CHILD_PROGRAM = (
    "import gc, json, sys\n"
    "request = json.load(sys.stdin)\n"
    "sys.path[:] = request['sys_path']\n"
    "from repro.incremental.watch import verify_in_child\n"
    "verify_in_child(request)\n"
    "gc.freeze()\n"
)


def verify_in_child(request: dict) -> None:
    """One cycle's verification, run by the child process.

    Pass classes and the kwargs function are resolved by ``__module__`` and
    ``__qualname__``; the reply holds each result's payload and the run's
    :class:`~repro.engine.driver.EngineStats` fields.  Anything the passes
    print goes to stderr, so stdout carries the reply alone.
    """
    from repro.engine.driver import resolve_qualname, result_to_payload, verify_passes

    reply, sys.stdout = sys.stdout, sys.stderr
    kwargs_fn = request["pass_kwargs_fn"]
    report = verify_passes(
        [resolve_qualname(*reference) for reference in request["passes"]],
        cache_dir=request["cache_dir"],
        pass_kwargs_fn=resolve_qualname(*kwargs_fn) if kwargs_fn else None,
        counterexample_search=request["counterexample_search"],
        changed_paths=request["changed_paths"],
    )
    json.dump({
        "results": [dict(result_to_payload(result), from_cache=result.from_cache)
                    for result in report.results],
        "stats": dataclasses.asdict(report.stats),
    }, reply)


@dataclass
class WatchCycle:
    """What one polling cycle observed and did."""

    index: int
    changed_paths: Tuple[str, ...] = ()
    stats: Optional[object] = None          # EngineStats | None (quiet cycle)
    results: List = field(default_factory=list)
    wall_seconds: float = 0.0
    #: The failed child's last stderr line; ``None`` when nothing failed.
    error: Optional[str] = None

    @property
    def quiet(self) -> bool:
        """True when nothing changed and nothing was verified."""
        return self.stats is None and self.error is None

    @property
    def all_verified(self) -> bool:
        return bool(self.results) and all(r.verified for r in self.results)

    def summary_line(self) -> str:
        if self.quiet:
            return f"cycle {self.index}: no changes"
        edits = ", ".join(sorted(self.changed_paths)) or "initial"
        outcome = self.stats.summary_line() if self.error is None \
            else f"verification failed: {self.error}"
        return f"cycle {self.index}: {edits}\n  {outcome}"


class Watcher:
    """Poll, detect, re-verify in a fresh interpreter: the ``repro watch``
    engine.

    Every pass class, and ``pass_kwargs_fn`` when given, must be importable
    by its ``__module__`` and ``__qualname__``, because the child process
    resolves them that way: ``pass_kwargs_fn`` must be a module-level
    function, as the CLI's ``pass_kwargs_for`` is.
    """

    def __init__(self, pass_classes: Sequence[Type], *,
                 cache_dir: Optional[str] = None,
                 counterexample_search: bool = True,
                 pass_kwargs_fn: Optional[Callable] = None,
                 extra_paths: Sequence[str] = ()) -> None:
        self.pass_classes = list(pass_classes)
        self.cache_dir = cache_dir
        self.counterexample_search = counterexample_search
        self.kwargs_reference = None
        if pass_kwargs_fn is not None:
            self.kwargs_reference = (pass_kwargs_fn.__module__,
                                     pass_kwargs_fn.__qualname__)
            if "<" in pass_kwargs_fn.__qualname__:
                raise TypeError(f"pass_kwargs_fn {pass_kwargs_fn!r} is not a "
                                f"module-level function")
        self.extra_paths = [normalize_path(path) for path in extra_paths]
        self.detector = ChangeDetector(self.extra_paths)
        self.cycles_run = 0
        self._baselined = False
        #: Changes whose verification failed; retried with the next change.
        self._unverified: Set[str] = set()

    # ------------------------------------------------------------------ #
    def _verify(self, index: int, changed_paths: Optional[Set[str]],
                started: float) -> WatchCycle:
        """One verification in a fresh interpreter: full when
        ``changed_paths`` is ``None``, incremental otherwise."""
        request = {
            "sys_path": list(sys.path),
            "passes": [(cls.__module__, cls.__qualname__) for cls in self.pass_classes],
            "pass_kwargs_fn": self.kwargs_reference,
            "cache_dir": self.cache_dir,
            "counterexample_search": self.counterexample_search,
            "changed_paths": None if changed_paths is None else sorted(changed_paths),
        }
        child = subprocess.run([sys.executable, "-c", _CHILD_PROGRAM],
                               input=json.dumps(request, default=os.fspath),
                               capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        cycle = WatchCycle(index=index, changed_paths=tuple(sorted(changed_paths or ())))
        if child.returncode != 0:
            lines = child.stderr.strip().splitlines()
            cycle.error = lines[-1] if lines else f"exit status {child.returncode}"
        else:
            from repro.engine.driver import EngineStats, payload_to_result

            reply = json.loads(child.stdout)
            cycle.stats = EngineStats(**reply["stats"])
            cycle.results = [payload_to_result(payload, from_cache=payload["from_cache"])
                             for payload in reply["results"]]
        cycle.wall_seconds = time.perf_counter() - started
        return cycle

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

    def _poll(self) -> Set[str]:
        tracer = _trace.current()
        if tracer is None:
            return self.detector.poll()
        # Stale detection timed apart from the verify that follows: on a
        # large dependency surface the stat() sweep itself is the cycle's
        # fixed cost.
        with tracer.span("watch.poll", kind="watch") as handle:
            changed = self.detector.poll()
            handle.attrs["changed"] = len(changed)
        return changed

    def _run_cycle(self) -> WatchCycle:
        started = time.perf_counter()
        index = self.cycles_run
        self.cycles_run += 1

        changed: Optional[Set[str]] = None
        if not self._baselined:
            # Snapshot the already-known dependency surface *before* the
            # baseline verification: an edit saved while the baseline runs
            # must be detected on the next cycle, not silently recorded as
            # if it were the content that got verified.
            self._refresh_watched_paths()
        else:
            # No cache re-read on quiet polls: the dependency index can
            # only change when something verifies, so the watched set is
            # refreshed after verifying cycles, not per poll.
            changed = self._poll()
            if not changed:
                return WatchCycle(index=index,
                                  wall_seconds=time.perf_counter() - started)
            changed |= self._unverified
        cycle = self._verify(index, changed, started)
        if cycle.error is not None:
            self._unverified = changed or set()
            return cycle
        self._baselined = True
        self._unverified = set()
        # Configurations verified for the first time only now have dep
        # entries, and an edit may have added imports: the watch set is
        # recomputed from the index on fresh module-graph memos (new
        # files are baselined at post-verify state — the narrowest window
        # polling allows).
        reset_memos()
        self._refresh_watched_paths()
        return cycle

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
