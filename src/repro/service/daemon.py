"""The resident verification daemon.

One long-lived process owns the shared proof store and keeps everything a
cold ``repro verify`` pays for — importing the prover, hashing the toolchain
into the active fingerprint, interning the rewrite-rule set — warm across
requests.  Clients speak the JSON protocol from
:mod:`repro.service.protocol`; each ``/verify`` request is dispatched
through the existing engine scheduler (:func:`repro.engine.verify_passes`)
against the daemon's open cache, so every client shares every other
client's proofs.

The server is a stdlib :class:`~http.server.ThreadingHTTPServer` bound to
localhost.  Status queries are served concurrently; verification requests
serialise on one lock (the store itself is multi-process safe, but
per-request statistics are deltas over shared counters, and forking worker
pools from concurrent threads is exactly the kind of subtle hazard a cache
daemon does not need).  Verdicts for queued clients are identical either
way — only latency differs.
"""

from __future__ import annotations

import hmac
import json
import os
import secrets
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine.cache import default_cache_dir, open_proof_cache
from repro.engine.driver import (
    EngineStats,
    batch_distinct_configs,
    result_to_payload,
    verify_passes,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    TOKEN_HEADER,
    DaemonEndpoint,
    ProtocolError,
    pass_registry,
    remove_state,
    resolve_pass_spec,
    write_state,
)
from repro.telemetry import trace as _trace
from repro.telemetry.health import read_rss
from repro.telemetry.metrics import CounterRegistry, render_prometheus


def absorb_source_changes(service: "VerificationService", changed) -> None:
    """Bring the daemon's in-memory state up to date with edited files.

    Reloads the changed modules, re-derives the toolchain fingerprint
    (switching the open store over when the *prover* was edited), and
    re-resolves the wire-facing registry against the reloaded modules.
    Shared by the background watcher's cycle and by ``/verify`` requests
    carrying ``changed_paths`` — a daemon must never key a new fingerprint
    from on-disk source while proving the old in-memory code.  Callers
    hold the verify lock.
    """
    from repro.engine.fingerprint import toolchain_fingerprint
    from repro.incremental.watch import refresh_classes, refresh_source_state

    refresh_source_state(changed)
    service.cache.active_fingerprint = toolchain_fingerprint()
    # The registry is the wire-facing resolution table; it must always
    # point at the reloaded classes or a request arriving right after the
    # absorb would still verify the pre-edit code.
    service.registry = {
        name: cls for name, cls in zip(
            service.registry,
            refresh_classes(list(service.registry.values())))
    }


class VerificationService:
    """The daemon's verification core, independent of the HTTP layer."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 backend: str = "sqlite", jobs: int = 1) -> None:
        self.cache_dir = Path(cache_dir or default_cache_dir())
        self.backend = backend
        self.jobs = jobs
        self.started_at = time.time()
        self.requests_served = 0
        self.passes_served = 0
        #: The ``/metrics`` surface (see :meth:`metrics`): request and
        #: cache-outcome counters accumulated across the daemon's lifetime.
        self.counters = CounterRegistry()
        self._counter_lock = threading.Lock()
        self._verify_lock = threading.Lock()
        # Warm-up: building the registry imports every pass; opening the
        # store hashes the toolchain closure (from its module rows).  After
        # this, requests pay only for actual proof work (or cache lookups).
        self.registry = pass_registry()
        self.cache = open_proof_cache(self.cache_dir, backend)
        #: Set by :func:`serve` when the opt-in background file watcher is
        #: running (``repro serve --watch``).
        self.watcher: Optional["DaemonWatcher"] = None

    def close(self) -> None:
        self.cache.close()

    # ------------------------------------------------------------------ #
    # Request handlers
    # ------------------------------------------------------------------ #
    def verify(self, body: Dict) -> Dict:
        """Handle one ``/verify`` request body, returning the response dict."""
        self.counters.inc("repro_inflight_requests", 1)
        tracer = _trace.current()
        started = time.perf_counter()
        try:
            if tracer is None:
                response = self._handle_verify(body)
            else:
                with tracer.span("daemon.verify", kind="daemon") as handle:
                    response = self._handle_verify(body)
                    handle.attrs["passes"] = len(response["results"])
        except Exception:
            self.counters.inc("repro_request_errors_total")
            raise
        finally:
            self.counters.inc("repro_inflight_requests", -1)
        stats = response.get("stats") or {}
        # Per-solver latency histogram: warm (cache-served) requests land
        # in the sub-millisecond buckets, cold proofs in the second-scale
        # ones, so one scrape distinguishes "slow solver" from "cold store".
        self.counters.observe(
            "repro_verify_latency_seconds", time.perf_counter() - started,
            labels=(("solver", str(stats.get("solver") or "unknown")),))
        self.counters.inc("repro_requests_total")
        self.counters.inc("repro_passes_served_total",
                          len(response.get("results") or []))
        for metric, key in (("repro_cache_hits_total", "cache_hits"),
                            ("repro_cache_misses_total", "cache_misses"),
                            ("repro_subgoal_hits_total", "subgoal_hits"),
                            ("repro_subgoal_misses_total", "subgoal_misses")):
            self.counters.inc(metric, int(stats.get(key) or 0))
        return response

    def _handle_verify(self, body: Dict) -> Dict:
        specs = body.get("passes")
        if not isinstance(specs, list) or not specs:
            raise ProtocolError("request must carry a non-empty 'passes' list")
        # With the watcher on, serve requests only from caught-up state: an
        # edit that landed since the last poll would otherwise be resolved
        # to the stale in-memory classes while being keyed against the new
        # on-disk source — and that wrong verdict would be cached.  Catch
        # up *before* resolving specs, so they hit the refreshed registry.
        # A failed catch-up must fail the request (the client falls back to
        # sound in-process verification), not proceed on possibly-stale
        # state; half-saved files are already tolerated inside the cycle.
        if self.watcher is not None:
            self.watcher.run_cycle()
        changed_paths = body.get("changed_paths")
        if changed_paths is not None:
            if not isinstance(changed_paths, list) or \
                    not all(isinstance(path, str) for path in changed_paths):
                raise ProtocolError("'changed_paths' must be a list of paths")
            if changed_paths:
                # Absorb the client-observed edits before resolving specs:
                # the reload machinery is the watcher's (idempotent when a
                # watching daemon already caught the same edit up above).
                with self._verify_lock:
                    absorb_source_changes(self, changed_paths)
        pairs = [resolve_pass_spec(spec, self.registry) for spec in specs]
        jobs = body.get("jobs")
        jobs = self.jobs if jobs is None else int(jobs)
        counterexample_search = bool(body.get("counterexample_search", True))
        solver = str(body.get("solver", "auto"))
        from repro.prover.backend import SolverUnavailable

        with self._verify_lock:
            try:
                results, stats = self._verify_pairs(
                    pairs, jobs, counterexample_search,
                    changed_paths=changed_paths, solver=solver)
            except (SolverUnavailable, ValueError) as exc:
                # An unusable solver choice is the *request's* problem: a
                # protocol error sends the client to its in-process
                # fallback, where the same error reaches the user.
                raise ProtocolError(str(exc))
        if self.watcher is not None:
            try:
                self.watcher.refresh_surface()
            except Exception as exc:
                # The next cycle's poll re-reads the dep index and retries
                # the baseline automatically; log so the shrunken-window
                # guarantee being temporarily weaker is at least visible.
                import sys

                print(f"repro serve: watch-surface refresh failed "
                      f"({type(exc).__name__}: {exc}); retrying next cycle",
                      file=sys.stderr)
        with self._counter_lock:
            self.requests_served += 1
            self.passes_served += len(pairs)
        payloads = []
        for result in results:
            payload = result_to_payload(result)
            payload["from_cache"] = result.from_cache
            payloads.append(payload)
        return {
            "results": payloads,
            "stats": stats.to_dict(),
            "daemon": self.identity(),
        }

    def _verify_pairs(self, pairs: List[Tuple[type, Optional[Dict]]],
                      jobs: int, counterexample_search: bool,
                      changed_paths: Optional[List[str]] = None,
                      solver: str = "auto"):
        """Verify (class, kwargs) pairs, one engine batch per distinct class.

        A request may name the same class twice with different couplings;
        :func:`batch_distinct_configs` defers such repeats to later rounds
        (the common case — each class once — is a single batch).
        ``changed_paths`` (already absorbed by the caller) scopes each
        batch incrementally.
        """
        results = [None] * len(pairs)
        merged: Optional[EngineStats] = None
        for batch in batch_distinct_configs(pairs):
            batch_kwargs = {cls: kwargs for _, cls, kwargs in batch}
            report = verify_passes(
                [cls for _, cls, _ in batch],
                jobs=jobs,
                cache=self.cache,
                pass_kwargs_fn=batch_kwargs.get,
                counterexample_search=counterexample_search,
                changed_paths=changed_paths,
                solver=solver,
            )
            for (index, _, _), result in zip(batch, report.results):
                results[index] = result
            merged = report.stats if merged is None else merged.merge(report.stats)
        return results, merged

    def identity(self) -> Dict[str, object]:
        with self._counter_lock:
            return {
                "pid": os.getpid(),
                "backend": self.backend,
                "cache_dir": str(self.cache_dir),
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "requests_served": self.requests_served,
                "passes_served": self.passes_served,
                "protocol_version": PROTOCOL_VERSION,
            }

    def status(self) -> Dict[str, object]:
        payload = self.identity()
        payload["toolchain_fingerprint"] = self.cache.active_fingerprint
        payload["known_passes"] = len(self.registry)
        watcher = self.watcher
        payload["watcher"] = None if watcher is None else {
            "interval_seconds": watcher.interval,
            "cycles": watcher.cycles,
            "prewarmed": watcher.prewarmed,
        }
        summary = getattr(self.cache, "summary", None)
        if summary is not None:
            payload["store"] = summary()
        else:
            payload["store"] = {"backend": getattr(self.cache, "backend", None),
                                "entries_live": len(self.cache)}
        payload["counters"] = self.counters.snapshot()
        return payload

    def metrics(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition.

        The same numbers feed ``repro status`` (via
        :func:`repro.telemetry.metrics.parse_prometheus`), so the CLI and
        any scraper read one surface.  Gauges are sampled here; counters
        come straight from :attr:`counters`.
        """
        with self._counter_lock:
            requests = self.requests_served
            passes = self.passes_served
        # Counters a scraper should always see, even before first touch.
        values = {
            "repro_request_errors_total": 0,
            "repro_inflight_requests": 0,
            "repro_cache_hits_total": 0,
            "repro_cache_misses_total": 0,
            "repro_subgoal_hits_total": 0,
            "repro_subgoal_misses_total": 0,
        }
        values.update(self.counters.snapshot())
        values.update({
            "repro_requests_total": requests,
            "repro_passes_served_total": passes,
            "repro_uptime_seconds": round(time.time() - self.started_at, 3),
            "repro_protocol_version": PROTOCOL_VERSION,
            "repro_known_passes": len(self.registry),
        })
        rss = read_rss()
        if rss is not None:
            values["repro_rss_bytes"] = rss
        summary = getattr(self.cache, "summary", None)
        if callable(summary):
            store = summary()
            for key in ("entries_total", "entries_live", "pass_entries",
                        "subgoal_entries", "cert_entries"):
                if store.get(key) is not None:
                    values[f"repro_store_{key}"] = int(store[key])
            for metric, key in (("repro_store_hits_total", "accumulated_hits"),
                                ("repro_store_cert_hits_total",
                                 "cert_accumulated_hits")):
                if store.get(key) is not None:
                    values[metric] = int(store[key])
        return render_prometheus(values, help_text={
            "repro_requests_total": "verify requests served",
            "repro_passes_served_total": "pass verdicts served",
            "repro_uptime_seconds": "seconds since the daemon started",
            "repro_inflight_requests": "verify requests currently executing",
            "repro_rss_bytes": "daemon resident set size",
            "repro_verify_latency_seconds":
                "verify request latency by solver backend",
        }, histograms=self.counters.histogram_snapshot())


class DaemonWatcher(threading.Thread):
    """Background file watcher that pre-warms invalidated cache entries.

    Opt-in (``repro serve --watch``): polls the dependency index's file
    surface; when a watched source file really changes, it reloads the
    edited modules, refreshes the memoised fingerprints, and re-verifies
    exactly the invalidated configurations against the daemon's own store —
    so the next ``repro verify --daemon`` after an edit is served warm
    instead of paying the re-proof at request time.

    Cycles take the service's verify lock, so a watcher re-proof and a
    client request serialise exactly like two client requests do.  The
    toolchain fingerprint is re-derived after a reload; if it moved (a
    prover edit), the service and its store switch to the new fingerprint
    so freshly proved entries are keyed — and client requests filtered —
    consistently.
    """

    def __init__(self, service: "VerificationService", interval: float = 2.0,
                 pass_classes=None, pass_kwargs_fn=None) -> None:
        super().__init__(name="repro-daemon-watcher", daemon=True)
        from repro.engine.driver import default_pass_kwargs
        from repro.incremental.detect import ChangeDetector

        self.service = service
        self.interval = interval
        self.kwargs_fn = pass_kwargs_fn or default_pass_kwargs
        self._explicit_classes = list(pass_classes) if pass_classes is not None else None
        self._detector = ChangeDetector()
        self._stop = threading.Event()
        #: Serialises cycles: the polling thread and request-time catch-up
        #: calls (see VerificationService.verify) share one detector.
        self._cycle_lock = threading.Lock()
        self.cycles = 0
        self.prewarmed = 0
        self._baseline()

    def _classes(self):
        if self._explicit_classes is not None:
            return self._explicit_classes
        return list(self.service.registry.values())

    def _baseline(self) -> None:
        """Extend the watch surface with newly recorded dependency paths.

        Uses ``add_paths`` (baseline-only), never ``poll``: polling here
        would silently consume a pending change of an already-watched file.
        """
        from repro.incremental.deps import dep_index_paths

        self._detector.add_paths(
            dep_index_paths(self.service.cache.deps_snapshot()))

    def refresh_surface(self) -> None:
        """Re-baseline after a request may have recorded new dependencies.

        Called by the service after each verify request: a configuration
        verified for the first time only just gained a dependency entry,
        and its files must be watched from *this* moment — waiting for the
        next cycle would let an edit race in unobserved and be baselined
        as if it were the verified content.
        """
        with self._cycle_lock:
            self._baseline()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_cycle()
            except Exception:
                # A failed cycle (half-saved file, transient store error)
                # must not kill the watcher; the next poll retries.
                continue

    def run_cycle(self) -> int:
        """Poll once; re-verify what an edit invalidated.  Returns the count."""
        with self._cycle_lock:
            return self._cycle()

    def _cycle(self) -> int:
        from repro.incremental.deps import dep_index_paths
        from repro.incremental.watch import refresh_classes

        self.cycles += 1
        changed = self._detector.poll(
            dep_index_paths(self.service.cache.deps_snapshot()))
        if not changed:
            return 0
        with self.service._verify_lock:
            from repro.engine.driver import verify_passes

            absorb_source_changes(self.service, changed)
            if self._explicit_classes is not None:
                self._explicit_classes = refresh_classes(self._explicit_classes)
            report = verify_passes(
                self._classes(),
                jobs=self.service.jobs,
                cache=self.service.cache,
                pass_kwargs_fn=self.kwargs_fn,
                changed_paths=changed,
            )
        stale = report.stats.stale_passes or 0
        self.prewarmed += stale
        return stale


class _Handler(BaseHTTPRequestHandler):
    """HTTP plumbing around :class:`VerificationService`."""

    server: "ProofDaemon"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    def _send_json(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        # Constant-time comparison: a short-circuiting == would let another
        # local user recover the token byte-by-byte from response timing.
        # Compared as bytes — compare_digest raises on non-ASCII str, and the
        # header is attacker-controlled (http.server decodes it as latin-1).
        received = self.headers.get(TOKEN_HEADER, "")
        return hmac.compare_digest(
            received.encode("utf-8", "surrogateescape"),
            self.server.token.encode("utf-8"),
        )

    def _read_body(self) -> Dict:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ProtocolError("request body is not valid JSON")
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if not self._authorized():
            self._send_json(401, {"error": "bad or missing token"})
            return
        if self.path == "/status":
            self._send_json(200, self.server.service.status())
        elif self.path == "/metrics":
            body = self.server.service.metrics().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json(404, {"error": f"unknown endpoint {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if not self._authorized():
            self._send_json(401, {"error": "bad or missing token"})
            return
        if self.path == "/verify":
            try:
                response = self.server.service.verify(self._read_body())
            except ProtocolError as exc:
                self._send_json(400, {"error": str(exc)})
            except Exception as exc:  # a crashed proof must not kill the daemon
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            else:
                self._send_json(200, response)
        elif self.path == "/shutdown":
            self._send_json(200, {"ok": True})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_json(404, {"error": f"unknown endpoint {self.path}"})


class ProofDaemon(ThreadingHTTPServer):
    """The listening server: localhost-only, token-authenticated.

    ``port=0`` picks a free port.  On construction the endpoint (including
    the freshly minted token) is written to the cache directory for client
    discovery; :meth:`close` removes it.  Use as a context manager, with
    :meth:`serve_forever` in the foreground (CLI) or a thread (tests).
    """

    daemon_threads = True

    def __init__(self, service: VerificationService, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.token = secrets.token_hex(16)
        self.verbose = verbose
        self.endpoint = DaemonEndpoint(
            host=self.server_address[0],
            port=self.server_address[1],
            token=self.token,
            pid=os.getpid(),
            backend=service.backend,
            cache_dir=str(service.cache_dir),
        )
        write_state(service.cache_dir, self.endpoint)

    def close(self) -> None:
        # Only remove the discovery file if it is still ours — a rolling
        # restart may already have written a newer daemon's endpoint, and
        # deleting that would cut every client over to the slow path.
        from repro.service.protocol import read_state

        state = read_state(self.service.cache_dir)
        if state is None or state.token == self.token:
            remove_state(self.service.cache_dir)
        self.server_close()
        self.service.close()

    def __enter__(self) -> "ProofDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(cache_dir: Optional[os.PathLike] = None, backend: str = "sqlite",
          host: str = "127.0.0.1", port: int = 0, jobs: int = 1,
          verbose: bool = False,
          watch_interval: Optional[float] = None,
          ready_callback=None) -> None:
    """Run a daemon in the foreground until interrupted or shut down.

    Ctrl-C *and* SIGTERM (``kill <pid>``, service managers) both run the
    full cleanup — without the handler a terminated daemon would leave its
    stale ``daemon.json`` behind and every later ``--daemon`` client would
    pay a failed probe before falling back.

    ``watch_interval`` (seconds) opts into the background
    :class:`DaemonWatcher`: edited pass/toolchain sources are re-verified
    into the store as they change, so clients arriving after an edit are
    served warm.
    """
    import signal

    service = VerificationService(cache_dir=cache_dir, backend=backend, jobs=jobs)
    with ProofDaemon(service, host=host, port=port, verbose=verbose) as server:
        watcher = None
        if watch_interval is not None:
            watcher = DaemonWatcher(service, interval=watch_interval)
            service.watcher = watcher
            watcher.start()

        def stop(_signum, _frame):
            threading.Thread(target=server.shutdown, daemon=True).start()

        previous = None
        try:
            previous = signal.signal(signal.SIGTERM, stop)
        except ValueError:
            pass  # not the main thread (embedding); rely on shutdown()
        if ready_callback is not None:
            ready_callback(server.endpoint)
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            if watcher is not None:
                watcher.stop()
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
