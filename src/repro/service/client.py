"""Client for the verification daemon, with graceful in-process fallback.

``DaemonClient`` speaks the JSON wire protocol; ``verify_with_fallback`` is
what the CLI and the pass manager call: it discovers a daemon through the
cache directory's state file, ships the request (batched, with a timeout),
and — if no daemon is running, the daemon is unreachable, or the request
cannot be expressed on the wire — quietly verifies in-process instead.
A missing daemon is never an error; it is just a cold path.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.engine.cache import default_cache_dir
from repro.engine.driver import (
    EngineReport,
    EngineStats,
    default_pass_kwargs,
    payload_to_result,
    verify_passes,
)
from repro.service.protocol import (
    TOKEN_HEADER,
    DaemonEndpoint,
    ProtocolError,
    make_pass_spec,
    read_state,
)

#: Transport-level errors that mean "no usable daemon there", not "the
#: request failed": refused/timed-out sockets, and non-HTTP garbage from a
#: stale endpoint whose port was reused by some other service.
_UNREACHABLE_ERRORS = (ConnectionError, socket.timeout, socket.gaierror,
                       OSError, http.client.HTTPException)


class DaemonUnavailable(RuntimeError):
    """Raised by :class:`DaemonClient` when the daemon cannot be reached."""


class DaemonClient:
    """A thin, connection-per-request HTTP client for one daemon endpoint."""

    def __init__(self, endpoint: DaemonEndpoint, timeout: float = 120.0) -> None:
        self.endpoint = endpoint
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        connection = http.client.HTTPConnection(
            self.endpoint.host, self.endpoint.port, timeout=self.timeout
        )
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {TOKEN_HEADER: self.endpoint.token,
                       "Content-Type": "application/json"}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except _UNREACHABLE_ERRORS as exc:
            raise DaemonUnavailable(
                f"daemon at {self.endpoint.address} unreachable: {exc}"
            ) from exc
        finally:
            connection.close()
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DaemonUnavailable(
                f"daemon at {self.endpoint.address} sent a malformed response"
            ) from exc
        if response.status != 200:
            error = decoded.get("error", f"HTTP {response.status}")
            if response.status in (400, 404):
                raise ProtocolError(error)
            raise DaemonUnavailable(
                f"daemon at {self.endpoint.address} refused the request: {error}"
            )
        return decoded

    def _request_text(self, method: str, path: str) -> str:
        """Like :meth:`_request` but for non-JSON bodies (``/metrics`` is
        Prometheus text exposition, not a JSON document)."""
        connection = http.client.HTTPConnection(
            self.endpoint.host, self.endpoint.port, timeout=self.timeout
        )
        try:
            connection.request(method, path,
                               headers={TOKEN_HEADER: self.endpoint.token})
            response = connection.getresponse()
            raw = response.read()
        except _UNREACHABLE_ERRORS as exc:
            raise DaemonUnavailable(
                f"daemon at {self.endpoint.address} unreachable: {exc}"
            ) from exc
        finally:
            connection.close()
        if response.status != 200:
            raise DaemonUnavailable(
                f"daemon at {self.endpoint.address} refused the request: "
                f"HTTP {response.status}"
            )
        return raw.decode("utf-8", "replace")

    # ------------------------------------------------------------------ #
    def status(self) -> Dict:
        return self._request("GET", "/status")

    def metrics(self) -> str:
        """The daemon's raw Prometheus exposition (``GET /metrics``)."""
        return self._request_text("GET", "/metrics")

    def shutdown(self) -> Dict:
        return self._request("POST", "/shutdown")

    def verify_specs(self, specs: Sequence[Dict], *, jobs: Optional[int] = None,
                     counterexample_search: bool = True,
                     batch_size: Optional[int] = None,
                     changed_paths: Optional[Sequence[str]] = None,
                     solver: str = "auto") -> Tuple[List, EngineStats]:
        """Ship pass specs to the daemon, optionally in batches.

        ``batch_size`` bounds how many passes ride in one HTTP request —
        large suites stream in chunks so a slow chunk times out alone.
        ``changed_paths`` makes the request incremental (protocol v2): the
        daemon absorbs the named edits, then re-fingerprints only the
        passes they can have invalidated.  ``solver`` (protocol v3) names
        the prover backend the daemon must discharge with.  Returns
        (ordered results, merged stats); the stats carry the daemon's
        identity block.
        """
        specs = list(specs)
        chunk = int(batch_size) if batch_size and batch_size > 0 else max(1, len(specs))
        results: List = []
        merged: Optional[EngineStats] = None
        daemon_info: Optional[Dict] = None
        # An empty spec list still makes one request: the daemon's protocol
        # error ("non-empty 'passes' list") is the authoritative answer.
        for start in range(0, len(specs), chunk) if specs else (0,):
            body = {
                "passes": specs[start:start + chunk],
                "jobs": jobs,
                "counterexample_search": counterexample_search,
                "solver": solver,
            }
            if changed_paths is not None:
                if isinstance(changed_paths, (str, bytes)):
                    # Iterating a bare string would silently ship its
                    # characters as one-letter "paths".
                    raise ProtocolError(
                        "changed_paths must be a sequence of paths, not a string")
                body["changed_paths"] = [os.fspath(p) for p in changed_paths]
            response = self._request("POST", "/verify", body)
            for payload in response["results"]:
                from_cache = bool(payload.pop("from_cache", False))
                results.append(payload_to_result(payload, from_cache=from_cache))
            stats = EngineStats.from_dict(response["stats"])
            daemon_info = response.get("daemon", daemon_info)
            merged = stats if merged is None else merged.merge(stats)
        if merged is None:
            merged = EngineStats(passes_total=0)
        if daemon_info is not None:
            daemon_info = dict(daemon_info)
            daemon_info["endpoint"] = self.endpoint.address
        merged.daemon = daemon_info
        return results, merged


def connect(cache_dir: Optional[os.PathLike] = None,
            endpoint: Optional[DaemonEndpoint] = None,
            timeout: float = 120.0,
            probe: bool = True,
            probe_timeout: float = 3.0) -> Optional[DaemonClient]:
    """Discover and ping a daemon; ``None`` when no live daemon is found.

    The liveness probe uses its own short ``probe_timeout``: ``timeout``
    must accommodate long proofs, but "is anything alive there?" must not —
    a stale endpoint whose port was reused by a mute service would
    otherwise stall the advertised fast fallback for the full timeout.
    """
    if endpoint is None:
        endpoint = read_state(cache_dir or default_cache_dir())
    if endpoint is None:
        return None
    if probe:
        try:
            DaemonClient(endpoint, timeout=min(timeout, probe_timeout)).status()
        except (DaemonUnavailable, ProtocolError):
            return None
    return DaemonClient(endpoint, timeout=timeout)


def verify_with_fallback(
    pass_classes: Sequence[Type],
    *,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
    use_cache: bool = True,
    pass_kwargs_fn=None,
    counterexample_search: bool = True,
    timeout: float = 120.0,
    batch_size: Optional[int] = None,
    client: Optional[DaemonClient] = None,
    changed_paths: Optional[Sequence[str]] = None,
    solver: str = "auto",
) -> EngineReport:
    """Verify through a daemon when one is running, in-process otherwise.

    The daemon path and the local path serve identical verdicts (same
    engine, same proof store semantics); the report's ``stats.daemon``
    block says which one answered.  ``use_cache=False`` requests a fully
    stateless run — the daemon exists to serve its cache, so such runs
    never leave the process.  ``changed_paths`` drives an incremental run
    on whichever side answers (shipped over the wire to the daemon,
    passed to ``verify_passes`` on fallback).
    """
    kwargs_fn = pass_kwargs_fn or default_pass_kwargs
    if isinstance(changed_paths, (str, bytes)):
        # Validated before any daemon traffic: the wire-level guard raises
        # ProtocolError, which the fallback below would swallow — and then
        # run in-process with the same bad value.
        raise TypeError(
            "changed_paths must be an iterable of paths, not a bare string")
    if not use_cache:
        client = None
    elif client is None:
        client = connect(cache_dir, timeout=timeout)
    if client is not None:
        try:
            specs = [make_pass_spec(cls, kwargs_fn(cls)) for cls in pass_classes]
            results, stats = client.verify_specs(
                specs, jobs=jobs, counterexample_search=counterexample_search,
                batch_size=batch_size, changed_paths=changed_paths,
                solver=solver,
            )
            return EngineReport(results=results, stats=stats)
        except (DaemonUnavailable, ProtocolError):
            pass  # fall through to the in-process engine
    return verify_passes(
        list(pass_classes),
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        pass_kwargs_fn=kwargs_fn,
        counterexample_search=counterexample_search,
        changed_paths=changed_paths,
        solver=solver,
    )

