"""The JSON wire protocol between verification clients and the daemon.

The protocol is deliberately small and stdlib-only: HTTP/1.1 over localhost
TCP, JSON bodies, one shared-secret token.  Three endpoints:

``POST /verify``
    ``{"passes": [{"name": ..., "coupling": {...}|null}, ...],
    "jobs": N|null, "counterexample_search": bool,
    "changed_paths": [path, ...]|absent, "solver": name|absent}`` →
    ``{"results": [...], "stats": {...}, "daemon": {...}}``.  Results are the
    engine's JSON payloads (plus a ``from_cache`` flag); ``stats`` is an
    :class:`~repro.engine.driver.EngineStats` dict.

    ``solver`` (protocol v3) selects the prover backend the daemon
    discharges with (``auto``/``builtin``/``z3``/``bounded``); the choice
    joins every cache key daemon-side exactly as it would in-process.  A
    backend the daemon cannot run answers with a protocol error, and the
    client falls back to in-process verification (where the same error
    surfaces to the user instead of being silently substituted).

    ``changed_paths`` (protocol v2) makes the request *incremental*: the
    daemon first absorbs the named edits (reloading the modules behind
    them and re-deriving its fingerprints, exactly like its ``--watch``
    loop would) and then routes the batch through
    ``verify_passes(changed_paths=...)``, so only invalidated passes are
    re-fingerprinted.  An empty list means "nothing changed"; an absent
    field means a full run.  Paths are interpreted on the daemon's
    filesystem — clients and daemon are assumed to share a checkout,
    which localhost clients do by construction.

``GET /status``
    Daemon identity, uptime, request counters, and the proof-store summary.

``POST /shutdown``
    Acknowledges, then stops the server.

Discovery is file-based: a running daemon writes ``daemon.json`` (endpoint,
pid, auth token; mode 0600) into its cache directory, which is exactly the
rendezvous clients already share for the proof store itself.

Wire-format invariants (what ``docs/caching.md`` and ``docs/operations.md``
document and every client may rely on):

1. **Only expressible requests travel.**  A pass spec carries a class name
   and at most a coupling map; any other constructor kwarg raises
   :class:`ProtocolError` *client-side*, so the daemon can never silently
   verify a different configuration than the caller asked for:

   >>> from repro.passes import CXCancellation, SabreSwap
   >>> make_pass_spec(CXCancellation, None)
   {'name': 'CXCancellation', 'coupling': None}
   >>> from repro.coupling.devices import linear_device
   >>> spec = make_pass_spec(SabreSwap, {"coupling": linear_device(3)})
   >>> spec["coupling"]["num_qubits"]
   3
   >>> make_pass_spec(SabreSwap, None)  # doctest: +IGNORE_EXCEPTION_DETAIL
   Traceback (most recent call last):
       ...
   ProtocolError: SabreSwap needs a coupling map; refusing to let the daemon substitute its default device

2. **Couplings are canonical on the wire.**  Edges are serialised sorted,
   so two clients describing the same device produce byte-identical specs
   (and therefore identical cache keys daemon-side).
3. **Results round-trip.**  ``results`` entries are exactly the engine's
   JSON payloads (:func:`repro.engine.driver.result_to_payload`) plus a
   ``from_cache`` flag; ``stats`` is an ``EngineStats.to_dict()`` block.
   Decoding with :func:`repro.engine.driver.payload_to_result` loses
   nothing a report consumes.
4. **Version skew fails closed.**  ``protocol_version`` travels in the
   state file; a client that finds a mismatched version treats it as "no
   daemon" and falls back in-process rather than speaking a format it does
   not know.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

#: v2: ``/verify`` accepts ``changed_paths`` for incremental requests.
#: v3: ``/verify`` accepts ``solver`` (the prover-backend choice must reach
#: the daemon — an old daemon silently proving with a different backend
#: than requested would be a correctness bug, so skew must fail closed).
#: Version skew fails closed either way (invariant 4), so an old daemon is
#: simply invisible to newer clients and vice versa.
PROTOCOL_VERSION = 3

_STATE_FILE = "daemon.json"

#: Header carrying the shared-secret token from the state file.
TOKEN_HEADER = "X-Repro-Token"


class ProtocolError(ValueError):
    """A request or pass spec the wire format cannot express."""


@dataclass
class DaemonEndpoint:
    """Where a daemon listens and how to authenticate to it."""

    host: str
    port: int
    token: str
    pid: int
    backend: str
    cache_dir: str
    protocol_version: int = PROTOCOL_VERSION

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


def state_path(cache_dir: os.PathLike) -> Path:
    return Path(cache_dir) / _STATE_FILE


def write_state(cache_dir: os.PathLike, endpoint: DaemonEndpoint) -> Path:
    """Persist the endpoint for client discovery (owner-readable only)."""
    path = state_path(cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    # Created private from the first byte: the file carries the auth token,
    # so an after-the-fact chmod would leave a world-readable window.
    descriptor = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
        json.dump(asdict(endpoint), handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def read_state(cache_dir: os.PathLike) -> Optional[DaemonEndpoint]:
    """Load a previously written endpoint, or ``None`` if absent/unreadable."""
    path = state_path(cache_dir)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("protocol_version") != PROTOCOL_VERSION:
            return None
        return DaemonEndpoint(
            host=payload["host"],
            port=int(payload["port"]),
            token=payload["token"],
            pid=int(payload["pid"]),
            backend=payload.get("backend", "jsonl"),
            cache_dir=payload.get("cache_dir", str(cache_dir)),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def remove_state(cache_dir: os.PathLike) -> None:
    try:
        os.unlink(state_path(cache_dir))
    except OSError:
        pass


# --------------------------------------------------------------------------- #
# Pass specs
# --------------------------------------------------------------------------- #
def serialize_coupling(coupling) -> Dict[str, object]:
    return {
        "num_qubits": coupling.num_qubits,
        "edges": [list(edge) for edge in sorted(coupling.edges)],
    }


def make_pass_spec(pass_class, pass_kwargs: Optional[Dict]) -> Dict[str, object]:
    """Encode one (pass class, constructor kwargs) pair for the wire.

    Only the kwargs the verified passes actually take — a coupling map or
    nothing — are expressible; anything else raises :class:`ProtocolError`
    so callers fall back to in-process verification rather than silently
    verifying a different configuration.
    """
    spec: Dict[str, object] = {"name": pass_class.__name__, "coupling": None}
    kwargs = dict(pass_kwargs or {})
    coupling = kwargs.pop("coupling", None)
    if kwargs:
        raise ProtocolError(
            f"cannot ship kwargs {sorted(kwargs)} for {pass_class.__name__} "
            f"over the daemon protocol"
        )
    if coupling is None:
        # A coupling pass with no coupling would be resolved against the
        # daemon's default device — a *different* configuration (and cache
        # key) than the in-process kwargs=None path.  Refuse, so callers
        # fall back and both paths keep serving identical verdicts.
        from repro.engine.driver import COUPLING_PASSES

        if pass_class.__name__ in COUPLING_PASSES:
            raise ProtocolError(
                f"{pass_class.__name__} needs a coupling map; refusing to let "
                f"the daemon substitute its default device"
            )
    else:
        spec["coupling"] = serialize_coupling(coupling)
    return spec


def resolve_pass_spec(spec: Dict[str, object],
                      registry: Dict[str, type]) -> Tuple[type, Optional[Dict]]:
    """Decode one wire spec back into (pass class, constructor kwargs)."""
    try:
        name = spec["name"]
    except (KeyError, TypeError):
        raise ProtocolError(f"malformed pass spec: {spec!r}")
    pass_class = registry.get(name)
    if pass_class is None:
        raise ProtocolError(f"unknown pass {name!r}")
    coupling_spec = spec.get("coupling")
    if coupling_spec is None:
        from repro.engine.driver import default_pass_kwargs

        return pass_class, default_pass_kwargs(pass_class)
    try:
        from repro.coupling.coupling_map import CouplingMap

        coupling = CouplingMap(
            edges=[tuple(edge) for edge in coupling_spec["edges"]],
            num_qubits=int(coupling_spec["num_qubits"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed coupling spec for {name!r}: {exc}")
    return pass_class, {"coupling": coupling}


def pass_registry() -> Dict[str, type]:
    """Every pass the daemon will verify by name (verified + extensions)."""
    from repro.passes import ALL_VERIFIED_PASSES, EXTENSION_PASSES

    registry: Dict[str, type] = {}
    for pass_class in list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES):
        registry[pass_class.__name__] = pass_class
    return registry
