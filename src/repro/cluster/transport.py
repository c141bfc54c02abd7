"""Cluster transports: framed JSON over unix sockets and token-authed TCP.

The service tier (:mod:`repro.service`) speaks JSON over localhost HTTP —
right for a cache daemon serving request/response clients, wrong for a
work-leasing loop where a worker holds one connection open and exchanges
many small messages.  This module generalises the *same payload formats*
(pass specs from :func:`repro.service.protocol.make_pass_spec`, result
payloads from :func:`repro.engine.driver.result_to_payload`, stats from
``EngineStats.to_dict``) onto two stream transports:

* ``unix:/path/to.sock`` — for ``repro work`` peers on the coordinator's
  host (a ``listen unix:/path`` hostfile line); the socket file is created
  mode ``0600``, so the filesystem is the credential exactly like the
  cache directory itself;
* ``host:port`` — token-authenticated TCP for workers on other hosts
  (``repro work --connect HOST:PORT``); the coordinator mints a fresh
  token per run and every connection must present it in its ``hello``
  before anything else is served.

Framing is a 4-byte big-endian length prefix followed by a UTF-8 JSON
object — the simplest format that survives partial reads, interleaved
small messages, and multi-megabyte subgoal snapshots alike.

Discovery mirrors the daemon's: a coordinator that wants to be found
writes ``cluster.json`` (address, token, pid; mode ``0600``) into the
shared cache directory, which is the rendezvous workers already share for
the proof store.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Version of the coordinator/worker message protocol.  A mismatched
#: ``hello`` is rejected during the handshake, so version skew fails
#: closed (the worker exits; the coordinator falls back in-process).
CLUSTER_PROTOCOL_VERSION = 1

_HEADER = struct.Struct(">I")

#: Upper bound on one frame.  Subgoal snapshots for the full 47-pass suite
#: are a few hundred kilobytes; anything near this limit is a bug or an
#: attack, not a workload.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_STATE_FILE = "cluster.json"
_TOKEN_FILE = "cluster-token"


class TransportError(ConnectionError):
    """A cluster connection could not be established or has broken."""


# --------------------------------------------------------------------------- #
# Addresses
# --------------------------------------------------------------------------- #
def parse_address(spec: str) -> Tuple[str, object]:
    """Parse ``unix:/path`` or ``host:port`` into ``(family, target)``.

    >>> parse_address("unix:/tmp/repro.sock")
    ('unix', '/tmp/repro.sock')
    >>> parse_address("127.0.0.1:7200")
    ('tcp', ('127.0.0.1', 7200))
    """
    spec = str(spec).strip()
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise TransportError(f"empty unix socket path in {spec!r}")
        return ("unix", path)
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise TransportError(
            f"malformed address {spec!r} (expected unix:/path or host:port)")
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        raise TransportError(f"malformed port in address {spec!r}")


def format_address(family: str, target) -> str:
    if family == "unix":
        return f"unix:{target}"
    host, port = target
    return f"{host}:{port}"


# --------------------------------------------------------------------------- #
# Framed connections
# --------------------------------------------------------------------------- #
class Connection:
    """One framed-JSON stream: ``send(dict)`` / ``recv() -> dict | None``."""

    def __init__(self, sock: socket.socket, peer: str = "?") -> None:
        self._sock = sock
        self.peer = peer

    def send(self, message: Dict) -> None:
        body = json.dumps(message, sort_keys=True).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise TransportError(
                f"refusing to send a {len(body)}-byte frame to {self.peer}")
        try:
            self._sock.sendall(_HEADER.pack(len(body)) + body)
        except OSError as exc:
            raise TransportError(f"send to {self.peer} failed: {exc}") from exc

    def _read_exact(self, count: int) -> Optional[bytes]:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except OSError as exc:
                raise TransportError(f"recv from {self.peer} failed: {exc}") from exc
            if not chunk:
                if remaining == count:
                    return None  # clean EOF between frames
                raise TransportError(f"{self.peer} closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Optional[Dict]:
        """The next message, or ``None`` when the peer closed cleanly."""
        header = self._read_exact(_HEADER.size)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"{self.peer} announced a {length}-byte frame; closing")
        body = self._read_exact(length)
        if body is None:
            raise TransportError(f"{self.peer} closed before its frame body")
        try:
            message = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"{self.peer} sent a malformed frame") from exc
        if not isinstance(message, dict):
            raise TransportError(f"{self.peer} sent a non-object frame")
        return message

    def settimeout(self, seconds: Optional[float]) -> None:
        self._sock.settimeout(seconds)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(address: str, timeout: Optional[float] = 30.0) -> Connection:
    """Open a client connection to a coordinator address."""
    family, target = parse_address(address)
    try:
        if family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(target)
        else:
            sock = socket.create_connection(target, timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError as exc:
        raise TransportError(f"cannot connect to {address}: {exc}") from exc
    return Connection(sock, peer=address)


class Listener:
    """A listening cluster endpoint over either transport family."""

    def __init__(self, address: str, backlog: int = 16) -> None:
        self.family, target = parse_address(address)
        if self.family == "unix":
            self._path = target
            try:
                os.unlink(target)
            except OSError:
                pass
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(target)
            os.chmod(target, 0o600)
            self._target = target
        else:
            self._path = None
            host, port = target
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._target = self._sock.getsockname()[:2]
        self._sock.listen(backlog)

    @property
    def address(self) -> str:
        """The bound address (with the real port when ``0`` was asked for)."""
        return format_address(self.family, self._target)

    def accept(self, timeout: Optional[float] = None) -> Connection:
        self._sock.settimeout(timeout)
        try:
            sock, peer = self._sock.accept()
        except socket.timeout as exc:
            raise TransportError("accept timed out") from exc
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        if self.family == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = f"{peer[0]}:{peer[1]}"
        else:
            peer = f"unix-peer-{id(sock):x}"
        sock.settimeout(None)
        return Connection(sock, peer=peer)

    def close(self) -> None:
        self._sock.close()
        if self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:
                pass

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Handshake
# --------------------------------------------------------------------------- #
def client_hello(connection: Connection, token: str, **info) -> Dict:
    """Authenticate a fresh connection; returns the coordinator's welcome."""
    hello = {"op": "hello", "token": token,
             "protocol_version": CLUSTER_PROTOCOL_VERSION,
             "pid": os.getpid()}
    hello.update(info)
    connection.send(hello)
    welcome = connection.recv()
    if welcome is None or welcome.get("op") != "welcome":
        error = (welcome or {}).get("error", "connection closed")
        raise TransportError(f"coordinator rejected the handshake: {error}")
    return welcome


def server_handshake(connection: Connection, token: str,
                     welcome_extra: Optional[Dict] = None) -> Optional[Dict]:
    """Verify a client's ``hello``; returns it, or ``None`` after rejecting.

    The token comparison is constant-time (the TCP transport may be
    reachable by other hosts); a bad token or a protocol-version mismatch
    gets one explanatory frame and a closed connection.
    """
    hello = connection.recv()
    if hello is None or hello.get("op") != "hello":
        connection.close()
        return None
    presented = str(hello.get("token", ""))
    if not hmac.compare_digest(presented.encode("utf-8", "surrogateescape"),
                               token.encode("utf-8")):
        connection.send({"op": "error", "error": "bad token"})
        connection.close()
        return None
    if hello.get("protocol_version") != CLUSTER_PROTOCOL_VERSION:
        connection.send({"op": "error",
                         "error": f"protocol version mismatch "
                                  f"(coordinator speaks {CLUSTER_PROTOCOL_VERSION})"})
        connection.close()
        return None
    welcome = {"op": "welcome", "protocol_version": CLUSTER_PROTOCOL_VERSION}
    welcome.update(welcome_extra or {})
    connection.send(welcome)
    return hello


# --------------------------------------------------------------------------- #
# Discovery (cluster.json / cluster-token in the shared cache directory)
# --------------------------------------------------------------------------- #
@dataclass
class ClusterEndpoint:
    """Where a coordinator listens and how to authenticate to it."""

    address: str
    token: str
    pid: int
    protocol_version: int = CLUSTER_PROTOCOL_VERSION


def state_path(cache_dir: os.PathLike) -> Path:
    return Path(cache_dir) / _STATE_FILE


def token_path(cache_dir: os.PathLike) -> Path:
    """The bare-token sidecar, convenient to copy to remote worker hosts."""
    return Path(cache_dir) / _TOKEN_FILE


def _write_private(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    # Private from the first byte — the content is the credential.
    descriptor = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def write_cluster_state(cache_dir: os.PathLike, endpoint: ClusterEndpoint) -> Path:
    """Persist the endpoint (and a copyable token file) for worker discovery."""
    path = state_path(cache_dir)
    _write_private(path, json.dumps(asdict(endpoint), indent=2, sort_keys=True) + "\n")
    _write_private(token_path(cache_dir), endpoint.token + "\n")
    return path


def read_cluster_state(cache_dir: os.PathLike) -> Optional[ClusterEndpoint]:
    """Load a previously written endpoint, or ``None`` if absent/unreadable."""
    try:
        with open(state_path(cache_dir), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("protocol_version") != CLUSTER_PROTOCOL_VERSION:
            return None
        return ClusterEndpoint(
            address=str(payload["address"]),
            token=str(payload["token"]),
            pid=int(payload["pid"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def remove_cluster_state(cache_dir: os.PathLike, token: Optional[str] = None) -> None:
    """Drop the discovery files — only if they are still ours (same token)."""
    state = read_cluster_state(cache_dir)
    if token is not None and state is not None and state.token != token:
        return
    for path in (state_path(cache_dir), token_path(cache_dir)):
        try:
            os.unlink(path)
        except OSError:
            pass
