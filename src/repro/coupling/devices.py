"""Predefined device topologies used throughout the evaluation."""

from __future__ import annotations

from typing import List, Tuple

from repro.coupling.coupling_map import CouplingMap


def linear_device(num_qubits: int) -> CouplingMap:
    """A line of qubits: 0-1-2-...-(n-1)."""
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return CouplingMap(edges, num_qubits=num_qubits)


def ring_device(num_qubits: int) -> CouplingMap:
    """A ring of qubits."""
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingMap(edges, num_qubits=num_qubits)


def grid_device(rows: int, columns: int) -> CouplingMap:
    """A rows x columns grid with nearest-neighbour connectivity."""
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(columns):
            q = r * columns + c
            if c + 1 < columns:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + columns))
    return CouplingMap(edges, num_qubits=rows * columns)


def fully_connected_device(num_qubits: int) -> CouplingMap:
    """All-to-all connectivity (no routing ever needed)."""
    edges = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
    return CouplingMap(edges, num_qubits=num_qubits)


def ibm_16q() -> CouplingMap:
    """The IBM 16-qubit (Rueschlikon/Melbourne-style) 2x8 ladder of Figure 10.

    This is the IBM QX5 topology: qubits 0..7 along the top row, 15..8 along
    the bottom row, joined into a ring with a few rungs, on which the paper
    exhibits the ``lookahead_swap`` non-termination counterexample with
    logical qubits mapped to Q0, Q8, Q7 and Q15 (the four corners).
    """
    edges: List[Tuple[int, int]] = [
        (1, 0), (1, 2), (2, 3), (3, 4), (3, 14), (5, 4), (6, 5), (6, 7),
        (6, 11), (7, 10), (8, 7), (9, 8), (9, 10), (11, 10), (12, 5),
        (12, 11), (12, 13), (13, 4), (13, 14), (15, 0), (15, 2), (15, 14),
    ]
    return CouplingMap(edges, num_qubits=16)


def ibm_5q_tenerife() -> CouplingMap:
    """The 5-qubit IBM "bowtie" device."""
    return CouplingMap([(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (4, 2)], num_qubits=5)


def ibm_27q_falcon() -> CouplingMap:
    """A 27-qubit heavy-hex style topology (approximation of IBM Falcon)."""
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12),
        (12, 13), (13, 14), (14, 15), (15, 16), (16, 17), (17, 18),
        (18, 19), (19, 20), (20, 21), (21, 22), (22, 23), (23, 24),
        (24, 25), (25, 26),
        # Cross links forming the heavy-hex bridges.
        (1, 14), (4, 17), (7, 20), (10, 23), (13, 26),
    ]
    return CouplingMap(edges, num_qubits=27)


def ibm_20q_tokyo() -> CouplingMap:
    """The 20-qubit IBM Tokyo topology (4x5 grid with diagonal couplers)."""
    edges: List[Tuple[int, int]] = []
    rows, columns = 4, 5
    for r in range(rows):
        for c in range(columns):
            q = r * columns + c
            if c + 1 < columns:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + columns))
    # Diagonal couplers of the Tokyo lattice.
    edges.extend([(1, 7), (2, 6), (3, 9), (4, 8), (5, 11), (6, 10),
                  (8, 12), (9, 13), (11, 17), (12, 16), (13, 19), (14, 18)])
    return CouplingMap(edges, num_qubits=20)


DEVICE_REGISTRY = {
    "ibm_16q": ibm_16q,
    "ibm_5q_tenerife": ibm_5q_tenerife,
    "ibm_20q_tokyo": ibm_20q_tokyo,
    "ibm_27q_falcon": ibm_27q_falcon,
    "linear_16": lambda: linear_device(16),
    "ring_12": lambda: ring_device(12),
    "grid_5x5": lambda: grid_device(5, 5),
    "fully_connected_8": lambda: fully_connected_device(8),
}

#: Backwards-compatible alias (the CLI refers to the registry by this name).
DEVICE_BUILDERS = DEVICE_REGISTRY


def device(name: str) -> CouplingMap:
    """Look up a named device topology."""
    try:
        return DEVICE_REGISTRY[name]()
    except KeyError as exc:
        raise KeyError(f"unknown device {name!r}; known: {sorted(DEVICE_REGISTRY)}") from exc


def load_device_map(path) -> CouplingMap:
    """Load a coupling map from a JSON device-map file.

    The format is ``{"num_qubits": N, "edges": [[a, b], ...]}``, the
    shape the fuzz corpus records devices in.  The returned map
    remembers its ``source_path``, so verification results produced under
    it record the file in their dependency entries — editing the file then
    invalidates exactly those results (the cache key already covers the
    content, because constructor kwargs hash structurally as the edge
    set), and ``repro watch`` re-verifies them on the next cycle.
    """
    import json
    import os

    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        coupling = CouplingMap(
            edges=[tuple(edge) for edge in payload["edges"]],
            num_qubits=int(payload["num_qubits"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed device map {path!r}: {exc}") from exc
    coupling.source_path = os.path.abspath(path)
    return coupling
