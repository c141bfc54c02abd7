"""Seeded generation of fuzz cases: a circuit plus the device it targets.

Everything here is a pure function of ``(base seed, case index, config)``:
the same triple yields byte-identical circuits in every process, which is
what makes campaign results independent of how the seed range was cut
into work units (``--workers 1`` and ``--workers 2`` must write the same
corpus bytes).  The config is a plain JSON-shaped dict so it can travel
inside a batch spec to a worker process verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.circuit.circuit import QCircuit
from repro.circuit.random import random_circuit
from repro.coupling.coupling_map import CouplingMap
from repro.coupling.devices import DEVICE_BUILDERS, linear_device
from repro.linalg.unitary import MAX_DENSE_QUBITS

#: Campaign knobs and their defaults.  ``passes`` is filled in by the
#: campaign (names resolved against :func:`repro.fuzz.campaign.fuzz_registry`).
DEFAULT_FUZZ_CONFIG: Dict[str, object] = {
    "min_qubits": 2,
    "max_qubits": 5,
    "min_gates": 3,
    "max_gates": 12,
    "num_clbits": 2,
    "p_conditioned": 0.2,
    "p_measure": 0.25,
    "device": "linear",
    "passes": [],
    "shrink": True,
    "shrink_budget": 400,
}


def normalize_config(config: Optional[Dict] = None) -> Dict[str, object]:
    """Fill defaults and clamp sizes to what the dense oracle can check."""
    merged = dict(DEFAULT_FUZZ_CONFIG)
    merged.update(config or {})
    merged["max_qubits"] = min(int(merged["max_qubits"]), MAX_DENSE_QUBITS)
    merged["min_qubits"] = max(1, min(int(merged["min_qubits"]),
                                      int(merged["max_qubits"])))
    merged["min_gates"] = max(0, int(merged["min_gates"]))
    merged["max_gates"] = max(int(merged["min_gates"]), int(merged["max_gates"]))
    merged["passes"] = [str(name) for name in merged.get("passes") or []]
    return merged


@dataclass
class FuzzCase:
    """One generated configuration a campaign pushes through every pass."""

    case_id: str
    seed: int
    circuit: QCircuit
    coupling: CouplingMap

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits


def case_seed(base_seed: int, index: int) -> int:
    """The per-case seed: a deterministic mix of campaign seed and index.

    A multiplicative mix (rather than ``base + index``) keeps adjacent
    campaigns (``--seed 1`` vs ``--seed 2``) from sharing most of their
    cases.
    """
    return (int(base_seed) * 1_000_003 + int(index)) & 0x7FFFFFFF


def coupling_for(num_qubits: int, preferred: str = "linear") -> CouplingMap:
    """A coupling map with room for ``num_qubits``.

    ``preferred`` names a registered device builder or the synthetic
    ``"linear"`` topology; a named device too small for the circuit
    degrades to a linear chain of exactly the right size (never an
    error — the case generator must always produce a runnable case).
    """
    if preferred != "linear":
        builder = DEVICE_BUILDERS.get(preferred)
        if builder is not None:
            device = builder()
            if device.num_qubits >= num_qubits:
                return device
    return linear_device(max(2, num_qubits))


def generate_case(base_seed: int, index: int,
                  config: Optional[Dict] = None) -> FuzzCase:
    """Generate case ``index`` of the campaign seeded with ``base_seed``."""
    config = normalize_config(config)
    seed = case_seed(base_seed, index)
    rng = random.Random(seed)
    num_qubits = rng.randint(int(config["min_qubits"]), int(config["max_qubits"]))
    num_gates = rng.randint(int(config["min_gates"]), int(config["max_gates"]))
    measure = rng.random() < float(config["p_measure"])
    circuit = random_circuit(
        num_qubits,
        num_gates,
        seed=rng.getrandbits(32),
        measure=measure,
        num_clbits=int(config["num_clbits"]),
        p_conditioned=float(config["p_conditioned"]),
    )
    circuit.name = f"fuzz_{seed}"
    return FuzzCase(
        case_id=f"seed:{seed}",
        seed=seed,
        circuit=circuit,
        coupling=coupling_for(num_qubits, str(config["device"])),
    )
