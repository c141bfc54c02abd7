"""The standard gate library: names, arities, unitaries, and algebraic facts.

Every gate the compiler passes manipulate is registered here with

* its number of qubit operands and real parameters,
* a function building its unitary matrix (used by the denotational semantics
  in :mod:`repro.linalg` and by the rewrite-rule soundness checks),
* algebraic attributes the rewrite rules rely on: self-inverse, diagonal,
  the name of its inverse gate, and decomposition into the ``u1/u2/u3 + cx``
  basis used by the basis-change passes.

The registry mirrors Qiskit's ``qelib1.inc`` standard library plus the ``ecr``
gate mentioned in the paper's "adding new passes" discussion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuit.gate import Gate
from repro.errors import CircuitError

if TYPE_CHECKING:
    import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)


# --------------------------------------------------------------------------- #
# Matrix constructors
# --------------------------------------------------------------------------- #
def _mat_id(_params: Sequence[float]) -> np.ndarray:
    import numpy as np

    return np.eye(2, dtype=complex)


def _mat_x(_params):
    import numpy as np

    return np.array([[0, 1], [1, 0]], dtype=complex)


def _mat_y(_params):
    import numpy as np

    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _mat_z(_params):
    import numpy as np

    return np.array([[1, 0], [0, -1]], dtype=complex)


def _mat_h(_params):
    import numpy as np

    return SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=complex)


def _mat_s(_params):
    import numpy as np

    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _mat_sdg(_params):
    import numpy as np

    return np.array([[1, 0], [0, -1j]], dtype=complex)


def _mat_t(_params):
    import numpy as np

    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)


def _mat_tdg(_params):
    import numpy as np

    return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)


def _mat_sx(_params):
    import numpy as np

    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def _mat_sxdg(_params):
    import numpy as np

    return 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)


def _mat_rx(params):
    import numpy as np

    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _mat_ry(params):
    import numpy as np

    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _mat_rz(params):
    import numpy as np

    (phi,) = params
    return np.array(
        [[cmath.exp(-1j * phi / 2), 0], [0, cmath.exp(1j * phi / 2)]], dtype=complex
    )


def _mat_u1(params):
    import numpy as np

    (lam,) = params
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _mat_u2(params):
    import numpy as np

    phi, lam = params
    return SQRT2_INV * np.array(
        [[1, -cmath.exp(1j * lam)], [cmath.exp(1j * phi), cmath.exp(1j * (phi + lam))]],
        dtype=complex,
    )


def _mat_u3(params):
    import numpy as np

    theta, phi, lam = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _two_qubit_controlled(base: np.ndarray) -> np.ndarray:
    """Control-on-qubit-0 version of a 1-qubit matrix, little-endian operands.

    Operand order is (control, target); the returned matrix acts on the
    2-qubit space with basis |control target>.
    """
    import numpy as np

    out = np.eye(4, dtype=complex)
    out[2:, 2:] = base
    return out


def _mat_cx(_params):
    return _two_qubit_controlled(_mat_x(()))


def _mat_cy(_params):
    return _two_qubit_controlled(_mat_y(()))


def _mat_cz(_params):
    return _two_qubit_controlled(_mat_z(()))


def _mat_ch(_params):
    return _two_qubit_controlled(_mat_h(()))


def _mat_crz(params):
    return _two_qubit_controlled(_mat_rz(params))


def _mat_cu1(params):
    return _two_qubit_controlled(_mat_u1(params))


def _mat_cu3(params):
    return _two_qubit_controlled(_mat_u3(params))


def _mat_swap(_params):
    import numpy as np

    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _mat_iswap(_params):
    import numpy as np

    return np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _mat_iswap_dg(_params):
    import numpy as np

    return np.array(
        [[1, 0, 0, 0], [0, 0, -1j, 0], [0, -1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _mat_rxx(params):
    import numpy as np

    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    out = np.eye(4, dtype=complex) * c
    anti = -1j * s
    out[0, 3] = anti
    out[1, 2] = anti
    out[2, 1] = anti
    out[3, 0] = anti
    return out


def _mat_rzz(params):
    import numpy as np

    (theta,) = params
    phase = cmath.exp(1j * theta / 2)
    return np.diag([1 / phase, phase, phase, 1 / phase]).astype(complex)


def _mat_ecr(_params):
    """Echoed cross-resonance gate (1/sqrt(2)) (IX - XY)."""
    import numpy as np

    x = _mat_x(())
    y = _mat_y(())
    eye = np.eye(2, dtype=complex)
    return SQRT2_INV * (np.kron(eye, x) - np.kron(x, y))


def _mat_ccx(_params):
    import numpy as np

    out = np.eye(8, dtype=complex)
    out[6, 6] = out[7, 7] = 0
    out[6, 7] = out[7, 6] = 1
    return out


def _mat_cswap(_params):
    import numpy as np

    out = np.eye(8, dtype=complex)
    out[[5, 6], :] = out[[6, 5], :]
    return out


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate kind."""

    name: str
    num_qubits: int
    num_params: int
    matrix: Callable[[Sequence[float]], np.ndarray]
    self_inverse: bool = False
    diagonal: bool = False
    inverse_name: Optional[str] = None
    inverse_param_negate: bool = False
    aliases: Tuple[str, ...] = ()
    basis_decomposition: Optional[Callable[[Gate], List[Gate]]] = None


_REGISTRY: Dict[str, GateSpec] = {}


def register_gate(spec: GateSpec) -> None:
    """Add a gate specification (and its aliases) to the global registry."""
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _REGISTRY[alias] = spec


def gate_spec(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for a gate name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise CircuitError(f"unknown gate: {name!r}") from exc


def is_known_gate(name: str) -> bool:
    return name in _REGISTRY


def known_gate_names() -> List[str]:
    """All registered canonical gate names (aliases excluded)."""
    return sorted({spec.name for spec in _REGISTRY.values()})


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary of a gate on its own operand space.

    ``q_if`` controls are folded in as additional controls; classically
    conditioned gates have no single unitary and raise ``CircuitError``.
    """
    import numpy as np

    if gate.condition is not None:
        raise CircuitError(f"classically conditioned gate {gate.name} has no fixed unitary")
    spec = gate_spec(gate.name)
    if len(gate.params) != spec.num_params:
        raise CircuitError(
            f"gate {gate.name} expects {spec.num_params} parameters, got {len(gate.params)}"
        )
    base = spec.matrix(gate.params)
    for _ in gate.q_controls:
        dim = base.shape[0]
        controlled = np.eye(2 * dim, dtype=complex)
        controlled[dim:, dim:] = base
        base = controlled
    return base


def is_self_inverse(name: str) -> bool:
    return is_known_gate(name) and gate_spec(name).self_inverse


def is_diagonal_gate(name: str) -> bool:
    return is_known_gate(name) and gate_spec(name).diagonal


def inverse_gate(gate: Gate) -> Gate:
    """Return a gate implementing the inverse unitary of ``gate``."""
    spec = gate_spec(gate.name)
    if spec.self_inverse:
        return gate
    if spec.inverse_name is not None:
        return gate.replace(name=spec.inverse_name)
    if spec.inverse_param_negate:
        return gate.replace(params=tuple(-p for p in gate.params))
    if gate.name == "u2":
        phi, lam = gate.params
        return gate.replace(name="u3", params=(-math.pi / 2, -lam, -phi))
    if gate.name == "u3":
        theta, phi, lam = gate.params
        return gate.replace(params=(-theta, -lam, -phi))
    if gate.name == "cu3":
        theta, phi, lam = gate.params
        return gate.replace(params=(-theta, -lam, -phi))
    raise CircuitError(f"no inverse rule for gate {gate.name}")


# ---- decompositions into the u1/u2/u3 + cx basis --------------------------- #
def _decomp_1q(name: str, params_fn) -> Callable[[Gate], List[Gate]]:
    def decompose(gate: Gate) -> List[Gate]:
        new_name, params = params_fn(gate.params)
        return [Gate(new_name, gate.qubits, params, condition=gate.condition)]

    return decompose


def _decomp_h(gate: Gate) -> List[Gate]:
    return [Gate("u2", gate.qubits, (0.0, math.pi), condition=gate.condition)]


def _decomp_x(gate: Gate) -> List[Gate]:
    return [Gate("u3", gate.qubits, (math.pi, 0.0, math.pi), condition=gate.condition)]


def _decomp_y(gate: Gate) -> List[Gate]:
    return [Gate("u3", gate.qubits, (math.pi, math.pi / 2, math.pi / 2), condition=gate.condition)]


def _decomp_z(gate: Gate) -> List[Gate]:
    return [Gate("u1", gate.qubits, (math.pi,), condition=gate.condition)]


def _decomp_s(gate: Gate) -> List[Gate]:
    return [Gate("u1", gate.qubits, (math.pi / 2,), condition=gate.condition)]


def _decomp_sdg(gate: Gate) -> List[Gate]:
    return [Gate("u1", gate.qubits, (-math.pi / 2,), condition=gate.condition)]


def _decomp_t(gate: Gate) -> List[Gate]:
    return [Gate("u1", gate.qubits, (math.pi / 4,), condition=gate.condition)]


def _decomp_tdg(gate: Gate) -> List[Gate]:
    return [Gate("u1", gate.qubits, (-math.pi / 4,), condition=gate.condition)]


def _decomp_rz(gate: Gate) -> List[Gate]:
    return [Gate("u1", gate.qubits, gate.params, condition=gate.condition)]


def _decomp_rx(gate: Gate) -> List[Gate]:
    (theta,) = gate.params
    return [Gate("u3", gate.qubits, (theta, -math.pi / 2, math.pi / 2), condition=gate.condition)]


def _decomp_ry(gate: Gate) -> List[Gate]:
    (theta,) = gate.params
    return [Gate("u3", gate.qubits, (theta, 0.0, 0.0), condition=gate.condition)]


def _decomp_cz(gate: Gate) -> List[Gate]:
    control, target = gate.qubits
    return [
        Gate("u2", (target,), (0.0, math.pi)),
        Gate("cx", (control, target)),
        Gate("u2", (target,), (0.0, math.pi)),
    ]


def _decomp_cy(gate: Gate) -> List[Gate]:
    control, target = gate.qubits
    return [
        Gate("u1", (target,), (-math.pi / 2,)),
        Gate("cx", (control, target)),
        Gate("u1", (target,), (math.pi / 2,)),
    ]


def _decomp_ch(gate: Gate) -> List[Gate]:
    control, target = gate.qubits
    return [
        Gate("u3", (target,), (math.pi / 4, 0.0, 0.0)),
        Gate("cx", (control, target)),
        Gate("u3", (target,), (-math.pi / 4, 0.0, 0.0)),
    ]


def _decomp_swap(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]


def _decomp_crz(gate: Gate) -> List[Gate]:
    (lam,) = gate.params
    control, target = gate.qubits
    return [
        Gate("u1", (target,), (lam / 2,)),
        Gate("cx", (control, target)),
        Gate("u1", (target,), (-lam / 2,)),
        Gate("cx", (control, target)),
    ]


def _decomp_cu1(gate: Gate) -> List[Gate]:
    (lam,) = gate.params
    control, target = gate.qubits
    return [
        Gate("u1", (control,), (lam / 2,)),
        Gate("cx", (control, target)),
        Gate("u1", (target,), (-lam / 2,)),
        Gate("cx", (control, target)),
        Gate("u1", (target,), (lam / 2,)),
    ]


def _decomp_rzz(gate: Gate) -> List[Gate]:
    (theta,) = gate.params
    a, b = gate.qubits
    return [Gate("cx", (a, b)), Gate("u1", (b,), (theta,)), Gate("cx", (a, b))]


def _decomp_rxx(gate: Gate) -> List[Gate]:
    (theta,) = gate.params
    a, b = gate.qubits
    h_a = Gate("u2", (a,), (0.0, math.pi))
    h_b = Gate("u2", (b,), (0.0, math.pi))
    return [h_a, h_b, Gate("cx", (a, b)), Gate("u1", (b,), (theta,)), Gate("cx", (a, b)), h_a, h_b]


def _decomp_ccx(gate: Gate) -> List[Gate]:
    a, b, c = gate.qubits
    t = math.pi / 4
    return [
        Gate("u2", (c,), (0.0, math.pi)),
        Gate("cx", (b, c)),
        Gate("u1", (c,), (-t,)),
        Gate("cx", (a, c)),
        Gate("u1", (c,), (t,)),
        Gate("cx", (b, c)),
        Gate("u1", (c,), (-t,)),
        Gate("cx", (a, c)),
        Gate("u1", (b,), (t,)),
        Gate("u1", (c,), (t,)),
        Gate("cx", (a, b)),
        Gate("u2", (c,), (0.0, math.pi)),
        Gate("u1", (a,), (t,)),
        Gate("u1", (b,), (-t,)),
        Gate("cx", (a, b)),
    ]


def _decomp_cswap(gate: Gate) -> List[Gate]:
    a, b, c = gate.qubits
    return [Gate("cx", (c, b)), *_decomp_ccx(Gate("ccx", (a, b, c))), Gate("cx", (c, b))]


def _decomp_iswap(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [
        Gate("u1", (a,), (math.pi / 2,)),
        Gate("u1", (b,), (math.pi / 2,)),
        Gate("u2", (a,), (0.0, math.pi)),
        Gate("cx", (a, b)),
        Gate("cx", (b, a)),
        Gate("u2", (b,), (0.0, math.pi)),
    ]


_SPECS = [
    GateSpec("id", 1, 0, _mat_id, self_inverse=True, diagonal=True, aliases=("i", "iden")),
    GateSpec("x", 1, 0, _mat_x, self_inverse=True, basis_decomposition=_decomp_x),
    GateSpec("y", 1, 0, _mat_y, self_inverse=True, basis_decomposition=_decomp_y),
    GateSpec("z", 1, 0, _mat_z, self_inverse=True, diagonal=True, basis_decomposition=_decomp_z),
    GateSpec("h", 1, 0, _mat_h, self_inverse=True, basis_decomposition=_decomp_h),
    GateSpec("s", 1, 0, _mat_s, diagonal=True, inverse_name="sdg", basis_decomposition=_decomp_s),
    GateSpec("sdg", 1, 0, _mat_sdg, diagonal=True, inverse_name="s", basis_decomposition=_decomp_sdg),
    GateSpec("t", 1, 0, _mat_t, diagonal=True, inverse_name="tdg", basis_decomposition=_decomp_t),
    GateSpec("tdg", 1, 0, _mat_tdg, diagonal=True, inverse_name="t", basis_decomposition=_decomp_tdg),
    GateSpec("sx", 1, 0, _mat_sx, inverse_name="sxdg"),
    GateSpec("sxdg", 1, 0, _mat_sxdg, inverse_name="sx"),
    GateSpec("rx", 1, 1, _mat_rx, inverse_param_negate=True, basis_decomposition=_decomp_rx),
    GateSpec("ry", 1, 1, _mat_ry, inverse_param_negate=True, basis_decomposition=_decomp_ry),
    GateSpec("rz", 1, 1, _mat_rz, diagonal=True, inverse_param_negate=True,
             basis_decomposition=_decomp_rz),
    GateSpec("u1", 1, 1, _mat_u1, diagonal=True, inverse_param_negate=True, aliases=("p", "phase")),
    GateSpec("u2", 1, 2, _mat_u2),
    GateSpec("u3", 1, 3, _mat_u3, aliases=("u",)),
    GateSpec("cx", 2, 0, _mat_cx, self_inverse=True, aliases=("cnot",)),
    GateSpec("cy", 2, 0, _mat_cy, self_inverse=True, basis_decomposition=_decomp_cy),
    GateSpec("cz", 2, 0, _mat_cz, self_inverse=True, diagonal=True, basis_decomposition=_decomp_cz),
    GateSpec("ch", 2, 0, _mat_ch, self_inverse=True, basis_decomposition=_decomp_ch),
    GateSpec("crz", 2, 1, _mat_crz, inverse_param_negate=True, basis_decomposition=_decomp_crz),
    GateSpec("cu1", 2, 1, _mat_cu1, diagonal=True, inverse_param_negate=True, aliases=("cp",),
             basis_decomposition=_decomp_cu1),
    GateSpec("cu3", 2, 3, _mat_cu3),
    GateSpec("swap", 2, 0, _mat_swap, self_inverse=True, basis_decomposition=_decomp_swap),
    GateSpec("iswap", 2, 0, _mat_iswap, inverse_name="iswap_dg",
             basis_decomposition=_decomp_iswap),
    GateSpec("iswap_dg", 2, 0, _mat_iswap_dg, inverse_name="iswap"),
    GateSpec("rxx", 2, 1, _mat_rxx, inverse_param_negate=True, basis_decomposition=_decomp_rxx),
    GateSpec("rzz", 2, 1, _mat_rzz, diagonal=True, inverse_param_negate=True,
             basis_decomposition=_decomp_rzz),
    GateSpec("ecr", 2, 0, _mat_ecr, self_inverse=True),
    GateSpec("ccx", 3, 0, _mat_ccx, self_inverse=True, aliases=("toffoli",),
             basis_decomposition=_decomp_ccx),
    GateSpec("cswap", 3, 0, _mat_cswap, self_inverse=True, aliases=("fredkin",),
             basis_decomposition=_decomp_cswap),
]

for _spec in _SPECS:
    register_gate(_spec)


#: Gate set on which the commutation relation is transitive (Section 7.2 fix).
TRANSITIVE_COMMUTATION_GATE_SET = frozenset(
    {"cx", "x", "z", "h", "t", "tdg", "s", "sdg", "u1", "u2", "u3", "id", "rz"}
)

#: Native basis of the simulated IBM backend (as in Table 1 of the paper).
IBM_NATIVE_BASIS = ("u1", "u2", "u3", "cx", "id")


def decompose_to_basis(gate: Gate, basis: Sequence[str] = IBM_NATIVE_BASIS) -> List[Gate]:
    """Decompose a gate into the given basis (default: u1/u2/u3 + cx).

    Gates already in the basis are returned unchanged.  Decomposition is
    applied recursively until a fixed point; unknown directives (barrier,
    measure, reset) pass through untouched.
    """
    if gate.is_directive() or gate.name in basis:
        return [gate]
    spec = gate_spec(gate.name)
    if spec.basis_decomposition is None:
        if spec.name in basis:
            return [gate]
        raise CircuitError(f"gate {gate.name} has no decomposition into basis {tuple(basis)}")
    expanded: List[Gate] = []
    for sub in spec.basis_decomposition(gate):
        expanded.extend(decompose_to_basis(sub, basis))
    return expanded
