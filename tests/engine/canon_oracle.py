"""Reference subgoal canonicaliser: the tuple path the engine used to run.

Each subgoal is frozen into nested tuples (uids renamed in order of first
appearance, path facts and assumptions sorted by a uid-masked shape key),
and :func:`repro.engine.fingerprint._canon` renders the tuple.  The engine
now renders each fact once into a template instead
(:func:`repro.engine.fingerprint.normalize_subgoal`); the tests require its
text and uid map to equal what this module builds, subgoal for subgoal.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

from repro.circuit.gate import Gate
from repro.engine.fingerprint import DEFAULT_SOLVER, ENGINE_VERSION, _canon, _UidRenamer
from repro.verify.facts import Fact
from repro.verify.session import Subgoal
from repro.verify.symvalues import Segment, SymGate

#: Raw uids minted by :mod:`repro.verify.symvalues` (``g3``, ``seg12``, ...),
#: alone or inside a composite (``nq_g7``, ``size_circ7_2``): ``_`` is a
#: boundary, a letter or digit is not.
_UID_TOKEN = re.compile(r"(?<![^\W_])(?:g|seg|int|idx|circ)\d+(?![^\W_])")


def _freeze_gate(gate: Gate) -> Tuple:
    return ("gate", gate.name, tuple(gate.qubits), tuple(gate.params),
            gate.condition, tuple(gate.q_controls or ()))


def _freeze_element(element, renamer: _UidRenamer):
    if isinstance(element, Gate):
        return _freeze_gate(element)
    if isinstance(element, SymGate):
        return ("symgate", renamer.rename(element.uid))
    if isinstance(element, Segment):
        return ("segment", renamer.rename(element.uid))
    return ("other", repr(element))


def _freeze_fact_arg(arg, renamer: _UidRenamer):
    if isinstance(arg, (SymGate, Segment)):
        return renamer.rename(arg.uid)
    if isinstance(arg, Gate):
        return _freeze_gate(arg)
    if isinstance(arg, Fact):
        return _freeze_fact(arg, renamer)
    if isinstance(arg, tuple):
        return tuple(_freeze_fact_arg(a, renamer) for a in arg)
    if isinstance(arg, str):
        return renamer.rename_embedded(arg)
    return arg


def _freeze_fact(fact: Fact, renamer: _UidRenamer) -> Tuple:
    return (fact.kind,) + tuple(_freeze_fact_arg(a, renamer) for a in fact.args)


class _MaskingRenamer:
    """Read-only view of a renamer: known uids keep their canonical name,
    unknown uids render as ``#?`` without being assigned one."""

    def __init__(self, base: _UidRenamer) -> None:
        self._base = base

    def rename(self, uid: str) -> str:
        return self._base._map.get(uid, "#?")

    def rename_embedded(self, text: str) -> str:
        return _UID_TOKEN.sub(lambda m: self.rename(m.group(0)), text)


def _fact_shape_key(fact: Fact, renamer: _UidRenamer, value=None) -> str:
    """A recording-order-independent sort key for one fact."""
    return _canon((_freeze_fact(fact, _MaskingRenamer(renamer)), value))


def normalize_subgoal(subgoal: Subgoal, renamer: Optional[_UidRenamer] = None) -> Tuple:
    """The canonical tuple of one subgoal (``description`` excluded)."""
    renamer = renamer if renamer is not None else _UidRenamer()
    lhs = tuple(_freeze_element(e, renamer) for e in subgoal.lhs)
    rhs = tuple(_freeze_element(e, renamer) for e in subgoal.rhs)
    facts = tuple(
        (_freeze_fact(fact, renamer), value)
        for fact, value in sorted(
            subgoal.path_facts, key=lambda fv: _fact_shape_key(fv[0], renamer, fv[1])
        )
    )
    assumptions = tuple(
        _freeze_fact(fact, renamer)
        for fact in sorted(
            subgoal.assumptions, key=lambda f: _fact_shape_key(f, renamer)
        )
    )
    metadata = {
        str(key): _freeze_fact_arg(value, renamer)
        for key, value in subgoal.metadata.items()
    }
    return ("subgoal", subgoal.kind, lhs, rhs, facts, assumptions, metadata)


def key_text(subgoal: Subgoal, toolchain: str,
             solver: str = DEFAULT_SOLVER) -> Tuple[str, Dict[str, str]]:
    """The text a subgoal key hashes, and the raw→canonical uid map."""
    renamer = _UidRenamer()
    normal_form = normalize_subgoal(subgoal, renamer)
    return (_canon((ENGINE_VERSION, toolchain, solver, normal_form)),
            dict(renamer._map))
