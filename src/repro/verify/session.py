"""The verification session: path exploration, fact tracking, subgoals.

A pass is verified by running its ``run`` method on symbolic inputs once per
execution path.  The session keeps, for the current path, the sequence of
branch decisions, the facts assumed by utility specifications and loop
templates, and the proof subgoals emitted; the :class:`PathExplorer`
re-executes the pass flipping one decision at a time until every path has
been covered (the branch expansion of Section 4).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuit.gate import DIRECTIVE_NAMES
from repro.circuit.gates import gate_spec, is_diagonal_gate, is_known_gate, is_self_inverse
from repro.errors import VerificationError
from repro.verify import facts as F
from repro.verify.facts import Fact
from repro.verify.symvalues import CircuitElement, Segment, SymCircuit, SymGate

#: Hard limit on explored paths per pass; the paper observes at most 8.
MAX_PATHS = 256


class Subgoal:
    """One proof obligation emitted on one execution path.

    Plain attributes, so :mod:`repro.engine.fingerprint` can memoise the
    subgoal's normal form on it (``_normal_form_memo``).
    """

    def __init__(self, kind: str, description: str,
                 lhs: Tuple[CircuitElement, ...] = (),
                 rhs: Tuple[CircuitElement, ...] = (),
                 path_facts: Tuple[Tuple[Fact, bool], ...] = (),
                 assumptions: Tuple[Fact, ...] = (),
                 metadata: Optional[Dict[str, object]] = None) -> None:
        self.kind = kind    # 'equivalence' | 'equivalence_up_to_swaps' |
        #                     'termination' | 'coupling' | 'unchanged'
        self.description = description
        self.lhs = lhs
        self.rhs = rhs
        self.path_facts = path_facts
        self.assumptions = assumptions
        self.metadata = {} if metadata is None else metadata


class PathRecord:
    """Everything that happened on one explored path."""

    def __init__(self, decisions: Tuple[bool, ...],
                 fact_decisions: Tuple[Tuple[Fact, bool], ...],
                 assumptions: Tuple[Fact, ...], subgoals: Tuple[Subgoal, ...],
                 result: object = None) -> None:
        self.decisions = decisions
        self.fact_decisions = fact_decisions
        self.assumptions = assumptions
        self.subgoals = subgoals
        self.result = result


class VerificationSession:
    """Holds the per-path state while a pass executes symbolically."""

    def __init__(self) -> None:
        self._forced: Tuple[bool, ...] = ()
        self._decisions: List[bool] = []
        self._fact_decisions: List[Tuple[Fact, bool]] = []
        self._assumptions: List[Fact] = []
        self._subgoals: List[Subgoal] = []
        self._known_names: Dict[str, str] = {}
        self._active = False

    # ------------------------------------------------------------------ #
    # Path lifecycle
    # ------------------------------------------------------------------ #
    def begin_path(self, forced: Tuple[bool, ...]) -> None:
        self._forced = forced
        self._decisions = []
        self._fact_decisions = []
        self._assumptions = []
        self._subgoals = []
        self._known_names = {}
        self._active = True

    def end_path(self, result=None) -> PathRecord:
        self._active = False
        return PathRecord(
            decisions=tuple(self._decisions),
            fact_decisions=tuple(self._fact_decisions),
            assumptions=tuple(self._assumptions),
            subgoals=tuple(self._subgoals),
            result=result,
        )

    # ------------------------------------------------------------------ #
    # Facts and decisions
    # ------------------------------------------------------------------ #
    def assume(self, fact: Fact, value: bool = True) -> None:
        """Record a fact guaranteed by a specification on the current path."""
        if not self._active:
            return
        self._assumptions.append(fact if value else Fact("not", (fact,)))
        self._record_name_knowledge(fact, value)

    def current_facts(self) -> Tuple[Tuple[Fact, bool], ...]:
        """All (fact, value) pairs known on the current path."""
        out = list(self._fact_decisions)
        for fact in self._assumptions:
            if fact.kind == "not":
                out.append((fact.args[0], False))
            else:
                out.append((fact, True))
        return tuple(out)

    def knows(self, fact: Fact) -> Optional[bool]:
        """Truth value of a fact if already known on this path, else ``None``.

        Unlike :meth:`decide`, this never forks the path; utility
        specifications use it to decide whether a guarantee (such as "this
        gate is not conditioned") has actually been established by the pass.
        """
        implied = self._implied_value(fact)
        if implied is not None:
            return implied
        for known, value in self._fact_decisions:
            if known == fact:
                return value
        return None

    def decide(self, fact: Fact) -> bool:
        """Return a truth value for ``fact``, forking the path if needed."""
        if not self._active:
            raise VerificationError("decide() called outside an active verification path")
        implied = self._implied_value(fact)
        if implied is not None:
            return implied
        for known, value in self._fact_decisions:
            if known == fact:
                return value
        index = len(self._decisions)
        value = self._forced[index] if index < len(self._forced) else True
        self._decisions.append(value)
        self._fact_decisions.append((fact, value))
        self._record_name_knowledge(fact, value)
        return value

    # -- knowledge propagation --------------------------------------------- #
    def _record_name_knowledge(self, fact: Fact, value: bool) -> None:
        if not value:
            return
        uid = fact.args[0] if fact.args else None
        if fact.kind == F.NAME_IS and isinstance(uid, str):
            self._known_names[uid] = fact.args[1]
        elif fact.kind == F.IS_CX and isinstance(uid, str):
            self._known_names[uid] = "cx"
        elif fact.kind == F.IS_SWAP and isinstance(uid, str):
            self._known_names[uid] = "swap"
        elif fact.kind == F.IS_MEASURE and isinstance(uid, str):
            self._known_names[uid] = "measure"
        elif fact.kind == F.IS_BARRIER and isinstance(uid, str):
            self._known_names[uid] = "barrier"
        elif fact.kind == F.IS_RESET and isinstance(uid, str):
            self._known_names[uid] = "reset"

    def _implied_value(self, fact: Fact) -> Optional[bool]:
        """Evaluate a fact from knowledge already on the path, if possible."""
        # Assumptions answer directly.
        for assumed in self._assumptions:
            if assumed == fact:
                return True
            if assumed.kind == "not" and assumed.args and assumed.args[0] == fact:
                return False
        uid = fact.args[0] if fact.args else None
        name = self._known_names.get(uid) if isinstance(uid, str) else None
        if name is None:
            return None
        return _classification_from_name(fact, name)

    # ------------------------------------------------------------------ #
    # Subgoals
    # ------------------------------------------------------------------ #
    def add_subgoal(self, subgoal: Subgoal) -> None:
        if not self._active:
            raise VerificationError("add_subgoal() called outside an active path")
        enriched = Subgoal(
            kind=subgoal.kind,
            description=subgoal.description,
            lhs=subgoal.lhs,
            rhs=subgoal.rhs,
            path_facts=self.current_facts(),
            assumptions=tuple(self._assumptions),
            metadata=dict(subgoal.metadata),
        )
        self._subgoals.append(enriched)

    # ------------------------------------------------------------------ #
    # Fresh symbolic values
    # ------------------------------------------------------------------ #
    def fresh_gate(self, description: str = "") -> SymGate:
        return SymGate(self, description=description)

    def fresh_segment(self, description: str = "") -> Segment:
        return Segment(self, description=description)

    def fresh_circuit(self, elements: Sequence[CircuitElement] = (), name: str = "circ") -> SymCircuit:
        return SymCircuit(self, elements, name=name)


def _classification_from_name(fact: Fact, name: str) -> Optional[bool]:
    """Answer classification facts about a gate whose name is known."""
    kind = fact.kind
    if kind == F.NAME_IS:
        return name == fact.args[1]
    if kind == F.NAME_IN:
        return name in fact.args[1]
    if kind == F.IN_BASIS:
        return name in fact.args[1]
    if kind == F.IS_CX:
        return name in ("cx", "cnot")
    if kind == F.IS_SWAP:
        return name == "swap"
    if kind == F.IS_MEASURE:
        return name == "measure"
    if kind == F.IS_RESET:
        return name == "reset"
    if kind == F.IS_BARRIER:
        return name == "barrier"
    if kind == F.IS_DIRECTIVE:
        return name in DIRECTIVE_NAMES
    if kind == F.IS_SELF_INVERSE:
        return is_self_inverse(name) if is_known_gate(name) else None
    if kind == F.IS_DIAGONAL:
        return is_diagonal_gate(name) if is_known_gate(name) else None
    if kind == F.IS_TWO_QUBIT:
        if name in DIRECTIVE_NAMES:
            return False
        return gate_spec(name).num_qubits == 2 if is_known_gate(name) else None
    return None


class PathExplorer:
    """Enumerate every execution path of a callable run under a session."""

    def __init__(self, session: VerificationSession, max_paths: int = MAX_PATHS) -> None:
        self.session = session
        self.max_paths = max_paths

    def explore(self, runner: Callable[[], object]) -> List[PathRecord]:
        """Run ``runner`` once per path and return every path record.

        ``runner`` must be deterministic apart from the branch decisions; each
        call receives a fresh symbolic environment from the caller.
        """
        records: List[PathRecord] = []
        pending: List[Tuple[bool, ...]] = [()]
        seen_prefixes = set()
        while pending:
            forced = pending.pop()
            if forced in seen_prefixes:
                continue
            seen_prefixes.add(forced)
            if len(records) >= self.max_paths:
                raise VerificationError(
                    f"path explosion: more than {self.max_paths} execution paths"
                )
            self.session.begin_path(forced)
            result = runner()
            record = self.session.end_path(result)
            records.append(record)
            for index in range(len(forced), len(record.decisions)):
                alternative = record.decisions[:index] + (not record.decisions[index],)
                pending.append(alternative)
        return records
