"""Facts: the atomic predicates the symbolic executor branches on and assumes.

During verification the pass implementation runs on symbolic gates and
circuits.  Every boolean question the pass asks ("is this a CX gate?", "do
these two gates act on the same qubits?") is represented by a :class:`Fact`;
branching on it forks the path, and utility-function specifications assume
facts outright.  The discharge engine later interprets the facts on a path to
decide which rewrite rules apply (e.g. two symbolic gates known to be CX
gates on the same qubit pair admit the cancellation rule).
"""

from __future__ import annotations

from typing import Tuple


class Fact:
    """An atomic predicate about symbolic values.

    ``kind`` identifies the predicate; ``args`` are the identifiers (uids) of
    the symbolic values involved plus any literal arguments.  Facts are
    immutable value objects, compared and hashed by their fields, so they
    can key dictionaries and be compared across paths.
    """

    def __init__(self, kind: str, args: Tuple = ()) -> None:
        # ``__setattr__`` refuses every assignment, so fill ``__dict__``.
        vars(self).update(kind=kind, args=args)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.args) == (other.kind, other.args)

    def __hash__(self) -> int:
        return hash((self.kind, self.args))

    def __repr__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.kind}({rendered})"


# Fact kinds used across the verifier -------------------------------------- #
# Gate classification facts.
IS_CX = "is_cx"                      # (gate,)
IS_SWAP = "is_swap"                  # (gate,)
IS_MEASURE = "is_measure"            # (gate,)
IS_RESET = "is_reset"                # (gate,)
IS_BARRIER = "is_barrier"            # (gate,)
IS_DIRECTIVE = "is_directive"        # (gate,)
IS_CONDITIONED = "is_conditioned"    # (gate,)
IS_SELF_INVERSE = "is_self_inverse"  # (gate,)
IS_DIAGONAL = "is_diagonal"          # (gate,)
IS_TWO_QUBIT = "is_two_qubit"        # (gate,)
NAME_IS = "name_is"                  # (gate, name)
NAME_IN = "name_in"                  # (gate, names tuple)
IN_BASIS = "in_basis"                # (gate, basis tuple)

# Relational facts between gates.
SAME_QUBITS = "same_qubits"          # (gate, gate)
SHARES_QUBIT = "shares_qubit"        # (gate, gate)
SAME_GATE = "same_gate"              # (gate, gate)
COMMUTES = "commutes"                # (gate, gate)

# Facts about segments (opaque sub-circuits).
SEGMENT_COMMUTES_WITH = "segment_commutes_with"   # (segment, gate)
SEGMENT_EQUIVALENT_TO = "segment_equivalent_to"   # (segment, tuple-of-element-uids)
SEGMENT_EMPTY = "segment_empty"                   # (segment,)
SEGMENT_ONLY_DIAGONAL = "segment_only_diagonal"   # (segment,)

# Integer / index facts.
INT_EQ = "int_eq"                    # (sym_int, value)
INT_LT = "int_lt"                    # (sym_int, value)
INT_GT = "int_gt"                    # (sym_int, value)
INDEX_VALID = "index_valid"          # (index, circuit)
INDEX_FOUND = "index_found"          # (index,)  -- a search returned a hit

# Circuit / coupling facts.
CIRCUIT_EMPTY = "circuit_empty"      # (circuit,)
COUPLING_EDGE = "coupling_edge"      # (q1, q2)
LAYOUT_ADJACENT = "layout_adjacent"  # (gate,) -- gate's mapped qubits are adjacent
PROPERTY_TRUE = "property_true"      # (name,) -- an opaque analysis property


def negation_sensible(fact: Fact) -> bool:
    """Whether branching on the negation of this fact is meaningful."""
    return fact.kind not in (SEGMENT_EQUIVALENT_TO, SEGMENT_EMPTY)
