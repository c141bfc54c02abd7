"""Hash-consed first-order terms for the mini-SMT solver.

The verifier's proof obligations are equalities between terms built from
uninterpreted functions (``app1q``, ``app2q``, ``seg_apply``, ...), variables
(symbolic qubits, symbolic circuits), and literals, under a set of assumed
ground equalities plus universally quantified rewrite axioms.  This module
provides the term language; :mod:`repro.smt.congruence` and
:mod:`repro.smt.solver` provide the decision procedure.

Terms are hash-consed: structurally equal terms are the same Python object,
which makes congruence closure and pattern matching cheap.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import SolverError

# Sorts are plain strings; the solver is untyped apart from sanity checks.
BOOL = "Bool"
INT = "Int"
QUBIT = "Qubit"
CIRCUIT = "Circuit"
GATE = "Gate"


class Term:
    """An immutable, hash-consed term: an operator applied to sub-terms.

    ``op`` is the function/constructor symbol.  Variables use the dedicated
    ``var`` operator and carry their name in ``payload``; literals use the
    ``lit`` operator and carry their Python value in ``payload``.
    """

    __slots__ = ("op", "args", "sort", "payload", "_hash", "term_id")

    _interned: Dict[tuple, "Term"] = {}
    _next_id = 0
    #: Interning statistics (see :func:`interning_stats`).  The table is
    #: process-global and unbounded; the counters make its growth
    #: observable.
    _stats = {"hits": 0, "misses": 0}

    def __new__(cls, op: str, args: Tuple["Term", ...] = (), sort: str = BOOL, payload=None):
        key = (op, args, sort, payload)
        cached = cls._interned.get(key)
        if cached is not None:
            cls._stats["hits"] += 1
            return cached
        cls._stats["misses"] += 1
        term = object.__new__(cls)
        term.op = op
        term.args = args
        term.sort = sort
        term.payload = payload
        term._hash = hash(key)
        term.term_id = cls._next_id
        cls._next_id += 1
        cls._interned[key] = term
        return term

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other

    def __reduce__(self):
        """Pickle by content: unpickling re-interns through ``__new__``.

        The default protocol cannot rebuild hash-consed ``__slots__`` objects
        (``__new__`` requires arguments), and identity-based ``__eq__`` makes
        a structurally-equal-but-distinct copy unusable.  Rebuilding through
        the constructor restores the interning invariant, which lets rule
        sets and whole solver contexts cross process boundaries.
        """
        return (Term, (self.op, self.args, self.sort, self.payload))

    def is_var(self) -> bool:
        return self.op == "var"

    def is_literal(self) -> bool:
        return self.op == "lit"

    @property
    def name(self) -> str:
        """Variable name (only meaningful for variables)."""
        if not self.is_var():
            raise SolverError(f"{self!r} is not a variable")
        return self.payload

    def subterms(self) -> Iterator["Term"]:
        """Yield this term and every sub-term (pre-order, with repeats)."""
        yield self
        for arg in self.args:
            yield from arg.subterms()

    def variables(self) -> List["Term"]:
        """All distinct variables occurring in the term."""
        seen: List[Term] = []
        for sub in self.subterms():
            if sub.is_var() and sub not in seen:
                seen.append(sub)
        return seen

    def substitute(self, bindings: Dict["Term", "Term"]) -> "Term":
        """Replace variables by their bindings (simultaneously)."""
        if self in bindings:
            return bindings[self]
        if not self.args:
            return self
        new_args = tuple(arg.substitute(bindings) for arg in self.args)
        if new_args == self.args:
            return self
        return Term(self.op, new_args, self.sort, self.payload)

    def __repr__(self) -> str:
        if self.is_var():
            return f"?{self.payload}"
        if self.is_literal():
            return repr(self.payload)
        if not self.args:
            return self.op
        return f"{self.op}({', '.join(map(repr, self.args))})"


# --------------------------------------------------------------------------- #
# Interning statistics
# --------------------------------------------------------------------------- #
def interning_stats() -> Dict[str, int]:
    """Observability for the process-global hash-cons table.

    ``terms`` is the live table size (it only grows for the life of the
    process), ``hits``/``misses`` the constructor's reuse counters.
    """
    return {
        "terms": len(Term._interned),
        "hits": Term._stats["hits"],
        "misses": Term._stats["misses"],
    }


# --------------------------------------------------------------------------- #
# Constructors
# --------------------------------------------------------------------------- #
def var(name: str, sort: str = QUBIT) -> Term:
    """A free variable of the given sort."""
    return Term("var", (), sort, name)


def lit(value, sort: Optional[str] = None) -> Term:
    """A literal constant (int, float, str, bool, tuples of those)."""
    if sort is None:
        if isinstance(value, bool):
            sort = BOOL
        elif isinstance(value, int):
            sort = INT
        else:
            sort = GATE
    return Term("lit", (), sort, value)


def app(op: str, *args: Term, sort: str = QUBIT) -> Term:
    """An application of an uninterpreted function symbol."""
    return Term(op, tuple(args), sort)


def eq(left: Term, right: Term) -> Term:
    """The equality atom ``left = right`` (normalised by term id)."""
    if right.term_id < left.term_id:
        left, right = right, left
    return Term("=", (left, right), BOOL)


def ne(left: Term, right: Term) -> Term:
    """The disequality atom ``left != right``."""
    return Term("not", (eq(left, right),), BOOL)


def conj(*atoms: Term) -> Term:
    """Conjunction of boolean atoms."""
    return Term("and", tuple(atoms), BOOL)


def true() -> Term:
    return lit(True, BOOL)


def false() -> Term:
    return lit(False, BOOL)


class Rule:
    """A universally quantified equation ``forall vars. lhs = rhs``.

    Pattern variables are ordinary :func:`var` terms occurring in ``lhs``;
    the solver instantiates the rule by E-matching ``lhs`` (and optionally
    extra trigger patterns) against the current term bank.
    """

    def __init__(self, name: str, lhs: Term, rhs: Term, triggers: Sequence[Term] = ()):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.triggers = tuple(triggers) if triggers else (lhs,)
        missing = [v for v in rhs.variables() if v not in lhs.variables()]
        if missing:
            raise SolverError(
                f"rule {name}: right-hand side has unbound variables {missing}"
            )

    def __repr__(self) -> str:
        return f"Rule({self.name}: {self.lhs!r} = {self.rhs!r})"
