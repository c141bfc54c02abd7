"""Content-addressed fingerprints for passes, subgoals, and the toolchain.

The verification engine memoizes proofs: a proof obligation is re-used from
the cache only when *everything* it depends on is unchanged.  This module
computes the stable SHA-256 keys that make this sound:

* :func:`pass_fingerprint` — hashes the pass's source code, its constructor
  arguments, its module's imports, and the toolchain.  Editing the pass (or
  anything it or the verifier imports) changes the key, so stale proofs are
  never hit.
* :func:`subgoal_fingerprint` — hashes one proof obligation (lhs/rhs element
  sequences plus the path facts) after *canonicalising the symbolic uids*.
  Fresh symbolic values draw uids from a process-global counter, so the same
  pass verified twice (or in two processes) produces different raw
  uids; renaming them in order of first appearance makes the key stable.
  :func:`normalize_subgoal` renders each fact once, into a template of
  static text and uid slots, and fills it twice: with unnamed uids masked
  for the sort key, then with canonical names for the hashed text.  That
  text is :func:`_canon` of the canonical tuple the engine used to build,
  byte for byte (``tests/engine/canon_oracle.py`` keeps the tuple path as
  the test oracle).  A template lives inside one call; the subgoal
  memoises only its finished text and uid map.
* :func:`toolchain_fingerprint` — the content digest of every module the
  verifier and this module statically import (rule set, commutation
  semantics, templates, gate library, prover), so changing any of them
  invalidates every cached proof.

Key-derivation invariants (what ``docs/caching.md`` documents and the
incremental layer relies on):

1. **Everything a verdict depends on is hashed.**  A pass key covers exactly
   ``(ENGINE_VERSION, toolchain_fingerprint(), solver backend, module,
   qualname, class source, canonicalised constructor kwargs, declared
   data-file digests, the content digest of every other module the pass's
   module or the verifier imports, the pass module's text outside its
   other pass classes)`` — nothing else.
   Constructor kwargs are rendered *structurally* (a coupling map hashes
   as its edge set, however it was built), and a pass that reads
   non-Python inputs can declare them via a ``data_dependencies`` class
   attribute whose file contents are folded into the key
   (:func:`data_dependency_digest`).  Both the toolchain and the closure
   digests come from one module graph, :mod:`repro.incremental.deps`, whose
   :func:`~repro.incremental.deps.entry_watch_paths` maps the same modules
   to the files the dependency index watches: the files that can change a
   pass key are exactly the watched ones, plus any declared or
   kwarg-carried data files.  Everything the key reads besides its
   identity (module, qualname, kwargs) is digested again by
   :func:`~repro.incremental.deps.sources_digest`, so a key recorded
   beside that digest is served, underived, while the digest holds.
2. **Keys are deterministic across processes.**  Symbolic uids are renamed
   in order of first appearance before hashing, so the same obligation
   produced in two processes (with different raw uid counters) maps
   to the same subgoal key:

   >>> renamer = _UidRenamer()
   >>> [renamer.rename(uid) for uid in ["g7", "seg12", "g7"]]
   ['g#0', 'seg#1', 'g#0']
   >>> _UidRenamer().rename_embedded("(int31+1)")
   '(int#0+1)'

3. **Cosmetic changes do not invalidate.**  Subgoal descriptions are
   excluded from :func:`normalize_subgoal`; path facts are sorted by a
   uid-masked shape key so recording order cannot perturb the hash.
4. **Version bumps invalidate everything.**  ``ENGINE_VERSION`` is folded
   into every key; bumping it orphans every existing cache entry at once.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Dict, Iterable, Optional, Tuple

from repro.circuit.gate import Gate
from repro.verify.facts import Fact
from repro.verify.session import Subgoal
from repro.verify.symvalues import Segment, SymGate

#: Bump to invalidate every cache entry written by an older engine.
#: v2: pass keys additionally cover declared data-file digests.
#: v3: pass and subgoal keys additionally cover the solver backend.
ENGINE_VERSION = 3

#: Solver backend hashed into keys when the caller does not say otherwise;
#: must match what :func:`repro.prover.backend.resolve_solver` returns for
#: ``auto`` so seed-era call sites and ``--solver auto`` runs agree on keys.
DEFAULT_SOLVER = "builtin"

#: Raw uids minted by :mod:`repro.verify.symvalues` (``g3``, ``seg12``, ...),
#: captured so that ``split`` returns them between the text around them.
#: A token ends wherever no letter or digit follows, and ``_`` counts as a
#: boundary (``\b`` would not), so the uids inside the composites the
#: symbolic values mint (``nq_g7``, ``size_circ7_2``) are renamed too.
_UID_TOKEN = re.compile(r"(?<![^\W_])((?:g|seg|int|idx|circ)\d+)(?![^\W_])")

#: The same tokens in underscore-joined rule names
#: (``segment_commute_rev_seg210_g206``), matched with no boundary at all —
#: safe for rule names, whose only prefix-plus-digits tokens *are* uids
#: (digit runs are matched maximally, and every uid token there ends at
#: ``_`` or end-of-name).
_RULE_UID_TOKEN = re.compile(r"(?:g|seg|int|idx|circ)\d+")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canon(value) -> str:
    """A deterministic textual rendering of a nested value.

    Only the shapes that occur in normalised subgoals are supported: tuples,
    lists, dicts (rendered with sorted keys), and scalar literals.
    """
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted((str(k), _canon(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, float):
        return repr(round(value, 12))
    return repr(value)


class _UidRenamer:
    """Rename symbolic uids to ``<prefix>#<n>`` in order of first appearance."""

    def __init__(self) -> None:
        self._map: Dict[str, str] = {}

    def rename(self, uid: str) -> str:
        canonical = self._map.get(uid)
        if canonical is None:
            prefix = uid.rstrip("0123456789") or "u"
            canonical = f"{prefix}#{len(self._map)}"
            self._map[uid] = canonical
        return canonical

    def rename_embedded(self, text: str) -> str:
        """Rename every uid token embedded in a composite string.

        Symbolic integers build composite uids like ``(int3+1)`` or
        ``size_circ7_2``; renaming the embedded tokens keeps those stable too.
        """
        return _UID_TOKEN.sub(lambda m: self.rename(m.group(0)), text)


def _gate_text(gate: Gate) -> str:
    return _canon(("gate", gate.name, tuple(gate.qubits), tuple(gate.params),
                   gate.condition, tuple(gate.q_controls or ())))


def _element_text(element, rename) -> str:
    """``_canon`` of one lhs/rhs element, its uid renamed through ``rename``."""
    if isinstance(element, Gate):
        return _gate_text(element)
    if isinstance(element, SymGate):
        return "('symgate'," + repr(rename(element.uid)) + ")"
    if isinstance(element, Segment):
        return "('segment'," + repr(rename(element.uid)) + ")"
    return "('other'," + repr(repr(element)) + ")"


def _escape(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _emit(value, text: list, slots: list) -> None:
    """Append the template of one fact, fact argument or metadata value.

    Static text goes to ``text`` as a :meth:`str.format` string, rendered
    once as :func:`_canon` renders it; each uid goes to ``slots`` behind a
    ``{}``.  A slot is a bare uid (a symbolic gate's or segment's, or a
    string that is one raw uid) or, for a string with raw uids embedded,
    that string's own template.
    """
    if isinstance(value, str):
        pieces = _UID_TOKEN.split(value)
        if len(pieces) == 1:
            text.append(_escape(repr(value)))
        else:
            text.append("{}")
            static, uids = pieces[0::2], tuple(pieces[1::2])
            slots.append(uids[0] if static == ["", ""]
                         else ("{}".join(map(_escape, static)), uids))
    elif isinstance(value, (SymGate, Segment)):
        text.append("{}")
        slots.append(value.uid)
    elif isinstance(value, tuple):
        text.append("(")
        for position, item in enumerate(value):
            if position:
                text.append(",")
            _emit(item, text, slots)
        text.append(")")
    elif isinstance(value, Gate):
        text.append(_escape(_gate_text(value)))
    elif isinstance(value, Fact):
        text.append("(" + _escape(_canon(value.kind)))
        for arg in value.args:
            text.append(",")
            _emit(arg, text, slots)
        text.append(")")
    else:
        text.append(_escape(_canon(value)))


def _template(value) -> Tuple[str, Tuple]:
    """``(format string, uid slots)`` of one fact or fact argument."""
    text: list = []
    slots: list = []
    _emit(value, text, slots)
    return "".join(text), tuple(slots)


def _fill(template: Tuple[str, Tuple], name) -> str:
    """Render a template, each raw uid named by ``name``.  Every slot
    stands for a string, so its text is quoted as :func:`_canon` quotes."""
    fmt, slots = template
    return fmt.format(*[
        repr(name(slot) if slot.__class__ is str
             else slot[0].format(*map(name, slot[1])))
        for slot in slots
    ])


def normalize_subgoal(subgoal: Subgoal, renamer: Optional[_UidRenamer] = None) -> str:
    """The canonical, uid-independent text of one subgoal.

    The human-readable ``description`` is deliberately excluded: rewording a
    message must not invalidate the proof.  lhs/rhs elements are renamed in
    sequence order; path facts and assumptions are first sorted by their
    uid-masked shape, then renamed — so the key depends on neither the raw
    uid counter values nor the order the facts were recorded in.

    Each fact is rendered once, into a template of static text and uid
    slots; the masked sort key and the final text both fill that template
    (a uid the renamer has not named yet masks as ``#?``).  The text is
    :func:`_canon` of the tuple ``("subgoal", kind, lhs, rhs, facts,
    assumptions, metadata)`` with every uid renamed, byte for byte.

    ``renamer`` (normally fresh) lets callers observe the raw→canonical uid
    mapping the traversal builds; :func:`subgoal_uid_map` uses it to rename
    uids embedded elsewhere (rule names) consistently.
    """
    renamer = renamer if renamer is not None else _UidRenamer()
    rename = renamer.rename
    known = renamer._map

    def masked(uid: str) -> str:
        return known.get(uid, "#?")

    lhs = ",".join([_element_text(e, rename) for e in subgoal.lhs])
    rhs = ",".join([_element_text(e, rename) for e in subgoal.rhs])

    # Sort keys are all taken before the sort names anything: the tuple
    # path's ``_canon((fact, value))``, with ``None`` for an assumption.
    path_facts = [(_template(fact), "," + _canon(value) + ")")
                  for fact, value in subgoal.path_facts]
    path_facts.sort(key=lambda entry: "(" + _fill(entry[0], masked) + entry[1])
    facts = ",".join(["(" + _fill(template, rename) + tail
                      for template, tail in path_facts])
    assumed = [_template(fact) for fact in subgoal.assumptions]
    assumed.sort(key=lambda template: "(" + _fill(template, masked) + ",None)")
    assumptions = ",".join([_fill(template, rename) for template in assumed])

    metadata = {str(key): _fill(_template(value), rename)
                for key, value in subgoal.metadata.items()}
    return ("('subgoal'," + _canon(subgoal.kind) + ",(" + lhs + "),(" + rhs
            + "),(" + facts + "),(" + assumptions + "),{"
            + ",".join([f"{key}:{text}" for key, text in sorted(metadata.items())])
            + "})")


def _normal_form(subgoal: Subgoal) -> Tuple[str, Dict[str, str]]:
    """:func:`normalize_subgoal` of ``subgoal`` and the uid map it built.

    One traversal serves both the key and the certificate renaming, and is
    memoised on the subgoal: it is immutable once enriched by the session,
    and recording and replaying certificates ask for the map again.
    """
    memo = getattr(subgoal, "_normal_form_memo", None)
    if memo is None:
        renamer = _UidRenamer()
        memo = (normalize_subgoal(subgoal, renamer), dict(renamer._map))
        subgoal._normal_form_memo = memo
    return memo


def subgoal_uid_map(subgoal: Subgoal) -> Dict[str, str]:
    """The raw→canonical uid mapping :func:`normalize_subgoal` applies.

    The mapping is a function of the subgoal's *shape*: the same obligation
    emitted in two sessions (different raw uid counters) maps each side's
    raw uids to identical canonical names.  Proof certificates and reported
    ``rules_used`` use this to record rule names (which embed raw uids) in
    session-independent form, so a certificate written today can restrict
    a replay tomorrow and a report does not depend on which process proved
    it.
    """
    return _normal_form(subgoal)[1]


def rename_rule_uids(name: str, mapping: Dict[str, str]) -> str:
    """Rename every uid token embedded in one rule name via ``mapping``.

    The one place the renaming substitution lives: certificate recording
    (:func:`canonical_rule_names`) and replay restriction
    (:func:`repro.prover.methods.congruence.discharge_with_backend`) must
    rename identically or replayed proofs drop the wrong rules.
    """
    return _RULE_UID_TOKEN.sub(
        lambda m: mapping.get(m.group(0), m.group(0)), name)


def canonical_rule_names(subgoal: Subgoal, names: Iterable[str]) -> Tuple[str, ...]:
    """Rename the uids embedded in rule names to the subgoal's canonical ids."""
    mapping = subgoal_uid_map(subgoal)
    return tuple(sorted(rename_rule_uids(name, mapping) for name in names))


def subgoal_fingerprint(subgoal: Subgoal, solver: str = DEFAULT_SOLVER) -> str:
    """Stable SHA-256 key for one proof obligation.

    ``solver`` is the resolved backend name; discharge results found by
    different backends never alias (their methods, certificates, and
    failure behaviour may differ even where verdicts must not).
    """
    return _sha256(subgoal_key_text(subgoal, solver))


def subgoal_key_text(subgoal: Subgoal, solver: str = DEFAULT_SOLVER) -> str:
    """The text :func:`subgoal_fingerprint` hashes: :func:`_canon` of
    ``(ENGINE_VERSION, toolchain_fingerprint(), solver, normal form)``."""
    return (f"({_canon(ENGINE_VERSION)},{_canon(toolchain_fingerprint())},"
            f"{_canon(solver)},{_normal_form(subgoal)[0]})")


# --------------------------------------------------------------------------- #
# Toolchain
# --------------------------------------------------------------------------- #
_toolchain_memo: Optional[str] = None


def toolchain_fingerprint() -> str:
    """Hash of everything a cached verdict depends on besides the pass.

    The content digest of the toolchain closure: every module the verifier
    or this module statically imports
    (:func:`repro.incremental.deps.covered_modules`).  Editing any of them
    — a template, the rule set, a gate definition, the prover — changes
    this hash and therefore every cache key, so a stale cached verdict can
    never mask the edit.
    """
    global _toolchain_memo
    if _toolchain_memo is None:
        from repro.incremental.deps import closure_digest

        _toolchain_memo = _sha256(
            f"engine-v{ENGINE_VERSION}\n{closure_digest(None)}")
    return _toolchain_memo


def reset_memos() -> None:
    """Forget every memoised fingerprint, file digest and source extraction.

    The toolchain hash and the module graph's digests are memoised per
    process; :func:`forget_edited` calls this when a file they read has
    changed.
    """
    global _toolchain_memo
    from repro.incremental.deps import reset_memos as reset_graph_memos
    from repro.verify import preprocessor

    _toolchain_memo = None
    reset_graph_memos()
    preprocessor._module_class_sources.cache_clear()


def forget_edited(module_names: Optional[Iterable[str]] = None) -> None:
    """:func:`reset_memos` if a source file the memos read has changed.

    One stat per file: those of ``module_names``, or every file hashed so
    far (:func:`repro.incremental.deps.files_edited`).  Each verification
    run checks every file and :func:`pass_fingerprint` its pass's module,
    so a long-lived process that edits a pass and reloads it keys the new
    text.
    """
    from repro.incremental.deps import files_edited

    if files_edited(module_names):
        reset_memos()


# --------------------------------------------------------------------------- #
# Pass-level fingerprints
# --------------------------------------------------------------------------- #
def _canon_kwarg(value):
    """Canonicalise one constructor argument for hashing.

    Coupling maps are the only structured arguments the passes take today;
    anything with an ``edges``/``num_qubits`` shape is rendered structurally,
    plain values by repr.
    """
    edges = getattr(value, "edges", None)
    num_qubits = getattr(value, "num_qubits", None)
    if edges is not None and num_qubits is not None and not callable(edges):
        return ("coupling", num_qubits, tuple(tuple(e) for e in edges))
    if isinstance(value, (tuple, list)):
        return tuple(_canon_kwarg(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _canon_kwarg(v) for k, v in value.items()}
    return repr(value)


def data_dependency_digest(pass_class) -> Tuple:
    """Content digests of the pass's declared data files, for hashing.

    Passes that read non-Python inputs (device-map files, recorded suites)
    can declare them via a ``data_dependencies`` class attribute (an
    iterable of paths).  Their *content* is folded into the pass key here,
    so editing a declared data file invalidates the cached proof exactly
    like editing the source would; a missing file hashes as absent rather
    than erroring (the verification itself will surface the problem).
    """
    declared = getattr(pass_class, "data_dependencies", None)
    if not declared:
        return ()
    digests = []
    for path in declared:
        path = os.fspath(path)
        try:
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            digest = "<missing>"
        digests.append((path, digest))
    return tuple(sorted(digests))


def pass_fingerprint(pass_class, pass_kwargs: Optional[dict] = None,
                     solver: str = DEFAULT_SOLVER,
                     data_digests: Optional[Tuple] = None) -> Optional[str]:
    """Stable SHA-256 key for verifying one pass, or ``None`` if uncacheable.

    ``solver`` joins the key: a verdict is only reusable for the backend
    that produced it (per-subgoal methods and certificates differ across
    backends even where the verdicts are required to agree).  Besides the
    class source, the key covers the pass module's other imports (by
    content digest) and the module's text outside its other pass classes,
    so module-level helpers and constants move the key while an edit
    inside a sibling pass does not.  ``data_digests`` is
    :func:`data_dependency_digest` of the class when the caller already
    read it, so a ``sources`` digest recorded beside the key covers the
    same data-file contents.
    """
    from repro.verify import preprocessor

    forget_edited((pass_class.__module__,))
    source = preprocessor.pass_source(pass_class)
    if source is None:
        return None
    from repro.incremental.deps import closure_digest

    kwargs = {
        str(key): _canon_kwarg(value)
        for key, value in (pass_kwargs or {}).items()
    }
    return _sha256(_canon((
        ENGINE_VERSION,
        toolchain_fingerprint(),
        solver,
        pass_class.__module__,
        pass_class.__qualname__,
        source,
        kwargs,
        data_dependency_digest(pass_class) if data_digests is None else data_digests,
        closure_digest(pass_class.__module__),
        _sha256(preprocessor.pass_module_text(pass_class)),
    )))
