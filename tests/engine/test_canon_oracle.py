"""The rendered subgoal keys equal the tuple canonicaliser's, byte for byte.

:mod:`tests.engine.canon_oracle` keeps the tuple path the engine used to
run.  Every subgoal of a cold ``verify --all`` and of the three buggy
passes, and random subgoals, must give the same pre-hash text and the same
raw→canonical uid map under both.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.driver as driver
from repro.circuit.gate import Gate
from repro.cli import _known_passes, pass_kwargs_for
from repro.coupling.devices import linear_device
from repro.engine import verify_passes
from repro.engine.fingerprint import (
    _UidRenamer,
    normalize_subgoal,
    subgoal_fingerprint,
    subgoal_key_text,
    subgoal_uid_map,
    toolchain_fingerprint,
)
from repro.passes.buggy import (
    BuggyCommutativeCancellation,
    BuggyLookaheadSwap,
    BuggyOptimize1qGates,
)
from repro.verify.facts import Fact
from repro.verify.session import Subgoal
from repro.verify.symvalues import Segment, SymGate
from tests.engine import canon_oracle


def _keyed_subgoals(monkeypatch, passes, cache_dir, pass_kwargs_fn):
    """Every subgoal the engine keys while verifying ``passes`` cold."""
    keyed = []
    original = driver.subgoal_fingerprint

    def recording(subgoal, solver="builtin"):
        keyed.append((subgoal, solver))
        return original(subgoal, solver=solver)

    monkeypatch.setattr(driver, "subgoal_fingerprint", recording)
    verify_passes(passes, cache_dir=cache_dir, pass_kwargs_fn=pass_kwargs_fn,
                  counterexample_search=False)
    return keyed


def _assert_oracle_agrees(keyed):
    toolchain = toolchain_fingerprint()
    for subgoal, solver in keyed:
        text, uid_map = canon_oracle.key_text(subgoal, toolchain, solver)
        assert subgoal_key_text(subgoal, solver) == text
        assert subgoal_uid_map(subgoal) == uid_map
        assert subgoal_fingerprint(subgoal, solver) == hashlib.sha256(
            text.encode("utf-8")).hexdigest()


def test_every_cold_suite_subgoal_keys_as_the_oracle_does(tmp_path, monkeypatch):
    keyed = _keyed_subgoals(monkeypatch, list(_known_passes().values()),
                            tmp_path, pass_kwargs_for)
    assert len(keyed) == 223
    _assert_oracle_agrees(keyed)


def test_every_buggy_pass_subgoal_keys_as_the_oracle_does(tmp_path, monkeypatch):
    def kwargs(pass_class):
        if pass_class is BuggyLookaheadSwap:
            return {"coupling": linear_device(5)}
        return None

    keyed = _keyed_subgoals(
        monkeypatch,
        [BuggyOptimize1qGates, BuggyCommutativeCancellation, BuggyLookaheadSwap],
        tmp_path, kwargs)
    assert keyed
    _assert_oracle_agrees(keyed)


# --------------------------------------------------------------------------- #
# Random subgoals
# --------------------------------------------------------------------------- #
#: A small pool, so elements, facts and metadata share uids.
_UIDS = ("g1", "g7", "g12", "seg3", "seg12", "int3", "idx4", "circ5")

_uid = st.sampled_from(_UIDS)
_sym = st.one_of(
    st.builds(lambda uid: SymGate(None, uid=uid), st.sampled_from(_UIDS[:3])),
    st.builds(lambda uid: Segment(None, uid=uid), st.sampled_from(_UIDS[3:5])),
)
#: Plain names, one-token strings, and strings with tokens embedded where
#: word boundaries do and do not fall, beside quotes, braces and escapes.
_string = st.one_of(
    _uid,
    st.sampled_from([
        "cx", "h", "(int3+1)", "(g7*seg12)", "nq_g7", "size_circ5_2", "g7_g12",
        "a g7 b g1", "it's g7", '"g12"', "{g7}", "{}", "seg12-g7", "g7\\n",
        "xg7", "g7x", "",
    ]),
    st.text(alphabet="gsentidxcr0123456789()+_ '{}\"\\", max_size=12),
)
_gate = st.builds(
    lambda name, qubits, params, condition: Gate(name, qubits, params,
                                                 condition=condition),
    st.sampled_from(["cx", "h", "rz", "u3"]),
    st.lists(st.integers(0, 4), min_size=1, max_size=2, unique=True),
    st.lists(st.floats(-7, 7, allow_nan=False), max_size=3),
    st.one_of(st.none(), st.tuples(st.integers(0, 1), st.integers(0, 1))),
)
_scalar = st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
                    st.floats(-2, 2, allow_nan=False))
_arg = st.recursive(
    st.one_of(_string, _sym, _gate, _scalar),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=2),
        st.builds(Fact, st.sampled_from(["is_cx", "same_qubits"]),
                  st.lists(inner, max_size=2).map(tuple)),
    ),
    max_leaves=6,
)
#: Few kinds over few uids: many facts share a shape and differ in uids.
_fact = st.builds(
    Fact,
    st.sampled_from(["is_cx", "same_qubits", "commutes", "name_is",
                     "segment_commutes_with"]),
    st.one_of(st.lists(_uid, min_size=1, max_size=2).map(tuple),
              st.lists(_arg, max_size=3).map(tuple)),
)
_element = st.one_of(_sym, _gate, st.integers(0, 3))
_subgoal = st.builds(
    Subgoal,
    kind=st.sampled_from(["equivalence", "unchanged"]),
    description=st.just("d"),
    lhs=st.lists(_element, max_size=4).map(tuple),
    rhs=st.lists(_element, max_size=4).map(tuple),
    path_facts=st.lists(st.tuples(_fact, st.booleans()), max_size=8).map(tuple),
    assumptions=st.lists(_fact, max_size=5).map(tuple),
    metadata=st.dictionaries(st.one_of(st.sampled_from(["a", "b", "1"]),
                                       st.integers(0, 2)),
                             _arg, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_subgoal)
def test_random_subgoals_render_as_the_oracle_does(subgoal):
    rendered, reference = _UidRenamer(), _UidRenamer()
    text = normalize_subgoal(subgoal, rendered)
    assert text == canon_oracle._canon(canon_oracle.normalize_subgoal(subgoal, reference))
    assert rendered._map == reference._map


# --------------------------------------------------------------------------- #
# Minted composite uids
# --------------------------------------------------------------------------- #
def test_uids_inside_minted_composites_are_renamed():
    renamer = _UidRenamer()
    assert [renamer.rename_embedded(text) for text in
            ("size_circ7_2", "nq_g7", "(int3+1)", "g5", "xg7", "g7x")] == [
        "size_circ#0_2", "nq_g#1", "(int#2+1)", "g#3", "xg7", "g7x"]


#: Each value below is drawn as a function of ``name``, which spells a pool
#: uid as one run's counter minted it, so one draw builds the same subgoal
#: as two runs would.  Composites are minted as :mod:`repro.verify.symvalues`
#: mints them: a gate's or circuit's qubit and clbit counts, a circuit's
#: size, and integer arithmetic, nested.
_minted = st.recursive(
    _uid.map(lambda uid: lambda name: name(uid)),
    lambda inner: st.one_of(
        st.builds(lambda template, part: lambda name: template.format(part(name)),
                  st.sampled_from(["nq_{}", "nc_{}", "size_{}_2", "({}+1)"]),
                  inner),
        st.builds(lambda left, right: lambda name: f"({left(name)}-{right(name)})",
                  inner, inner),
    ),
    max_leaves=3,
)
_minted_sym = st.one_of(
    st.sampled_from(_UIDS[:3]).map(
        lambda uid: lambda name: SymGate(None, uid=name(uid))),
    st.sampled_from(_UIDS[3:5]).map(
        lambda uid: lambda name: Segment(None, uid=name(uid))),
)
_constant = st.one_of(_gate, _scalar, st.sampled_from(["cx", "h", ""])).map(
    lambda value: lambda name: value)
_minted_arg = st.one_of(_minted, _minted_sym, _constant)
_minted_fact = st.builds(
    lambda kind, args: lambda name: Fact(kind, tuple(arg(name) for arg in args)),
    st.sampled_from(["is_cx", "same_qubits", "int_eq", "int_lt"]),
    st.lists(_minted_arg, min_size=1, max_size=3),
)
_minted_subgoal = st.builds(
    lambda kind, lhs, rhs, path_facts, assumptions, metadata: lambda name: Subgoal(
        kind=kind, description="d",
        lhs=tuple(element(name) for element in lhs),
        rhs=tuple(element(name) for element in rhs),
        path_facts=tuple((fact(name), value) for fact, value in path_facts),
        assumptions=tuple(fact(name) for fact in assumptions),
        metadata={key: value(name) for key, value in metadata.items()}),
    st.sampled_from(["equivalence", "unchanged"]),
    st.lists(st.one_of(_minted_sym, _constant), max_size=3),
    st.lists(st.one_of(_minted_sym, _constant), max_size=3),
    st.lists(st.tuples(_minted_fact, st.booleans()), max_size=6),
    st.lists(_minted_fact, max_size=4),
    st.dictionaries(st.sampled_from(["a", "b"]), _minted_arg, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(_minted_subgoal,
       st.lists(st.integers(0, 9999), min_size=len(_UIDS), max_size=len(_UIDS),
                unique=True))
def test_subgoals_that_differ_only_in_uid_counters_get_one_key(build, counters):
    """Another process mints the same uids from other counter values; the
    key, the uid map's canonical side, and the oracle's text agree."""
    recounted = {uid: uid.rstrip("0123456789") + str(counter)
                 for uid, counter in zip(_UIDS, counters)}
    first, second = build(lambda uid: uid), build(recounted.__getitem__)
    assert subgoal_fingerprint(first) == subgoal_fingerprint(second)
    assert sorted(subgoal_uid_map(first).values()) == sorted(
        subgoal_uid_map(second).values())
    for subgoal in (first, second):
        rendered, reference = _UidRenamer(), _UidRenamer()
        text = normalize_subgoal(subgoal, rendered)
        assert text == canon_oracle._canon(
            canon_oracle.normalize_subgoal(subgoal, reference))
        assert rendered._map == reference._map
