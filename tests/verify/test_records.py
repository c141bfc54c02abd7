"""The record classes a verification builds are plain classes.

They keep what their callers observe: each mutable default is a fresh
object per instance, the value types compare and hash by their fields and
refuse assignment, and a subgoal carries the normal form that
fingerprinting memoises on it.
"""

import pytest

from repro.circuit.gate import Gate
from repro.circuit.gates import GateSpec
from repro.engine.driver import EngineReport, SubgoalAccounting
from repro.engine.fingerprint import subgoal_fingerprint
from repro.incremental.detect import FileState
from repro.incremental.watch import WatchCycle
from repro.linalg.quaternion import Quaternion
from repro.prover.certificate import ProofCertificate
from repro.symbolic.rules import CircuitRule
from repro.verify.facts import Fact
from repro.verify.report import ReportSummary
from repro.verify.results import CounterExample, VerificationResult
from repro.verify.session import Subgoal


@pytest.mark.parametrize("make, attributes", [
    (lambda: CounterExample("semantics", "wrong output"), ("details",)),
    (lambda: VerificationResult("P", True, True, None),
     ("subgoals", "failure_reasons")),
    (lambda: Subgoal("equivalence", "lhs == rhs"), ("metadata",)),
    (ReportSummary, ("counterexamples",)),
    (SubgoalAccounting, ("new_subgoals", "new_certificates", "hit_keys")),
    (EngineReport, ("results",)),
    (lambda: WatchCycle(0), ("results",)),
], ids=["CounterExample", "VerificationResult", "Subgoal", "ReportSummary",
        "SubgoalAccounting", "EngineReport", "WatchCycle"])
def test_each_instance_gets_its_own_containers(make, attributes):
    first, second = make(), make()
    for name in attributes:
        mine, theirs = getattr(first, name), getattr(second, name)
        assert mine == type(mine)() and mine is not theirs
        if isinstance(mine, list):
            mine.append("x")
        else:
            mine["x"] = 1
        assert theirs == type(theirs)()


def test_each_engine_report_gets_its_own_stats():
    first, second = EngineReport(), EngineReport()
    assert first.stats is not second.stats
    first.stats.cache_hits = 3
    assert second.stats.cache_hits == 0


def _matrix(params):
    return None


#: One instance's constructor arguments per value type, in field order.
VALUE_TYPES = {
    Fact: {"kind": "same_qubits", "args": ("g1", "g2")},
    GateSpec: {"name": "h", "num_qubits": 1, "num_params": 0,
               "matrix": _matrix, "self_inverse": True, "diagonal": False,
               "inverse_name": None, "inverse_param_negate": False,
               "aliases": ("hadamard",), "basis_decomposition": None},
    Quaternion: {"w": 1.0, "x": 0.0, "y": 0.5, "z": -0.5},
    FileState: {"mtime_ns": 1, "size": 2, "sha256": "ab"},
    CircuitRule: {"name": "h_cancel", "kind": "cancellation",
                  "lhs": (Gate("h", (0,)), Gate("h", (0,))), "rhs": (),
                  "num_qubits": 1, "description": "H is self-inverse"},
    ProofCertificate: {"proved": True, "method": "congruence closure",
                       "backend": "builtin", "rules_fired": ("cx_cancel",),
                       "instantiations": 2, "wall_seconds": 0.5,
                       "reason": ""},
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_types_compare_and_hash_by_their_fields(cls):
    fields = VALUE_TYPES[cls]
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())
    assert by_keyword == by_position and by_keyword is not by_position
    assert hash(by_keyword) == hash(by_position) == hash(tuple(fields.values()))
    assert by_keyword != tuple(fields.values())
    assert len({by_keyword, by_position}) == 1
    for name in fields:
        assert cls(**dict(fields, **{name: object()})) != by_keyword, name


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_types_refuse_assignment(cls):
    fields = VALUE_TYPES[cls]
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is fields[name]
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


def test_a_subgoal_carries_its_normal_form_memo():
    subgoal = Subgoal("equivalence", "h h == id",
                      lhs=(Gate("h", (0,)), Gate("h", (0,))), rhs=())
    key = subgoal_fingerprint(subgoal)
    memo = subgoal._normal_form_memo
    assert memo is not None
    assert subgoal_fingerprint(subgoal) == key
    assert subgoal._normal_form_memo is memo

