"""Fingerprint stability and invalidation semantics."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
import types

from repro.engine.fingerprint import (
    pass_fingerprint,
    rule_set_fingerprint,
    subgoal_fingerprint,
    toolchain_fingerprint,
    toolchain_modules,
)
from repro.passes import CXCancellation, RemoveBarriers
from repro.verify.session import Subgoal
from repro.verify.verifier import verify_pass


def _collect_subgoals(pass_class, pass_kwargs=None):
    """Run the symbolic executor and return every subgoal it emits."""
    goals = []

    def recording_discharge(subgoal):
        goals.append(subgoal)
        from repro.verify.discharge import discharge

        return discharge(subgoal)

    verify_pass(pass_class, pass_kwargs=pass_kwargs,
                counterexample_search=False, discharge_fn=recording_discharge)
    return goals


def test_subgoal_fingerprints_stable_across_reruns():
    # Two independent verifications mint fresh symbolic uids from a global
    # counter; canonicalisation must erase the offset.
    first = [subgoal_fingerprint(g) for g in _collect_subgoals(CXCancellation)]
    second = [subgoal_fingerprint(g) for g in _collect_subgoals(CXCancellation)]
    assert first == second
    assert len(first) > 0


def test_subgoal_fingerprints_distinguish_passes():
    cx = {subgoal_fingerprint(g) for g in _collect_subgoals(CXCancellation)}
    rb = {subgoal_fingerprint(g) for g in _collect_subgoals(RemoveBarriers)}
    assert cx != rb


def test_subgoal_fingerprint_ignores_fact_order():
    from repro.verify.facts import Fact

    facts = (
        (Fact("is_cx", ("g10",)), True),
        (Fact("same_qubits", ("g10", "g11")), True),
        (Fact("is_barrier", ("g12",)), False),
    )
    a = Subgoal(kind="equivalence", description="d", path_facts=facts)
    b = Subgoal(kind="equivalence", description="d", path_facts=facts[::-1])
    assert subgoal_fingerprint(a) == subgoal_fingerprint(b)
    # ... but the fact *content* still matters.
    c = Subgoal(kind="equivalence", description="d", path_facts=facts[:2])
    assert subgoal_fingerprint(a) != subgoal_fingerprint(c)


def test_subgoal_fingerprint_ignores_order_of_same_shape_facts():
    # Two facts with identical predicate shapes over *different* lhs gates:
    # the sort must key on the gates' canonical (lhs-position) names, not
    # on the order the facts were recorded.
    from repro.verify.facts import Fact
    from repro.verify.symvalues import SymGate

    g10, g12 = SymGate(None, uid="g10"), SymGate(None, uid="g12")
    facts = ((Fact("is_cx", ("g10",)), True), (Fact("is_cx", ("g12",)), True))
    a = Subgoal(kind="equivalence", description="d", lhs=(g10, g12), path_facts=facts)
    b = Subgoal(kind="equivalence", description="d", lhs=(g10, g12),
                path_facts=facts[::-1])
    assert subgoal_fingerprint(a) == subgoal_fingerprint(b)
    # Facts attached to different gates stay distinguishable.
    c = Subgoal(kind="equivalence", description="d", lhs=(g10, g12),
                path_facts=((Fact("is_cx", ("g10",)), True),
                            (Fact("is_cx", ("g10",)), True)))
    assert subgoal_fingerprint(a) != subgoal_fingerprint(c)


def test_subgoal_fingerprint_ignores_description():
    a = Subgoal(kind="equivalence", description="one wording", lhs=(), rhs=())
    b = Subgoal(kind="equivalence", description="another wording", lhs=(), rhs=())
    assert subgoal_fingerprint(a) == subgoal_fingerprint(b)


def test_pass_fingerprint_depends_on_kwargs():
    from repro.coupling.devices import linear_device

    base = pass_fingerprint(CXCancellation)
    assert base == pass_fingerprint(CXCancellation)
    from repro.passes import BasicSwap

    small = pass_fingerprint(BasicSwap, {"coupling": linear_device(3)})
    large = pass_fingerprint(BasicSwap, {"coupling": linear_device(5)})
    assert small != large


def test_pass_fingerprint_uncacheable_for_dynamic_classes():
    namespace = {}
    exec("class Dynamic:\n    def run(self, c):\n        return c\n", namespace)
    assert pass_fingerprint(namespace["Dynamic"]) is None


def test_editing_pass_source_invalidates(tmp_path):
    module_dir = tmp_path / "fp_mod"
    module_dir.mkdir()
    module_file = module_dir / "edited_pass_module.py"
    template = textwrap.dedent(
        """
        class EditedPass:
            pass_type = "general"

            def run(self, circuit):
                return {body}
        """
    )
    module_file.write_text(template.format(body="circuit"))
    sys.path.insert(0, str(module_dir))
    try:
        module = importlib.import_module("edited_pass_module")
        before = pass_fingerprint(module.EditedPass)
        module_file.write_text(template.format(body="circuit.copy()"))
        os.utime(module_file)  # make sure the stamp moves even on coarse clocks
        importlib.reload(module)
        after = pass_fingerprint(module.EditedPass)
    finally:
        sys.path.remove(str(module_dir))
        sys.modules.pop("edited_pass_module", None)
    assert before is not None and after is not None
    assert before != after


def test_fingerprints_stable_across_processes():
    code = textwrap.dedent(
        """
        from repro.engine.fingerprint import pass_fingerprint, toolchain_fingerprint
        from repro.passes import CXCancellation
        print(toolchain_fingerprint())
        print(pass_fingerprint(CXCancellation))
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert output[0] == toolchain_fingerprint()
    assert output[1] == pass_fingerprint(CXCancellation)


def test_rule_set_fingerprint_changes_with_rules(monkeypatch):
    before = rule_set_fingerprint()
    import repro.engine.fingerprint as fp
    import repro.symbolic.rules as rules_module

    original = rules_module.default_circuit_rules

    def smaller_rule_set():
        return original()[:-1]

    monkeypatch.setattr(rules_module, "default_circuit_rules", smaller_rule_set)
    monkeypatch.setattr(fp, "_rule_set_memo", None)
    monkeypatch.setattr(fp, "_toolchain_memo", None)
    after = rule_set_fingerprint()
    assert before != after
    # And the toolchain (hence every cache key) moves with it.
    assert toolchain_fingerprint() != before


def test_toolchain_entries_are_modules():
    """A package attribute that shadows a submodule (``repro.verify``
    re-exports the ``discharge`` function) must not stand in for it."""
    entries = toolchain_modules()
    assert all(isinstance(entry, types.ModuleType) for entry in entries)
    assert "repro.verify.discharge" in {entry.__name__ for entry in entries}


_PROVER_MODULES_AFTER_COLD_VERIFY = textwrap.dedent(
    """
    import contextlib
    import io
    import json
    import sys

    import repro.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(["verify", "--all", "--cache-dir", sys.argv[1]])

    from repro.engine.fingerprint import toolchain_modules
    from repro.incremental.deps import toolchain_dependency_paths
    from repro.incremental.detect import normalize_path

    loaded = sorted(
        name for name, module in list(sys.modules.items())
        if (name.startswith(("repro.smt.", "repro.prover."))
            and not hasattr(module, "__path__"))
        or name == "repro.verify.discharge"
    )
    hashed = {module.__name__ for module in toolchain_modules()}
    paths = set(toolchain_dependency_paths())
    print(json.dumps({
        "code": code,
        "loaded": loaded,
        "unhashed": [name for name in loaded if name not in hashed],
        "untracked": [
            name for name in loaded
            if normalize_path(sys.modules[name].__file__) not in paths
        ],
    }))
    """
)


def test_toolchain_covers_every_prover_module_a_verification_loads(tmp_path):
    """Editing any module the prover runs must move every cache key, and
    the dependency index must watch its file; otherwise a warm store serves
    verdicts the edited prover would no longer reach."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _PROVER_MODULES_AFTER_COLD_VERIFY,
         str(tmp_path / "cache")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout)
    assert outcome["code"] == 0
    assert {"repro.smt.congruence", "repro.smt.terms",
            "repro.prover.builtin", "repro.verify.discharge"} <= set(outcome["loaded"])
    assert outcome["unhashed"] == []
    assert outcome["untracked"] == []
