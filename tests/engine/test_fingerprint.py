"""Fingerprint stability and invalidation semantics."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine.fingerprint import (
    data_dependency_digest,
    pass_fingerprint,
    subgoal_fingerprint,
    toolchain_fingerprint,
)
from repro.incremental.deps import sources_digest
from repro.passes import CXCancellation, RemoveBarriers
from repro.verify.session import Subgoal
from repro.verify.verifier import verify_pass

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


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
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert output[0] == toolchain_fingerprint()
    assert output[1] == pass_fingerprint(CXCancellation)


_SUITE_KEYS = textwrap.dedent(
    """
    import json

    from repro.cli import _known_passes, pass_kwargs_for
    from repro.engine.fingerprint import (
        data_dependency_digest, pass_fingerprint, toolchain_fingerprint)
    from repro.incremental.deps import sources_digest

    print(json.dumps({
        "toolchain": toolchain_fingerprint(),
        "passes": {name: pass_fingerprint(cls, pass_kwargs_for(cls))
                   for name, cls in _known_passes().items()},
        "sources": {name: sources_digest(cls.__module__, "builtin",
                                         data_dependency_digest(cls))
                    for name, cls in _known_passes().items()},
    }))
    """
)

#: The nine passes defined in ``passes/optimization.py``.
OPTIMISATION_PASSES = {
    "CXCancellation", "CommutationAnalysis", "CommutativeCancellation",
    "Optimize1qGates", "Optimize1qGatesDecomposition", "Collect2qBlocks",
    "ConsolidateBlocks", "RemoveDiagonalGatesBeforeMeasure",
    "RemoveResetInZeroState",
}


class _SourceCopy:
    """A copy of the package whose files a test may edit, keyed in a fresh
    interpreter (so the edit is read as a new process would read it)."""

    def __init__(self, root: Path) -> None:
        self.src = root / "src"
        shutil.copytree(REPO_SRC / "repro", self.src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self._edited = {}

    def keys(self) -> dict:
        env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONDONTWRITEBYTECODE="1")
        completed = subprocess.run([sys.executable, "-c", _SUITE_KEYS],
                                   capture_output=True, text=True, env=env,
                                   timeout=300)
        assert completed.returncode == 0, completed.stderr
        return json.loads(completed.stdout)

    def edited_keys(self, relative: str, old: str, new: str) -> dict:
        """Keys with one replacement applied to one file, then undone."""
        if (relative, old, new) in self._edited:
            return self._edited[relative, old, new]
        path = self.src / "repro" / relative
        original = path.read_text(encoding="utf-8")
        assert original.count(old) == 1, (relative, old)
        path.write_text(original.replace(old, new), encoding="utf-8")
        try:
            self._edited[relative, old, new] = self.keys()
        finally:
            path.write_text(original, encoding="utf-8")
        return self._edited[relative, old, new]


@pytest.fixture(scope="module")
def source_copy(tmp_path_factory):
    copy = _SourceCopy(tmp_path_factory.mktemp("keyscope"))
    copy.baseline = copy.keys()
    assert len(copy.baseline["passes"]) == 47
    return copy


def _moved(before: dict, after: dict, field: str = "passes") -> set:
    return {name for name, key in after[field].items()
            if key != before[field][name]}


#: One replacement in one file each: (file, old text, new text).
#: What perfbench's edit workload does: one comment line at the top of one
#: optimisation pass's class body.
COMMENT_IN_ONE_CLASS = ("passes/optimization.py",
                        "class ConsolidateBlocks(GeneralPass):\n",
                        "class ConsolidateBlocks(GeneralPass):\n    # an edit\n")
MODULE_LEVEL_CONSTANT = ("passes/optimization.py",
                         '_RUN_NAMES_U = ("u1", "u2", "u3")',
                         '_RUN_NAMES_U = ("u3", "u2", "u1")')
RULE_SET = ("symbolic/rules.py", "def default_circuit_rules(",
            "# an edit\ndef default_circuit_rules(")


def test_comment_in_one_pass_class_moves_only_its_key(source_copy):
    after = source_copy.edited_keys(*COMMENT_IN_ONE_CLASS)
    assert after["toolchain"] == source_copy.baseline["toolchain"]
    assert _moved(source_copy.baseline, after) == {"ConsolidateBlocks"}


def test_module_level_constant_moves_the_keys_of_its_module_passes(source_copy):
    after = source_copy.edited_keys(*MODULE_LEVEL_CONSTANT)
    assert after["toolchain"] == source_copy.baseline["toolchain"]
    assert _moved(source_copy.baseline, after) == OPTIMISATION_PASSES


def test_editing_the_rule_set_moves_the_toolchain_digest(source_copy):
    after = source_copy.edited_keys(*RULE_SET)
    assert after["toolchain"] != source_copy.baseline["toolchain"]
    # ... and with it every pass key.
    assert _moved(source_copy.baseline, after) == set(after["passes"])


@pytest.mark.parametrize("edit", [COMMENT_IN_ONE_CLASS, MODULE_LEVEL_CONSTANT, RULE_SET],
                         ids=["comment-in-one-class", "module-level-constant", "rule-set"])
def test_a_pass_key_never_moves_without_its_sources(source_copy, edit):
    # A warm run serves each entry through its recorded key while its
    # sources digest holds, so no edit may move a key but not its sources.
    # The converse is allowed: a comment in ConsolidateBlocks moves the
    # sources of all nine optimisation passes.
    after = source_copy.edited_keys(*edit)
    keys = _moved(source_copy.baseline, after)
    assert keys
    assert keys <= _moved(source_copy.baseline, after, "sources")


def _sources(pass_class):
    return sources_digest(pass_class.__module__, "builtin",
                          data_dependency_digest(pass_class))


def test_a_data_file_edit_moves_key_and_sources_together(tmp_path):
    data = tmp_path / "table.dat"
    data.write_text("v1")

    class DataPass(RemoveBarriers):
        data_dependencies = (str(data),)

    before = (pass_fingerprint(DataPass), _sources(DataPass))
    data.write_text("v2")
    after = (pass_fingerprint(DataPass), _sources(DataPass))
    assert before[0] != after[0] and before[1] != after[1]
    # The key reads the data digests its caller passes, as the driver
    # passes the ones it recorded in the sources.
    assert pass_fingerprint(DataPass, data_digests=data_dependency_digest(DataPass)) == after[0]


_PROVER_MODULES_AFTER_COLD_VERIFY = textwrap.dedent(
    """
    import contextlib
    import io
    import json
    import sys

    import repro.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(["verify", "--all", "--cache-dir", sys.argv[1]])

    from repro.engine.cache import read_deps_sidecar
    from repro.incremental.deps import covered_modules, entry_watch_paths
    from repro.incremental.detect import normalize_path

    loaded = sorted(
        name for name, module in list(sys.modules.items())
        if (name.startswith(("repro.smt.", "repro.prover."))
            and not hasattr(module, "__path__"))
        or name == "repro.verify.discharge"
    )
    toolchain = covered_modules(None)
    entries = read_deps_sidecar(sys.argv[1]).values()
    print(json.dumps({
        "code": code,
        "entries": len(entries),
        "loaded": loaded,
        "unhashed": [name for name in loaded if name not in toolchain],
        "unwatched": sorted(
            name for name in loaded for entry in entries
            if normalize_path(sys.modules[name].__file__)
            not in entry_watch_paths(entry)
        ),
    }))
    """
)


def test_toolchain_covers_every_prover_module_a_verification_loads(tmp_path):
    """Editing any module the prover runs must move every cache key, and
    every dependency entry must watch its file; otherwise a warm store
    serves verdicts the edited prover would no longer reach."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _PROVER_MODULES_AFTER_COLD_VERIFY,
         str(tmp_path / "cache")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout)
    assert outcome["code"] == 0
    assert outcome["entries"] == 47
    assert {"repro.smt.congruence", "repro.smt.terms", "repro.prover.builtin",
            "repro.verify.discharge"} <= set(outcome["loaded"])
    assert outcome["unhashed"] == []
    assert outcome["unwatched"] == []


def test_a_cold_run_normalises_each_subgoal_once(tmp_path, monkeypatch):
    import repro.engine.fingerprint as fingerprint
    from repro.cli import _known_passes, pass_kwargs_for
    from repro.engine import verify_passes

    calls = []
    original = fingerprint.normalize_subgoal

    def counting(subgoal, renamer=None):
        calls.append(subgoal)
        return original(subgoal, renamer)

    monkeypatch.setattr(fingerprint, "normalize_subgoal", counting)
    report = verify_passes(list(_known_passes().values()), cache_dir=tmp_path,
                           pass_kwargs_fn=pass_kwargs_for)
    assert report.stats.cache_misses == 47
    assert sum(result.num_subgoals for result in report.results) == 223
    assert len(calls) == 223
