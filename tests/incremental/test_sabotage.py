"""A stored verdict must follow an edit to any code the verifier runs.

The regression: ``circuit/gates.is_self_inverse`` is read by the symbolic
executor but was outside the hand-kept toolchain list, so after making it
return ``False`` a warm store and ``--changed`` both still served 47/47
while a fresh run rejected three passes.  The watcher had the same hole
for longer: it reloaded ``gates.py`` in place, but the symbolic executor
kept the ``is_self_inverse`` it had imported first, so the watch cycle
stored 47/47 under the edited file's keys.  Run on a copy of the package,
in fresh interpreters.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Tuple

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
#: A file no dependency entry watches.
README = REPO_SRC.parent / "README.md"

SELF_INVERSE_BODY = "    return is_known_gate(name) and gate_spec(name).self_inverse\n"

#: The passes whose proofs rely on self-inverse gates cancelling.
NEED_SELF_INVERSE = ["CXCancellation", "ConsolidateBlocks", "SwapCancellation"]


def _verify(src: Path, cache: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "verify", "--all", "--format", "json",
         "--cache-dir", str(cache), *extra],
        capture_output=True, text=True, env=env, timeout=300,
    )
    report = json.loads(completed.stdout)
    assert completed.returncode == (0 if report["summary"]["all_verified"] else 1), \
        completed.stderr
    return report


def test_stored_verdicts_follow_an_edit_to_the_gate_library(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(REPO_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cold_store = tmp_path / "cold"
    cold = _verify(src, cold_store)
    assert cold["summary"]["verified"] == 47

    gates = src / "repro" / "circuit" / "gates.py"
    text = gates.read_text(encoding="utf-8")
    assert text.count(SELF_INVERSE_BODY) == 1
    gates.write_text(text.replace(SELF_INVERSE_BODY, "    return False\n"),
                     encoding="utf-8")
    Path(importlib.util.cache_from_source(str(gates))).unlink(missing_ok=True)

    reports = {"fresh": _verify(src, tmp_path / "unused", "--no-cache")}
    # Each store-backed run starts from its own copy of the pre-edit store.
    # The last one lists only a file nothing watches: the moved sources
    # digests still re-check every pass, one miss each.
    for name, extra in (("warm", ()), ("changed", ("--changed", str(gates))),
                        ("unlisted", ("--changed", str(README)))):
        store = tmp_path / name
        shutil.copytree(cold_store, store)
        reports[name] = _verify(src, store, *extra)
        assert reports[name]["engine"]["cache_misses"] == 47, name
    assert reports["changed"]["engine"]["stale_passes"] == 47
    assert reports["unlisted"]["engine"]["stale_passes"] == 47
    for name, report in reports.items():
        rejected = sorted(row["pass"] for row in report["results"]
                          if not row["verified"])
        assert rejected == NEED_SELF_INVERSE, name
        assert report["summary"]["verified"] == 44, name


#: CXCancellation's match; the second occurrence is another pass's.
CX_MATCH = "other.is_cx_gate() and other.qubits == gate.qubits"


def test_changed_serves_no_verdict_for_an_edit_it_does_not_list(tmp_path):
    """``--changed`` names what its caller saw change.  A list that misses
    an edit must not serve the pre-edit verdict: every entry whose sources
    digest moved is re-checked, so the run equals ``--no-cache``."""
    src = tmp_path / "src"
    shutil.copytree(REPO_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    store = tmp_path / "store"
    assert _verify(src, store)["summary"]["verified"] == 47

    optimization = src / "repro" / "passes" / "optimization.py"
    text = optimization.read_text(encoding="utf-8")
    assert text.count(CX_MATCH) == 2
    optimization.write_text(text.replace(CX_MATCH, "other.is_cx_gate()", 1),
                            encoding="utf-8")
    Path(importlib.util.cache_from_source(str(optimization))).unlink(missing_ok=True)

    changed = _verify(src, store, "--changed", str(README))
    fresh = _verify(src, tmp_path / "unused", "--no-cache")
    verdicts = lambda report: [(row["pass"], row["verified"])
                               for row in report["results"]]
    assert verdicts(changed) == verdicts(fresh)
    assert changed["summary"]["verified"] == fresh["summary"]["verified"] == 46
    # The module's nine passes are re-checked; only the edited one misses.
    engine = changed["engine"]
    assert (engine["stale_passes"], engine["cache_hits"],
            engine["cache_misses"]) == (9, 46, 1)


_WATCH_THE_EDIT = textwrap.dedent(
    """
    import json
    import sys

    from repro.cli import pass_kwargs_for
    from repro.incremental.watch import Watcher
    from repro.passes import pass_registry

    gates, store, body = sys.argv[1:]
    watcher = Watcher(list(pass_registry().values()), cache_dir=store,
                      pass_kwargs_fn=pass_kwargs_for)
    baseline = watcher.run_cycle()
    heavy = ("repro.verify.verifier", "repro.verify.discharge",
             "repro.prover.methods", "repro.engine.scheduler")
    loaded = [name for name in heavy if name in sys.modules]

    with open(gates, encoding="utf-8") as handle:
        text = handle.read()
    with open(gates, "w", encoding="utf-8") as handle:
        handle.write(text.replace(body, "    return False\\n"))
    cycle = watcher.run_cycle()
    print(json.dumps({
        "baseline": sum(result.verified for result in baseline.results),
        "loaded": loaded,
        "verified": sum(result.verified for result in cycle.results),
        "total": len(cycle.results),
        "stale": cycle.stats.stale_passes,
    }))
    """
)


def test_a_watch_cycle_proves_the_edited_gate_library(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(REPO_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    gates = src / "repro" / "circuit" / "gates.py"
    assert gates.read_text(encoding="utf-8").count(SELF_INVERSE_BODY) == 1
    store = tmp_path / "store"
    completed = subprocess.run(
        [sys.executable, "-c", _WATCH_THE_EDIT, str(gates), str(store),
         SELF_INVERSE_BODY],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert completed.returncode == 0, completed.stderr
    # The watcher process loads neither the verifier nor the prover.
    assert json.loads(completed.stdout) == {
        "baseline": 47, "loaded": [], "verified": 44, "total": 47, "stale": 47}

    warm = _verify(src, store)
    fresh = _verify(src, tmp_path / "unused", "--no-cache")
    assert (warm["engine"]["cache_hits"], warm["engine"]["cache_misses"]) == (47, 0)
    verdicts = lambda report: [(row["pass"], row["verified"])
                               for row in report["results"]]
    assert verdicts(warm) == verdicts(fresh)
    assert warm["summary"]["verified"] == 44


# --------------------------------------------------------------------------- #
# A user's pass package
# --------------------------------------------------------------------------- #
#: A user's CX-cancellation pass; the helper it imports decides whether
#: two CX gates act on the same qubits.
_USER_PASS = textwrap.dedent(
    """
    from repro.utility.circuit_ops import next_gate
    from repro.verify.passes import GeneralPass
    from repro.verify.templates import while_gate_remaining

    from {helper} import same_target


    class UserCXCancellation(GeneralPass):
        def run(self, circuit):
            def body(output, remain):
                gate = remain[0]
                if gate.is_cx_gate():
                    partner = next_gate(remain, 0)
                    if partner is not None:
                        other = remain[partner]
                        if other.is_cx_gate() and same_target(gate, other):
                            remain.delete(partner)
                            remain.delete(0)
                            return
                output.append(gate)
                remain.delete(0)

            return while_gate_remaining(circuit, body)
    """
)
_HELPER = "def same_target(gate, other):\n    return other.qubits == gate.qubits\n"
#: The edit: every later CX cancels the first, so the pass is unsound.
_EDITED_HELPER = "def same_target(gate, other):\n    return True\n"

#: Verify the user's pass in this fresh process: through ``verify_passes``
#: on the store (``cached``) or without it (``fresh``), or through a
#: ``Watcher`` that runs its baseline cycle, writes the edited helper and
#: runs one more cycle (``watch``).
_VERIFY_USER_PASS = textwrap.dedent(
    """
    import importlib
    import json
    import sys

    root, module, store, mode, helper, edited = sys.argv[1:]
    sys.path.insert(0, root)
    pass_class = importlib.import_module(module).UserCXCancellation
    if mode == "watch":
        from repro.incremental.watch import Watcher

        watcher = Watcher([pass_class], cache_dir=store)
        baseline = watcher.run_cycle()
        with open(helper, "w", encoding="utf-8") as handle:
            handle.write(edited)
        cycle = watcher.run_cycle()
        print(json.dumps({"baseline": [r.verified for r in baseline.results],
                          "verified": [r.verified for r in cycle.results]}))
    else:
        from repro.engine import verify_passes

        report = verify_passes([pass_class], cache_dir=store,
                               use_cache=mode == "cached")
        print(json.dumps({"verified": [r.verified for r in report.results],
                          "misses": report.stats.cache_misses}))
    """
)


def _write_user_pass(root: Path, packaged: bool) -> Tuple[str, Path]:
    """The pass module's name and its helper's path: ``mypkg.passes`` with
    ``mypkg/helper.py``, or a top-level ``user_pass`` beside ``helper2.py``."""
    if packaged:
        (root / "mypkg").mkdir(parents=True)
        (root / "mypkg" / "__init__.py").write_text("", encoding="utf-8")
        (root / "mypkg" / "passes.py").write_text(
            _USER_PASS.format(helper="mypkg.helper"), encoding="utf-8")
        helper = root / "mypkg" / "helper.py"
        module = "mypkg.passes"
    else:
        root.mkdir(parents=True)
        (root / "user_pass.py").write_text(
            _USER_PASS.format(helper="helper2"), encoding="utf-8")
        helper = root / "helper2.py"
        module = "user_pass"
    helper.write_text(_HELPER, encoding="utf-8")
    return module, helper


def _run_user_pass(root: Path, module: str, store: Path, mode: str,
                   helper: Path) -> dict:
    # No bytecode is written: a helper edited within one mtime tick could
    # otherwise be imported from its stale .pyc.
    completed = subprocess.run(
        [sys.executable, "-c", _VERIFY_USER_PASS, str(root), module, str(store),
         mode, str(helper), _EDITED_HELPER],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(REPO_SRC), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize("packaged", [True, False], ids=["package", "sibling"])
def test_stored_verdicts_follow_an_edit_to_a_user_helper(tmp_path, packaged):
    """A helper that a user's pass imports is keyed and watched like a
    ``repro`` module: once it is edited, the store serves what a run
    without it reports, through ``verify_passes`` and through a watch
    cycle."""
    root = tmp_path / "user"
    module, helper = _write_user_pass(root, packaged)
    store = tmp_path / "store"
    run = lambda mode, store=store: _run_user_pass(root, module, store, mode, helper)
    assert run("cached") == {"verified": [True], "misses": 1}
    assert run("cached") == {"verified": [True], "misses": 0}

    helper.write_text(_EDITED_HELPER, encoding="utf-8")
    fresh = run("fresh", store=tmp_path / "unused")
    assert fresh["verified"] == [False]
    assert run("cached") == {"verified": fresh["verified"], "misses": 1}

    helper.write_text(_HELPER, encoding="utf-8")
    watched = run("watch", store=tmp_path / "watch-store")
    assert watched == {"baseline": [True], "verified": fresh["verified"]}
