"""A stored verdict must follow an edit to any code the verifier runs.

The regression: ``circuit/gates.is_self_inverse`` is read by the symbolic
executor but was outside the hand-kept toolchain list, so after making it
return ``False`` a warm store and ``--changed`` both still served 47/47
while a fresh run rejected three passes.  Run on a copy of the package, in
fresh interpreters.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

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
    for name, extra in (("warm", ()), ("changed", ("--changed", str(gates)))):
        store = tmp_path / name
        shutil.copytree(cold_store, store)
        reports[name] = _verify(src, store, *extra)
    assert reports["changed"]["engine"]["stale_passes"] == 47
    for name, report in reports.items():
        rejected = sorted(row["pass"] for row in report["results"]
                          if not row["verified"])
        assert rejected == NEED_SELF_INVERSE, name
        assert report["summary"]["verified"] == 44, name
