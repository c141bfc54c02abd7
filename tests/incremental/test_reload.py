"""A watch cycle proves the code on disk, and a cycle that cannot verify fails
cleanly.

The regression: the watcher used to reload edited modules in place, but a
module it did not reload kept calling the code it had imported first, so a
deliberately broken verifier kept verifying.  Each cycle now verifies in a
fresh interpreter: an exception inserted into the verifier, the discharge
pipeline or the builtin solver backend must surface as that cycle's error.
The sabotage runs on a copy of the package, with the watcher itself in a
fresh interpreter on that copy.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

_EDIT_BETWEEN_CYCLES = textwrap.dedent(
    """
    import json
    import sys

    from repro.incremental.watch import Watcher
    from repro.passes import CXCancellation

    path, anchor, inserted, store = sys.argv[1:]
    watcher = Watcher([CXCancellation], cache_dir=store)
    assert watcher.run_cycle().all_verified

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert text.count(anchor) == 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(anchor, inserted + anchor))

    cycle = watcher.run_cycle()
    print(json.dumps({"changed": cycle.changed_paths, "error": cycle.error,
                      "results": len(cycle.results)}))
    """
)


@pytest.mark.parametrize("module, anchor", [
    ("repro.verify.verifier", "    pass_kwargs = dict(pass_kwargs or {})\n"),
    ("repro.verify.discharge",
     "        result, backend_used = self._dispatch(subgoal)\n"),
    ("repro.prover.builtin", "        self.memo_misses += 1\n"),
], ids=["verifier", "discharge", "builtin-backend"])
def test_a_reloaded_prover_module_is_the_one_that_proves(tmp_path, module,
                                                        anchor):
    src = tmp_path / "src"
    shutil.copytree(REPO_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src.joinpath(*module.split(".")).with_suffix(".py")
    marker = f"edited {module}"
    indent = anchor[:len(anchor) - len(anchor.lstrip())]
    completed = subprocess.run(
        [sys.executable, "-c", _EDIT_BETWEEN_CYCLES, str(path), anchor,
         f"{indent}raise RuntimeError({marker!r})\n", str(tmp_path / "store")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert completed.returncode == 0, completed.stderr
    cycle = json.loads(completed.stdout)
    assert cycle == {"changed": [os.path.realpath(path)],
                     "error": f"RuntimeError: {marker}", "results": 0}


def _store_bytes(store: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(store.iterdir())}


def test_a_cycle_that_cannot_verify_stores_nothing(tmp_path, pass_package):
    """A half-saved pass module fails one cycle; the watcher keeps polling,
    and the save that fixes the file re-proves the pass."""
    from repro.incremental.watch import Watcher

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    pass_package.write("mod_b.py", pass_package.GOOD_SIZE)
    width = pass_package.load("mod_a", "TempWidth")
    size = pass_package.load("mod_b", "TempSize")
    store = tmp_path / "store"
    watcher = Watcher([width, size], cache_dir=str(store))
    assert watcher.run_cycle().all_verified
    before = _store_bytes(store)

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH_EDITED.replace(
        "def run(self, circuit):", "def run(self, circuit:"))
    failed = watcher.run_cycle()
    assert failed.changed_paths == (pass_package.path_of("mod_a.py"),)
    assert failed.error.startswith("SyntaxError")
    assert "verification failed: SyntaxError" in failed.summary_line()
    assert not failed.quiet and not failed.all_verified
    assert _store_bytes(store) == before

    assert watcher.run_cycle().quiet

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH_EDITED)
    fixed = watcher.run_cycle()
    assert fixed.error is None
    assert fixed.stats.stale_passes == 1
    assert fixed.stats.cache_misses == 1   # TempWidth re-proved
    assert [r.pass_name for r in fixed.results if not r.from_cache] == \
        ["TempWidth"]
    assert fixed.all_verified
