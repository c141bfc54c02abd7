"""After a watcher reloads an edited prover module, the reloaded code proves.

The regression: ``engine/driver.py``, which the watcher never reloads,
bound ``verify_pass`` and ``Discharger`` when it was first imported.  After
an edit to ``verify/verifier.py`` or ``verify/discharge.py`` and
:func:`repro.incremental.watch.refresh_source_state`, the keys hashed the
edited file while the engine still called the pre-edit code, so a
deliberately broken verifier kept verifying.  A reloaded solver backend must
likewise replace the instance built before the edit.  Run on a copy of the
package, in fresh interpreters.
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

_EDIT_AND_REVERIFY = textwrap.dedent(
    """
    import importlib.util
    import json
    import os
    import sys

    from repro.engine.driver import verify_passes
    from repro.incremental.watch import refresh_source_state
    from repro.passes import CXCancellation

    path, anchor, inserted = sys.argv[1:]
    # The watcher's first cycle: everything a proof runs is imported.
    assert verify_passes([CXCancellation], use_cache=False)[0].verified

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert text.count(anchor) == 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(anchor, inserted + anchor))
    cached = importlib.util.cache_from_source(path)
    if os.path.exists(cached):
        os.unlink(cached)

    reloaded = refresh_source_state([path])
    try:
        report = verify_passes([CXCancellation], use_cache=False)
        outcome = {"verified": report[0].verified}
    except RuntimeError as exc:
        outcome = {"raised": str(exc)}
    print(json.dumps({"reloaded": reloaded, "outcome": outcome}))
    """
)


@pytest.mark.parametrize("module, anchor", [
    ("repro.verify.verifier", "    pass_kwargs = dict(pass_kwargs or {})\n"),
    ("repro.verify.discharge",
     "        result, backend_used = self._dispatch(subgoal)\n"),
    # Resolved backends are built once; the reload's interning reset must
    # drop them so the next run builds the reloaded class.
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
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _EDIT_AND_REVERIFY, str(path), anchor,
         f"{indent}raise RuntimeError({marker!r})\n"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout)
    assert result["reloaded"] == [module]
    assert result["outcome"] == {"raised": marker}
