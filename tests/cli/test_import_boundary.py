"""What a ``repro verify`` process imports: only the code a verification runs.

The benchmark drivers, the OpenQASM front end, the DAG IR and baseline
transpiler (networkx) and the dense-matrix oracle (numpy) serve other
subcommands; a verification that loads them pays their import time on every
run, warm runs included.  Checked in a fresh interpreter, because this test
process has long since imported all of them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.cli import _known_passes

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Top-level names a verification must leave out of ``sys.modules``.
OFF_THE_VERIFY_PATH = ("numpy", "networkx", "repro.bench", "repro.dag",
                       "repro.transpiler", "repro.qasm")

_VERIFY_COLD_THEN_WARM = textwrap.dedent(
    """
    import contextlib
    import io
    import json
    import sys

    import repro.cli

    cache_dir, watched = sys.argv[1], sys.argv[2:]
    runs = []
    for _ in ("cold", "warm"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro.cli.main(["verify", "--all", "--format", "json",
                                   "--cache-dir", cache_dir])
        report = json.loads(out.getvalue())
        runs.append({"code": code, "summary": report["summary"],
                     "engine": report["engine"]})
    print(json.dumps({
        "runs": runs,
        "loaded": [name for name in watched if name in sys.modules],
    }))
    """
)


def test_verify_all_imports_only_what_it_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", _VERIFY_COLD_THEN_WARM,
         str(tmp_path / "cache"), *OFF_THE_VERIFY_PATH],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout)
    cold, warm = outcome["runs"]
    total = len(_known_passes())
    for run in (cold, warm):
        assert run["code"] == 0
        assert run["summary"]["verified"] == run["summary"]["total"] == total
    assert (cold["engine"]["cache_hits"], cold["engine"]["cache_misses"]) == (0, total)
    assert (warm["engine"]["cache_hits"], warm["engine"]["cache_misses"]) == (total, 0)
    assert outcome["loaded"] == []
