"""What a ``repro`` process imports: only the code it runs.

The benchmark drivers, the OpenQASM front end, the DAG IR and baseline
transpiler (networkx) and the dense-matrix oracle (numpy) serve other
subcommands; a verification that loads them pays their import time on every
run, warm runs included.  A run the proof store serves whole runs neither
the verifier nor the prover, so it must not load them either.  Checked in
fresh interpreters, because this test process has long since imported all
of them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import _known_passes

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
#: A file no dependency entry watches.
README = str(Path(__file__).resolve().parents[2] / "README.md")

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


# --------------------------------------------------------------------------- #
# A process the store serves loads only what a cache hit runs
# --------------------------------------------------------------------------- #
#: What a run served whole from the proof store must leave out of
#: ``sys.modules``: the verifier, the discharge pipeline, the rule sets, the
#: worker pool and the history store.
NOT_ON_A_CACHE_HIT = (
    "repro.verify.verifier", "repro.verify.discharge",
    "repro.verify.counterexample", "repro.verify.bounded",
    "repro.prover.methods", "repro.prover.certificate", "repro.prover.rulebase",
    "repro.symbolic.equivalence", "repro.symbolic.rules",
    "repro.engine.scheduler", "repro.telemetry.history",
    "sqlite3", "multiprocessing",
)

#: ``repro`` modules a warm ``verify --all`` may load (83 when the package
#: exports were eager).
MAX_WARM_REPRO_MODULES = 60

_RUN_AND_LIST_MODULES = textwrap.dedent(
    """
    import contextlib
    import io
    import json
    import sys

    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "stdout": out.getvalue(),
                      "modules": sorted(sys.modules)}))
    """
)


def _fresh_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("store"))
    cold = _fresh_process("verify", "--all", "--cache-dir", cache_dir)
    assert cold["code"] == 0
    return cache_dir


def _assert_light(modules):
    assert [name for name in NOT_ON_A_CACHE_HIT if name in modules] == []


@pytest.mark.parametrize("extra", [(), ("--changed", README)],
                         ids=["warm", "changed-unwatched-file"])
def test_a_warm_verification_loads_only_what_a_cache_hit_runs(seeded_store,
                                                               extra):
    run = _fresh_process("verify", "--all", "--format", "json",
                         "--cache-dir", seeded_store, *extra)
    engine = json.loads(run["stdout"])["engine"]
    total = len(_known_passes())
    assert run["code"] == 0
    assert (engine["cache_hits"], engine["cache_misses"]) == (total, 0)
    assert engine["stale_passes"] == (0 if extra else None)
    _assert_light(run["modules"])
    loaded = [name for name in run["modules"]
              if name == "repro" or name.startswith("repro.")]
    assert len(loaded) <= MAX_WARM_REPRO_MODULES, loaded


@pytest.mark.parametrize("argv", [("stats",), ("status",), ("list", "passes")],
                         ids=" ".join)
def test_store_and_listing_commands_load_no_verifier(seeded_store, argv):
    if argv[0] != "list":
        argv += ("--cache-dir", seeded_store)
    run = _fresh_process(*argv)
    # ``status`` exits 1 when no daemon is serving the store.
    assert run["code"] in ((1,) if argv[0] == "status" else (0,))
    _assert_light(run["modules"])
