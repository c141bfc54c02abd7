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
#: ``sys.modules``: the verifier, the preprocessor (a warm run derives no
#: pass key), the discharge pipeline, the rule sets, the worker pool and
#: the history store.
NOT_ON_A_CACHE_HIT = (
    "repro.verify.verifier", "repro.verify.preprocessor", "repro.verify.discharge",
    "repro.verify.counterexample", "repro.verify.bounded",
    "repro.prover.methods", "repro.prover.certificate", "repro.prover.rulebase",
    "repro.symbolic.equivalence", "repro.symbolic.rules",
    "repro.engine.scheduler", "repro.telemetry.history",
    "sqlite3", "multiprocessing",
)

#: ``repro`` modules a warm ``verify --all`` may load (83 when the package
#: exports were eager, 60 while it derived every pass key).
MAX_WARM_REPRO_MODULES = 59

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
    assert run["code"] == 0
    _assert_light(run["modules"])


# --------------------------------------------------------------------------- #
# No network surface
# --------------------------------------------------------------------------- #
#: Standard-library modules that open or authenticate network endpoints.
NETWORK_MODULES = ("socket", "socketserver", "http", "ssl", "hmac",
                   "selectors")


def _imported_names(source: bytes):
    """Every name ``source``'s import statements mention, read the way
    ``repro.incremental.deps`` reads them (skeleton, else whole file)."""
    from repro.incremental.deps import _skeleton_names, _whole_file_names

    names = _skeleton_names(source)
    return names if names is not None else _whole_file_names(source)


def test_no_module_imports_a_network_library():
    package = Path(REPO_SRC) / "repro"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 50
    offenders = sorted(
        (str(path.relative_to(package)), name)
        for path in modules
        for name in _imported_names(path.read_bytes())
        if name.split(".")[0] in NETWORK_MODULES)
    assert offenders == []


def test_only_the_history_store_imports_sqlite3():
    """The proof store is JSON lines; ``history.sqlite`` is the one sqlite
    file a ``repro`` process reads or writes."""
    package = Path(REPO_SRC) / "repro"
    importers = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if any(name.split(".")[0] == "sqlite3"
               for name in _imported_names(path.read_bytes())))
    assert importers == [os.path.join("telemetry", "history.py")]

