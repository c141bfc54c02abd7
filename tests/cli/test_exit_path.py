"""One exit path: a ``repro`` process freezes its heap once ``main`` returns.

``python -m repro`` and the ``repro`` console script both call
``repro.cli.console_main``, which runs ``main`` and then ``gc.freeze()``,
so interpreter teardown skips the final collections.  An in-process
``main`` never freezes.  A frozen object in a reference cycle is never
finalised, so the freeze is sound only while no output depends on a
finalizer: the same verifications, run unfrozen under ``-X dev`` (where a
file closed by a finalizer warns) and frozen, print and store the same.
"""

import ast
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
REPO_SRC = REPO / "src"


def _console_script_target() -> str:
    """``module:function`` that ``setup.py`` maps the ``repro`` script to,
    read with :mod:`ast`: nothing is installed."""
    tree = ast.parse((REPO / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "entry_points":
            scripts = ast.literal_eval(node.value)["console_scripts"]
            targets = dict(line.replace(" ", "").split("=") for line in scripts)
            return targets["repro"]
    raise AssertionError("setup.py declares no entry_points")


def _dunder_main_target() -> str:
    """``module:function`` that ``repro/__main__.py`` calls."""
    tree = ast.parse((REPO_SRC / "repro" / "__main__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: f"{node.module}:{alias.name}"
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in imported]
    assert len(called) == 1, called
    return imported[called[0]]


def test_the_console_script_and_python_m_call_one_entry_function():
    assert _console_script_target() == _dunder_main_target() == "repro.cli:console_main"


def test_an_in_process_main_leaves_the_heap_unfrozen(tmp_path, capsys):
    assert gc.get_freeze_count() == 0
    assert main(["verify", "--all", "--cache-dir", str(tmp_path)]) == 0
    assert "47/47 verified" in capsys.readouterr().out
    assert gc.get_freeze_count() == 0


# --------------------------------------------------------------------------- #
# The finalizer gate
# --------------------------------------------------------------------------- #
#: ``main`` without the freeze, with every ResourceWarning shown.
UNFROZEN = ("-X", "dev", "-W", "always::ResourceWarning", "-c",
            "from repro.cli import main; raise SystemExit(main())")
#: The entry point a user runs: it freezes the heap after ``main``.
FROZEN = ("-m", "repro")

STORE_FILES = ("proofs.jsonl", "certs.jsonl", "deps.jsonl")
TIMINGS = ("time_seconds", "wall_seconds")


def _without_timings(value):
    if isinstance(value, dict):
        return {key: _without_timings(item) for key, item in value.items()
                if key not in TIMINGS}
    if isinstance(value, list):
        return [_without_timings(item) for item in value]
    return value


def _verify(how, src: Path, store: Path, *flags: str):
    """Run one verification; returns its report (times and the store's
    path dropped, as ``tests/engine/test_driver_parallel.py`` drops them),
    its store records (timings dropped, in file order) and its stderr."""
    completed = subprocess.run(
        [sys.executable, *how, "verify", "--all", "--format", "json",
         "--cache-dir", str(store), *flags],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    report["summary"].pop("total_seconds")
    report["engine"].pop("wall_seconds")
    report["engine"].pop("cache_dir")
    for row in report["results"]:
        row.pop("time_seconds")
    records = {name: [_without_timings(json.loads(line))
                      for line in (store / name).read_text(encoding="utf-8").splitlines()]
               for name in STORE_FILES}
    stats = json.loads((store / "store-stats.json").read_text(encoding="utf-8"))
    records["store-stats.json"] = stats["canonical"]
    return report, records, completed.stderr


def test_a_frozen_exit_prints_and_stores_what_an_unfrozen_one_does(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(REPO_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    optimization = src / "repro" / "passes" / "optimization.py"
    # (step, store, flags, (cache hits, cache misses)); each side has its
    # own stores and trace directory.
    steps = (
        ("cold", "store", (), (0, 47)),
        ("warm", "store", (), (47, 0)),
        ("edit", "store", ("--changed", str(optimization)), (46, 1)),
        ("traced", "traced-store", ("--trace", "{trace}"), (0, 47)),
    )
    for step, store, flags, outcome in steps:
        if step == "edit":
            text = optimization.read_text(encoding="utf-8")
            header = "class ConsolidateBlocks(GeneralPass):\n"
            assert text.count(header) == 1
            optimization.write_text(text.replace(header, header + "    # an edit\n"),
                                    encoding="utf-8")
        runs = {
            side: _verify(how, src, tmp_path / f"{side}-{store}",
                          *(flag.format(trace=tmp_path / f"{side}-trace") for flag in flags))
            for side, how in (("unfrozen", UNFROZEN), ("frozen", FROZEN))
        }
        (report, records, stderr), (frozen_report, frozen_records, _) = \
            runs["unfrozen"], runs["frozen"]
        assert "ResourceWarning" not in stderr, (step, stderr)
        assert report == frozen_report, step
        assert records == frozen_records, step
        assert report["summary"]["verified"] == 47, step
        engine = report["engine"]
        assert (engine["cache_hits"], engine["cache_misses"]) == outcome, step
    assert (tmp_path / "frozen-trace" / "trace-main.jsonl").is_file()
