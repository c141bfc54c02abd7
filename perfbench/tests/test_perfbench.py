"""Self-tests of the whole-process benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import traced_verify  # noqa: E402
from answer_key import EXPECTED_PASS_HITS_MISSES, EXPECTED_SUBGOALS, \
    EXPECTED_VERDICTS, check_report  # noqa: E402


def _report(workload="cold"):
    hits, misses = EXPECTED_PASS_HITS_MISSES[workload]
    return {
        "summary": {"total_subgoals": EXPECTED_SUBGOALS},
        "engine": {"cache_hits": hits, "cache_misses": misses},
        "results": [{"pass": name, "verified": True, "supported": True}
                    for name in EXPECTED_VERDICTS],
    }


def test_answer_key_rejects_one_flipped_verdict():
    report = _report()
    assert check_report(report, "cold") == []
    report["results"][5]["verified"] = False
    problems = check_report(report, "cold")
    assert len(problems) == 1
    assert report["results"][5]["pass"] in problems[0]


def test_answer_key_rejects_structural_drift():
    assert check_report(_report("warm"), "cold")  # 47/0 hits where 0/47 expected
    report = _report()
    report["summary"]["total_subgoals"] -= 1
    assert check_report(report, "cold")
    report = _report()
    del report["results"][0]
    assert check_report(report, "cold")


def _fingerprints(env):
    code = (
        "import json\n"
        "from repro.cli import _known_passes, pass_kwargs_for\n"
        "from repro.engine.fingerprint import pass_fingerprint\n"
        "print(json.dumps({name: pass_fingerprint(cls, pass_kwargs_for(cls))"
        " for name, cls in _known_passes().items()}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)


@pytest.mark.parametrize("seed", [1, 2])
def test_edit_moves_exactly_the_picked_pass_fingerprint(tmp_path, seed):
    assert run.pick_pass(seed) == run.pick_pass(seed)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = run.child_env(tmp_path)
    before = _fingerprints(env)
    assert set(before) == set(EXPECTED_VERDICTS)
    edit = run.plan_edit(tmp_path / "src", seed)
    assert edit.pass_name == run.pick_pass(seed)
    edit.apply()
    after = _fingerprints(env)
    assert {name for name in before if before[name] != after[name]} == {edit.pass_name}


def test_store_bytes_does_not_depend_on_where_the_tree_lives(tmp_path):
    sizes = []
    for root in (tmp_path / "a", tmp_path / "a-much-longer-checkout-path"):
        cache = root / "op-cache"
        cache.mkdir(parents=True)
        line = json.dumps({"path": str(root / "src" / "repro" / "cli.py")})
        (cache / "deps.jsonl").write_text(line * 3 + "\n", encoding="utf-8")
        sizes.append(run.store_bytes(cache, root))
    assert sizes[0] == sizes[1] > 0


def test_span_recorder_keeps_only_the_outermost_activation():
    recorder = traced_verify.SpanRecorder()

    def countdown(n):
        return n if n == 0 else countdown(n - 1)

    countdown = recorder.wrap(0, "deps", countdown)
    outer = recorder.wrap(1, "report", lambda: countdown(3))
    outer()
    assert [(span[0], span[3]) for span in recorder.spans] == [(1, -1), (0, 0)]


def test_layer_self_time_excludes_nested_layers():
    trace = {
        "targets": ["deps", "report"],
        # report runs 0.0-1.0 s and calls deps for 0.2-0.5 s
        "spans": [[1, 0.0, 1.0, -1, None], [0, 0.2, 0.5, 0, None]],
        "spawned_at": -0.4, "started": -0.3, "import_s": 0.2,
        "finished": 1.1, "deps_ast_parses": 5,
    }
    engine = {"cache_hits": 0, "cache_misses": 47,
              "subgoal_hits": 1, "subgoal_misses": 3}
    metrics = run.layer_metrics(trace, 1.7, {"engine": engine})
    assert metrics["incremental.deps.s"] == pytest.approx(0.3)
    assert metrics["verify.report.s"] == pytest.approx(0.7)
    assert metrics["process.startup_s"] == pytest.approx(0.1)
    assert metrics["process.exit_s"] == pytest.approx(0.2)
    # 1.7 wall - 0.1 start-up - 0.2 import - 1.0 top-level span - 0.2 exit
    assert metrics["process.unattributed_s"] == pytest.approx(0.2)
    assert metrics["engine.cache.subgoal_hit_ratio"] == pytest.approx(0.25)


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    code = (
        "import sys, traced_verify as tv\n"
        "def current():\n"
        "    found = []\n"
        "    for _, module, attribute in tv.LAYER_TARGETS:\n"
        "        owner, leaf = tv._owner_and_leaf(module, attribute)\n"
        "        found.append(vars(owner)[leaf])\n"
        "    found.append(sys.modules['repro.incremental.deps'].ast)\n"
        "    return found\n"
        "import repro.cli, repro.incremental.deps\n"
        "before = current()\n"
        f"code, trace = tv.run(['verify', 'CXCancellation', '--format', 'json',"
        f" '--cache-dir', {str(tmp_path / 'cache')!r}])\n"
        "after = current()\n"
        "assert code == 0 and trace['spans'], (code, len(trace['spans']))\n"
        "assert all(a is b for a, b in zip(before, after)), 'wrapper left behind'\n"
        "print('unwrapped', len(before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == \
        f"unwrapped {len(traced_verify.LAYER_TARGETS) + 1}"


def _git_status():
    return subprocess.run(["git", "status", "--porcelain", "--ignored"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")
def test_benchmark_run_reports_every_metric_and_leaves_the_repository_unchanged():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _git_status()
    for workload, trace, kind in (("edit", "1", "per_layer"),
                                  ("cold-j2", "0", "end_to_end")):
        out = _bench("--workload", workload, "--seed", "3", "--trace", trace,
                     "--seconds", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
            == {metric["name"]: metric["unit"] for metric in declared[kind]}
    assert _git_status() == before


def test_benchmark_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "cold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
