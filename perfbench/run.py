"""Whole-process benchmark of ``repro verify --all``.

One command reproduces every number, from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

``--workload`` is ``cold``, ``warm``, ``edit`` or ``cold-j2``; ``--trace 1``
prints the per-layer metrics instead of the end-to-end ones.  The last line
of standard output is one JSON object; the lines before it say how many
operations ran and give their absolute median times.

What an operation is
--------------------
One real ``python -m repro verify --all --format json --cache-dir DIR``
process (default JSONL backend, builtin solver), run on a scratch copy of
``src/`` in a ``.perfbench-work-*`` directory at the repository root.  The
loop is closed: one client, one operation in flight.  Nothing in the
repository and nothing under ``~/.cache`` is written; the scratch directory
is removed at exit.  Every operation is checked against the hand-written
answer key in ``answer_key.py`` (verdicts, the subgoal total, pass-cache
hits/misses); an operation fails if it exits nonzero or disagrees with it.
Operations run with ``OPENBLAS_NUM_THREADS=1`` (see ``child_env``).

Set-up (``setup_s``, the median of three) copies ``src/``, byte-compiles
the copy, and runs one cold operation whose store seeds ``warm`` and
``edit`` and warms the page cache for the others.

Why each workload exists
------------------------
``cold``
    Empty cache dir: symbolic execution, discharge, the dependency walk and
    cache writes all do their work.  A prover or dep-walk optimisation shows
    here, as its share of the whole process.
``warm``
    Every operation starts from a fresh copy of the seeded store (a warm
    run appends recency records, so reusing one store would make each
    operation differ from the last).  Imports dominate; the dep walk, the
    prover and the preprocessor are bypassed, so a change to them must
    predict *no change* here.
``edit``
    Before each operation (untimed) the seeded store is restored and one
    comment line is inserted into one optimisation pass, picked from
    ``--seed`` (all nine share a module, so seeds differ only in which pass
    is re-proved, not in the stale set of nine); the edit moves that pass's fingerprint but not its verdict.  The
    operation adds ``--changed FILE``: the incremental path ``repro watch``
    takes (dep-index reads, re-fingerprinting of the stale set, one dep
    walk, one symbolic execution whose subgoals all hit the cache).  It
    writes beside reads, so trading writes for read speed shows here.
``cold-j2``
    ``cold`` with ``--jobs 2``: the only workload through
    ``engine.scheduler`` (fork, snapshot install, result merge).

End-to-end metrics (``--trace 0``)
----------------------------------
Times are ratios to a reference process.  On a small shared host a fresh
Python process can run up to twice as slowly for minutes at a time, so
whole runs land in such a stretch and seconds spread far past any useful
bound.  Every operation is therefore bracketed by runs of ``REFERENCE``, a
fixed stdlib-only Python program (a fresh interpreter, some imports, a
pure-Python loop) that no change to the repository can make faster, and
each operation's wall and CPU are divided by the mean of the two reference
runs beside it.  The slowdown hits both and largely cancels; a change to
``repro`` moves the ratio as it moves the seconds.  The absolute medians
are printed on the line before the result.

``wall_vs_ref`` median spawn-to-exit wall over the reference's;
``wall_p75_vs_ref`` the upper quartile of the same ratio, as the tail (a
20-second run holds 15 to 40 operations, too few for a higher percentile
to repeat from run to run; stdout states how many lie beyond it);
``cpu_vs_ref`` median user+sys from ``os.wait4`` (forked workers
included) over the reference's;
``peak_rss_mib`` median ``ru_maxrss``; ``store_bytes`` median cache-dir
size after the operation, not counting the scratch tree's path where the
store records it (see ``store_bytes``); ``setup_s`` as above.  Failed operations are the
result's ``failed`` out of ``attempted``.

Per-layer metrics (``--trace 1``)
---------------------------------
Untraced and traced operations alternate, each traced one running
``traced_verify.py``, which wraps each layer's entry points from outside.
A layer counts only its outermost activation, and its self time excludes
nested layers.  Each value is the median over the traced operations.  Which
end-to-end metric a layer should move, and on which workload (``wall`` is
``wall_vs_ref``, ``cpu`` is ``cpu_vs_ref``):

=========================  ==============================================
``process.*``              the trace's own coverage; moves nothing
``import.*``               ``wall``, ``peak_rss_mib`` on all; ``warm`` most
``cli.resolve_s``          ``wall`` on ``warm``
``engine.fingerprint.*``   ``wall`` on ``warm`` and ``edit``
``incremental.deps.*``     ``wall``, ``store_bytes`` on ``cold``,
                           ``cold-j2``, ``edit``; not on ``warm``
``engine.cache.*``         loads/reads: ``wall`` on ``warm``; persists:
                           ``wall`` on ``cold`` and ``edit``
``verify.preprocessor.*``  ``wall`` on ``cold``
``verify.session.*``       ``wall`` on ``cold`` and ``edit``
``verify.discharge.*``     ``wall``, ``cpu`` on ``cold``; ~0 on
                           ``warm`` and ``edit``
``engine.scheduler.*``     ``wall``, ``cpu`` on ``cold-j2`` only
``telemetry.stats.*``      all workloads
``verify.report.*``        all workloads
=========================  ==============================================

``process.startup_s`` runs from the spawn to the entry script's first line,
``process.exit_s`` from ``main`` returning to the process exit (writing the
spans, then interpreter teardown), and ``process.unattributed_s`` is the
traced wall minus start-up, ``import.s``, the top-level layer spans and
exit.  ``process.trace_overhead_frac`` compares traced with untraced wall.
``import.s`` covers ``import repro.cli`` and the layer modules the run
would load anyway.  ``import.networkx_s``, ``import.repro_bench_s`` and
``import.modules`` come from ``python -X importtime -c "import repro.cli"``.
The pass-cache and subgoal counters are the report's own engine counters
(``subgoal_hit_ratio`` and ``proved_ratio`` read 0 when nothing was looked
up or discharged).  ``ops.failed_frac`` is failed over attempted
operations of the traced run.  On ``cold-j2`` the forked workers' spans are
invisible to the parent, so the worker-side layers (preprocessor, session,
discharge, subgoal fingerprints) read zero there; their split comes from
``cold``.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # the benchmark leaves nothing in the checkout

from answer_key import OPTIMISATION, check_report  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_PREFIX = ".perfbench-work-"
PYTHON = sys.executable
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60.0
SPAWN_STAMP = "<spawned-at>"
#: The methods ``verify.discharge`` is broken down by (``DischargeResult.method``
#: with spaces as ``_``); time of any other method still counts in its total.
DISCHARGE_METHODS = ("congruence_closure", "identical", "library_lemma",
                     "structural")
#: The reference process the end-to-end times are divided by: a fresh
#: interpreter that imports stdlib modules and runs a fixed loop, about
#: a third of a ``warm`` operation.
REFERENCE = ("import argparse, ast, asyncio, concurrent.futures, csv, dataclasses\n"
             "import decimal, difflib, email.parser, fractions, http.client\n"
             "import inspect, json, logging, pathlib, shutil, sqlite3\n"
             "import statistics, subprocess, tarfile, tempfile, typing\n"
             "import unittest, xml.etree.ElementTree, zipfile\n"
             "total = 0\n"
             "for i in range(300000):\n"
             "    total += i * i % 7\n"
             "print(total)\n")


class BenchError(Exception):
    """The benchmark cannot measure (missing source, broken set-up)."""


@dataclass(frozen=True)
class Workload:
    jobs: int
    seeded: bool  # each operation starts from the store set-up seeded
    edit: bool    # each operation follows a one-comment edit of one pass


WORKLOADS: Dict[str, Workload] = {
    "cold": Workload(jobs=1, seeded=False, edit=False),
    "warm": Workload(jobs=1, seeded=True, edit=False),
    "edit": Workload(jobs=1, seeded=True, edit=True),
    "cold-j2": Workload(jobs=2, seeded=False, edit=False),
}


# --------------------------------------------------------------------------- #
# The edit
# --------------------------------------------------------------------------- #
def pick_pass(seed: int) -> str:
    """The pass the ``edit`` workload edits under ``seed``.

    Drawn from the nine optimisation passes, which share one module: every
    seed then re-checks the same stale set and walks the same imports, so
    the seed moves which pass is re-proved, not how much work the edit
    invalidates.
    """
    return random.Random(seed).choice(OPTIMISATION)


@dataclass(frozen=True)
class Edit:
    pass_name: str
    path: Path
    edited: str

    def apply(self) -> None:
        """Write the edited module and drop its byte code, as an edit would."""
        self.path.write_text(self.edited, encoding="utf-8")
        Path(importlib.util.cache_from_source(str(self.path))).unlink(missing_ok=True)


def plan_edit(src: Path, seed: int) -> Edit:
    """One comment line inserted at the top of the picked pass's class body."""
    name = pick_pass(seed)
    for path in sorted((src / "repro" / "passes").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                first = node.body[0]
                line = min([first.lineno] + [d.lineno for d in
                                             getattr(first, "decorator_list", ())])
                lines = text.splitlines(keepends=True)
                lines.insert(line - 1, " " * first.col_offset
                             + f"# perfbench edit, seed {seed}\n")
                return Edit(name, path, "".join(lines))
    raise BenchError(f"no class {name} under {src / 'repro' / 'passes'}")


# --------------------------------------------------------------------------- #
# One operation
# --------------------------------------------------------------------------- #
@dataclass
class Op:
    wall: float
    cpu: float
    rss_mib: float
    code: int
    stdout: str
    stderr: str

    def report(self) -> Optional[dict]:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None

    def problems(self, workload: str) -> List[str]:
        if self.code != 0:
            return [f"exit code {self.code}: {self.stderr.strip()[-300:]}"]
        report = self.report()
        if report is None:
            return ["stdout is not a JSON report"]
        return check_report(report, workload)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(argv: List[str], env: Dict[str, str], cwd: Path) -> Op:
    """Spawn ``argv``, wait for it with ``os.wait4``, and time it.

    ``SPAWN_STAMP`` in ``argv`` is replaced by the ``perf_counter`` reading
    taken just before the spawn.
    """
    out_path, err_path = cwd / "op.stdout", cwd / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        argv = [repr(started) if arg == SPAWN_STAMP else arg for arg in argv]
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        watchdog = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc,))
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
              rss_mib=usage.ru_maxrss / 1024.0, code=proc.returncode,
              stdout=out_path.read_text(encoding="utf-8", errors="replace"),
              stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def store_bytes(cache: Path, tree_root: Path) -> int:
    """Bytes under ``cache``, each copy of ``tree_root``'s path counting 0.

    The dependency index records absolute source paths thousands of times,
    so the raw size would move with the length of the checkout's path.
    """
    prefix = os.fsencode(tree_root)
    total = 0
    for entry in cache.rglob("*"):
        if entry.is_file():
            data = entry.read_bytes()
            total += len(data) - data.count(prefix) * len(prefix)
    return total


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
@dataclass
class Tree:
    root: Path
    env: Dict[str, str]
    seed_cache: Path
    edit: Optional[Edit]

    def verify_argv(self, cache: Path, jobs: int = 1) -> List[str]:
        argv = ["-m", "repro", "verify", "--all", "--format", "json",
                "--cache-dir", str(cache)]
        if jobs != 1:
            argv += ["--jobs", str(jobs)]
        if self.edit is not None:
            argv += ["--changed", str(self.edit.path)]
        return argv


def child_env(root: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "REPRO_"))}
    env["PYTHONPATH"] = str(root / "src")
    # Belt and braces: every operation passes --cache-dir, but nothing may
    # ever fall back to ~/.cache.
    env["XDG_CACHE_HOME"] = str(root / "xdg-cache")
    env["REPRO_CACHE_DIR"] = str(root / "default-cache")
    # numpy's BLAS pool is never used by a verify run, but its idle threads
    # spin on whichever core is free and add up to a tenth of a second of
    # CPU time that depends only on what else the host is doing.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def set_up(root: Path, workload: Workload, seed: int) -> Tree:
    """Scratch copy of ``src/``, byte-compiled, plus one seeding cold run."""
    src = root / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    env = child_env(root)
    subprocess.run([PYTHON, "-m", "compileall", "-q", str(src)], env=env,
                   cwd=root, stdout=subprocess.DEVNULL, check=True,
                   timeout=OP_TIMEOUT_S)
    tree = Tree(root=root, env=env, seed_cache=root / "seed-cache", edit=None)
    op = run_op([PYTHON] + tree.verify_argv(tree.seed_cache), env, root)
    problems = op.problems("cold")
    if problems:
        raise BenchError("set-up cold run failed: " + "; ".join(problems))
    if workload.edit:
        tree.edit = plan_edit(src, seed)
    return tree


def set_up_timed(work: Path, workload: Workload, seed: int, repeats: int):
    """Set up ``repeats`` times; returns (last tree, median seconds)."""
    times, tree = [], None
    for index in range(repeats):
        if tree is not None:
            shutil.rmtree(tree.root)
        started = time.perf_counter()
        tree = set_up(work / f"tree{index}", workload, seed)
        times.append(time.perf_counter() - started)
    return tree, statistics.median(times)


# --------------------------------------------------------------------------- #
# The closed loop
# --------------------------------------------------------------------------- #
def prepare(tree: Tree, workload: Workload) -> Path:
    """Untimed: the cache dir (and source edit) the next operation sees."""
    cache = tree.root / "op-cache"
    if cache.exists():
        shutil.rmtree(cache)
    if workload.seeded:
        shutil.copytree(tree.seed_cache, cache)
    if tree.edit is not None:
        tree.edit.apply()
    return cache


class Tally:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def check(self, op: Op) -> bool:
        self.attempted += 1
        problems = op.problems(self.workload)
        if problems:
            self.failed += 1
            print(f"# op failed: {'; '.join(problems)[:500]}", file=sys.stderr)
        return not problems


def upper_quartile(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def run_reference(tree: Tree) -> Op:
    op = run_op([PYTHON, "-c", REFERENCE], tree.env, tree.root)
    if op.code != 0:
        raise BenchError(f"reference process exit code {op.code}: "
                         f"{op.stderr.strip()[-300:]}")
    return op


def end_to_end(tree: Tree, name: str, seconds: float, setup_s: float):
    workload = WORKLOADS[name]
    tally = Tally(name)
    good: List[Op] = []
    wall_ratios: List[float] = []
    cpu_ratios: List[float] = []
    ref_walls: List[float] = []
    stores: List[int] = []
    before = run_reference(tree)
    deadline = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < deadline:
        cache = prepare(tree, workload)
        op = run_op([PYTHON] + tree.verify_argv(cache, workload.jobs),
                    tree.env, tree.root)
        after = run_reference(tree)
        if tally.check(op):
            good.append(op)
            wall_ratios.append(2 * op.wall / (before.wall + after.wall))
            cpu_ratios.append(2 * op.cpu / (before.cpu + after.cpu))
            stores.append(store_bytes(cache, tree.root))
        ref_walls.append(after.wall)
        before = after
    if not good:
        raise BenchError(f"every {name} operation failed")
    p75 = upper_quartile(wall_ratios)
    print(f"# {name}: {tally.attempted} ops, {tally.failed} failed; "
          f"median wall {statistics.median(op.wall for op in good):.4f} s, "
          f"cpu {statistics.median(op.cpu for op in good):.4f} s, reference "
          f"wall {statistics.median(ref_walls):.4f} s; "
          f"{sum(ratio > p75 for ratio in wall_ratios)} of {len(good)} ops "
          f"lie beyond wall_p75_vs_ref")
    metrics = {
        "wall_vs_ref": (statistics.median(wall_ratios), "x"),
        "wall_p75_vs_ref": (p75, "x"),
        "cpu_vs_ref": (statistics.median(cpu_ratios), "x"),
        "peak_rss_mib": (statistics.median(op.rss_mib for op in good), "MiB"),
        "store_bytes": (statistics.median(stores), "bytes"),
        "setup_s": (setup_s, "s"),
    }
    return tally, metrics


# --------------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------------- #
def import_profile(tree: Tree) -> Dict[str, float]:
    """``import.*`` drill-down parsed from ``python -X importtime``."""
    proc = subprocess.run([PYTHON, "-X", "importtime", "-c", "import repro.cli"],
                          env=tree.env, cwd=tree.root, capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S, check=True)
    cumulative: Dict[str, int] = {}
    for line in proc.stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header, or not an importtime line
        module = fields[2].strip()
        cumulative[module] = max(cumulative.get(module, 0), int(fields[1]))
    # A package that ``import repro.cli`` no longer loads costs nothing.
    return {
        "import.modules": len(cumulative),
        "import.networkx_s": cumulative.get("networkx", 0) / 1e6,
        "import.repro_bench_s": cumulative.get("repro.bench", 0) / 1e6,
    }


def layer_metrics(trace: dict, wall: float, report: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    tags, spans = trace["targets"], trace["spans"]
    nested = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            nested[parent] += end - start
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    method_s: Dict[str, float] = {}
    method_calls: Dict[str, int] = {}
    paths = tasks = proved = 0
    for index, (target, start, end, parent, detail) in enumerate(spans):
        tag, own = tags[target], end - start - nested[index]
        self_s[tag] = self_s.get(tag, 0.0) + own
        calls[tag] = calls.get(tag, 0) + 1
        if tag == "discharge":
            method = detail[0].replace(" ", "_")
            method_s[method] = method_s.get(method, 0.0) + own
            method_calls[method] = method_calls.get(method, 0) + 1
            proved += detail[1]
        elif tag == "session":
            paths += detail
        elif tag == "scheduler":
            tasks += detail
    top_level = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    startup = trace["started"] - trace["spawned_at"]
    exit_s = trace["spawned_at"] + wall - trace["finished"]
    engine = report["engine"]
    subgoal_lookups = engine["subgoal_hits"] + engine["subgoal_misses"]
    discharges = calls.get("discharge", 0)
    metrics = {
        "process.startup_s": startup,
        "process.exit_s": exit_s,
        "process.wall_s": wall,
        "process.unattributed_s":
            wall - startup - trace["import_s"] - top_level - exit_s,
        "import.s": trace["import_s"],
        "cli.resolve_s": self_s.get("cli.resolve", 0.0),
        "engine.fingerprint.pass_s": self_s.get("fingerprint.pass", 0.0),
        "engine.fingerprint.pass_calls": calls.get("fingerprint.pass", 0),
        "engine.fingerprint.subgoal_s": self_s.get("fingerprint.subgoal", 0.0),
        "engine.fingerprint.subgoal_calls": calls.get("fingerprint.subgoal", 0),
        "engine.fingerprint.toolchain_s": self_s.get("fingerprint.toolchain", 0.0),
        "incremental.deps.s": self_s.get("deps", 0.0),
        "incremental.deps.entries": calls.get("deps", 0),
        "incremental.deps.ast_parses": trace["deps_ast_parses"],
        "engine.cache.load_s": self_s.get("cache.load", 0.0),
        "engine.cache.read_s": self_s.get("cache.read", 0.0),
        "engine.cache.persist_s": self_s.get("cache.write", 0.0)
        + self_s.get("cache.persist", 0.0),
        "engine.cache.writes": calls.get("cache.write", 0),
        "engine.cache.pass_hits": engine["cache_hits"],
        "engine.cache.pass_misses": engine["cache_misses"],
        "engine.cache.subgoal_hit_ratio":
            engine["subgoal_hits"] / subgoal_lookups if subgoal_lookups else 0.0,
        "verify.preprocessor.s": self_s.get("preprocessor", 0.0),
        "verify.preprocessor.calls": calls.get("preprocessor", 0),
        "verify.session.s": self_s.get("session", 0.0),
        "verify.session.paths": paths,
        "verify.discharge.s": self_s.get("discharge", 0.0),
        "verify.discharge.calls": discharges,
        "verify.discharge.proved_ratio": proved / discharges if discharges else 0.0,
        "engine.scheduler.map_s": self_s.get("scheduler", 0.0),
        "engine.scheduler.tasks": tasks,
        "telemetry.stats.save_s": self_s.get("stats", 0.0),
        "verify.report.s": self_s.get("report", 0.0),
    }
    for method in DISCHARGE_METHODS:
        metrics[f"verify.discharge.{method}.s"] = method_s.get(method, 0.0)
        metrics[f"verify.discharge.{method}.calls"] = method_calls.get(method, 0)
    return metrics


def traced(tree: Tree, name: str, seconds: float):
    """Alternate untraced, traced and import-profile runs for ``seconds``."""
    workload = WORKLOADS[name]
    tally = Tally(name)
    untraced_walls: List[float] = []
    samples: List[Dict[str, float]] = []
    missing: List[str] = []
    spans_path = tree.root / "spans.json"
    deadline = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < deadline:
        cache = prepare(tree, workload)
        op = run_op([PYTHON] + tree.verify_argv(cache, workload.jobs),
                    tree.env, tree.root)
        if tally.check(op):
            untraced_walls.append(op.wall)
        cache = prepare(tree, workload)
        argv = [PYTHON, str(HERE / "traced_verify.py"), SPAWN_STAMP,
                str(spans_path), "--"] + tree.verify_argv(cache, workload.jobs)[2:]
        op = run_op(argv, tree.env, tree.root)
        if tally.check(op):
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            missing = trace["missing"]
            sample = layer_metrics(trace, op.wall, op.report())
            sample.update(import_profile(tree))
            samples.append(sample)
    if not samples or not untraced_walls:
        raise BenchError(f"every traced {name} operation failed")
    metrics = {key: statistics.median(sample[key] for sample in samples)
               for key in samples[0]}
    metrics["process.trace_overhead_frac"] = (
        metrics["process.wall_s"] / statistics.median(untraced_walls) - 1.0)
    metrics["ops.failed_frac"] = tally.failed / tally.attempted
    print(f"# {name}: {len(samples)} traced and {len(untraced_walls)} untraced "
          f"ops, {tally.failed} of {tally.attempted} failed")
    if missing:
        print(f"# layer targets not found (their time is unattributed): "
              f"{', '.join(missing)}")
    return tally, {key: (value, unit_of(key)) for key, value in metrics.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=WORK_PREFIX, dir=ROOT))
    try:
        if args.trace:
            tree, _ = set_up_timed(work, workload, args.seed, 1)
            tally, metrics = traced(tree, args.workload, args.seconds)
        else:
            tree, setup_s = set_up_timed(work, workload, args.seed, SETUP_REPEATS)
            tally, metrics = end_to_end(tree, args.workload, args.seconds, setup_s)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
