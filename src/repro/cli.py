"""Command-line interface for the Giallar reproduction.

Invoked as ``python -m repro <command>``.  Commands:

``verify``
    Verify one, several, or all compiler passes and print a report
    (text, Markdown, or JSON).  ``--changed PATH`` reports how many passes
    the run re-checked because their sources moved.

``transpile``
    Compile an OpenQASM 2 file for a named device with either the verified
    (Giallar-style) or the baseline (unverified DAG-based) pipeline.

``watch``
    Incremental re-verification: poll the watched sources and, on each
    edit, re-verify only the passes the edit can have invalidated.

``status``
    Summarise the proof store: live and stale entries, certificates,
    damage dropped on load.

``cache``
    Maintain the proof cache: ``prune`` (LRU eviction to a bound),
    ``migrate`` (read-only import of a ``proofs.sqlite`` left by the retired
    sqlite tier), and ``gc`` (drop dependency-index entries for
    configurations no longer in any suite).

``trace``
    Inspect a structured execution trace written by ``verify --trace DIR``:
    ``summary`` (slowest passes/subgoals, per-method and per-solver
    discharge, cache outcomes), ``show`` (the span tree), ``export``
    (Chrome trace JSON), ``diff`` (attribute the wall delta between two
    traced runs down to pass/subgoal/method with noise-aware regression
    flags).

``history``
    The longitudinal sqlite store of traced-run summaries (recorded
    automatically at the end of every ``verify --trace`` run): ``list``,
    ``show``, ``regressions`` (noise-aware comparison of two recorded
    runs), ``prune``.

``stats``
    The latest run's canonical proof-store analytics (``store-stats.json``
    beside the cache): tier hit ratios, hottest keys, wasted evictions.
    The JSON form is byte-identical across runs of equal facts.

``dash``
    Render the whole observability stack — history trends, the latest
    run's slowest passes, tier hit-ratio evolution, fuzz-corpus status —
    as one self-contained HTML file (inline SVG, no scripts, no network).

``bench``
    Run one of the paper's evaluation drivers (``table2``, ``figure11``,
    ``case-studies``), or measure the tracing overhead (``telemetry``)
    or the store-analytics overhead (``stats``).

``soundness``
    Re-check every rewrite rule and the commutation table against the dense
    matrix semantics (the role of the paper's Coq proofs).

``list``
    List the known passes, devices, or benchmark circuits.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional, Sequence, Type

# Module scope holds only what ``verify`` runs; every other subcommand
# imports its own dependencies, so a verification process never loads the
# benchmark drivers, the OpenQASM front end or the DAG transpiler.
from repro.engine.driver import default_pass_kwargs as pass_kwargs_for
from repro.passes import (
    ALL_VERIFIED_PASSES,
    EXTENSION_PASSES,
    UNSUPPORTED_PASSES,
    pass_registry,
)
from repro.telemetry.bounds import DEFAULT_MIN_SECONDS, DEFAULT_NOISE_PCT
from repro.verify.report import to_json, to_markdown, to_text


def _known_passes() -> Dict[str, Type]:
    return pass_registry()


# --------------------------------------------------------------------------- #
# verify
# --------------------------------------------------------------------------- #
def _cmd_verify(args: argparse.Namespace) -> int:
    registry = _known_passes()
    if args.all:
        selected = list(registry.values())
    else:
        missing = [name for name in args.passes if name not in registry]
        if missing:
            print(f"unknown pass(es): {', '.join(missing)}", file=sys.stderr)
            print(f"known passes: {', '.join(sorted(registry))}", file=sys.stderr)
            return 2
        selected = [registry[name] for name in args.passes]
    if not selected:
        print("nothing to verify: give pass names or --all", file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None or args.profile:
        from repro.telemetry import trace as trace_mod

        # --profile keeps records in memory for the report; --trace alone
        # only streams to disk (keep default: False with a writer).
        tracer = trace_mod.configure(args.trace, node="main",
                                     keep=True if args.profile else None)
    try:
        return _run_verify(args, selected, tracer)
    finally:
        if tracer is not None:
            from repro.telemetry import trace as trace_mod

            trace_mod.shutdown()
            # Auto-record the finished trace into the longitudinal history
            # store (after shutdown so every span has hit the files).  A
            # --no-cache run is told not to touch the cache directory, so
            # its telemetry stays out of there too.
            if args.trace is not None and not args.no_history \
                    and not args.no_cache:
                _record_history(args)


def _record_history(args: argparse.Namespace) -> None:
    """Summarize a finished ``--trace`` run into the history store.

    Telemetry must never fail a verification run: every failure mode here
    collapses into a one-line stderr note.  Reporting stays on stderr —
    stdout is the verification report and is parsed byte-for-byte.
    """
    try:
        from repro.engine import ProofCache, default_cache_dir
        from repro.engine.fingerprint import toolchain_fingerprint
        from repro.telemetry.analyze import load_trace, summarize_trace
        from repro.telemetry.history import TelemetryHistory, git_describe
        from repro.telemetry.stats import load_store_stats

        summary = summarize_trace(load_trace(args.trace))
        directory = args.cache_dir or str(default_cache_dir())
        with TelemetryHistory(directory) as history:
            run_id = history.record_run(
                summary,
                stats={"backend": ProofCache.backend},
                # The run just wrote its canonical store aggregate beside
                # the cache; fold it into the same history row so tier hit
                # ratios trend alongside wall time.
                store_stats=load_store_stats(directory),
                node="main",
                toolchain=toolchain_fingerprint(),
                git=git_describe(),
            )
        print(f"history: recorded run #{run_id} -> {directory}/history.sqlite "
              f"(inspect with `repro history list --cache-dir {directory}`)",
              file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 — observability is best-effort
        print(f"history: run not recorded ({type(exc).__name__}: {exc})",
              file=sys.stderr)


def _run_verify(args, selected, tracer) -> int:
    from repro.engine import verify_passes
    from repro.errors import SolverUnavailable

    try:
        report = verify_passes(
            selected,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            pass_kwargs_fn=pass_kwargs_for,
            changed_paths=args.changed,
            solver=args.solver,
        )
    except SolverUnavailable as exc:
        from repro.prover.backend import available_solvers

        print(f"{exc}", file=sys.stderr)
        installed = ", ".join(name for name, ok in available_solvers() if ok)
        print(f"available solver backends here: {installed}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot open proof cache: {exc}", file=sys.stderr)
        print("use --cache-dir DIR with a writable directory, or --no-cache",
              file=sys.stderr)
        return 2
    results, stats = report.results, report.stats

    if args.format == "json":
        print(to_json(results, stats=stats))
    elif args.format == "markdown":
        print(to_markdown(results, title="Verification report", stats=stats))
    else:
        print(to_text(results, title="Verification report", stats=stats))
    if tracer is not None:
        # Telemetry reporting goes to stderr: stdout is the verification
        # report, and scripts (and CI) parse it byte-for-byte.
        if args.profile:
            from repro.telemetry.analyze import profile_records, render_profile

            for line in render_profile(profile_records(tracer.records)):
                print(line, file=sys.stderr)
        if args.trace is not None:
            print(f"trace: {tracer.spans_emitted} spans / "
                  f"{tracer.events_emitted} events -> {args.trace} "
                  f"(inspect with `repro trace summary {args.trace}`)",
                  file=sys.stderr)
    return 0 if all(result.verified for result in results) else 1


# --------------------------------------------------------------------------- #
# watch
# --------------------------------------------------------------------------- #
def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.incremental.watch import Watcher

    registry = _known_passes()
    if args.passes:
        missing = [name for name in args.passes if name not in registry]
        if missing:
            print(f"unknown pass(es): {', '.join(missing)}", file=sys.stderr)
            return 2
        selected = [registry[name] for name in args.passes]
    else:
        selected = list(registry.values())

    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return 2
    watcher = Watcher(
        selected,
        cache_dir=args.cache_dir,
        pass_kwargs_fn=pass_kwargs_for,
        extra_paths=args.data or (),
    )
    last = watcher.watch(interval=args.interval, cycles=args.cycles)
    return 0 if last is None or last.all_verified else 1


# --------------------------------------------------------------------------- #
# transpile
# --------------------------------------------------------------------------- #
def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_transpile(args: argparse.Namespace) -> int:
    from repro.coupling.devices import DEVICE_BUILDERS, device
    from repro.errors import ReproError
    from repro.qasm import parse_qasm
    from repro.transpiler.presets import baseline_pipeline, verified_pipeline

    try:
        circuit = parse_qasm(_read_source(args.input))
    except (OSError, ReproError) as exc:
        print(f"cannot read input circuit: {exc}", file=sys.stderr)
        return 2

    try:
        coupling = device(args.device)
    except KeyError:
        print(f"unknown device {args.device!r}; known devices: "
              f"{', '.join(sorted(DEVICE_BUILDERS))}", file=sys.stderr)
        return 2
    if coupling.num_qubits < circuit.num_qubits:
        print(
            f"device {args.device} has {coupling.num_qubits} qubits but the circuit "
            f"needs {circuit.num_qubits}",
            file=sys.stderr,
        )
        return 2

    factory = baseline_pipeline if args.pipeline == "baseline" else verified_pipeline
    pipeline = factory(coupling)
    compiled = pipeline.run(circuit)

    qasm = compiled.to_qasm()
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(qasm)
    else:
        print(qasm)
    if args.stats:
        print(
            f"# input: {circuit.num_qubits} qubits, {circuit.size()} gates; "
            f"output: {compiled.num_qubits} qubits, {compiled.size()} gates; "
            f"pipeline: {args.pipeline}; device: {args.device}",
            file=sys.stderr,
        )
    return 0


# --------------------------------------------------------------------------- #
# status / cache
# --------------------------------------------------------------------------- #
def _payload_bytes_suffix(nbytes) -> str:
    """``, N KiB payload`` when the store measured it, else nothing."""
    if not isinstance(nbytes, (int, float)) or nbytes <= 0:
        return ""
    return f", {nbytes / 1024:.1f} KiB payload"


def _print_store(store: Dict, cache_dir: str, file=None) -> None:
    """The proof-store lines of ``repro status``.

    ``damaged`` appears only when the load dropped unreadable lines;
    ``migrate`` only while a ``proofs.sqlite`` from the retired sqlite tier
    sits in the directory.
    """
    if store:
        print(f"store       : {store.get('entries_live', '?')} live entries "
              f"({store.get('entries_stale', '?')} stale), "
              f"{store.get('accumulated_hits', '?')} accumulated hits"
              + _payload_bytes_suffix(store.get("payload_bytes")), file=file)
        print(f"certificates: {store.get('cert_entries', '?')} entries, "
              f"{store.get('cert_accumulated_hits', '?')} accumulated hits"
              + _payload_bytes_suffix(store.get("cert_payload_bytes")), file=file)
    if store.get("corrupt_lines"):
        print(f"damaged     : {store['corrupt_lines']} unreadable lines "
              f"dropped on load", file=file)
    legacy = os.path.join(cache_dir, "proofs.sqlite")
    if os.path.exists(legacy):
        print(f"migrate     : {legacy} predates the JSONL store; import it "
              f"with `repro cache migrate --cache-dir {cache_dir}`", file=file)


def _cmd_status(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.engine import ProofCache, default_cache_dir

    cache_dir = args.cache_dir or str(default_cache_dir())
    if not os.path.exists(os.path.join(cache_dir, "proofs.jsonl")):
        print(f"no proof store in {cache_dir} yet", file=sys.stderr)
        _print_store({}, cache_dir, file=sys.stderr)
        return 1
    try:
        with ProofCache(cache_dir) as store:
            summary = store.summary()
    except OSError as exc:
        print(f"cannot open proof cache: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        # ``daemon`` stays a literal null so the JSON shape is unchanged.
        print(json_module.dumps({"daemon": None, "store": summary},
                                indent=2, sort_keys=True))
    else:
        _print_store(summary, cache_dir)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine import ProofCache, default_cache_dir

    cache_dir = args.cache_dir or str(default_cache_dir())
    if args.cache_command == "migrate":
        import sqlite3

        from repro.engine.cache import migrate_sqlite

        try:
            migrated = migrate_sqlite(cache_dir)
        except (OSError, sqlite3.Error) as exc:
            print(f"cannot open proof cache: {exc}", file=sys.stderr)
            return 2
        print(f"migrated {migrated} entries from {cache_dir}/proofs.sqlite "
              f"to {cache_dir}/proofs.jsonl")
        return 0
    if args.cache_command == "gc":
        from repro.incremental.deps import identity_key

        live = {
            identity_key(pass_class, pass_kwargs_for(pass_class))
            for pass_class in _known_passes().values()
        }
        try:
            with ProofCache(cache_dir) as cache:
                before = len(cache.deps_snapshot())
                removed = cache.gc_deps(live)
                dep_bytes = cache.stats.dep_bytes_reclaimed
        except OSError as exc:
            print(f"cannot open proof cache: {exc}", file=sys.stderr)
            return 2
        print(f"gc'd dependency index at {cache_dir}: "
              f"{before} -> {before - removed} entries "
              f"({removed} reclaimed for configurations no longer in any "
              f"suite, {dep_bytes} bytes)")
        return 0
    # prune
    if args.max_entries < 0:
        print("--max-entries must be >= 0", file=sys.stderr)
        return 2
    try:
        with ProofCache(cache_dir) as cache:
            before = len(cache)
            evicted = cache.prune(args.max_entries)
            after = len(cache)
            deps_reclaimed = cache.stats.deps_reclaimed
            certs_evicted = cache.stats.certs_evicted
            reclaimed = (cache.stats.proof_bytes_reclaimed,
                         cache.stats.cert_bytes_reclaimed,
                         cache.stats.dep_bytes_reclaimed)
    except OSError as exc:
        print(f"cannot open proof cache: {exc}", file=sys.stderr)
        return 2
    print(f"pruned cache at {cache_dir}: "
          f"{before} -> {after} entries ({evicted} evicted, "
          f"{certs_evicted} orphaned certificates dropped, "
          f"{deps_reclaimed} dep rows reclaimed)")
    print(f"reclaimed bytes: {reclaimed[0]} proofs, {reclaimed[1]} "
          f"certificates, {reclaimed[2]} deps "
          f"({sum(reclaimed)} total)")
    return 0


# --------------------------------------------------------------------------- #
# trace
# --------------------------------------------------------------------------- #
def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.telemetry.analyze import (
        TraceNotFound,
        export_chrome,
        load_trace,
        render_summary,
        render_tree,
        summarize_trace,
    )

    try:
        records = load_trace(args.directory)
    except TraceNotFound as exc:
        # Nothing here (missing, empty, or fully rotated away) is a plain
        # "no data" outcome, not a crash: one line, exit 1.
        print(f"no trace to {args.trace_command}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return 2

    if args.trace_command == "summary":
        summary = summarize_trace(records)
        for line in render_summary(summary, top=args.top):
            print(line)
        return 0

    if args.trace_command == "show":
        for line in render_tree(records, max_depth=args.depth):
            print(line)
        return 0

    # export (Chrome trace-event JSON for chrome://tracing / Perfetto)
    payload = json_module.dumps(export_chrome(records))
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(payload)
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.telemetry.analyze import TraceNotFound, load_trace, summarize_trace
    from repro.telemetry.diff import diff_summaries, render_diff

    try:
        before = summarize_trace(load_trace(args.before))
        after = summarize_trace(load_trace(args.after))
    except TraceNotFound as exc:
        print(f"no trace to diff: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return 2
    diff = diff_summaries(before, after, noise_pct=args.noise_pct,
                          min_seconds=args.min_seconds)
    if args.format == "json":
        print(json_module.dumps(diff, indent=2, sort_keys=True))
    else:
        for line in render_diff(diff, top=args.top):
            print(line)
    return 1 if diff["regressions"] else 0


# --------------------------------------------------------------------------- #
# history
# --------------------------------------------------------------------------- #
def _cmd_history(args: argparse.Namespace) -> int:
    import json as json_module
    import sqlite3
    import time as time_module

    from repro.engine import default_cache_dir
    from repro.telemetry.history import TelemetryHistory, history_path

    directory = args.cache_dir or str(default_cache_dir())
    command = args.history_command
    if command != "prune" and not history_path(directory).exists():
        print(f"no run history at {history_path(directory)} "
              f"(traced runs record automatically: "
              f"`repro verify --all --trace DIR`)", file=sys.stderr)
        return 1

    def _when(timestamp):
        if not timestamp:
            return "?"
        return time_module.strftime("%Y-%m-%d %H:%M:%S",
                                    time_module.localtime(timestamp))

    try:
        with TelemetryHistory(directory) as history:
            if command == "list":
                runs = history.runs(limit=args.limit)
                if args.format == "json":
                    for run in runs:
                        run.pop("summary", None)  # headline listing only
                    print(json_module.dumps(
                        {"store": history.summary(), "runs": runs},
                        indent=2, sort_keys=True))
                    return 0
                store = history.summary()
                print(f"history: {store['runs']} recorded runs in "
                      f"{store['path']} (schema {store['schema_version']}, "
                      f"keeping {store['max_runs']})")
                if runs:
                    header = (f"{'id':>4s}  {'recorded at':19s} {'passes':>6s} "
                              f"{'subgoals':>8s} {'wall(s)':>9s} "
                              f"{'solver':10s} git")
                    print(header)
                    print("-" * len(header))
                for run in runs:
                    print(f"{run['id']:4d}  {_when(run['created_at']):19s} "
                          f"{run['passes']:6d} {run['subgoals']:8d} "
                          f"{run['wall_seconds']:9.4f} "
                          f"{(run['solver'] or '?'):10s} "
                          f"{run['git'] or '-'}")
                return 0
            if command == "show":
                run = history.get_run(args.run)
                if run is None:
                    print(f"history: no run {args.run!r} "
                          f"(see `repro history list`)", file=sys.stderr)
                    return 1
                if args.format == "json":
                    print(json_module.dumps(run, indent=2, sort_keys=True))
                    return 0
                print(f"run #{run['id']}  recorded {_when(run['created_at'])}  "
                      f"node {run['node'] or '?'}  git {run['git'] or '-'}")
                print(f"toolchain {run['toolchain'] or '?'}  "
                      f"backend {run['backend'] or '?'}  "
                      f"wall {run['wall_seconds']:.4f}s")
                if run.get("summary"):
                    from repro.telemetry.analyze import render_summary

                    print()
                    for line in render_summary(run["summary"], top=args.top):
                        print(line)
                return 0
            if command == "regressions":
                payload = history.regressions(
                    baseline=args.baseline, candidate=args.candidate,
                    noise_pct=args.noise_pct, min_seconds=args.min_seconds)
                if payload.get("error"):
                    print(f"history: {payload['error']}", file=sys.stderr)
                    return 1
                if args.format == "json":
                    print(json_module.dumps(payload, indent=2, sort_keys=True))
                    return 1 if payload["regressions"] else 0
                flagged = payload["regressions"]
                print(f"run #{payload['candidate']} vs baseline "
                      f"#{payload['baseline']} "
                      f"(noise {payload['noise_pct']:.0f}%, floor "
                      f"{payload['min_seconds']*1000:.0f}ms):")
                if not flagged:
                    print("no pass regressed beyond the noise bound")
                    return 0
                for entry in flagged:
                    ratio = (f" ({entry['ratio']:.1f}x)"
                             if entry.get("ratio") else "")
                    print(f"  REGRESSION {entry['name']:40s} "
                          f"{entry['before']:9.4f}s -> "
                          f"{entry['after']:9.4f}s{ratio}")
                return 1
            # prune
            dropped = history.prune(args.max_runs)
            remaining = history.summary()["runs"]
            print(f"pruned history at {directory}: dropped {dropped} runs, "
                  f"{remaining} kept")
            return 0
    except (OSError, sqlite3.Error) as exc:
        print(f"cannot open run history: {exc}", file=sys.stderr)
        return 2


# --------------------------------------------------------------------------- #
# stats / dash
# --------------------------------------------------------------------------- #
def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine import default_cache_dir
    from repro.telemetry.stats import (canonical_bytes, load_store_stats,
                                       render_stats_table, store_stats_path)

    directory = args.cache_dir or str(default_cache_dir())
    payload = load_store_stats(directory)
    if payload is None:
        print(f"no store analytics at {store_stats_path(directory)} "
              f"(a cached run writes them automatically: "
              f"`repro verify --all`)", file=sys.stderr)
        return 1
    if args.format == "json":
        # The canonical half only, as canonical JSON: this output is the
        # determinism surface — byte-identical across runs of equal facts.
        print(canonical_bytes(payload))
        return 0
    for line in render_stats_table(payload, top=args.top):
        print(line)
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.engine import default_cache_dir
    from repro.telemetry.dash import write_dashboard

    directory = args.cache_dir or str(default_cache_dir())
    try:
        out = write_dashboard(directory, args.html, corpus_dir=args.corpus)
    except OSError as exc:
        print(f"cannot write dashboard: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out} (self-contained: open it in any browser, "
          f"no network needed)")
    if args.open:
        import webbrowser

        webbrowser.open(out.resolve().as_uri())
    return 0


# --------------------------------------------------------------------------- #
# bench / soundness / list
# --------------------------------------------------------------------------- #
def _cmd_bench(args: argparse.Namespace) -> int:
    if args.target == "table2":
        from repro.bench.table2 import main as table2_main

        return table2_main(["--new-passes-only"] if args.new_passes_only else [])
    if args.target == "figure11":
        from repro.bench.figure11 import main as figure11_main

        return figure11_main(["--small"] if args.small else [])
    if args.target == "solver":
        from repro.bench.solver import main as solver_main

        argv = []
        for name in args.solver or ():
            argv += ["--solver", name]
        if args.record:
            argv += ["--record", args.record]
        return solver_main(argv)
    if args.target == "telemetry":
        from repro.bench.telemetry import main as telemetry_main

        argv = []
        if args.record:
            argv += ["--record", args.record]
        if args.repeats is not None:
            argv += ["--repeats", str(args.repeats)]
        return telemetry_main(argv)
    if args.target == "stats":
        from repro.bench.stats import main as stats_main

        argv = []
        if args.record:
            argv += ["--record", args.record]
        if args.repeats is not None:
            argv += ["--repeats", str(args.repeats)]
        return stats_main(argv)
    from repro.bench.case_studies import main as case_studies_main

    return case_studies_main([])


def _cmd_soundness(args: argparse.Namespace) -> int:
    from repro.symbolic import check_commutation_table, check_rules

    rules_report = check_rules(embed_qubits=args.embed_qubits)
    commutation_report = check_commutation_table()
    print(f"rewrite rules checked    : {rules_report.checked}")
    print(f"unsound rules            : {len(rules_report.failures)}")
    for name in rules_report.failures:
        print(f"  UNSOUND: {name}")
    print(f"commutation pairs checked: {commutation_report.checked}")
    print(f"unsound commutations     : {len(commutation_report.failures)}")
    for name in commutation_report.failures:
        print(f"  UNSOUND: {name}")
    return 0 if rules_report.all_sound and commutation_report.all_sound else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import replay_corpus, run_campaign

    if args.action == "replay":
        report = replay_corpus(args.corpus)
        print(f"corpus entries : {report.total}")
        print(f"reproduced     : {report.reproduced}")
        if report.corrupt_lines:
            print(f"corrupt lines  : {report.corrupt_lines}")
        for miss in report.mismatches:
            print(f"  MISMATCH {miss['pass']} {miss['case_id']}: "
                  f"expected {miss['expected']}, got {miss['actual']}")
        return 0 if report.ok else 1

    config = {
        "shrink": not args.no_shrink,
        "device": args.device,
    }
    if args.max_qubits is not None:
        config["max_qubits"] = args.max_qubits
    if args.max_gates is not None:
        config["max_gates"] = args.max_gates
    try:
        result = run_campaign(
            args.seed, args.cases,
            corpus_dir=args.corpus,
            passes=args.passes or None,
            include_buggy=args.buggy,
            workers=args.workers,
            config=config,
            use_hints=not args.no_hints,
        )
    except ValueError as exc:  # unknown target pass names
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json as json_module

        print(json_module.dumps({
            "seed": result.seed,
            "cases": result.cases,
            "passes": result.passes,
            "failures": result.failures,
            "unit_failures": result.unit_failures,
            "counters": result.counters,
            "corpus": result.corpus_file,
            "entries": [{key: entry[key] for key in
                         ("pass", "case_id", "kind", "description")}
                        for entry in result.entries],
        }, indent=2, sort_keys=True))
    else:
        print(f"seed           : {result.seed}")
        print(f"cases          : {result.cases}")
        print(f"passes fuzzed  : {len(result.passes)}")
        print(f"failures       : {result.failures}")
        for entry in result.entries:
            gates = len(entry["circuit"]["gates"])
            shrink = entry.get("shrink") or {}
            minimal = "minimal" if shrink.get("minimal") else "unminimised"
            print(f"  {entry['pass']} [{entry['case_id']}] {entry['kind']}: "
                  f"{gates}-gate reproducer ({minimal})")
            print(f"    {entry['description']}")
        if result.corpus_file:
            print(f"corpus         : {result.corpus_file}")
    return 0 if result.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "passes":
        for pass_class in ALL_VERIFIED_PASSES:
            print(f"{pass_class.__name__:34s} verified   {pass_class.pass_type}")
        for pass_class in EXTENSION_PASSES:
            print(f"{pass_class.__name__:34s} extension  {pass_class.pass_type}")
        for pass_class in UNSUPPORTED_PASSES:
            reason = getattr(pass_class, "unsupported_reason", "")
            print(f"{pass_class.__name__:34s} unsupported ({reason})")
    elif args.what == "devices":
        from repro.coupling.devices import DEVICE_BUILDERS, device

        for name in sorted(DEVICE_BUILDERS):
            topology = device(name)
            print(f"{name:20s} {topology.num_qubits:3d} qubits, {len(topology.edges)} edges")
    else:
        from repro.bench.qasmbench import qasmbench_suite

        for entry in qasmbench_suite():
            print(f"{entry.name:24s} {entry.num_qubits:3d} qubits, {entry.num_gates:5d} gates")
    return 0


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Giallar reproduction: verify and run quantum compiler passes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify compiler passes push-button")
    verify.add_argument("passes", nargs="*", help="pass class names (e.g. CXCancellation)")
    verify.add_argument("--all", action="store_true", help="verify every known pass")
    verify.add_argument("--format", choices=("text", "markdown", "json"), default="text")
    verify.add_argument("--jobs", "-j", "--workers", type=int, default=1,
                        metavar="N",
                        help="no effect, accepted for older scripts: every "
                             "run proves in-process")
    verify.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="proof-cache directory (default ~/.cache/repro)")
    verify.add_argument("--no-cache", action="store_true",
                        help="re-prove everything; do not read or write the proof cache")
    verify.add_argument("--solver",
                        choices=("auto", "builtin", "z3", "bounded"),
                        default="auto",
                        help="prover backend for subgoal discharge: auto "
                             "(the builtin congruence-closure prover), z3 "
                             "(requires z3-solver; detected at run time), or "
                             "bounded (bidirectional bounded rewriting). "
                             "Verdicts are backend-independent; the choice "
                             "joins every cache key")
    verify.add_argument("--trace", default=None, metavar="DIR",
                        help="write a structured execution trace "
                             "(trace-*.jsonl) into DIR; inspect it with "
                             "`repro trace summary DIR`")
    verify.add_argument("--profile", action="store_true",
                        help="print a self-time-per-subsystem profile of "
                             "the run to stderr (works with or without "
                             "--trace)")
    verify.add_argument("--no-history", action="store_true",
                        help="do not auto-record this traced run's summary "
                             "into the history store (history.sqlite in the "
                             "cache directory)")
    verify.add_argument("--changed", action="append", default=None,
                        metavar="PATH",
                        help="report, as \"N stale re-checked\", how many "
                             "passes had their key derived again because "
                             "their sources moved; every run re-checks those "
                             "passes, whatever PATH lists (repeatable)")
    verify.set_defaults(handler=_cmd_verify)

    watch = sub.add_parser(
        "watch", help="re-verify passes incrementally as their sources change")
    watch.add_argument("passes", nargs="*",
                       help="pass class names to watch (default: every known pass)")
    watch.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                       help="poll interval between cycles (default 2.0)")
    watch.add_argument("--cycles", type=int, default=None, metavar="N",
                       help="stop after N cycles (default: run until ctrl-c); "
                            "--cycles 1 runs only the baseline verification")
    watch.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="no effect, accepted for older scripts: every "
                            "cycle proves in one process")
    watch.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="proof-cache directory (default ~/.cache/repro)")
    watch.add_argument("--data", action="append", default=None, metavar="PATH",
                       help="additionally watch a data file (device map, "
                            "qasm suite) whose edits should trigger "
                            "re-verification (repeatable)")
    watch.set_defaults(handler=_cmd_watch)

    status = sub.add_parser("status", help="summarise the proof store")
    status.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="proof-cache directory (default ~/.cache/repro)")
    status.add_argument("--format", choices=("text", "json"), default="text")
    status.set_defaults(handler=_cmd_status)

    cache = sub.add_parser("cache", help="maintain the proof cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prune = cache_sub.add_parser("prune", help="evict least-recently-used entries")
    prune.add_argument("--max-entries", type=int, required=True, metavar="N",
                       help="keep at most N entries (LRU across passes and subgoals)")
    prune.add_argument("--cache-dir", default=None, metavar="DIR")
    prune.set_defaults(handler=_cmd_cache)
    migrate = cache_sub.add_parser(
        "migrate", help="import a proofs.sqlite left by the retired sqlite "
                        "tier into the JSONL store (read-only)")
    migrate.add_argument("--cache-dir", default=None, metavar="DIR")
    migrate.set_defaults(handler=_cmd_cache)
    gc = cache_sub.add_parser(
        "gc", help="drop dependency entries for configurations not in any suite")
    gc.add_argument("--cache-dir", default=None, metavar="DIR")
    gc.set_defaults(handler=_cmd_cache)

    transpile = sub.add_parser("transpile", help="compile an OpenQASM 2 file for a device")
    transpile.add_argument("input", help="OpenQASM 2 file, or - for stdin")
    transpile.add_argument("--device", default="ibm_16q", help="target device name")
    transpile.add_argument("--pipeline", choices=("verified", "baseline"), default="verified")
    transpile.add_argument("--output", "-o", default="-", help="output file, or - for stdout")
    transpile.add_argument("--stats", action="store_true", help="print gate-count statistics")
    transpile.set_defaults(handler=_cmd_transpile)

    trace = sub.add_parser(
        "trace", help="inspect a structured trace written by verify --trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="slowest passes/subgoals, per-method and "
                        "per-solver breakdowns, cache outcomes")
    trace_summary.add_argument("directory", help="directory given to --trace")
    trace_summary.add_argument("--top", type=int, default=10, metavar="N",
                               help="rows per table (default 10)")
    trace_show = trace_sub.add_parser(
        "show", help="print the span tree, children indented under parents")
    trace_show.add_argument("directory", help="directory given to --trace")
    trace_show.add_argument("--depth", type=int, default=None, metavar="N",
                            help="limit tree depth")
    trace_export = trace_sub.add_parser(
        "export", help="convert to Chrome trace-event JSON "
                       "(chrome://tracing, Perfetto)")
    trace_export.add_argument("directory", help="directory given to --trace")
    trace_export.add_argument("--output", "-o", default="-",
                              help="output file, or - for stdout")
    trace_diff = trace_sub.add_parser(
        "diff", help="attribute the wall delta between two traced runs "
                     "down to pass/subgoal/method (exit 1 on a "
                     "beyond-noise regression)")
    trace_diff.add_argument("before", help="trace directory of the baseline run")
    trace_diff.add_argument("after", help="trace directory of the candidate run")
    trace_diff.add_argument("--noise-pct", type=float,
                            default=DEFAULT_NOISE_PCT, metavar="PCT",
                            help="relative cushion a pass must exceed to "
                                 "flag (default %(default)s)")
    trace_diff.add_argument("--min-seconds", type=float,
                            default=DEFAULT_MIN_SECONDS, metavar="SECONDS",
                            help="absolute delta floor (default %(default)s)")
    trace_diff.add_argument("--top", type=int, default=10, metavar="N",
                            help="rows per table (default 10)")
    trace_diff.add_argument("--format", choices=("text", "json"),
                            default="text")
    trace_diff.set_defaults(handler=_cmd_trace_diff)
    trace.set_defaults(handler=_cmd_trace)

    history = sub.add_parser(
        "history", help="the longitudinal store of traced-run summaries")
    history_sub = history.add_subparsers(dest="history_command", required=True)
    history_list = history_sub.add_parser(
        "list", help="recorded runs, newest first")
    history_list.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="cache directory holding history.sqlite "
                                   "(default ~/.cache/repro)")
    history_list.add_argument("--limit", type=int, default=20, metavar="N",
                              help="rows to list (default 20)")
    history_list.add_argument("--format", choices=("text", "json"),
                              default="text")
    history_show = history_sub.add_parser(
        "show", help="one recorded run's full summary")
    history_show.add_argument("run", help="run id, or 'latest' / negative "
                                          "ids counting from the end")
    history_show.add_argument("--cache-dir", default=None, metavar="DIR")
    history_show.add_argument("--top", type=int, default=10, metavar="N")
    history_show.add_argument("--format", choices=("text", "json"),
                              default="text")
    history_reg = history_sub.add_parser(
        "regressions", help="noise-aware pass regressions between two "
                            "recorded runs (default: newest vs previous; "
                            "exit 1 when any pass flags)")
    history_reg.add_argument("--cache-dir", default=None, metavar="DIR")
    history_reg.add_argument("--baseline", default=None, metavar="RUN",
                             help="baseline run id (default: the run "
                                  "before the candidate)")
    history_reg.add_argument("--candidate", default="latest", metavar="RUN",
                             help="candidate run id (default latest)")
    history_reg.add_argument("--noise-pct", type=float,
                             default=DEFAULT_NOISE_PCT, metavar="PCT")
    history_reg.add_argument("--min-seconds", type=float,
                             default=DEFAULT_MIN_SECONDS, metavar="SECONDS")
    history_reg.add_argument("--format", choices=("text", "json"),
                             default="text")
    history_prune = history_sub.add_parser(
        "prune", help="drop all but the newest N runs")
    history_prune.add_argument("--max-runs", type=int, required=True,
                               metavar="N")
    history_prune.add_argument("--cache-dir", default=None, metavar="DIR")
    history.set_defaults(handler=_cmd_history)

    stats = sub.add_parser(
        "stats", help="the latest run's canonical proof-store analytics "
                      "(tier hit ratios, hot keys, wasted evictions)")
    stats.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory holding store-stats.json "
                            "(default ~/.cache/repro)")
    stats.add_argument("--top", type=int, default=10, metavar="N",
                       help="hot keys to list (default 10)")
    stats.add_argument("--format", choices=("table", "json"), default="table",
                       help="json prints the canonical aggregate only — "
                            "byte-identical across runs of equal facts")
    stats.set_defaults(handler=_cmd_stats)

    dash = sub.add_parser(
        "dash", help="render history, the latest run, tier ratios and the "
                     "fuzz corpus as one offline HTML page")
    dash.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="cache directory to report on "
                           "(default ~/.cache/repro)")
    dash.add_argument("--html", default="repro-dash.html", metavar="OUT",
                      help="output file (default repro-dash.html)")
    dash.add_argument("--corpus", default=".repro-fuzz", metavar="DIR",
                      help="fuzz corpus directory for the corpus section "
                           "(default .repro-fuzz)")
    dash.add_argument("--open", action="store_true",
                      help="open the rendered report in the default browser")
    dash.set_defaults(handler=_cmd_dash)

    bench = sub.add_parser("bench", help="run one of the paper's evaluation drivers")
    bench.add_argument("target",
                       choices=("table2", "figure11", "case-studies",
                                "solver", "telemetry", "stats"))
    bench.add_argument("--small", action="store_true", help="figure11: use the trimmed suite")
    bench.add_argument("--new-passes-only", action="store_true",
                       help="table2: only the passes new in Qiskit 0.32")
    bench.add_argument("--solver", action="append", default=None, metavar="NAME",
                       help="solver: additionally measure this prover backend "
                            "(repeatable)")
    bench.add_argument("--repeats", type=int, default=None, metavar="N",
                       help="telemetry/stats: warm off/on measurement pairs "
                            "(default 20)")
    bench.add_argument("--record", default=None, metavar="PATH",
                       help="solver/telemetry/stats: write "
                            "the measured comparison as JSON")
    bench.set_defaults(handler=_cmd_bench)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: hunt pass bugs, shrink them, replay the corpus")
    fuzz.add_argument("action", nargs="?", choices=("run", "replay"),
                      default="run",
                      help="run a campaign (default) or replay the corpus "
                           "as deterministic regression units")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed: the corpus is a pure function of it")
    fuzz.add_argument("--cases", type=int, default=25,
                      help="number of random cases to generate")
    fuzz.add_argument("--passes", nargs="*", default=None, metavar="PASS",
                      help="target pass names (default: every registered pass)")
    fuzz.add_argument("--buggy", action="store_true",
                      help="include the known-buggy passes (ground truth)")
    fuzz.add_argument("--corpus", default=".repro-fuzz", metavar="DIR",
                      help="corpus directory (JSONL + metadata)")
    fuzz.add_argument("--workers", type=int, default=1, metavar="N",
                      help="run seed-range batches on N local worker "
                           "processes; 0 auto-detects the CPU count, capped "
                           "at 8 (default 1, in-process)")
    fuzz.add_argument("--device", default="linear",
                      help="device topology for generated cases")
    fuzz.add_argument("--max-qubits", type=int, default=None,
                      help="cap on generated circuit width")
    fuzz.add_argument("--max-gates", type=int, default=None,
                      help="cap on generated circuit length")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="keep raw failing circuits (skip delta debugging)")
    fuzz.add_argument("--no-hints", action="store_true",
                      help="skip the passes' counterexample_hint() prelude")
    fuzz.add_argument("--format", choices=("text", "json"), default="text")
    fuzz.set_defaults(handler=_cmd_fuzz)

    soundness = sub.add_parser("soundness", help="re-check the rewrite rules numerically")
    soundness.add_argument("--embed-qubits", type=int, default=1,
                           help="extra idle qubits when embedding each rule")
    soundness.set_defaults(handler=_cmd_soundness)

    listing = sub.add_parser("list", help="list passes, devices, or benchmark circuits")
    listing.add_argument("what", choices=("passes", "devices", "circuits"))
    listing.set_defaults(handler=_cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pipe reader (head, grep -q, ...) closed early; exit
        # quietly instead of tracebacking, and detach stdout so the
        # interpreter's shutdown flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
