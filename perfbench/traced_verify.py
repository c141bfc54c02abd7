"""Run one ``repro`` command with each layer's entry points wrapped in spans.

Usage::

    python perfbench/traced_verify.py SPAWNED_AT SPANS_OUT -- ARGS...

``SPAWNED_AT`` is the parent's ``time.perf_counter()`` taken just before it
spawned this process; ``perf_counter`` reads ``CLOCK_MONOTONIC``, which is
system-wide on Linux, so the gap to this script's first reading is the
interpreter's start-up.  The script then

1. times ``import repro.cli`` plus the layer modules it wraps,
2. wraps every function in :data:`LAYER_TARGETS` where the program looks
   it up, and calls ``repro.cli.main(ARGS)``,
3. removes the wrappers, notes the time (``finished``; what follows, writing
   the spans and interpreter teardown, is the run's exit), and
4. writes the spans it kept in memory to ``SPANS_OUT`` as JSON.

Its exit code is ``main``'s.  Nothing under ``src/`` changes: the spans are
recorded from outside, around the calls into each layer.  A wrapper records
only the outermost activation of its function; processes forked by the run
(``--jobs N`` workers) inherit the wrappers but their spans die with them.
"""

import time

STARTED = time.perf_counter()

import ast  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

#: (tag, module, attribute): the functions wrapped, named where the
#: program looks them up.  ``repro.verify.discharge`` is reached through
#: ``importlib`` because the package attribute of that name is a function.
LAYER_TARGETS = (
    ("cli.resolve", "repro.cli", "_known_passes"),
    ("cli.resolve", "repro.cli", "pass_kwargs_for"),
    ("fingerprint.pass", "repro.engine.driver", "pass_fingerprint"),
    ("fingerprint.subgoal", "repro.engine.driver", "subgoal_fingerprint"),
    ("fingerprint.toolchain", "repro.engine.fingerprint", "toolchain_fingerprint"),
    ("deps", "repro.incremental.deps", "build_dep_entry"),
    ("cache.load", "repro.engine.cache", "ProofCache.__init__"),
    ("cache.read", "repro.engine.cache", "ProofCache.get_pass"),
    ("cache.read", "repro.engine.cache", "ProofCache.get_subgoal"),
    ("cache.read", "repro.engine.cache", "ProofCache.has_subgoal"),
    ("cache.read", "repro.engine.cache", "ProofCache.subgoal_snapshot"),
    ("cache.read", "repro.engine.cache", "ProofCache.deps_snapshot"),
    ("cache.write", "repro.engine.cache", "ProofCache.put_pass"),
    ("cache.write", "repro.engine.cache", "ProofCache.put_subgoal"),
    ("cache.write", "repro.engine.cache", "ProofCache.put_deps"),
    ("cache.write", "repro.engine.cache", "ProofCache.put_certificate"),
    ("cache.persist", "repro.engine.cache", "ProofCache.touch_subgoals"),
    ("cache.persist", "repro.engine.cache", "ProofCache.close"),
    ("preprocessor", "repro.verify.verifier", "analyze_pass"),
    ("session", "repro.verify.session", "PathExplorer.explore"),
    ("discharge", "repro.verify.discharge", "Discharger.__call__"),
    ("scheduler", "repro.engine.scheduler", "WorkerPool.map"),
    ("stats", "repro.telemetry.stats", "StatsRecorder.finalize_and_save"),
    ("report", "repro.cli", "to_json"),
    ("report", "repro.cli", "to_text"),
)


def _span_detail(tag, result):
    """What a span records about its call's result, beyond its times."""
    if tag == "discharge":
        return [result.method, bool(result.proved)]
    if tag in ("session", "scheduler"):
        return len(result)  # paths explored / tasks mapped
    return None


class SpanRecorder:
    """Spans kept in memory: ``[target, start, end, parent, detail]``."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.deps_ast_parses = 0

    def wrap(self, target, tag, func):
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter
        active = False

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return func(*args, **kwargs)
            active = True
            span = [target, clock(), 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
                span[4] = _span_detail(tag, result)
                return result
            finally:
                span[2] = clock()
                open_spans.pop()
                active = False

        return wrapper

    def count_parse(self, parse):
        def counted(*args, **kwargs):
            self.deps_ast_parses += 1
            return parse(*args, **kwargs)

        return counted


def _owner_and_leaf(module_name, attribute):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(recorder):
    """Wrap every :data:`LAYER_TARGETS` function that exists.

    Returns ``(uninstall, missing)``: the undo function and the targets
    that no longer resolve (renamed or moved code).  A missing target is
    skipped, not fatal: its time shows up as ``process.unattributed_s``.
    """
    originals, missing = [], []
    for index, (tag, module_name, attribute) in enumerate(LAYER_TARGETS):
        try:
            owner, leaf = _owner_and_leaf(module_name, attribute)
            # A class's own __dict__ holds the plain function, not a bound
            # method.
            original = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{attribute}")
            continue
        originals.append((owner, leaf, original))
        setattr(owner, leaf, recorder.wrap(index, tag, original))
    # incremental.deps parses modules with ``ast.parse``; give that module
    # alone a counting ``ast`` so other parsers are not counted.
    deps = sys.modules.get("repro.incremental.deps")
    if getattr(deps, "ast", None) is ast:
        counting_ast = types.ModuleType("ast")
        counting_ast.__dict__.update(vars(ast))
        counting_ast.parse = recorder.count_parse(ast.parse)
        originals.append((deps, "ast", ast))
        deps.ast = counting_ast
    else:
        missing.append("repro.incremental.deps.ast")

    def uninstall():
        for owner, leaf, original in reversed(originals):
            setattr(owner, leaf, original)

    return uninstall, missing


def run(argv):
    """Import, wrap, run ``repro.cli.main(argv)``, unwrap.

    Returns ``(exit_code, trace)`` where ``trace`` is the JSON-ready record
    of the run.
    """
    import_started = time.perf_counter()
    import repro.cli

    recorder = SpanRecorder()
    uninstall, missing = install(recorder)
    import_s = time.perf_counter() - import_started
    try:
        code = repro.cli.main(argv)
    finally:
        uninstall()
    trace = {
        "started": STARTED,
        "import_s": import_s,
        "finished": time.perf_counter(),
        "targets": [tag for tag, _, _ in LAYER_TARGETS],
        "spans": recorder.spans,
        "deps_ast_parses": recorder.deps_ast_parses,
        "missing": missing,
    }
    return code, trace


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_verify.py SPAWNED_AT SPANS_OUT -- ARGS...",
              file=sys.stderr)
        return 2
    spawned_at, spans_out, repro_argv = float(argv[0]), argv[1], argv[3:]
    code, trace = run(repro_argv)
    trace["spawned_at"] = spawned_at
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
