"""The static pass analyser (the preprocessor of Section 4)."""

import ast
import inspect
import sys

import pytest

from repro.engine.fingerprint import pass_fingerprint
from repro.errors import UnsupportedPassError
from repro.passes import (
    ALL_VERIFIED_PASSES,
    BasicSwap,
    CommutativeCancellation,
    CXCancellation,
    EXTENSION_PASS_CATEGORY,
    Optimize1qGates,
    RemoveDiagonalGatesBeforeMeasure,
    UNSUPPORTED_PASSES,
    Width,
    buggy,
)
from repro.passes.unsupported import (
    BIPMapping,
    CrosstalkAdaptiveSchedule,
    StochasticSwap,
    UnitarySynthesis,
)
from repro.verify import GeneralPass, analyze_pass, preprocessor
from repro.verify.preprocessor import pass_source
from repro.verify.templates import iterate_all_gates

#: Every pass class the package ships: the suite, the unsupported passes,
#: the extension passes and the deliberately wrong ones.
SHIPPED_PASSES = [
    *ALL_VERIFIED_PASSES,
    *UNSUPPORTED_PASSES,
    *(cls for classes in EXTENSION_PASS_CATEGORY.values() for cls in classes),
    *(cls for _, cls in inspect.getmembers(buggy, inspect.isclass)
      if cls.__module__ == buggy.__name__),
]


def test_loc_counts_are_positive_and_small():
    for pass_class in ALL_VERIFIED_PASSES:
        analysis = analyze_pass(pass_class)
        assert analysis.supported
        assert 0 < analysis.lines_of_code < 200


def test_template_detection_per_pass():
    assert "while_gate_remaining" in analyze_pass(CXCancellation).templates_used
    assert "while_gate_remaining" in analyze_pass(CommutativeCancellation).templates_used
    assert "collect_runs" in analyze_pass(Optimize1qGates).templates_used
    assert "route_each_gate" in analyze_pass(BasicSwap).templates_used
    assert analyze_pass(Width).templates_used == ()


def test_utility_detection_per_pass():
    assert "next_gate" in analyze_pass(CXCancellation).utilities_used
    assert "next_gate" in analyze_pass(RemoveDiagonalGatesBeforeMeasure).utilities_used
    assert "merge_1q_gates" in analyze_pass(Optimize1qGates).utilities_used


def test_branch_counts_reflect_the_implementation():
    assert analyze_pass(Width).branch_count == 0
    assert analyze_pass(CXCancellation).branch_count >= 2
    # The paper's observation: branch expansion stays small for real passes.
    for pass_class in ALL_VERIFIED_PASSES:
        assert analyze_pass(pass_class).branch_count <= 9


@pytest.mark.parametrize("pass_class", UNSUPPORTED_PASSES,
                         ids=[p.__name__ for p in UNSUPPORTED_PASSES])
def test_unsupported_passes_report_a_reason(pass_class):
    analysis = analyze_pass(pass_class)
    assert not analysis.supported
    assert analysis.unsupported_reason


def test_unsupported_reasons_match_the_papers_taxonomy():
    reasons = {
        cls.__name__: analyze_pass(cls).unsupported_reason for cls in
        (StochasticSwap, CrosstalkAdaptiveSchedule, BIPMapping, UnitarySynthesis)
    }
    assert "random" in reasons["StochasticSwap"].lower()
    assert "solver" in reasons["CrosstalkAdaptiveSchedule"].lower()
    assert "solver" in reasons["BIPMapping"].lower()
    assert "approximat" in reasons["UnitarySynthesis"].lower()
    pulse_level = [
        cls for cls in UNSUPPORTED_PASSES
        if "pulse" in analyze_pass(cls).unsupported_reason.lower()
    ]
    assert len(pulse_level) == 8


def test_raw_loops_are_flagged_unless_declared_bounded():
    class Unbounded(GeneralPass):
        def run(self, circuit):
            total = 0
            while total < 5:
                total += 1
            return circuit

    class Bounded(GeneralPass):
        raw_loops_are_bounded = True

        def run(self, circuit):
            for _ in range(3):
                pass
            return circuit

    assert not analyze_pass(Unbounded).supported
    assert analyze_pass(Bounded).supported


def test_class_without_run_or_reason_is_an_error():
    class NotAPass:
        pass

    with pytest.raises(UnsupportedPassError):
        analyze_pass(NotAPass)


def test_a_name_bound_twice_is_analysed_as_the_binding_python_keeps():
    class Redefined(GeneralPass):
        def run(self, circuit):
            return circuit

    class Redefined(GeneralPass):  # noqa: F811 - the class Python binds
        def run(self, circuit):
            def body(output, gate):
                if gate.is_cx_gate():
                    output.append(gate)

            return iterate_all_gates(circuit, body)

    analysis = analyze_pass(Redefined)
    assert analysis.templates_used == ("iterate_all_gates",)
    assert analysis.branch_count == 1


FORM_FEED_MODULE = (
    "from repro.verify.passes import GeneralPass\n"
    "\x0c\n"
    "class AfterFormFeed(GeneralPass):\n"
    "    def run(self, circuit):\n"
    "        return circuit\n"
    "\n"
    "if True:\n"
    "    class InABlock(GeneralPass):\n"
    "        def run(self, circuit):\n"
    "            return circuit\n"
)


def test_class_sources_are_sliced_where_ast_counts_lines(tmp_path, monkeypatch):
    # A form feed is whitespace to Python but a line break to
    # str.splitlines; a class in an if block is still found.
    (tmp_path / "form_feed_passes.py").write_text(FORM_FEED_MODULE, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    import form_feed_passes

    try:
        assert pass_source(form_feed_passes.AfterFormFeed) == (
            "class AfterFormFeed(GeneralPass):\n"
            "    def run(self, circuit):\n"
            "        return circuit")
        assert pass_source(form_feed_passes.InABlock).startswith("class InABlock(")
        assert analyze_pass(form_feed_passes.InABlock).supported
    finally:
        sys.modules.pop("form_feed_passes", None)


def test_analysis_parses_the_class_body_not_its_module(monkeypatch):
    pass_fingerprint(CXCancellation)  # extracts every class in the module
    parsed = []
    real_parse = ast.parse

    def recording_parse(source, *args, **kwargs):
        parsed.append(len(source))
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", recording_parse)
    analyze_pass(CXCancellation)
    monkeypatch.undo()
    assert parsed == [len(pass_source(CXCancellation))]
    assert parsed[0] < len(inspect.getsource(inspect.getmodule(CXCancellation)))


@pytest.mark.parametrize("pass_class", SHIPPED_PASSES,
                         ids=[p.__name__ for p in SHIPPED_PASSES])
def test_analysis_equals_the_inspect_getsource_oracle(pass_class, monkeypatch):
    """Reading the fingerprint's class source changes no analysis.

    The oracle is the same analysis over ``inspect.getsource``'s text (its
    line count, templates and utilities reach reports and cached payloads).
    """
    analysis = analyze_pass(pass_class)
    monkeypatch.setattr(preprocessor, "pass_source", inspect.getsource)
    assert analysis == analyze_pass(pass_class)
