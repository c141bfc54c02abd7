"""The shared noise-aware thresholds (bench gate + run differencing)."""

from repro.telemetry.bounds import (
    DEFAULT_MAX_OVERHEAD_PCT,
    DEFAULT_MIN_SECONDS,
    DEFAULT_NOISE_PCT,
    exceeds_ratio,
    is_regression,
    regression_ratio,
)


def test_exceeds_ratio_basic():
    assert exceeds_ratio(1.3, 1.0, max_pct=25.0)
    assert not exceeds_ratio(1.2, 1.0, max_pct=25.0)
    # The bound itself is not an exceedance.
    assert not exceeds_ratio(1.25, 1.0, max_pct=25.0)


def test_exceeds_ratio_degenerate_reference():
    # No meaningful baseline: never flag on a ratio alone.
    assert not exceeds_ratio(10.0, 0.0, max_pct=25.0)
    assert not exceeds_ratio(10.0, -1.0, max_pct=25.0)


def test_regression_ratio():
    assert regression_ratio(1.0, 2.0) == 2.0
    assert regression_ratio(0.0, 2.0) is None
    assert regression_ratio(2.0, 0.0) is None


def test_is_regression_needs_both_bounds():
    # Beyond the relative cushion AND the absolute floor.
    assert is_regression(1.0, 1.5)
    # Within the relative cushion.
    assert not is_regression(1.0, 1.1)
    # 4x slower but microseconds: below the absolute floor.
    assert not is_regression(0.0001, 0.0004)
    # Faster is never a regression.
    assert not is_regression(1.0, 0.5)


def test_is_regression_custom_bounds():
    assert is_regression(1.0, 1.2, noise_pct=10.0)
    assert not is_regression(1.0, 1.2, noise_pct=30.0)
    assert not is_regression(1.0, 1.5, min_seconds=1.0)


def test_default_constants_are_sane():
    # check_bench.py gates on these; pin the contract, not the values.
    assert 0.0 < DEFAULT_MAX_OVERHEAD_PCT < 100.0
    assert 0.0 < DEFAULT_NOISE_PCT < 100.0
    assert DEFAULT_MIN_SECONDS > 0.0


def test_check_bench_imports_the_shared_bounds():
    """tools/check_bench.py must gate with this module, not a private copy."""
    import importlib.util
    from pathlib import Path

    tool = Path(__file__).resolve().parents[2] / "tools" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("check_bench_under_test", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.exceeds_ratio is exceeds_ratio
    assert module.DEFAULT_MAX_OVERHEAD_PCT == DEFAULT_MAX_OVERHEAD_PCT
