"""The summary rules of tools/bench_file.py, on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_file", Path(__file__).resolve().parents[1] / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)

LOWER = [{"name": "setup_s", "bound": 0.25, "better": "lower"}]
HIGHER = [{"name": "rate", "bound": 0.25, "better": "higher"}]


def pairs(name, base, head):
    return [{"base": {name: b, "elapsed_s": 40.0}, "head": {name: h, "elapsed_s": 40.0}}
            for b, h in zip(base, head)]


# quartiles 0.1825 and 0.2725 around a median of 0.2: a spread of 45% of the median
WIDE = [0.16, 0.18, 0.18, 0.19, 0.2, 0.2, 0.25, 0.28, 0.3, 0.36]
NARROW = [0.19, 0.195, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.205, 0.21]


def test_wide_base_spread_with_overlapping_runs_is_unresolved():
    summary = bench_file.summarize(pairs("setup_s", WIDE, list(reversed(WIDE))), LOWER)
    assert summary["setup_s"]["unresolved"] is True


def test_head_beating_every_base_run_is_resolved():
    head = [v - 0.21 for v in WIDE]      # every head run below the fastest base run
    summary = bench_file.summarize(pairs("setup_s", WIDE, head), LOWER)
    assert summary["setup_s"]["unresolved"] is False
    assert summary["setup_s"]["head_wins"] == 10


def test_narrow_base_spread_is_resolved():
    summary = bench_file.summarize(pairs("setup_s", NARROW, list(reversed(NARROW))), LOWER)
    assert summary["setup_s"]["unresolved"] is False


def test_higher_is_better_metrics_beat_upwards():
    over = bench_file.summarize(pairs("rate", WIDE, [v + 0.21 for v in WIDE]), HIGHER)
    assert over["rate"]["unresolved"] is False and over["rate"]["head_wins"] == 10
    under = bench_file.summarize(pairs("rate", WIDE, [v - 0.21 for v in WIDE]), HIGHER)
    assert under["rate"]["unresolved"] is True and under["rate"]["head_wins"] == 0
