"""The verdict rule and report of tools/ab_bench.py, on fixed numbers; no
benchmark runs here."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "ab_bench.py")
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # quartiles 99.25 / 100 / 101


def test_quartiles():
    assert ab_bench.quartiles(PARENT) == pytest.approx((99.25, 100.0, 101.0))
    assert ab_bench.quartiles([5.0]) == (5.0, 5.0, 5.0)


BOUND = 0.25  # the benchmark's bound on most metrics: 25 against PARENT's median


def test_gain_needs_nine_in_ten_wins_and_a_gap_above_the_parents_quartile_spread():
    change = [p + 10.0 for p in PARENT]
    assert ab_bench.verdict(PARENT, change, "higher", BOUND) == ("gain", 10)
    # The same numbers read as a lower-is-better metric: 10 worse, within the bound.
    assert ab_bench.verdict(PARENT, change, "lower", BOUND) == ("no gain", 0)
    nine = [p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    assert ab_bench.verdict(PARENT, nine, "higher", BOUND) == ("gain", 9)
    eight = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    assert ab_bench.verdict(PARENT, eight, "higher", BOUND) == ("no gain", 8)


def test_a_gap_within_the_parents_quartile_spread_is_not_a_gain():
    # Every pair won, but the median moves by 1.5 against a spread of 1.75.
    change = [p + 1.5 for p in PARENT]
    assert ab_bench.verdict(PARENT, change, "higher", BOUND) == ("no gain", 10)
    assert ab_bench.verdict(PARENT, [p + 2.0 for p in PARENT], "higher", BOUND) == ("gain", 10)


def test_ties_count_for_neither_side_and_an_equal_median_is_no_gain():
    assert ab_bench.verdict(PARENT, list(PARENT), "higher", BOUND) == ("no gain", 0)
    assert ab_bench.verdict(PARENT, list(PARENT), "lower", BOUND) == ("no gain", 0)
    # Equal runs with no spread, as val_loss gives, are within even a bound of 0.
    assert ab_bench.verdict([5.0] * 10, [5.0] * 10, "lower", 0.0) == ("no gain", 0)


def test_fewer_than_ten_pairs_never_read_as_a_gain():
    parent, change = PARENT[:9], [p + 10.0 for p in PARENT[:9]]
    assert ab_bench.verdict(parent, change, "higher", BOUND) == ("no gain", 9)


def test_lower_is_better_metrics_win_by_falling():
    change = [p - 10.0 for p in PARENT]
    assert ab_bench.verdict(PARENT, change, "lower", BOUND) == ("gain", 10)


def test_a_median_worse_by_more_than_the_bound_is_worse_than_bound():
    # Parent median 100, bound 25: a median of 70 is out, 75 and 80 are in.
    assert ab_bench.verdict(PARENT, [0.7 * p for p in PARENT], "higher", BOUND) == ("worse than bound", 0)
    assert ab_bench.verdict(PARENT, [0.75 * p for p in PARENT], "higher", BOUND) == ("no gain", 0)
    assert ab_bench.verdict(PARENT, [0.8 * p for p in PARENT], "higher", BOUND) == ("no gain", 0)
    assert ab_bench.verdict(PARENT, [1.3 * p for p in PARENT], "lower", BOUND) == ("worse than bound", 0)
    assert ab_bench.verdict(PARENT, [1.04 * p for p in PARENT], "lower", 0.05) == ("no gain", 0)
    assert ab_bench.verdict(PARENT, [1.06 * p for p in PARENT], "lower", 0.05) == ("worse than bound", 0)


NOISY = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]  # quartiles 91.25 / 100 / 108.75


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # A spread of 17.5 is within a bound of 25 but wider than one of 10.
    assert ab_bench.verdict(NOISY, list(NOISY), "higher", BOUND) == ("no gain", 0)
    assert ab_bench.verdict(NOISY, list(NOISY), "higher", 0.1) == ("unresolved", 0)
    assert ab_bench.verdict(NOISY, [p + 5.0 for p in NOISY], "higher", 0.1) == ("unresolved", 10)
    assert ab_bench.verdict(NOISY, [p - 5.0 for p in NOISY], "lower", 0.1) == ("unresolved", 10)
    # Worse than the bound is told even when the spread is wide.
    assert ab_bench.verdict(NOISY, [0.5 * p for p in NOISY], "higher", 0.1) == ("worse than bound", 0)


def test_a_wide_spread_is_resolved_when_every_change_run_reads_better():
    # Five pairs cannot show a gain, but every change run beats every parent run.
    assert ab_bench.verdict(NOISY[:5], [121.0, 125.0, 130.0, 122.0, 128.0], "higher", 0.1) == ("no gain", 5)
    assert ab_bench.verdict(NOISY[:5], [79.0, 70.0, 75.0, 60.0, 78.0], "lower", 0.1) == ("no gain", 5)
    # One change run no better than the parent's best leaves it unresolved.
    assert ab_bench.verdict(NOISY[:5], [120.0, 125.0, 130.0, 122.0, 128.0], "higher", 0.1) == ("unresolved", 5)


@pytest.mark.parametrize(
    "parent, change, better, bound",
    [([], [], "higher", BOUND), ([1.0], [1.0, 2.0], "higher", BOUND), ([1.0], [2.0], "up", BOUND),
     ([1.0], [2.0], "higher", -0.1), ([1.0], [2.0], "higher", float("nan"))],
)
def test_verdict_rejects_bad_input(parent, change, better, bound):
    with pytest.raises(ValueError):
        ab_bench.verdict(parent, change, better, bound)


def test_report_has_one_line_per_metric_with_the_paired_ratio_and_its_bound():
    metrics = [{"name": "rate", "better": "higher", "bound": 0.25}, {"name": "ms", "better": "lower", "bound": 0.25},
               {"name": "rss", "better": "lower", "bound": 0.1}]
    run = lambda v: {"metrics": {m["name"]: {"value": v} for m in metrics}}  # noqa: E731
    parent = [run(p) for p in PARENT]
    change = [run(1.2 * p) for p in PARENT]
    header, rate, ms, rss = ab_bench.report(metrics, parent, change)
    assert rate.split()[0] == "rate" and rate.endswith("  gain") and " 1.2000 " in rate and "10/10" in rate
    assert ms.split()[0] == "ms" and ms.endswith("  no gain") and " 0/10" in ms
    assert rss.split()[0] == "rss" and rss.endswith("  worse than bound") and " 0/10" in rss
