"""The pair summary of ``tools/pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", REPO / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BOUNDS = {"solve_s": ("lower", 0.25), "roots_per_s": ("higher", 0.25)}


def _pairs(parent, change, metric="solve_s"):
    return [{"parent": {metric: a}, "change": {metric: b}}
            for a, b in zip(parent, change)]


def _row(parent, change, metric="solve_s"):
    (row,) = pairs.summarize(_pairs(parent, change, metric),
                             {metric: BOUNDS[metric]})
    return row


def test_a_clear_win_is_beyond_the_parent_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.85, 0.86, 0.84, 0.87, 0.85, 1.04, 0.83, 0.86, 0.85, 0.84]
    row = _row(parent, change)
    assert row["wins"] == 9 and row["pairs"] == 10
    assert row["parent"] == pytest.approx([0.98, 1.0, 1.02])
    assert row["change"] == pytest.approx([0.84, 0.85, 0.8625])
    assert row["ratio"] == pytest.approx(0.85)
    assert row["gap_exceeds_parent_iqr"]
    # 0.85x is inside the 0.25 bound: the harness's verdict
    assert row["verdict"] == "unchanged"


def test_higher_is_better_counts_wins_the_other_way():
    row = _row([100.0, 110.0, 90.0, 105.0], [120.0, 100.0, 95.0, 130.0],
               "roots_per_s")
    assert row["wins"] == 3


def test_ties_count_for_neither_side():
    row = _row([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.5, 4.5])
    assert row["wins"] == 1


def test_a_wide_spread_is_unresolved_and_a_small_gap_is_not_beyond_iqr():
    row = _row([1.0, 1.6, 0.7, 1.3, 0.9, 1.1], [1.05, 1.5, 0.72, 1.2, 0.95, 1.0])
    assert row["verdict"] == "unresolved"
    assert row["why"] == "spread exceeds bound"
    assert max(row["spread"]) > 0.25
    assert not row["gap_exceeds_parent_iqr"]


def test_a_wide_spread_resolves_when_every_change_run_is_better():
    parent = [1.0, 1.6, 1.3, 1.9, 1.1, 1.4]
    change = [0.5, 0.9, 0.6, 0.95, 0.4, 0.7]
    row = _row(parent, change)
    assert max(row["spread"]) > 0.25
    assert row["verdict"] == "better in every run" and "why" not in row
    # one change run as slow as a parent run: unresolved again
    assert _row(parent, change[:-1] + [1.0])["verdict"] == "unresolved"


def test_fewer_than_four_pairs_are_unresolved():
    row = _row([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    assert row["wins"] == 3
    assert row["verdict"] == "unresolved" and row["why"] == "fewer than 4 runs"


def test_failed_shares_are_counted_over_every_run():
    runs = [{"runs": {"parent": {"attempted": 10, "failed": 0},
                      "change": {"attempted": 12, "failed": 1}}},
            {"runs": {"parent": {"attempted": 10, "failed": 1},
                      "change": {"attempted": 12, "failed": 0}}}]
    shares = pairs.failed_shares(runs)
    assert shares["parent"] == pytest.approx(1 / 20)
    assert shares["change"] == pytest.approx(1 / 24)


def test_every_benchmark_metric_is_summarized():
    metrics = pairs.bounds()
    assert {"setup_s", "solve_s", "roots_per_s", "cpu_s",
            "peak_rss_mb"} <= set(metrics)
    pair = {"parent": dict.fromkeys(metrics, 1.0),
            "change": dict.fromkeys(metrics, 1.0)}
    rows = pairs.summarize([pair] * 4, metrics)
    assert [r["metric"] for r in rows] == list(metrics)
    assert all(r["wins"] == 0 and r["verdict"] == "unchanged" for r in rows)
    assert "solve_s" in pairs.format_rows(rows)
