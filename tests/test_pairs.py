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


def test_cores_used_is_the_median_cpu_over_wall_per_side():
    runs = [{"parent": {"cpu_s": c, "solve_s": 0.6},
             "change": {"cpu_s": c / 2, "solve_s": 0.6}}
            for c in (1.2, 1.08, 1.14)]
    cores = pairs.cores_used(runs)
    assert cores["parent"] == pytest.approx(1.9)
    assert cores["change"] == pytest.approx(0.95)


def _runs(parent, change):
    """Pairs from ``(roots_missing, roots_expected, ops)`` per side."""
    return [{"runs": {side: {"roots_missing": m, "roots_expected": e, "ops": n}
                      for side, (m, e, n) in (("parent", a), ("change", b))}}
            for a, b in zip(parent, change)]


def test_root_losses_are_judged_by_the_harness_bound(monkeypatch):
    # 80 ops of 156 roots a side: 1 root missing each side is no change
    even = _runs([(1, 6240, 40), (0, 6240, 40)], [(0, 6240, 40), (1, 6240, 40)])
    shares, verdict = pairs.root_losses(even)
    assert shares["parent"] == shares["change"] == pytest.approx(1 / 12480)
    assert verdict == "unchanged"
    # 14 more roots missing: 15 / 12480 - 1 / 12480 = 0.00112 > 0.001
    worse = _runs([(1, 6240, 40), (0, 6240, 40)], [(7, 6240, 40), (8, 6240, 40)])
    assert pairs.root_losses(worse)[1] == "REGRESSED"
    # the bound is the harness module's, not a copy of it
    monkeypatch.setattr(pairs.harness, "ROOTS_MISSING_BOUND", 0.002)
    assert pairs.root_losses(worse)[1] == "unchanged"


def test_median_ops_per_side():
    runs = _runs([(0, 1, 49), (0, 1, 51), (0, 1, 50)],
                 [(0, 1, 61), (0, 1, 59), (0, 1, 60)])
    assert pairs.median_ops(runs) == {"parent": 50, "change": 60}


def test_report_flags_lost_roots_and_unequal_op_counts(capsys):
    metrics = pairs.bounds()

    def pair(k, missing):
        return {"workload": "w", "pair": k,
                "parent": dict.fromkeys(metrics, 1.0),
                "change": dict.fromkeys(metrics, 1.0),
                "runs": {"parent": {"correct": True, "attempted": 50,
                                    "failed": 0, "ops": 50,
                                    "roots_missing": 0, "roots_expected": 7800},
                         "change": {"correct": True, "attempted": 60,
                                    "failed": 0, "ops": 60,
                                    "roots_missing": missing,
                                    "roots_expected": 9360}}}

    assert pairs.report([pair(k, 0) for k in range(1, 5)]) == 0
    out = capsys.readouterr().out
    assert "roots missing: parent 0.0000%, change 0.0000%  unchanged" in out
    assert "ops a run, median: parent 50, change 60" in out
    assert "cores used (cpu_s / solve_s, median): parent 1.00, change 1.00" in out
    assert "peak_rss_mb compared at unequal op counts" in out
    assert pairs.report([pair(k, 12) for k in range(1, 5)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
