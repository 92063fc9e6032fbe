"""Experiment T3 — Table III: paths and CPU time per Pieri-tree level.

The paper's m=3, p=2, q=1 run tracks 252 paths in 38s; levels get more
expensive towards the leaves ("almost half of the time is spent at the last
level").  The real layer times our solver per level; the shape assertion is
on the *distribution* of work across levels, not absolute times, and
the solver is timed one edge a front, as the paper's (the helper
``repro.experiments.tables._solve_edge_by_edge``, which ``table3`` uses).

Run: pytest benchmarks/bench_table3_levels.py --benchmark-only
"""

import numpy as np
import pytest

from repro.experiments import PAPER_TABLE3, table3
from repro.experiments.tables import _solve_edge_by_edge
from repro.schubert import (
    PieriInstance,
    PieriProblem,
    PieriSolver,
    level_job_counts,
)
from repro.simcluster import simulate_pieri_tree


def bench_level_counts_dp(benchmark):
    """Combinatorial layer: the level profile itself (instant, exact)."""

    def run():
        return level_job_counts(3, 2, 1)

    counts = benchmark(run)
    assert counts == PAPER_TABLE3
    assert sum(counts) == 252


def bench_real_small_instance(benchmark):
    """Real solver on (2,2,1): 34 paths over 8 levels with timings."""
    instance = PieriInstance.random(2, 2, 1, np.random.default_rng(30))

    def run():
        return _solve_edge_by_edge(PieriSolver(instance, seed=31))

    report = benchmark(run)
    assert report.n_solutions == 8
    levels = sorted(report.seconds_per_level)
    last = levels[-1]
    frac = report.seconds_per_level[last] / sum(
        report.seconds_per_level.values()
    )
    # deepest level carries the largest share of the work
    assert frac == max(
        report.seconds_per_level[l] / sum(report.seconds_per_level.values())
        for l in levels
    )


def bench_paper_size_instance(benchmark):
    """The paper's actual cell: m=3, p=2, q=1 — 252 paths, 55 solutions."""
    instance = PieriInstance.random(3, 2, 1, np.random.default_rng(32))
    solver = PieriSolver(instance, seed=33)

    def run():
        return _solve_edge_by_edge(solver)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.n_solutions == 55
    counts = [report.jobs_per_level[i + 1] for i in range(11)]
    assert counts == PAPER_TABLE3
    total = sum(report.seconds_per_level.values())
    tail = report.seconds_per_level[11] + report.seconds_per_level[10]
    print()
    print(table3(run_solver=False)[0])
    print(f"measured: total {total:.1f}s, last two levels {100*tail/total:.0f}%")


def bench_simulated_tree_schedule(benchmark):
    """Cluster simulation of the same tree on 8 CPUs (Fig 6 protocol)."""
    prob = PieriProblem(3, 2, 1)

    def run():
        return simulate_pieri_tree(prob, 8)

    res = benchmark(run)
    assert sum(res.jobs_per_level.values()) == 252
    # the last level dominates the work, as in the paper
    assert res.level_work_fraction(11) > 0.3
