"""Experiment T1/F1 — Table I and Fig 1: cyclic n-roots, static vs dynamic.

Two layers, per DESIGN.md's substitution table:

- *real*: track every path of a cyclic system with this repository's
  tracker, serially and with the dynamic process executor, measuring actual
  wall times (the paper's 2.4 GHz PC vs cluster contrast, scaled down);
- *simulated*: regenerate the full 35,940-path Table I rows on the
  discrete-event cluster, including a variant calibrated from the measured
  real path costs.

Run: pytest benchmarks/bench_table1_cyclic.py --benchmark-only
"""

import numpy as np
import pytest

from repro.experiments import measure_cyclic_costs, resample_workload, table1
from repro.homotopy import make_homotopy_and_starts
from repro.parallel import track_paths_parallel
from repro.simcluster import simulate_dynamic, simulate_static, speedup_table
from repro.systems import cyclic_roots_system
from repro.tracker import PathTracker


@pytest.fixture(scope="module")
def cyclic5():
    target = cyclic_roots_system(5)
    homotopy, starts = make_homotopy_and_starts(
        target, rng=np.random.default_rng(10)
    )
    return homotopy, starts


def bench_real_serial_tracking(benchmark, cyclic5):
    """1-CPU baseline: sequential tracking of 24 cyclic-5 paths."""
    homotopy, starts = cyclic5
    subset = starts[:24]
    tracker = PathTracker()

    def run():
        return tracker.track_many(homotopy, subset)

    results = benchmark(run)
    assert sum(r.success for r in results) >= 1


def bench_real_dynamic_processes(benchmark, cyclic5):
    """Dynamic master/slave on 4 worker processes (same 24 paths)."""
    homotopy, starts = cyclic5
    subset = starts[:24]

    def run():
        return track_paths_parallel(
            homotopy, subset, n_workers=4, schedule="dynamic", mode="process"
        )

    report = benchmark(run)
    assert len(report.results) == 24


def bench_simulated_table1(benchmark):
    """Regenerate all Table I rows on the simulated 128-CPU cluster."""

    def run():
        return table1()

    text, rows = benchmark(run)
    assert len(rows) == 6
    # shape assertions: dynamic wins everywhere, gap grows with CPUs
    gaps = [r["improvement_pct"] for r in rows[1:]]
    assert all(g > 0 for g in gaps)
    assert gaps[-1] > gaps[0]
    print()
    print(text)


def bench_simulated_table1_calibrated(benchmark):
    """Table I with the per-path cost distribution *measured* from our
    own tracker on cyclic-5, bootstrapped to 35,940 paths."""
    measured = measure_cyclic_costs(n=5, seed=11)

    def run():
        wl = resample_workload(
            measured, 35_940, 480.0, np.random.default_rng(12)
        )
        return speedup_table(wl, [1, 8, 16, 32, 64, 128])

    rows = benchmark(run)
    t128 = rows[-1]
    assert t128["dynamic_speedup"] > t128["static_speedup"] * 0.9
    print()
    print("calibrated 128-CPU row:", t128)


def bench_single_simulation_step(benchmark):
    """Microbenchmark: one static + one dynamic 128-CPU simulation."""
    from repro.simcluster import cyclic10_workload

    wl = cyclic10_workload(np.random.default_rng(13))

    def run():
        st = simulate_static(wl, 128)
        dy = simulate_dynamic(wl, 128)
        return st, dy

    st, dy = benchmark(run)
    assert dy.wall_seconds < st.wall_seconds
