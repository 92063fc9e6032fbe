#!/usr/bin/env python
"""Parallel path tracking on cyclic n-roots: static vs dynamic (paper §II).

Tracks a fixed slice of the Bezout paths of cyclic-5 (the first 40 of
120; all 120 reach 70 finite roots and 50 divergent paths) serially,
with static pre-assignment, and with the dynamic master/slave executor
on worker processes, then prints the speedup/imbalance contrast the
paper's Table I makes at cluster scale.  Every worker tracks the block
it is handed as one front (serially the whole slice is one front), so a
path's seconds are its amortized share of its front's sweeps, and every
schedule returns the same rows bit for bit.

Run:  python examples/cyclic_parallel.py [n_workers]
"""

import sys

import numpy as np

from repro.homotopy import distinct_solutions, make_homotopy_and_starts
from repro.parallel import track_paths_parallel
from repro.systems import CYCLIC_FINITE_ROOTS, cyclic_roots_system
from repro.tracker import summarize_results

n_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4

target = cyclic_roots_system(5)
homotopy, starts = make_homotopy_and_starts(
    target, rng=np.random.default_rng(0)
)
n_all, starts = len(starts), starts[:40]
print(f"cyclic-5: {len(starts)} of {n_all} paths "
      f"(finite roots of the whole set: {CYCLIC_FINITE_ROOTS[5]})")

serial = track_paths_parallel(homotopy, starts, mode="serial")
summary = summarize_results(serial.results)
print(f"\nserial:  wall {serial.wall_seconds:6.2f}s  "
      f"success {summary['success']}, diverged {summary['diverged']}")

static = track_paths_parallel(
    homotopy, starts, n_workers=n_workers, schedule="static", mode="process"
)
print(f"static:  wall {static.wall_seconds:6.2f}s  "
      f"imbalance {static.load_imbalance:.2f} on {n_workers} workers")

dynamic = track_paths_parallel(
    homotopy, starts, n_workers=n_workers, schedule="dynamic", mode="process"
)
print(f"dynamic: wall {dynamic.wall_seconds:6.2f}s  "
      f"imbalance {dynamic.load_imbalance:.2f} on {n_workers} workers")

roots = distinct_solutions(serial.results)
print(f"\ndistinct finite roots found: {len(roots)}")
worst = max(target.residual_norm(r) for r in roots)
print(f"worst residual over all roots: {worst:.2e}")

# all three schedules saw the same paths and return the same rows
assert len(static.results) == len(dynamic.results) == len(serial.results)
for report in (static, dynamic):
    for a, b in zip(serial.results, report.results):
        assert a.status == b.status
        assert np.array_equal(a.solution, b.solution, equal_nan=True)
print("OK: static, dynamic and serial agree on the path set.")
