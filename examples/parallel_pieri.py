#!/usr/bin/env python
"""The parallel Pieri homotopy with the master/slave tree scheduler (Fig 6).

Solves a (3,2,0) Pieri instance — 5 solution planes meeting 6 general
3-planes — sequentially and with the tree scheduler on several worker
counts, printing the per-level job profile (the structure of Table III)
and verifying that parallel and sequential solutions agree (to 1e-8).
The master hands an idle worker a *bundle* — its share of the ready
edges of one level, tracked as one stacked front — so the profile also
shows how many bundles each level's edges travelled in.  No share is
narrower than ``pieri_scheduler.MIN_SHARE`` (64) edges unless it is the
whole ready level, so every level of this small tree travels in one
bundle and ``speedup_vs_cpu_time`` reads about 1: one worker busy at a
time, as the sequential solver's level fronts.

Run:  python examples/parallel_pieri.py
"""

import numpy as np

from repro.parallel import solve_pieri_parallel
from repro.schubert import PieriInstance, PieriSolver, pieri_root_count

M, P, Q = 3, 2, 0
instance = PieriInstance.random(M, P, Q, np.random.default_rng(42))
print(f"Pieri problem (m={M}, p={P}, q={Q}): "
      f"{instance.problem.num_conditions} conditions, "
      f"{pieri_root_count(M, P, Q)} expected solutions")

seq = PieriSolver(instance, seed=1).solve()
print(f"\nsequential: {seq.n_solutions} solutions in {seq.total_seconds:.2f}s, "
      f"max residual {seq.max_residual():.2e}")

print("\nper-level profile (jobs, seconds):")
for lvl in sorted(seq.jobs_per_level):
    print(f"  level {lvl:2d}: {seq.jobs_per_level[lvl]:3d} jobs  "
          f"{seq.seconds_per_level[lvl]:6.2f}s")

seq_flat = np.stack([sol.ravel() for sol in seq.solutions])
for workers in (2, 4):
    par = solve_pieri_parallel(
        instance, n_workers=workers, mode="process", seed=1
    )
    same = par.n_solutions == seq.n_solutions and par.all_distinct() and all(
        np.min(np.max(np.abs(seq_flat - sol.ravel()), axis=1)) < 1e-8
        for sol in par.solutions
    )
    print(f"\n{workers} workers: {par.n_solutions} solutions in "
          f"{par.wall_seconds:.2f}s "
          f"(speedup_vs_cpu_time {par.speedup_vs_cpu_time:.2f}x), "
          f"identical to sequential: {same}")
    print("  edges in bundles, by level: " + "  ".join(
        f"{r['level']}: {r['n_jobs']} in {r['n_chunks']}"
        for r in par.level_batches))
    assert same

print("\nOK: the tree scheduler reproduces the sequential solution set.")
