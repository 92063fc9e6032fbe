"""Amortization benchmark: artifact-cached continuation vs ab initio.

The PR-9 acceptance experiment, both workloads:

- **Pieri repeated queries** — B same-shape ``(m, p, q)`` queries.
  Cold: every query solves its own Pieri tree ab initio.  Warm: one
  generic instance is solved once (offline, not timed), then all B
  queries ride a single fused :class:`~repro.schubert.parameter.
  PieriParameterStack` — ``B x d(m, p, q)`` coefficient-parameter
  continuation paths in one structure-of-arrays front.  Gate: >= 5x.
- **Polyhedral same supports** — B random-coefficient systems sharing
  one Newton-polytope structure.  Cold: each pays cell enumeration +
  phase 1 + phase 2.  Warm: each continues the cached solved generic
  system (``solve(..., cache=store)``) — mixed-volume-many paths,
  no cells, no phase 1.  Gate: >= 2x.

Both gates come with a correctness gate: every warm solution set must
match its ab-initio counterpart to 1e-8 (nearest-neighbour matching).

Run:    PYTHONPATH=src python benchmarks/bench_cache.py
Smoke:  PYTHONPATH=src python benchmarks/bench_cache.py --quick
"""

from __future__ import annotations

import argparse
import tempfile
import time

import numpy as np

from repro.artifacts import ArtifactStore, load_pieri_generic
from repro.homotopy import solve
from repro.polyhedral.supports import coefficient_system, supports_of
from repro.schubert import (
    PieriInstance,
    PieriSolver,
    continue_to_instances,
    pieri_root_count,
)
from repro.systems import cyclic_roots_system

PARITY_TOL = 1e-8


def _match_distance(warm, fresh) -> float:
    """Max over warm solutions of the distance to its nearest fresh one."""
    warm = [np.asarray(w, dtype=complex).ravel() for w in warm]
    fresh = np.stack(
        [np.asarray(f, dtype=complex).ravel() for f in fresh]
    )
    worst = 0.0
    for w in warm:
        worst = max(worst, float(np.min(np.max(np.abs(fresh - w), axis=1))))
    return worst


def bench_pieri(m: int, p: int, q: int, n_queries: int, seed: int):
    d = pieri_root_count(m, p, q)
    store = ArtifactStore(tempfile.mkdtemp(prefix="bench-cache-pieri-"))
    rng = np.random.default_rng(seed)
    queries = [
        PieriInstance.random(m, p, q, rng) for _ in range(n_queries)
    ]

    # cold baseline: every query pays its own tree (also the parity ref)
    cold_reports = []
    t0 = time.perf_counter()
    for k, instance in enumerate(queries):
        cold_reports.append(
            PieriSolver(instance, seed=seed + k).solve(mode="batch")
        )
    cold_seconds = time.perf_counter() - t0
    tree_paths = sum(
        sum(r.jobs_per_level.values()) for r in cold_reports
    )

    # offline: one generic instance solved once, stored once (not timed)
    generic = PieriInstance.random(m, p, q, np.random.default_rng(seed + 999))
    offline = PieriSolver(generic, seed=seed).solve(mode="batch", cache=store)
    assert offline.cache and offline.cache["stored"], "offline solve must cache"
    loaded = load_pieri_generic(store, m, p, q)
    assert loaded is not None
    gen_instance, gen_solutions, _ = loaded

    # warm: all queries in ONE fused stacked front, tracked with the
    # options the cold trees were (as PieriSolver.solve(cache=) passes
    # them), so the ratio compares routes, not predictors
    t0 = time.perf_counter()
    pairs = continue_to_instances(
        gen_instance, gen_solutions, queries,
        options=PieriSolver.DEFAULT_OPTIONS,
        rng=np.random.default_rng(seed),
    )
    warm_seconds = time.perf_counter() - t0

    worst = 0.0
    for (solutions, results), report in zip(pairs, cold_reports):
        assert len(solutions) == d and all(r.success for r in results), (
            "warm continuation dropped a path"
        )
        worst = max(worst, _match_distance(solutions, report.solutions))
    speedup = cold_seconds / warm_seconds
    print(f"pieri ({m}, {p}, {q}): d = {d}, B = {n_queries} queries")
    print(f"  cold  (ab-initio trees): {cold_seconds:.3f}s "
          f"({tree_paths} tree paths)")
    print(f"  warm  (one fused stack): {warm_seconds:.3f}s "
          f"({n_queries * d} continuation paths)")
    print(f"  speedup {speedup:.2f}x, worst parity {worst:.2e}")
    return speedup, worst


def bench_polyhedral(n: int, n_queries: int, seed: int):
    store = ArtifactStore(tempfile.mkdtemp(prefix="bench-cache-poly-"))
    supports = [
        np.asarray(s) for s in supports_of(cyclic_roots_system(n))
    ]
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(n_queries):
        coeffs = [
            rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s))
            for s in supports
        ]
        systems.append(coefficient_system(supports, coeffs))

    cold_reports = []
    t0 = time.perf_counter()
    for k, system in enumerate(systems):
        cold_reports.append(
            solve(system, start="polyhedral", mode="batch",
                  rng=np.random.default_rng([seed, k]))
        )
    cold_seconds = time.perf_counter() - t0

    # offline: the first system's cold solve populates the store
    offline = solve(systems[0], start="polyhedral", mode="batch",
                    rng=np.random.default_rng([seed, 0]), cache=store)
    assert offline.summary["cache"]["stored"], "offline solve must cache"

    warm_reports = []
    t0 = time.perf_counter()
    for k, system in enumerate(systems):
        warm_reports.append(
            solve(system, start="polyhedral", mode="batch",
                  rng=np.random.default_rng([seed, k, 1]), cache=store)
        )
    warm_seconds = time.perf_counter() - t0

    worst = 0.0
    for warm, cold in zip(warm_reports, cold_reports):
        assert warm.summary["cache"]["status"] == "warm"
        assert len(warm.solutions) == len(cold.solutions), (
            "warm and cold found different solution counts"
        )
        worst = max(worst, _match_distance(warm.solutions, cold.solutions))
    mv = cold_reports[0].summary["mixed_volume"]
    speedup = cold_seconds / warm_seconds
    print(f"polyhedral (cyclic-{n} supports): mixed volume {mv}, "
          f"B = {n_queries} systems")
    print(f"  cold  (cells + phase 1 + phase 2): {cold_seconds:.3f}s")
    print(f"  warm  (coefficient continuation):  {warm_seconds:.3f}s")
    print(f"  speedup {speedup:.2f}x, worst parity {worst:.2e}")
    return speedup, worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--q", type=int, default=1)
    parser.add_argument("--n", type=int, default=4,
                        help="cyclic-n supports for the polyhedral workload")
    parser.add_argument("--queries", type=int, default=6,
                        help="batch size B for both workloads")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: same shapes, B=6 (the default is already small)",
    )
    args = parser.parse_args()
    if args.quick:
        args.queries = 6

    pieri_speedup, pieri_parity = bench_pieri(
        args.m, args.p, args.q, args.queries, args.seed
    )
    poly_speedup, poly_parity = bench_polyhedral(
        args.n, args.queries, args.seed
    )

    failures = []
    if pieri_speedup < 5.0:
        failures.append(
            f"pieri warm speedup {pieri_speedup:.2f}x < 5x gate"
        )
    if poly_speedup < 2.0:
        failures.append(
            f"polyhedral warm speedup {poly_speedup:.2f}x < 2x gate"
        )
    for name, parity in (("pieri", pieri_parity), ("polyhedral", poly_parity)):
        if parity > PARITY_TOL:
            failures.append(f"{name} parity {parity:.2e} > {PARITY_TOL:.0e}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"PASS: pieri {pieri_speedup:.2f}x (>= 5x), "
          f"polyhedral {poly_speedup:.2f}x (>= 2x), parity <= {PARITY_TOL:.0e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
