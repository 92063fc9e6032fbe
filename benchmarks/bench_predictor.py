"""PR-10 acceptance experiment: the higher-order predictor pipeline.

End-to-end blackbox solves of the paper's benchmark systems with the
Hermite predictor (error-model step control, update-size acceptance,
Jacobian-recycled tangent solves, jump rejection) against the pinned
Euler baseline.  Three claims are checked per system:

- **root parity** — both predictors produce the same root set, every
  endpoint matching its partner to ``PARITY_TOL`` (hard gate);
- **effort** — total Newton iterations + Jacobian evaluations drop by
  at least ``EFFORT_GATE`` (hard gate; the measured reduction on the
  full systems is ~1.7x on katsura-9 and ~1.5x on the cyclic-7
  polyhedral continuation, so the gate is set below those with margin
  as a regression floor — the 2x aspiration from the PR issue is
  printed alongside for tracking);
- **wall clock** — the end-to-end ratio must stay above ``WALL_GATE``.
  Hermite's thinner, longer-tailed fronts make *more* kernel calls
  while doing ~1.7x less counted work, and in this pure-numpy harness a
  thin front still pays numpy dispatch per call (1.3x measured on both
  full systems since the SLP kernels replay by level; parity before,
  when every kernel call cost a flat 0.2 ms), so the 1.5x aspiration
  is printed, not gated; the gate guards against the pipeline making
  solves meaningfully *slower*.

A last row covers the other cell of the predictor protocol's 2x2
(``docs/tracking.md``): the Pieri tree's default ``"cubic"`` — the same
cubic guess on the *seed's* streak step control — against
``predictor="euler"`` on one (2, 2, 2) instance.  Gated on root parity
and on the Jacobian-evaluation ratio euler/cubic >= ``PIERI_JAC_GATE``
(counts that repeat exactly for a seed; 1.53x measured); its wall ratio
is printed, not gated.

cyclic-7 is solved through the polyhedral start system with a warm
artifact cache (PR 9): the mixed-cell phase-1 work is predictor-
independent and ~20s, so it is paid once in an untimed warm-up and the
timed runs measure the tracking pipeline the predictor actually
touches.

Run:    PYTHONPATH=src python benchmarks/bench_predictor.py
Smoke:  PYTHONPATH=src python benchmarks/bench_predictor.py --quick
Micro:  pytest -o python_functions="bench_*" benchmarks/bench_predictor.py
"""

import argparse
import dataclasses
import tempfile
import time

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.homotopy import solve
from repro.schubert import PieriInstance, PieriSolver
from repro.systems import cyclic_roots_system, katsura_system

PARITY_TOL = 1e-8
EFFORT_GATE = 1.35   # regression floor; issue aspiration is 2.0
WALL_GATE = 0.80     # hermite must never be meaningfully slower
EFFORT_TARGET = 2.0  # the PR issue's aspirational reduction
WALL_TARGET = 1.5
PIERI_JAC_GATE = 1.3  # euler / cubic Jacobian evaluations, Pieri (2, 2, 2)


def _solve_case(case: dict, predictor: str, seed: int):
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    report = solve(
        case["system"],
        rng=rng,
        kernel="slp",
        mode="batch",
        predictor=predictor,
        start=case.get("start", "total_degree"),
        cache=case.get("cache"),
    )
    wall = time.perf_counter() - t0
    s = report.summary
    return {
        "report": report,
        "wall": wall,
        "effort": s["newton_total"] + s["jacobian_evaluations"],
        "success": s["success"],
        "fallback": s.get("fallback_retracked", 0),
    }


def _match_roots(a, b) -> float:
    """Worst distance under greedy nearest-neighbor endpoint pairing."""
    if len(a) != len(b):
        return float("inf")
    pool = list(b)
    worst = 0.0
    for x in a:
        dists = [float(np.max(np.abs(x - y))) for y in pool]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        pool.pop(k)
    return worst


def compare_predictors(case: dict, seed: int, reps: int) -> dict:
    """Solve one benchmark system with both predictors, best-of-reps."""
    if case.get("warmup"):
        # pay the predictor-independent phase-1 (mixed cells) once, so
        # the timed runs hit the PR-9 artifact cache's warm path
        _solve_case(case, "euler", seed)
    runs = {}
    for predictor in ("euler", "hermite"):
        out = _solve_case(case, predictor, seed)
        for _ in range(reps - 1):
            out2 = _solve_case(case, predictor, seed)
            if out2["wall"] < out["wall"]:
                out = out2
        runs[predictor] = out
    euler, hermite = runs["euler"], runs["hermite"]
    return {
        "name": case["name"],
        "euler_wall": euler["wall"],
        "hermite_wall": hermite["wall"],
        "euler_effort": euler["effort"],
        "hermite_effort": hermite["effort"],
        "wall_ratio": euler["wall"] / hermite["wall"],
        "effort_ratio": euler["effort"] / hermite["effort"],
        "euler_roots": len(euler["report"].solutions),
        "hermite_roots": len(hermite["report"].solutions),
        "fallback": hermite["fallback"],
        "root_dist": _match_roots(
            euler["report"].solutions, hermite["report"].solutions
        ),
    }


def compare_pieri(seed: int) -> dict:
    """One Pieri (2, 2, 2) tree under the default cubic and under euler."""
    instance = PieriInstance.random(2, 2, 2, np.random.default_rng(seed + 3))
    runs = {}
    for predictor in ("euler", "cubic"):
        options = dataclasses.replace(
            PieriSolver.DEFAULT_OPTIONS, predictor=predictor
        )
        t0 = time.perf_counter()
        report = PieriSolver(instance, options=options, seed=seed).solve()
        runs[predictor] = (report, time.perf_counter() - t0)
    (euler, euler_wall), (cubic, cubic_wall) = runs["euler"], runs["cubic"]
    return {
        "euler_jac": euler.effort("jacobian_evaluations"),
        "cubic_jac": cubic.effort("jacobian_evaluations"),
        "wall_ratio": euler_wall / cubic_wall,
        "roots": cubic.n_solutions,
        # every expected root, each once, on both sides
        "closed": all(
            r.failures == 0
            and r.n_solutions == r.expected_count()
            and r.all_distinct()
            for r in (euler, cubic)
        ),
        "root_dist": _match_roots(euler.solutions, cubic.solutions),
    }


def full_cases() -> list:
    cache = ArtifactStore(tempfile.mkdtemp(prefix="bench_predictor_"))
    return [
        {"name": "katsura-9", "system": katsura_system(9)},
        {
            "name": "cyclic-7",
            "system": cyclic_roots_system(7),
            "start": "polyhedral",
            "cache": cache,
            "warmup": True,
        },
    ]


def quick_cases() -> list:
    cache = ArtifactStore(tempfile.mkdtemp(prefix="bench_predictor_"))
    return [
        {"name": "katsura-6", "system": katsura_system(6)},
        {
            "name": "cyclic-5",
            "system": cyclic_roots_system(5),
            "start": "polyhedral",
            "cache": cache,
            "warmup": True,
        },
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: katsura-6 / cyclic-5",
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    parser.add_argument(
        "--reps", type=int, default=2,
        help="timed repetitions per predictor (best-of, default 2)",
    )
    args = parser.parse_args()
    cases = quick_cases() if args.quick else full_cases()
    reps = max(1, args.reps)

    print(f"{'system':<11}{'roots':>7}{'euler eff':>11}{'hermite eff':>12}"
          f"{'eff ratio':>10}{'wall ratio':>11}{'fallback':>9}")
    failed = False
    for case in cases:
        row = compare_predictors(case, args.seed, reps)
        print(f"{row['name']:<11}{row['hermite_roots']:>7}"
              f"{row['euler_effort']:>11}{row['hermite_effort']:>12}"
              f"{row['effort_ratio']:>9.2f}x{row['wall_ratio']:>10.2f}x"
              f"{row['fallback']:>9}")
        if row["euler_roots"] != row["hermite_roots"]:
            print(f"FAIL: {row['name']} root counts differ "
                  f"({row['euler_roots']} vs {row['hermite_roots']})")
            failed = True
        elif row["root_dist"] > PARITY_TOL:
            print(f"FAIL: {row['name']} endpoints diverge "
                  f"({row['root_dist']:.2e} > {PARITY_TOL:.0e})")
            failed = True
        if row["effort_ratio"] < EFFORT_GATE:
            print(f"FAIL: {row['name']} effort reduction "
                  f"{row['effort_ratio']:.2f}x below the "
                  f"{EFFORT_GATE:.2f}x floor")
            failed = True
        if row["wall_ratio"] < WALL_GATE:
            print(f"FAIL: {row['name']} wall ratio {row['wall_ratio']:.2f}x "
                  f"below the {WALL_GATE:.2f}x floor")
            failed = True
        for metric, target in (
            ("effort_ratio", EFFORT_TARGET), ("wall_ratio", WALL_TARGET),
        ):
            if row[metric] < target:
                print(f"note: {row['name']} {metric} {row[metric]:.2f}x is "
                      f"below the {target:.1f}x issue target (not gated; "
                      f"see module docstring)")
    row = compare_pieri(args.seed)
    jac_ratio = row["euler_jac"] / row["cubic_jac"]
    print(f"{'pieri-222':<11}{row['roots']:>7}{row['euler_jac']:>11}"
          f"{row['cubic_jac']:>12}{jac_ratio:>9.2f}x"
          f"{row['wall_ratio']:>10.2f}x{'-':>9}"
          "   (cubic vs euler, Jacobian evaluations; wall not gated)")
    if not row["closed"] or row["root_dist"] > PARITY_TOL:
        print(f"FAIL: pieri-222 root sets differ or do not close "
              f"(closed {row['closed']}, distance {row['root_dist']:.2e})")
        failed = True
    if jac_ratio < PIERI_JAC_GATE:
        print(f"FAIL: pieri-222 Jacobian evaluations euler/cubic "
              f"{jac_ratio:.2f}x below the {PIERI_JAC_GATE:.2f}x floor")
        failed = True
    if failed:
        return 1
    print(f"\nOK: hermite cuts Newton+Jacobian effort >= {EFFORT_GATE:.2f}x "
          f"with identical root sets (endpoints within {PARITY_TOL:.0e})")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark smoke entry points
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def katsura4_case():
    return {"name": "katsura-4", "system": katsura_system(4)}


def bench_predictor_euler_solve(benchmark, katsura4_case):
    run = benchmark(lambda: _solve_case(katsura4_case, "euler", 0))
    assert run["success"] == run["report"].summary["total"]


def bench_predictor_hermite_solve(benchmark, katsura4_case):
    run = benchmark(lambda: _solve_case(katsura4_case, "hermite", 0))
    assert run["success"] == run["report"].summary["total"]


def bench_predictor_parity_smoke(benchmark, katsura4_case):
    row = benchmark.pedantic(
        lambda: compare_predictors(katsura4_case, 0, 1),
        iterations=1, rounds=1,
    )
    assert row["root_dist"] <= PARITY_TOL
    assert row["effort_ratio"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
