"""Microbenchmarks of the numerical kernels behind every experiment.

Not a paper table; used to track performance of the inner loops the
optimization guide says to profile first: system evaluation, determinant
gradients, one Newton step, one Pieri edge.

Run as a script for the PR-6 acceptance experiment — per-backend
Jacobian throughput of the straight-line-program kernels against the
seed power-table arithmetic, on cyclic-7 and katsura-9, at the front
widths a solve actually runs: 90 % of the kernel calls of a katsura-9
solve carry at most 64 points, so the table has rows at 1, 8 and 64
points beside 256.  The run fails unless the SLP backend is at least
as fast as naive on the fused residual+Jacobian evaluation (the
tracker's per-step hot call) at every width, and at least 2x faster
at 256 points.

Run:    PYTHONPATH=src python benchmarks/bench_kernels.py
Smoke:  PYTHONPATH=src python benchmarks/bench_kernels.py --quick
Micro:  pytest benchmarks/bench_kernels.py --benchmark-only
"""

import argparse
import time

import numpy as np
import pytest

from repro.kernels import compile_system_kernel
from repro.linalg import det_and_cofactors, random_complex_matrix
from repro.schubert import PieriInstance, PieriSolver, trivial_solution_matrix
from repro.systems import cyclic_roots_system, katsura_system
from repro.tracker import newton_correct


@pytest.fixture(scope="module")
def cyclic7():
    return cyclic_roots_system(7)


def bench_system_evaluation(benchmark, cyclic7, rng):
    pt = rng.standard_normal(7) + 1j * rng.standard_normal(7)

    def run():
        return cyclic7.evaluate(pt)

    res = benchmark(run)
    assert res.shape == (7,)


def bench_system_jacobian(benchmark, cyclic7, rng):
    pt = rng.standard_normal(7) + 1j * rng.standard_normal(7)

    def run():
        return cyclic7.evaluate_and_jacobian(pt)

    res, jac = benchmark(run)
    assert jac.shape == (7, 7)


def bench_cofactor_matrix_5x5(benchmark, rng):
    m = random_complex_matrix(5, 5, rng)

    def run():
        return det_and_cofactors(m)

    det, cof = benchmark(run)
    assert cof.shape == (5, 5)


def bench_pieri_edge_newton_step(benchmark):
    """One Newton correction on a level-1 Pieri edge system."""
    instance = PieriInstance.random(2, 2, 1, np.random.default_rng(60))
    solver = PieriSolver(instance, seed=61)
    job = solver.initial_jobs()[0]
    homotopy = solver.make_homotopy(job.node)
    x0 = homotopy.start_vector(trivial_solution_matrix(instance.problem))

    def run():
        return newton_correct(homotopy, x0, 0.0)

    res = benchmark(run)
    assert res.converged


def bench_pieri_single_edge_track(benchmark):
    """Track one full Pieri edge (the parallel job unit)."""
    instance = PieriInstance.random(2, 2, 0, np.random.default_rng(62))
    solver = PieriSolver(instance, seed=63)
    job = solver.initial_jobs()[0]

    def run():
        return solver.run_job(job)

    result = benchmark(run)
    assert result.success


# ---------------------------------------------------------------------------
# PR-6 acceptance experiment: naive vs SLP Jacobian throughput
# ---------------------------------------------------------------------------

WIDTHS = (1, 8, 64, 256)  # points per call: thin fronts to full ones
GATE = 2.0  # required SLP speedup at the widest front ...
THIN_GATE = 1.0  # ... and at every thinner one it must not lose


def _throughput(fn, X, min_seconds: float) -> float:
    """Best points-per-second over repeated timed calls."""
    fn(X)  # warm up: taping, scratch buffers, constant binding
    best = 0.0
    elapsed = 0.0
    while elapsed < min_seconds:
        t0 = time.perf_counter()
        fn(X)
        dt = time.perf_counter() - t0
        elapsed += dt
        best = max(best, X.shape[0] / dt)
    return best


def compare_backends(system, name: str, npts: int, min_seconds: float,
                     rng) -> dict:
    """Time the fused eval+Jacobian call through both backends."""
    X = rng.standard_normal((npts, system.nvars)) + 1j * rng.standard_normal(
        (npts, system.nvars)
    )
    slp = compile_system_kernel(system, "slp")
    res_n, jac_n = system.evaluate_and_jacobian_many(X)
    res_s, jac_s = slp.evaluate_and_jacobian(X)
    scale = 1.0 + float(np.max(np.abs(jac_n)))
    agree = float(np.max(np.abs(jac_s - jac_n))) <= 1e-10 * scale
    naive_pps = _throughput(
        system.evaluate_and_jacobian_many, X, min_seconds
    )
    slp_pps = _throughput(slp.evaluate_and_jacobian, X, min_seconds)
    return {
        "name": name,
        "npts": npts,
        "tape_ops": slp.stats.tape_ops,
        "naive_pps": naive_pps,
        "slp_pps": slp_pps,
        "speedup": slp_pps / naive_pps,
        "agree": agree,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: smaller batches, shorter timing windows",
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    args = parser.parse_args()
    # the same widths in both modes: the gates must be judged at the
    # widths fronts have; --quick only shrinks the timing window
    min_seconds = 0.05 if args.quick else 0.5
    rng = np.random.default_rng(args.seed)

    cases = [
        ("cyclic-7", cyclic_roots_system(7)),
        ("katsura-9", katsura_system(9)),
    ]
    print(f"{'system':<11}{'npts':>6}{'tape ops':>10}{'naive us/call':>15}"
          f"{'slp us/call':>13}{'slp pts/s':>12}{'speedup':>9}")
    failed = False
    for name, system in cases:
        for npts in WIDTHS:
            row = compare_backends(system, name, npts, min_seconds, rng)
            print(f"{row['name']:<11}{row['npts']:>6}{row['tape_ops']:>10}"
                  f"{1e6 * npts / row['naive_pps']:>15.1f}"
                  f"{1e6 * npts / row['slp_pps']:>13.1f}"
                  f"{row['slp_pps']:>12.0f}{row['speedup']:>8.2f}x")
            if not row["agree"]:
                print(f"FAIL: {name} SLP Jacobian disagrees with naive")
                failed = True
            gate = GATE if npts == WIDTHS[-1] else THIN_GATE
            if row["speedup"] < gate:
                print(f"FAIL: {name} SLP speedup {row['speedup']:.2f}x at "
                      f"{npts} points below the {gate:.0f}x gate")
                failed = True
    if failed:
        return 1
    print(f"\nOK: SLP kernels beat the naive backend by >= {GATE:.0f}x at "
          f"{WIDTHS[-1]} points and are no slower at any thinner width")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
