"""Polyhedral vs total-degree starts on cyclic-5: same roots, fewer paths.

The paper's "why parallelism" argument in miniature: the mixed volume
(BKK bound) of cyclic-5 is 70 while its Bezout number is 120, so the
polyhedral homotopy tracks 50 fewer paths for the identical solution
set.  The script prints the root-count table, solves the system both
ways, and checks that the polyhedral solve delivers all 70 roots and
that every root the total-degree solve delivers is one of them (1e-8).

Run: PYTHONPATH=src python examples/polyhedral_cyclic.py
"""

import numpy as np

from repro.homotopy import format_table, root_counts, solve
from repro.systems import cyclic_roots_system

TOL = 1e-8


def main() -> None:
    target = cyclic_roots_system(5)
    counts = root_counts(target, name="cyclic-5",
                         rng=np.random.default_rng(0), known=70)
    print(format_table([counts]))
    assert counts.mixed_volume == 70 < counts.total_degree == 120

    poly = solve(target, start="polyhedral", mode="batch",
                 rng=np.random.default_rng(1))
    td = solve(target, mode="batch", rng=np.random.default_rng(2))
    print(f"\npolyhedral start: {poly.n_paths} paths "
          f"({poly.summary['n_cells']} mixed cells, "
          f"{poly.summary['phase1_failures']} phase-1 failures) "
          f"-> {poly.n_solutions} distinct solutions")
    print(f"total degree:     {td.n_paths} paths "
          f"-> {td.n_solutions} distinct solutions")

    assert poly.n_paths == counts.mixed_volume
    assert poly.n_solutions == 70
    assert all(target.residual_norm(x) < TOL for x in poly.solutions)

    # every total-degree solution appears in the polyhedral set (1e-8).
    # Not the other way round: on many seeds a total-degree path jumps
    # onto a neighbour and the solve comes back a root or two short
    unmatched = [
        y for y in td.solutions
        if not any(np.max(np.abs(x - y)) < TOL for x in poly.solutions)
    ]
    assert not unmatched, f"{len(unmatched)} solutions disagree"

    saved = td.n_paths - poly.n_paths
    print(f"\nOK: both starts find the same 70 roots (total degree "
          f"delivered {td.n_solutions} of them); polyhedral tracked "
          f"{saved} fewer paths ({td.n_paths}/{poly.n_paths} = "
          f"{td.n_paths / poly.n_paths:.2f}x)")


if __name__ == "__main__":
    main()
