"""The benchmark's workloads: one op is one complete solve to all roots.

Each workload stresses different layers of ``repro`` (see README.md
for why each was chosen and which layer metric should move which
end-to-end metric on it).  The program sees only generated inputs:
``make_input`` draws op ``i`` from ``default_rng([seed, i + 1])``.

Layers are called through their modules (``homotopy.solve(...)``, not
a name imported here) so a traced pass's rebinding reaches them.
"""

from __future__ import annotations

import shutil

import numpy as np

from repro import artifacts, homotopy, schubert, systems
from repro.parallel import pieri_scheduler
from repro.polyhedral import supports as poly_supports

RESIDUAL_TOL = 1e-8
DISTINCT_TOL = 1e-6


def _first_seen(points):
    """Mask of the points farther than DISTINCT_TOL (max norm) from
    every earlier one: a root returned twice is delivered once."""
    pts = np.asarray(points, dtype=complex).reshape(len(points), -1)
    dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    earlier = np.tril(np.ones_like(dist, dtype=bool), k=-1)
    return ~np.any((dist < DISTINCT_TOL) & earlier, axis=1)


def check_polynomial_roots(system, roots):
    """``(delivered, bad)``: distinct roots of ``system`` that verify,
    and returned points whose residual says they are no roots."""
    if len(roots) == 0:
        return 0, 0
    pts = np.asarray(roots, dtype=complex)
    ok = np.max(np.abs(system.evaluate_many(pts)), axis=1) <= RESIDUAL_TOL
    return int((ok & _first_seen(pts)).sum()), int((~ok).sum())


def check_pieri_roots(instance, solutions):
    """Same contract through ``schubert.verify_solutions``, which
    judges residuals, pattern and chart of the set as a whole: a defect
    there rejects every returned matrix."""
    if len(solutions) == 0:
        return 0, 0
    shape = (instance.problem.nrows, instance.problem.p)
    v = schubert.verify_solutions(
        instance, solutions, RESIDUAL_TOL, DISTINCT_TOL
    )
    sound = (
        all(np.shape(s) == shape for s in solutions)
        and v.max_residual <= RESIDUAL_TOL
        and not v.pattern_violations
        and not v.chart_violations
    )
    if not sound:
        return 0, len(solutions)
    return int(_first_seen(solutions).sum()), 0


class Workload:
    """Interface the measuring loop drives; subclasses fill it in."""

    name = ""
    why = ""
    expected_roots = 0

    def setup(self, rng, scratch):
        """Everything a fresh process pays before its first timed op,
        one untimed warm-up op included."""

    def make_input(self, rng):
        raise NotImplementedError

    def op(self, inp):
        """One solve; returns the program's report."""
        raise NotImplementedError

    def check(self, inp, report):
        """``(delivered, bad)`` for what ``op`` returned."""
        raise NotImplementedError

    def layer_counts(self):
        """Report-derived per-layer counts only this workload knows."""
        return {}

    def close(self):
        pass


class _Pieri(Workload):
    shape = (2, 2, 0)
    warm_shape = (2, 2, 1)  # small: Pieri solves keep no cache to fill

    @property
    def expected_roots(self):
        return schubert.pieri_root_count(*self.shape)

    def make_input(self, rng, shape=None):
        seed = int(rng.integers(2**31))
        return schubert.PieriInstance.random(*(shape or self.shape), rng), seed

    def setup(self, rng, scratch):
        self.op(self.make_input(rng, self.warm_shape))

    def check(self, inp, report):
        return check_pieri_roots(inp[0], report.solutions)


class PieriTree(_Pieri):
    name = "pieri_tree"
    why = ("Pieri (2,2,3) tree, d=128, 637 paths as level-wide SoA batches "
           "in-process: schubert determinant assembly + linalg dominate, "
           "kernels/polyhedral/artifacts/parallel idle")
    shape = (2, 2, 3)

    def op(self, inp):
        instance, seed = inp
        return schubert.PieriSolver(instance, seed=seed).solve(mode="batch")


class PieriEdges2W(_Pieri):
    name = "pieri_edges_2w"
    why = ("Pieri (2,2,2) tree, d=32, 157 edge jobs handed one by one to 2 "
           "worker processes: the paper's master/worker protocol, pickling "
           "and the scalar PathTracker per edge")
    shape = (2, 2, 2)
    n_workers = 2

    def op(self, inp):
        instance, seed = inp
        return pieri_scheduler.solve_pieri_parallel(
            instance, n_workers=self.n_workers, granularity="edge", seed=seed
        )


class Katsura9Hermite(Workload):
    name = "katsura9_hermite"
    why = ("katsura-9, 512 total-degree paths, SLP kernels + hermite "
           "predictor: a desynchronised front bound by per-call overhead "
           "of generated kernels; schubert idle")
    expected_roots = 2**9

    def setup(self, rng, scratch):
        self.system = systems.katsura_system(9)
        self.reference = systems.katsura_system(9)  # never kernel-bound
        self.op(self.make_input(rng))  # tapes and compiles the kernels

    def make_input(self, rng):
        return rng

    def op(self, rng):
        return homotopy.solve(
            self.system, kernel="slp", mode="batch", predictor="hermite",
            rng=rng,
        )

    def check(self, inp, report):
        return check_polynomial_roots(self.reference, report.solutions)


class Cyclic6Warm(Workload):
    name = "cyclic6_warm"
    why = ("random-coefficient systems on the cyclic-6 supports served warm "
           "from the artifact store, 156 euler paths in lockstep; mixed "
           "cells, phase 1 and the store write land in setup_s")
    expected_roots = 156
    n = 6

    def setup(self, rng, scratch):
        self.scratch = scratch
        target = systems.cyclic_roots_system(self.n)
        self.supports = [np.asarray(s) for s in poly_supports.supports_of(target)]
        # An operator validates the offline solve before serving from it:
        # about 1 seed in 40 phase 1 jumps a path unnoticed and stores a
        # generic solution twice, and every warm query then misses a root.
        # Reported as polyhedral.cold_solves, so a retry is not hidden.
        for self.cold_solves in (1, 2, 3):
            self.store = artifacts.ArtifactStore(
                scratch / f"store{self.cold_solves}")
            self.cold = homotopy.solve(
                target, start="polyhedral", kernel="slp", mode="batch",
                cache=self.store, rng=rng,
            )
            if (self.cold.summary["cache"]["stored"]
                    and len(self.cold.solutions) == self.expected_roots):
                break
        else:
            raise RuntimeError("no cold cyclic solve found every root")
        self.op(self.make_input(rng))

    def _system(self, coefficients):
        return poly_supports.coefficient_system(self.supports, coefficients)

    def make_input(self, rng):
        coefficients = [
            rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s))
            for s in self.supports
        ]
        return coefficients, rng

    def op(self, inp):
        coefficients, rng = inp
        report = homotopy.solve(
            self._system(coefficients), start="polyhedral", kernel="slp",
            mode="batch", cache=self.store, rng=rng,
        )
        if report.summary["cache"]["status"] != "warm":
            raise RuntimeError("query was not served from the store")
        return report

    def check(self, inp, report):
        return check_polynomial_roots(self._system(inp[0]), report.solutions)

    def layer_counts(self):
        cold = self.cold.summary
        return {
            "polyhedral.n_cells": cold["n_cells"],
            "polyhedral.relifts": cold["relifts"],
            "polyhedral.phase1_failures": cold["phase1_failures"],
            "polyhedral.cold_solves": self.cold_solves,
            "artifacts.corrupt": self.store.stats["corrupt"],
        }

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (PieriTree, PieriEdges2W, Katsura9Hermite, Cyclic6Warm)
}
