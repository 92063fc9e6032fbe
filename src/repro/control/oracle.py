"""Offline/online pole placement via coefficient-parameter continuation.

The Pieri tree costs ``sum(level counts)`` tracked paths (e.g. 252 for
(3,2,1)); but the expensive solve only depends on (m, p, q), not on the
plant.  :class:`PolePlacementOracle` therefore runs the tree **once** on a
random general instance (offline), and then answers every concrete
``place(plant, poles)`` query by deforming that instance's solutions to
the query's planes/points — ``d(m, p, q)`` paths each (55 for (3,2,1)).

This is the deployment mode the paper's framework targets: the cluster
produces the general solution set; specific feedback laws for specific
machines are then cheap (pinned in ``tests/test_parameter.py``:
``TestOracle`` and ``TestContinuation::test_fewer_paths_than_tree``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..schubert import (
    PieriInstance,
    PieriPoset,
    PieriProblem,
    PieriSolver,
    continue_to_instance,
)
from ..tracker import TrackerOptions
from .feedback import DynamicCompensator, StaticFeedbackLaw, extract_feedback
from .pole_placement import PolePlacementResult, pole_planes
from .statespace import StateSpace, required_state_dimension

__all__ = ["PolePlacementOracle"]


@dataclass
class PolePlacementOracle:
    """Pre-solved general Pieri instance for one (m, p, q) problem shape."""

    problem: PieriProblem
    base_instance: PieriInstance
    base_solutions: List[np.ndarray]
    offline_seconds: float = 0.0
    offline_paths: int = 0

    @classmethod
    def train(
        cls,
        m: int,
        p: int,
        q: int = 0,
        seed: int = 0,
        options: TrackerOptions | None = None,
    ) -> "PolePlacementOracle":
        """The offline step: solve one general instance with the tree."""
        rng = np.random.default_rng(seed)
        instance = PieriInstance.random(m, p, q, rng)
        solver = PieriSolver(instance, options=options, seed=seed)
        report = solver.solve()
        if report.n_solutions != report.expected_count():
            raise RuntimeError(
                f"offline solve found {report.n_solutions} of "
                f"{report.expected_count()} solutions"
            )
        return cls(
            problem=instance.problem,
            base_instance=instance,
            base_solutions=report.solutions,
            offline_seconds=report.total_seconds,
            offline_paths=sum(report.jobs_per_level.values()),
        )

    @property
    def n_solutions(self) -> int:
        return len(self.base_solutions)

    # ------------------------------------------------------------------
    def continue_to(
        self,
        target: PieriInstance,
        seed: int = 0,
        options: TrackerOptions | None = None,
    ) -> List[np.ndarray]:
        """Online step for a raw Pieri instance (d(m,p,q) paths)."""
        solutions, _ = continue_to_instance(
            self.base_instance,
            self.base_solutions,
            target,
            options=options,
            rng=np.random.default_rng(seed),
        )
        return solutions

    def place(
        self,
        plant: StateSpace,
        poles: Sequence[complex],
        seed: int = 0,
        options: TrackerOptions | None = None,
    ) -> PolePlacementResult:
        """Online pole placement: all feedback laws for a concrete query."""
        m, p, q = self.problem.m, self.problem.p, self.problem.q
        if (plant.n_inputs, plant.n_outputs) != (m, p):
            raise ValueError(
                f"oracle is for m={m}, p={p}; plant has "
                f"{plant.n_inputs} inputs, {plant.n_outputs} outputs"
            )
        if plant.n_states != required_state_dimension(m, p, q):
            raise ValueError(
                f"plant needs {required_state_dimension(m, p, q)} states"
            )
        poles = [complex(s) for s in poles]
        if len(poles) != self.problem.num_conditions:
            raise ValueError(
                f"need exactly {self.problem.num_conditions} poles"
            )
        import time

        t0 = time.perf_counter()
        target = PieriInstance(
            self.problem, pole_planes(plant, poles), poles
        )
        solutions = self.continue_to(target, seed=seed, options=options)
        root = PieriPoset.build(self.problem).root()
        laws: List[StaticFeedbackLaw | DynamicCompensator] = []
        failures = len(self.base_solutions) - len(solutions)
        for sol in solutions:
            try:
                laws.append(extract_feedback(sol, root))
            except ValueError:
                failures += 1
        return PolePlacementResult(
            plant=plant,
            poles=poles,
            q=q,
            laws=laws,
            failures=failures,
            expected_count=len(self.base_solutions),
            total_seconds=time.perf_counter() - t0,
        )
