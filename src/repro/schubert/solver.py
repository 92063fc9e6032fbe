"""Sequential Pieri homotopy solver: drive jobs over the Pieri tree.

One *job* tracks one solution path along a tree edge (paper §III-C/D): given
the solution at a node's parent, it produces the solution at the node.  The
solver exposes the job machinery (``initial_jobs`` / ``run_jobs_batched``
/ :meth:`PieriReport.record_front`) so the sequential level-by-level
driver here and the parallel master/worker scheduler in
:mod:`repro.parallel` drive *exactly the same computation* — only the
order differs, which is what makes the sequential/parallel agreement
tests meaningful.

Every edge is tracked by :meth:`PieriSolver.run_jobs_batched`: same-level
edges share a shape (``dim == level``), so any number of them stack into
one :class:`~repro.tracker.StackedHomotopy` front of the SoA
:class:`~repro.tracker.BatchTracker`; the chart switch
(:func:`~repro.tracker.rescue_diverged`) and the re-track ladder
(:func:`~repro.tracker.retrack_duplicate_clusters`) requeue fronts of
their own.  :meth:`PieriSolver.solve` tracks the tree level by level,
each level one front; a row is tracked the same whatever rows travel
with it, so a caller that hands the driver other fronts (the parallel
scheduler's bundles, Table III's one edge a front in
:mod:`repro.experiments.tables`) finds the same solutions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, Tuple

import numpy as np

from ..linalg import random_plane
from ..tracker import (
    BatchTracker,
    Ladder,
    PathResult,
    StackedHomotopy,
    TrackerOptions,
    greedy_cluster_indices,
    rescue_diverged,
    retrack_duplicate_clusters,
)
from .homotopy import (
    PieriEdgeHomotopy,
    intersection_residuals,
    normalize_to_standard_chart,
    trivial_solution_matrix,
)
from .patterns import PieriProblem
from .poset import PieriPoset
from .tree import PieriTreeNode

__all__ = [
    "PieriInstance",
    "PieriJob",
    "PieriJobResult",
    "PieriReport",
    "PieriSolver",
]


#: Per-front sums of :class:`~repro.tracker.TrackStats` counters that
#: :meth:`PieriSolver.run_jobs_batched` reports next to its job counts
#: (and :meth:`PieriReport.record_front` sums per level): effort that
#: repeats exactly for a seed, where seconds do not.
EFFORT_KEYS = (
    "steps_accepted",
    "steps_rejected",
    "newton_iterations",
    "jacobian_evaluations",
)


def _effort_sums(results: Sequence[PathResult]) -> Dict[str, int]:
    return {
        key: sum(getattr(r.stats, key) for r in results) for key in EFFORT_KEYS
    }


#: Max-norm distance below which two standard-chart endpoints are the
#: same solution.  The Pieri induction makes the solutions at a node
#: distinct, so two that coincide mean a path jumped; endpoints at
#: different nodes differ by 1 at a bottom pivot of one of them (the
#: other is 0 there, below its own pivot).
COINCIDENCE_TOL = 1e-6


@dataclass
class PieriInstance:
    """A concrete pole-placement-shaped input: N planes and N points."""

    problem: PieriProblem
    planes: List[np.ndarray]
    points: List[complex]

    def __post_init__(self) -> None:
        n = self.problem.num_conditions
        if len(self.planes) != n or len(self.points) != n:
            raise ValueError(f"need exactly {n} planes and points")
        amb = self.problem.ambient
        for k in self.planes:
            if k.shape != (amb, self.problem.m):
                raise ValueError(
                    f"planes must be {amb} x {self.problem.m} matrices"
                )
        if len(set(self.points)) != len(self.points):
            raise ValueError("interpolation points must be distinct")

    @classmethod
    def random(
        cls,
        m: int,
        p: int,
        q: int = 0,
        rng: np.random.Generator | None = None,
    ) -> "PieriInstance":
        """General-position input: Haar planes, unit-circle-ish points.

        Parameters
        ----------
        m, p, q:
            Problem shape: maps of ``p``-planes of degree ``q`` meeting
            ``N = m*p + q*(m+p)`` general ``m``-planes.
        rng:
            Seed it for a reproducible instance.

        >>> import numpy as np
        >>> inst = PieriInstance.random(2, 2, 0, np.random.default_rng(0))
        >>> inst.problem.num_conditions, len(inst.planes), len(inst.points)
        (4, 4, 4)
        """
        rng = np.random.default_rng() if rng is None else rng
        problem = PieriProblem(m, p, q)
        n = problem.num_conditions
        planes = [random_plane(problem.ambient, m, rng) for _ in range(n)]
        points = [
            complex(np.exp(2j * np.pi * rng.random()) * (0.5 + rng.random()))
            for _ in range(n)
        ]
        return cls(problem, planes, points)


@dataclass
class PieriJob:
    """Track the edge into ``node`` starting from its parent's solution."""

    node: PieriTreeNode
    start_matrix: np.ndarray

    @property
    def level(self) -> int:
        return self.node.level


@dataclass
class PieriJobResult:
    """Outcome of one job: the node's solution matrix, or a failure."""

    job: PieriJob
    path_result: PathResult
    matrix: Optional[np.ndarray] = None

    @property
    def success(self) -> bool:
        return self.matrix is not None


@dataclass
class PieriReport:
    """Aggregate of a full solve."""

    instance: PieriInstance
    solutions: List[np.ndarray] = field(default_factory=list)
    failures: int = 0
    jobs_per_level: Dict[int, int] = field(default_factory=dict)
    seconds_per_level: Dict[int, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: one record per tree level, the sums over the fronts tracked at
    #: it: n_jobs, n_homotopies, chart_switches, retries, collisions,
    #: seconds, and the effort counters of :data:`EFFORT_KEYS`
    level_batches: List[dict] = field(default_factory=list)
    #: the tracker options the tree was solved with
    #: (:meth:`~repro.tracker.TrackerOptions.echo`, as in
    #: ``SolveReport.summary["options"]``)
    options: Dict[str, object] = field(default_factory=dict)
    #: artifact-store routing of this solve, when a ``cache=`` was given:
    #: ``status`` ("warm" — continued from the cached generic instance
    #: in exactly ``n_paths == d(m, p, q)`` paths — or "cold"), the
    #: store ``key``, and for cold solves whether the result was
    #: ``stored`` for future warm queries
    cache: Optional[dict] = None

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)

    def expected_count(self) -> int:
        return PieriPoset.build(self.instance.problem).root_count()

    def effort(self, key: str) -> int:
        """Sum of one per-level counter (:data:`EFFORT_KEYS`, ``retries``,
        ``collisions``, ...) over the tree levels."""
        return sum(record[key] for record in self.level_batches)

    def max_residual(self) -> float:
        """Largest |det| residual over all solutions and all N conditions."""
        root = PieriPoset.build(self.instance.problem).root()
        worst = 0.0
        for sol in self.solutions:
            res = intersection_residuals(
                sol, root, self.instance.planes, self.instance.points
            )
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    def all_distinct(self, tol: float = COINCIDENCE_TOL) -> bool:
        """No two solutions within ``tol`` of each other (max norm)."""
        clusters = greedy_cluster_indices(self.solutions, tol)
        return len(clusters) == len(self.solutions)

    def record_front(
        self,
        jobs: Sequence[PieriJob],
        matrices: Sequence[Optional[np.ndarray]],
        stats: Dict[str, int],
        seconds: float,
    ) -> List[PieriJob]:
        """Book one tracked front: the master's generate step.

        ``jobs`` share a tree level, ``matrices`` are their endpoints
        (``None`` for a failed edge); ``stats`` (the front's counts, see
        :meth:`PieriSolver.run_jobs_batched`) and its worker-busy
        ``seconds`` are added to the level's record.  A failed edge is
        counted, a leaf's matrix is a solution, and the child jobs every
        other edge enables are returned.  A leaf's matrix that coincides
        with a solution already booked is a failed edge too: some path
        below it jumped onto a neighbour in a front that could not see
        both (:meth:`PieriSolver.run_jobs_batched` re-tracks the ones it
        can), and the duplicated subtree ends here, counted.
        """
        lvl = jobs[0].level
        record = next((r for r in self.level_batches if r["level"] == lvl), None)
        if record is None:
            record = {"level": lvl, "seconds": 0.0, **dict.fromkeys(stats, 0)}
            self.level_batches.append(record)
        record["seconds"] += seconds
        for key, count in stats.items():
            record[key] += count
        self.jobs_per_level[lvl] = self.jobs_per_level.get(lvl, 0) + len(jobs)
        self.seconds_per_level[lvl] = record["seconds"]
        enabled: List[PieriJob] = []
        leaves: List[np.ndarray] = []
        for job, matrix in zip(jobs, matrices):
            if matrix is None:
                self.failures += 1
            elif job.node.is_leaf():
                leaves.append(matrix)
            else:
                enabled.extend(
                    PieriJob(child, matrix) for child in job.node.children()
                )
        if leaves:
            booked = len(self.solutions)
            pool = self.solutions + leaves
            fresh = [
                cluster[0]
                for cluster in greedy_cluster_indices(pool, COINCIDENCE_TOL)
                if cluster[0] >= booked
            ]
            self.failures += len(leaves) - len(fresh)
            self.solutions.extend(pool[i] for i in fresh)
        return enabled


class PieriSolver:
    """Runs Pieri jobs; sequential driver plus hooks for the parallel one.

    The one-call entry point is :meth:`solve`; the job-level hooks
    (:meth:`initial_jobs` / :meth:`run_jobs_batched` /
    :meth:`PieriReport.record_front`) let the parallel tree scheduler
    drive exactly the same computation.

    >>> import numpy as np
    >>> instance = PieriInstance.random(2, 2, 0, np.random.default_rng(1))
    >>> report = PieriSolver(instance, seed=2).solve()
    >>> report.n_solutions, report.expected_count(), report.failures
    (2, 2, 0)
    >>> report.max_residual() < 1e-8 and report.all_distinct()
    True

    That tracked whole tree levels as stacked SoA fronts, one record per
    level in ``level_batches``:

    >>> len(report.level_batches) == instance.problem.num_conditions
    True
    """

    #: Default tracking parameters for Pieri edges: conservative steps and a
    #: strict corrector so that close sibling paths are not jumped (a jump
    #: merges two endpoints and silently loses a feedback law).  The cubic
    #: guess leaves all of that as it is and saves a Newton update a step,
    #: which is what lets the streak rule grow the step here at all.
    DEFAULT_OPTIONS = TrackerOptions(
        initial_step=0.02,
        max_step=0.08,
        corrector_tol=1e-10,
        corrector_iterations=4,
        expand_after=4,
        predictor="cubic",
    )

    def __init__(
        self,
        instance: PieriInstance,
        options: TrackerOptions | None = None,
        seed: int = 0,
    ) -> None:
        self.instance = instance
        self.problem = instance.problem
        self.tracker = BatchTracker(options or self.DEFAULT_OPTIONS)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def _edge_rng(self, node: PieriTreeNode) -> np.random.Generator:
        """Deterministic randomness keyed on the *poset* node.

        All tree edges into the same pattern at the same level must share
        one homotopy (identical gamma twists): the Pieri induction gives a
        bijection between the start branches (one per child solution) and
        the endpoints, so distinct chains stay distinct.  Keying on the
        chain history instead would give each edge its own homotopy and
        let endpoints collide.  This also makes parallel == sequential.
        """
        pattern = node.pattern()
        return np.random.default_rng(
            [self.seed, node.level, *pattern.bottom_pivots]
        )

    def make_homotopy(
        self,
        node: PieriTreeNode,
        pin_row: int | None = None,
    ) -> PieriEdgeHomotopy:
        if node.level == 0:
            raise ValueError("the root node has no incoming edge")
        n = node.level
        pattern = node.pattern()
        jstar = node.columns[-1]
        return PieriEdgeHomotopy(
            pattern,
            jstar,
            self.instance.planes[:n],
            self.instance.points[:n],
            rng=self._edge_rng(node),
            pin_row=pin_row,
        )

    def initial_jobs(self) -> List[PieriJob]:
        """Jobs out of the tree root (at most p of them)."""
        root = PieriTreeNode(self.problem)
        start = trivial_solution_matrix(self.problem)
        return [PieriJob(child, start) for child in root.children()]

    # ------------------------------------------------------------------
    # Batched tracking: a whole tree level as one stacked SoA front
    # ------------------------------------------------------------------
    def run_jobs_batched(
        self, jobs: Sequence[PieriJob]
    ) -> Tuple[List[PieriJobResult], Dict[str, int]]:
        """Track same-level edges as one stacked front, then normalize
        each endpoint to the standard chart.

        All jobs must share a tree level, so their edge homotopies share
        a shape (``dim == level``) and stack into one
        :class:`~repro.tracker.StackedHomotopy` front.  Edges into the
        same poset node reuse one homotopy object (identical gamma
        twists, see :meth:`_edge_rng`), so the start/endpoint bijection
        that keeps solutions distinct is preserved.  Every front —
        the first pass and each rung of the ladder below — is tracked
        and then its apparently divergent rows are re-pinned through
        :func:`~repro.tracker.rescue_diverged` (the chart switch:
        :meth:`~repro.schubert.homotopy.PieriEdgeHomotopy.rescale_patch`,
        each row resumed from its own reached ``t``).  Failed rows, and
        rows whose standard-chart endpoints coincide (within
        :data:`COINCIDENCE_TOL`: the solutions at a node are distinct,
        so one of them jumped onto the other's path, and either may be
        the one), then climb the shared re-track ladder
        :func:`~repro.tracker.retrack_duplicate_clusters` against the
        *original* homotopies (fresh gammas would break the bijection);
        endpoints the endgame already classified (e.g. a Cauchy-measured
        singularity) are final verdicts, not failures to burn rungs on.

        Returns one :class:`PieriJobResult` per job, in input order,
        plus a stats dict: ``n_jobs``, ``n_homotopies``,
        ``chart_switches`` (kept re-pins, every front), ``retries``
        (re-tracked rows, summed over rungs), ``collisions`` (those of
        them re-tracked for a coinciding endpoint) and the front's sums
        of the :data:`EFFORT_KEYS` counters, superseded attempts
        included (a kept chart switch and a rung absorb what they
        replace; a discarded chart switch is dropped, as in
        :func:`~repro.tracker.rescue_diverged`).
        """
        jobs = list(jobs)
        stats = dict.fromkeys(
            ("n_jobs", "n_homotopies", "chart_switches", "retries",
             "collisions", *EFFORT_KEYS),
            0,
        )
        if not jobs:
            return [], stats
        if len({job.level for job in jobs}) != 1:
            raise ValueError("batched Pieri jobs must share one tree level")
        # one homotopy per (pattern, jstar) class — all chains into the
        # same poset node share gamma twists (see _edge_rng)
        members: List[PieriEdgeHomotopy] = []
        index: Dict[tuple, int] = {}
        owners: List[int] = []
        for job in jobs:
            key = (job.node.pattern().bottom_pivots, job.node.columns[-1])
            k = index.get(key)
            if k is None:
                k = index[key] = len(members)
                members.append(self.make_homotopy(job.node))
            owners.append(k)
        x0 = [
            members[k].start_vector(job.start_matrix)
            for k, job in zip(owners, jobs)
        ]
        # the chart each row's successful endpoint lives in (a success
        # always replaces the attempt before it, so only successes move it)
        homs: List[PieriEdgeHomotopy] = [members[k] for k in owners]

        def track(rows, options, ladder=None):
            tracker = BatchTracker(options, endgame=self.tracker.endgame)
            out = tracker.track_batch(
                StackedHomotopy(members, [owners[i] for i in rows]),
                [x0[i] for i in rows],
                path_ids=rows,
                ladder=ladder,
            )
            charts = [members[owners[i]] for i in rows]
            out, switched = rescue_diverged(tracker, charts, out)
            stats["chart_switches"] += switched
            for i, chart, r in zip(rows, charts, out):
                if r.success:
                    homs[i] = chart
            return out

        def endpoint(r: PathResult) -> Optional[np.ndarray]:
            """A successful row's endpoint in the standard chart."""
            matrix = homs[r.path_id].to_matrix(r.solution)
            try:
                return normalize_to_standard_chart(
                    matrix, jobs[r.path_id].node.pattern()
                )
            except ZeroDivisionError:
                return None

        ladder = Ladder(
            self.tracker.options, retry_failed=True, endpoint=endpoint,
            tol=COINCIDENCE_TOL,
        )
        results = track(list(range(len(jobs))), self.tracker.options, ladder)
        retrack_duplicate_clusters(
            results,
            track,
            ladder,
            failed=[i for i, r in enumerate(results) if not r.success],
        )
        stats["retries"] = ladder.retries
        stats["collisions"] = ladder.collisions
        stats["n_jobs"] = len(jobs)
        stats["n_homotopies"] = len(members)
        stats.update(_effort_sums(results))
        return [
            PieriJobResult(job, r, endpoint(r) if r.success else None)
            for job, r in zip(jobs, results)
        ], stats

    # ------------------------------------------------------------------
    def solve(
        self,
        mode: Literal["batch"] = "batch",
        cache=None,
    ) -> PieriReport:
        """Sequential solve of the whole tree.

        The tree runs level-synchronously: every edge of a level is one
        stacked structure-of-arrays front, and ``report.level_batches``
        records the per-level batch stats.  ``mode`` names that one
        front width, ``"batch"``; anything else raises ``ValueError``
        before any tree or store work.

        ``cache`` (an :class:`~repro.artifacts.ArtifactStore`, a path,
        or ``True`` for the ``$REPRO_ARTIFACT_STORE`` default) turns on
        the offline/online split: when the store holds a solved generic
        instance of this shape, the query is served *warm* by
        coefficient-parameter continuation — exactly ``d(m, p, q)``
        tracked paths instead of the whole tree — and
        ``report.cache["status"]`` says which route ran.  A cold solve
        that finds every expected root, each once, populates the store
        on the way out.  A warm attempt that fails any path falls back to the
        ab-initio tree (cached data can steer the route, never the
        answer).
        """
        if mode != "batch":
            raise ValueError(f"unknown mode {mode!r}")
        store = None
        if cache is not None:
            from ..artifacts import resolve_store

            store = resolve_store(cache)
        if store is not None:
            report = self._solve_warm(store)
            if report is not None:
                return report
        report = self._solve_tree()
        if store is not None:
            from ..artifacts import pieri_fingerprint, store_pieri_generic

            problem = self.problem
            report.cache = {
                "status": "cold",
                "key": pieri_fingerprint(problem.m, problem.p, problem.q),
                "n_paths": sum(report.jobs_per_level.values()),
                "stored": False,
            }
            # a root short would cost every warm query that root: not
            # stored (two coinciding endpoints count as a failure, see
            # PieriReport.record_front)
            complete = (
                report.failures == 0
                and report.n_solutions == report.expected_count()
            )
            if complete:
                store_pieri_generic(
                    store,
                    self.instance,
                    report.solutions,
                    report.jobs_per_level,
                )
                report.cache["stored"] = True
        return report

    def _solve_warm(self, store) -> Optional[PieriReport]:
        """Serve the query from a cached solved generic instance.

        Returns ``None`` — caller falls back to the ab-initio tree —
        when the store has no (valid) artifact for this shape or any
        continuation path fails; a warm answer is all-or-nothing.
        """
        from ..artifacts import load_pieri_generic, pieri_fingerprint
        from .parameter import continue_to_instance

        problem = self.problem
        loaded = load_pieri_generic(store, problem.m, problem.p, problem.q)
        if loaded is None:
            return None
        generic, generic_solutions, _meta = loaded
        t_start = time.perf_counter()
        rng = np.random.default_rng([self.seed, problem.m, problem.p,
                                     problem.q, 1])
        solutions, results = continue_to_instance(
            generic,
            generic_solutions,
            self.instance,
            options=self.tracker.options,
            rng=rng,
        )
        if any(not r.success for r in results):
            return None
        seconds = time.perf_counter() - t_start
        report = PieriReport(
            self.instance,
            solutions=solutions,
            total_seconds=seconds,
            options=self.tracker.options.echo(),
            level_batches=[
                {
                    "level": "online",
                    "n_jobs": 1,
                    "n_homotopies": 1,
                    "n_paths": len(results),
                    "seconds": seconds,
                    **_effort_sums(results),
                }
            ],
        )
        report.cache = {
            "status": "warm",
            "key": pieri_fingerprint(problem.m, problem.p, problem.q),
            "n_paths": len(results),
            "seconds": seconds,
        }
        return report

    def _solve_tree(self) -> PieriReport:
        """Ab-initio solve of the whole tree, one front a level."""
        t_start = time.perf_counter()
        report = PieriReport(self.instance, options=self.tracker.options.echo())
        front = self.initial_jobs()
        while front:
            t0 = time.perf_counter()
            results, stats = self.run_jobs_batched(front)
            dt = time.perf_counter() - t0
            front = report.record_front(
                front, [r.matrix for r in results], stats, dt
            )
        report.total_seconds = time.perf_counter() - t_start
        return report
