"""Parallel Pieri homotopy: the master/slave tree scheduler (paper §III-D, Fig 6).

The master owns a queue of *ready* jobs (tree edges whose start solution is
known).  At startup it enqueues the at-most-p jobs out of the tree root;
whenever a worker returns a result, the master generates the (at most p)
jobs each returned edge enables and serves the first idle worker from the
queue — first-come-first-served, no barrier between levels, and the paper's
termination rule: workers that found the queue empty are parked on an idle
list and *re-activated* when new jobs appear; the run ends when every job
is done and all workers are parked.

What a worker is handed is a *bundle*, not one edge: the ready edges at the
level of the queue's head, split evenly among the workers idle at that
moment, but never into shares narrower than :data:`MIN_SHARE` edges — a
level too narrow to split travels whole to one worker.  Edges of one level
share a shape, so the worker tracks its bundle as a single stacked SoA
front (:meth:`repro.schubert.solver.PieriSolver.run_jobs_batched`) with the
same per-poset-node homotopies the sequential solver builds — the parallel
solve returns exactly the same solution set (tested), and where every level
travels whole, the sequential batch solve bit for bit.  A front here is
bound by interpreter overhead per call, not arithmetic: one edge a job
cost 23-28 ms a path, the same edges in bundles 6-9 ms, and on two worker
processes the bundles of a split level of 64 edges or fewer cost 1.2-2.4
times the whole level's busy time for no less wall time.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import List, Literal, Optional

from ..schubert.solver import (
    PieriInstance,
    PieriJob,
    PieriReport,
    PieriSolver,
)
from ..schubert.tree import PieriTreeNode
from ..tracker import TrackerOptions
from .dispatcher import PoolMode, _resolve_workers, dispatch_with_pool, make_pool

__all__ = ["ParallelPieriReport", "solve_pieri_parallel"]

_WORKER_SOLVER: PieriSolver | None = None


def _init_pieri_worker(
    instance: PieriInstance, options: Optional[TrackerOptions], seed: int
) -> None:
    global _WORKER_SOLVER
    _WORKER_SOLVER = PieriSolver(instance, options=options, seed=seed)


def _run_pieri_job(args):
    """Worker entry point: one bundle of same-level edges, one stacked front."""
    t0 = time.perf_counter()
    jobs = [
        PieriJob(PieriTreeNode(_WORKER_SOLVER.problem, tuple(cols)), start)
        for cols, start in args
    ]
    results, stats = _WORKER_SOLVER.run_jobs_batched(jobs)
    return [r.matrix for r in results], stats, time.perf_counter() - t0


#: The grain of a bundle: a level's ready edges are split into at most
#: ``n_ready // MIN_SHARE`` even shares, so a level narrower than two
#: grains travels whole.  Sized from per-level worker-busy time, whole
#: level vs split (docs/release_notes.md): in one process a half of a
#: 128-edge level costs 0.50-0.61 of the whole level, a half of a 64-edge
#: level 0.71-0.72, and narrower halves 0.67-0.91.
MIN_SHARE = 64


def _take_front(queue: deque, n_idle: int) -> List[PieriJob]:
    """The ready edges at the level of the queue's head, split evenly
    among ``k = max(1, min(n_idle, n_ready // MIN_SHARE))`` of the idle
    workers: this worker's share, in queue order.  No share is narrower
    than :data:`MIN_SHARE` unless it is the whole ready level."""
    level = queue[0].level
    n_ready = sum(job.level == level for job in queue)
    share = -(-n_ready // max(1, min(n_idle, n_ready // MIN_SHARE)))
    bundle: List[PieriJob] = []
    rest: List[PieriJob] = []
    for job in queue:
        mine = job.level == level and len(bundle) < share
        (bundle if mine else rest).append(job)
    queue.clear()
    queue.extend(rest)
    return bundle


@dataclass
class ParallelPieriReport(PieriReport):
    """Sequential report fields plus scheduler telemetry."""

    n_workers: int = 1
    wall_seconds: float = 0.0
    max_queue_length: int = 0
    max_active_jobs: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0

    @property
    def speedup_vs_cpu_time(self) -> float:
        """Total busy time / wall time: achieved parallelism.  It reads
        about 1 when every level travels whole (no level reaches
        ``2 * MIN_SHARE`` edges), one worker busy at a time."""
        busy = sum(self.seconds_per_level.values())
        return busy / self.wall_seconds if self.wall_seconds > 0 else 1.0


def solve_pieri_parallel(
    instance: PieriInstance,
    n_workers: int | None = None,
    mode: PoolMode = "process",
    options: TrackerOptions | None = None,
    seed: int = 0,
    max_job_retries: int = 2,
    granularity: Literal["edge", "level"] = "edge",
) -> ParallelPieriReport:
    """Solve a Pieri problem with the master/slave tree scheduler.

    The master keeps the paper's protocol — a FCFS queue of ready tree
    edges, no barrier between levels, children enqueued as their
    parent's result arrives — and hands an idle worker a *bundle*: its
    even share of the ready edges at the level of the queue's head,
    tracked by the worker as one stacked SoA front.  No share is
    narrower than :data:`MIN_SHARE` edges unless it is the whole ready
    level, so with one worker, or on a tree whose levels are all
    narrower than ``2 * MIN_SHARE``, every level travels as one bundle
    and the worker tracks exactly the sequential solver's level front;
    wider levels are split among the workers idle at that moment.
    ``granularity`` is accepted for callers of the former
    edge-at-a-time and level-synchronous masters; both names run this
    one.

    ``jobs_per_level`` counts edges, ``seconds_per_level`` worker-busy
    seconds, and ``level_batches`` has one record per tree level, the
    sums over its bundles (``n_chunks`` of them): ``n_jobs`` edges,
    ``n_homotopies`` built, ``chart_switches``, ``retries``,
    ``collisions`` and the effort counters of
    :data:`repro.schubert.solver.EFFORT_KEYS`; ``options`` echoes what
    every worker's tracker ran with.  A worker re-tracks a path jump it
    can see (two endpoints of its bundle coincide); on a level split at
    or above ``2 * MIN_SHARE`` edges, a jump onto a row of another
    bundle ends as duplicate leaves, which ``failures`` counts.

    Fault tolerance: a bundle whose worker *crashes* (raises, as opposed
    to returning a failed path) is re-enqueued as single edges, each up
    to ``max_job_retries`` times; an edge past its budget forfeits its
    own subtree (counted in ``failures``) and nothing else.  Crashes are
    counted in ``worker_crashes``.

    >>> import numpy as np
    >>> instance = PieriInstance.random(2, 2, 0, np.random.default_rng(1))
    >>> report = solve_pieri_parallel(instance, mode="serial", seed=2)
    >>> report.n_solutions, report.failures, report.jobs_per_level
    (2, 0, {1: 1, 2: 2, 3: 2, 4: 2})
    >>> [r["n_chunks"] for r in report.level_batches]
    [1, 1, 1, 1]
    """
    n_workers = _resolve_workers(n_workers, mode)
    if granularity not in ("edge", "level"):
        raise ValueError(f"unknown granularity {granularity!r}")
    master = PieriSolver(instance, options=options, seed=seed)
    report = ParallelPieriReport(
        instance, n_workers=n_workers, options=master.tracker.options.echo()
    )
    t_wall = time.perf_counter()

    def submit_bundle(pool, bundle: List[PieriJob]):
        # _run_pieri_job is looked up as a module global at call time so
        # fault-injection tests can monkeypatch it
        return pool.submit(
            _run_pieri_job,
            [(list(job.node.columns), job.start_matrix) for job in bundle],
        )

    def on_result(bundle: List[PieriJob], result) -> List[PieriJob]:
        matrices, stats, dt = result
        return report.record_front(bundle, matrices, {"n_chunks": 1, **stats}, dt)

    telemetry = dispatch_with_pool(
        lambda: make_pool(
            mode, n_workers, _init_pieri_worker, (instance, options, seed)
        ),
        submit_bundle,
        master.initial_jobs(),
        on_result,
        n_workers=n_workers,
        max_retries=max_job_retries,
        retry_key=lambda job: job.node.columns,
        take=_take_front,
    )
    # an edge whose retry budget was spent forfeits its subtree
    report.failures += telemetry.jobs_abandoned
    report.max_queue_length = telemetry.max_queue_length
    report.max_active_jobs = telemetry.max_active_jobs
    report.worker_crashes = telemetry.worker_crashes
    report.pool_rebuilds = telemetry.pool_rebuilds
    report.wall_seconds = time.perf_counter() - t_wall
    report.total_seconds = report.wall_seconds
    return report
