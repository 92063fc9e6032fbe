"""Real parallel path tracking: static and dynamic load balancing (paper §II).

The paper's two schemes, implemented on local workers instead of MPI ranks
(see DESIGN.md substitutions).  Both are the one master loop of
:mod:`repro.parallel.dispatcher` — hand a block of paths to an idle worker,
first-come-first-served, collect its results — and differ only in how the
path list is cut into blocks before the run:

- **static** — one round-robin block per worker, so every worker is handed
  its whole share at once.  Minimal coordination, but worker finish times
  inherit the full variance of the per-path costs.
- **dynamic** — ``4 * n_workers`` round-robin blocks; a worker that
  finishes is handed the next.  More coordination, better balance.

Every block is one structure-of-arrays front of the one tracker loop
(:class:`~repro.tracker.BatchTracker`): a front here is bound by
interpreter overhead per call, not by arithmetic, so a block tracked
row by row costs several times the same block tracked at once, and a
row's bits do not depend on the rows beside it.  ``mode`` names only
the pool: worker processes by default (real parallelism for this
CPU-bound workload), or ``"serial"`` for the 1-CPU baseline, the whole
path list as one front in this process.  Any one-worker run is that
one front.

A worker that raises stops the run: its exception reaches the caller and
no partial report is returned.

Worker busy time is *self-reported*: every block result carries the worker
identity (process id, thread id) that ran it, and per-worker busy seconds
are aggregated from those reports — so ``load_imbalance`` reflects the
real assignment, not a master-side guess.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Sequence, Tuple

import numpy as np

from ..tracker import (
    BatchHomotopy,
    BatchTracker,
    PathResult,
    TrackerOptions,
)
from .dispatcher import PoolMode, _resolve_workers, dispatch_with_pool, make_pool

__all__ = ["ParallelTrackReport", "load_imbalance", "track_paths_parallel"]


def load_imbalance(busy_seconds) -> float:
    """max busy / mean busy over the *full* pool; 1.0 is perfect balance.

    Idle workers count as zeros (pad with :func:`_busy_list`), so the
    statistic reflects the pool size actually reserved.  A report with
    *zero* busy workers — every job culled before dispatch, or a sweep
    resumed with nothing left to run — has no balance to speak of and
    returns 0.0 rather than dividing by the zero mean (it also keeps
    the sentinel distinguishable from a genuinely perfect 1.0).  The
    cluster simulator uses the complementary convention — see
    :meth:`repro.simcluster.SimResult.load_imbalance`.

    >>> load_imbalance([2.0, 1.0, 1.0])
    1.5
    >>> load_imbalance([])
    0.0
    >>> load_imbalance([0.0, 0.0])
    0.0
    """
    busy = np.asarray(list(busy_seconds), dtype=float)
    if busy.size == 0 or busy.mean() == 0:
        return 0.0
    return float(busy.max() / busy.mean())

# Module-level worker state: set once per worker process by the initializer
# so the homotopy is pickled once, not per path.
_WORKER_HOMOTOPY: BatchHomotopy | None = None
_WORKER_TRACKER: BatchTracker | None = None

WorkerKey = Tuple[int, int]


def _worker_key() -> WorkerKey:
    """Identity of the executing worker: (process id, thread id)."""
    return os.getpid(), threading.get_ident()


def _init_worker(homotopy: BatchHomotopy, options: TrackerOptions) -> None:
    global _WORKER_HOMOTOPY, _WORKER_TRACKER
    _WORKER_HOMOTOPY = homotopy
    _WORKER_TRACKER = BatchTracker(options)


def _track_block(block) -> tuple[List[PathResult], float, WorkerKey]:
    """Worker entry point: track one block of ``(path_id, start)`` pairs
    as a single SoA front."""
    t0 = time.perf_counter()
    results = _WORKER_TRACKER.track_batch(
        _WORKER_HOMOTOPY,
        [start for _, start in block],
        path_ids=[path_id for path_id, _ in block],
    )
    return results, time.perf_counter() - t0, _worker_key()


@dataclass
class ParallelTrackReport:
    """Results plus the load-balance evidence the paper's tables report."""

    results: List[PathResult]
    schedule: str
    n_workers: int
    wall_seconds: float
    worker_busy_seconds: List[float] = field(default_factory=list)

    @property
    def total_cpu_seconds(self) -> float:
        return float(sum(self.worker_busy_seconds))

    @property
    def load_imbalance(self) -> float:
        """max busy / mean busy; 1.0 is perfect balance."""
        return load_imbalance(self.worker_busy_seconds)


def _busy_list(per_worker: Dict[WorkerKey, float], n_workers: int) -> List[float]:
    """Self-reported busy seconds as a list padded to ``n_workers``.

    Idle workers (never handed a job) appear as zeros so the imbalance
    statistic still reflects the full pool size.
    """
    busy = sorted(per_worker.values(), reverse=True)
    return busy + [0.0] * (n_workers - len(busy))


def track_paths_parallel(
    homotopy: BatchHomotopy,
    starts: Sequence[Sequence[complex]],
    n_workers: int | None = None,
    schedule: Literal["static", "dynamic"] = "dynamic",
    mode: PoolMode = "process",
    options: TrackerOptions | None = None,
) -> ParallelTrackReport:
    """Track all paths of ``homotopy`` from ``starts`` on local workers.

    Parameters
    ----------
    homotopy:
        Any :class:`~repro.tracker.BatchHomotopy`; it is shipped to
        each worker once (pickled for process workers).
    starts:
        One start vector per path; path ids are their indices here.
    n_workers:
        Pool size; defaults to ``cpu_count() - 1`` (min 1).
    schedule:
        How the path list is cut: ``"static"`` is one round-robin block
        per worker, ``"dynamic"`` ``4 * n_workers`` round-robin blocks —
        the paper's two schemes.  Every block is one SoA front.
    mode:
        The pool: ``"process"`` or ``"serial"`` (all paths as one front
        in this process).  One worker is always this process.
    options:
        Tracker options shared by every worker.

    Returns
    -------
    A :class:`ParallelTrackReport`: results ordered by path id plus the
    schedule/busy-time telemetry the paper's tables report.

    >>> import numpy as np
    >>> from repro.homotopy import make_homotopy_and_starts
    >>> from repro.systems import katsura_system
    >>> homotopy, starts = make_homotopy_and_starts(
    ...     katsura_system(2), rng=np.random.default_rng(0))
    >>> report = track_paths_parallel(homotopy, starts, mode="serial")
    >>> report.n_workers, len(report.results)
    (1, 4)
    >>> [r.path_id for r in report.results]
    [0, 1, 2, 3]
    >>> report.load_imbalance >= 1.0
    True
    """
    options = options or TrackerOptions()
    n_workers = _resolve_workers(n_workers, mode)
    if schedule not in ("static", "dynamic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    jobs = [(i, np.asarray(s, dtype=complex)) for i, s in enumerate(starts)]

    if n_workers == 1:
        mode, n_blocks = "serial", 1
    else:
        n_blocks = n_workers if schedule == "static" else 4 * n_workers
    blocks = [b for b in (jobs[k::n_blocks] for k in range(n_blocks)) if b]

    results: List[PathResult] = []
    per_worker: Dict[WorkerKey, float] = {}

    def on_result(block, out) -> None:
        tracked, busy, key = out
        results.extend(tracked)
        per_worker[key] = per_worker.get(key, 0.0) + busy

    def on_abandoned(job) -> None:
        # called inside the dispatcher's ``except``: a bare raise hands the
        # worker's own exception to the caller (a dead process leaves none)
        if sys.exc_info()[1] is not None:
            raise
        raise RuntimeError(f"worker process died; path {job[0]} lost")

    t_wall = time.perf_counter()
    dispatch_with_pool(
        lambda: make_pool(mode, n_workers, _init_worker, (homotopy, options)),
        lambda pool, block: pool.submit(_track_block, block),
        blocks,
        on_result,
        n_workers=n_workers,
        on_abandoned=on_abandoned,
        # the queue holds the pre-cut blocks
        take=lambda queue, n_idle: queue.popleft(),
    )
    wall = time.perf_counter() - t_wall
    results.sort(key=lambda r: r.path_id)
    return ParallelTrackReport(
        results, schedule, n_workers, wall, _busy_list(per_worker, n_workers)
    )
