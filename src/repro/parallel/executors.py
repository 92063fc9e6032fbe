"""Real parallel path tracking: static and dynamic load balancing (paper §II).

The paper's two schemes, implemented on local workers instead of MPI ranks
(see DESIGN.md substitutions).  Both are the one master loop of
:mod:`repro.parallel.dispatcher` — hand a block of paths to an idle worker,
first-come-first-served, collect its results — and differ only in how the
path list is cut into blocks before the run:

- **static** — one round-robin block per worker, so every worker is handed
  its whole share at once.  Minimal coordination, but worker finish times
  inherit the full variance of the per-path costs.
- **dynamic** — one path a block; a worker that finishes is handed the
  next.  More coordination, near-perfect balance.

Workers are processes by default (real parallelism for this CPU-bound
workload); ``mode="thread"`` runs the same code on threads, useful for
correctness tests and when the homotopy is cheap relative to process
startup.  ``mode="serial"`` is the 1-CPU baseline: the same loop over a
pool that runs each block inline.

Every worker runs the one tracker loop
(:class:`~repro.tracker.BatchTracker`); the per-path modes above hand it
one-row fronts, so a path's seconds are its exclusive wall time.  Beyond
the paper's axis (paths x workers), two modes track a block as one wide
front:

- **batch** — one block, all paths, advanced as a single vectorized front
  in this process; no coordination at all, the speedup comes from
  amortizing numpy dispatch over the batch.
- **hybrid** — processes x batch: every worker tracks its block as one
  batched front; ``schedule="dynamic"`` cuts ``4 * n_workers`` blocks,
  trading some batching efficiency for balance.

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
from .dispatcher import _resolve_workers, dispatch_with_pool, make_pool

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


def _track_block(block, wide: bool) -> tuple[List[PathResult], float, WorkerKey]:
    """Worker entry point: track one block of ``(path_id, start)`` pairs,
    as a single SoA front when ``wide`` and as one-row fronts otherwise."""
    t0 = time.perf_counter()
    results: List[PathResult] = []
    for front in [block] if wide else [[item] for item in block]:
        results += _WORKER_TRACKER.track_batch(
            _WORKER_HOMOTOPY,
            [start for _, start in front],
            path_ids=[path_id for path_id, _ in front],
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
    mode: Literal["process", "thread", "serial", "batch", "hybrid"] = "process",
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
        per worker, ``"dynamic"`` one path a block (``4 * n_workers``
        blocks in hybrid mode) — the paper's two schemes.
    mode:
        ``"process"``/``"thread"``/``"serial"`` track a block path by
        path; ``"batch"`` advances all paths as one SoA front in this
        process; ``"hybrid"`` has each worker process track its block
        as one front.  One worker is always this process.
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
    n_workers = _resolve_workers(n_workers)
    if schedule not in ("static", "dynamic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if mode not in ("process", "thread", "serial", "batch", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    jobs = [(i, np.asarray(s, dtype=complex)) for i, s in enumerate(starts)]

    # mode: which pool, and whether a block is one front or one-row fronts
    wide = mode in ("batch", "hybrid")
    if mode in ("serial", "batch") or n_workers == 1:
        pool_mode, n_workers = "serial", 1
    else:
        pool_mode = "thread" if mode == "thread" else "process"
    # schedule: how the path list is cut
    if wide and n_workers == 1:
        n_blocks = 1  # batch, or hybrid on one worker: one front
    elif schedule == "static":
        n_blocks = n_workers
    else:
        n_blocks = 4 * n_workers if wide else len(jobs)
    blocks = [b for b in (jobs[k::n_blocks] for k in range(n_blocks)) if b]

    results: List[PathResult] = []
    per_worker: Dict[WorkerKey, float] = {}

    def on_result(block, out) -> None:
        tracked, busy, key = out
        results.extend(tracked)
        per_worker[key] = per_worker.get(key, 0.0) + busy

    def on_abandoned(block) -> None:
        # called inside the dispatcher's ``except``: a bare raise hands the
        # worker's own exception to the caller (a dead process leaves none)
        if sys.exc_info()[1] is not None:
            raise
        lost = [path_id for path_id, _ in block]
        raise RuntimeError(f"worker process died; paths {lost} lost")

    t_wall = time.perf_counter()
    dispatch_with_pool(
        lambda: make_pool(pool_mode, n_workers, _init_worker, (homotopy, options)),
        lambda pool, block: pool.submit(_track_block, block, wide),
        blocks,
        on_result,
        n_workers=n_workers,
        on_abandoned=on_abandoned,
    )
    wall = time.perf_counter() - t_wall
    results.sort(key=lambda r: r.path_id)
    return ParallelTrackReport(
        results, schedule, n_workers, wall, _busy_list(per_worker, n_workers)
    )
