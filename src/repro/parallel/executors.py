"""Real parallel path tracking: static and dynamic load balancing (paper §II).

The paper's two schemes, implemented on local workers instead of MPI ranks
(see DESIGN.md substitutions):

- **static** — the path list is split round-robin into one chunk per worker
  before any tracking starts; each worker runs its whole chunk.  Minimal
  coordination, but worker finish times inherit the full variance of the
  per-path costs.
- **dynamic** — a master hands out one path at a time; a worker that
  finishes requests the next (first-come-first-served).  More coordination,
  near-perfect balance.

Workers are processes by default (real parallelism for this CPU-bound
workload); ``mode="thread"`` runs the same code on threads, useful for
correctness tests and when the homotopy is cheap relative to process
startup.  ``mode="serial"`` is the 1-CPU baseline sharing the same code
path.

Every worker runs the one tracker loop
(:class:`~repro.tracker.BatchTracker`); the per-path modes above hand it
one-row fronts, so a path's seconds are its exclusive wall time.  Beyond
the paper's axis (paths x workers), two modes make the fronts wide:

- **batch** — one process advances *all* paths as a single vectorized
  front; no inter-process coordination at all, the speedup comes from
  amortizing numpy dispatch over the batch.
- **hybrid** — processes x batch: the path list is split into per-worker
  blocks and every worker tracks its block as one batched front.  With
  ``schedule="static"`` there is one round-robin block per worker; with
  ``schedule="dynamic"`` the list is cut into several smaller blocks
  handed out first-come-first-served, trading some batching efficiency
  for balance.

Worker busy time is *self-reported*: every job result carries the worker
identity (process id, thread id) that ran it, and per-worker busy seconds
are aggregated from those reports — so ``load_imbalance`` reflects the
real assignment, not a master-side guess.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Sequence, Tuple

import numpy as np

from ..tracker import (
    BatchTracker,
    HomotopyFunction,
    PathResult,
    TrackerOptions,
)

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
_WORKER_HOMOTOPY: HomotopyFunction | None = None
_WORKER_TRACKER: BatchTracker | None = None

WorkerKey = Tuple[int, int]


def _worker_key() -> WorkerKey:
    """Identity of the executing worker: (process id, thread id)."""
    return os.getpid(), threading.get_ident()


def _init_worker(homotopy: HomotopyFunction, options: TrackerOptions) -> None:
    global _WORKER_HOMOTOPY, _WORKER_TRACKER
    _WORKER_HOMOTOPY = homotopy
    _WORKER_TRACKER = BatchTracker(options)


def _track_one(args) -> tuple[int, PathResult, float, WorkerKey]:
    """Track one path: a one-row block."""
    [(path_id, result)], busy, key = _track_batch_block([args])
    return path_id, result, busy, key


def _track_chunk(args) -> List[tuple[int, PathResult, float, WorkerKey]]:
    return [_track_one(item) for item in args]


def _track_batch_block(
    args,
) -> tuple[List[tuple[int, PathResult]], float, WorkerKey]:
    """Track one block of paths as a single SoA front."""
    path_ids = [pid for pid, _ in args]
    starts = [start for _, start in args]
    t0 = time.perf_counter()
    results = _WORKER_TRACKER.track_batch(
        _WORKER_HOMOTOPY, starts, path_ids=path_ids
    )
    busy = time.perf_counter() - t0
    return [(r.path_id, r) for r in results], busy, _worker_key()


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
    if len(busy) < n_workers:
        busy += [0.0] * (n_workers - len(busy))
    return busy


def track_paths_parallel(
    homotopy: HomotopyFunction,
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
        Any :class:`~repro.tracker.HomotopyFunction`; it is shipped to
        each worker once (pickled for process workers).
    starts:
        One start vector per path; path ids are their indices here.
    n_workers:
        Pool size; defaults to ``cpu_count() - 1`` (min 1).
    schedule:
        ``"static"`` pre-assigns one round-robin chunk per worker;
        ``"dynamic"`` hands out one path (or block, in hybrid mode) at a
        time, first-come-first-served — the paper's two schemes.
    mode:
        ``"process"``/``"thread"``/``"serial"`` track per path;
        ``"batch"`` advances all paths as one SoA front in this process;
        ``"hybrid"`` gives each worker a block tracked as one front.
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
    if n_workers is None:
        n_workers = max(1, (os.cpu_count() or 2) - 1)
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if schedule not in ("static", "dynamic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if mode not in ("process", "thread", "serial", "batch", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    jobs = [(i, np.asarray(s, dtype=complex)) for i, s in enumerate(starts)]

    t_wall = time.perf_counter()
    if mode == "batch" or (mode == "hybrid" and n_workers == 1):
        # one vectorized SoA front in this process; "parallelism" across
        # paths comes from batching, not workers
        _init_worker(homotopy, options)
        block, busy, _ = _track_batch_block(jobs)
        wall = time.perf_counter() - t_wall
        results = [r for _, r in sorted(block, key=lambda pr: pr[0])]
        return ParallelTrackReport(results, schedule, 1, wall, [busy])

    if mode == "serial" or n_workers == 1:
        _init_worker(homotopy, options)
        triples = [_track_one(job) for job in jobs]
        wall = time.perf_counter() - t_wall
        results = [r for _, r, _, _ in sorted(triples, key=lambda t: t[0])]
        return ParallelTrackReport(
            results, schedule, 1, wall, [sum(dt for _, _, dt, _ in triples)]
        )

    if mode in ("process", "hybrid"):
        pool_cls = ProcessPoolExecutor
        pool_kwargs = dict(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(homotopy, options),
        )
    else:  # thread
        pool_cls = ThreadPoolExecutor
        _init_worker(homotopy, options)  # threads share module state
        pool_kwargs = dict(max_workers=n_workers)

    per_worker: Dict[WorkerKey, float] = {}
    if mode == "hybrid":
        # processes x batch: each block advances as one SoA front
        if schedule == "static":
            blocks = [jobs[w::n_workers] for w in range(n_workers)]
        else:
            n_blocks = min(len(jobs), 4 * n_workers)
            blocks = [jobs[b::n_blocks] for b in range(n_blocks)]
        blocks = [b for b in blocks if b]
        pairs: List[tuple[int, PathResult]] = []
        with pool_cls(**pool_kwargs) as pool:
            for block_out, busy, key in pool.map(
                _track_batch_block, blocks, chunksize=1
            ):
                pairs.extend(block_out)
                per_worker[key] = per_worker.get(key, 0.0) + busy
        wall = time.perf_counter() - t_wall
        results = [r for _, r in sorted(pairs, key=lambda pr: pr[0])]
        return ParallelTrackReport(
            results, schedule, n_workers, wall, _busy_list(per_worker, n_workers)
        )

    triples: List[tuple[int, PathResult, float, WorkerKey]] = []
    with pool_cls(**pool_kwargs) as pool:
        if schedule == "static":
            # one pre-assigned round-robin chunk per worker, as in the paper
            chunks = [jobs[w::n_workers] for w in range(n_workers)]
            futures = [pool.submit(_track_chunk, chunk) for chunk in chunks]
            for fut in futures:
                chunk_out = fut.result()
                triples.extend(chunk_out)
                for _, _, dt, key in chunk_out:
                    per_worker[key] = per_worker.get(key, 0.0) + dt
        else:
            # dynamic: the executor's shared queue is exactly FCFS; each
            # worker self-reports its identity alongside the job timing
            for path_id, result, dt, key in pool.map(
                _track_one, jobs, chunksize=1
            ):
                triples.append((path_id, result, dt, key))
                per_worker[key] = per_worker.get(key, 0.0) + dt
    wall = time.perf_counter() - t_wall
    results = [r for _, r, _, _ in sorted(triples, key=lambda t: t[0])]
    return ParallelTrackReport(
        results, schedule, n_workers, wall, _busy_list(per_worker, n_workers)
    )
