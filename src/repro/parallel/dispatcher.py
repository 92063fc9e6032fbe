"""Generic dynamic master/worker job dispatcher (the paper's FCFS protocol).

Extracted from the Pieri tree scheduler so that *any* job-shaped workload
— tree edges, whole solve jobs of a sweep — runs the same master loop:

1. hand queued jobs to idle workers, first-come-first-served;
2. wait for any worker to finish;
3. let the caller consume the result and enqueue the jobs it enables
   (the Pieri generate step, or nothing for a flat job list);
4. re-enqueue jobs whose worker *crashed* (raised, as opposed to
   returning a failure value) up to a retry budget;
5. terminate when the queue is drained and every worker is parked.

What an idle worker is handed in step 1 is the caller's to say (``take``):
a *unit*, a list of queued jobs — the Pieri scheduler hands out same-level
fronts that way, path tracking and sweeps their pre-cut blocks.

The loop (:func:`dispatch_jobs`) is executor-agnostic: it only sees a
``submit`` callable returning :class:`concurrent.futures.Future` objects.
If the underlying pool is a :class:`~concurrent.futures.ProcessPoolExecutor`
and a worker *process* dies (``BrokenExecutor``), every in-flight job is
lost at once; with a ``rebuild_pool`` factory the dispatcher rebuilds the
pool, re-enqueues the in-flight jobs, and keeps going — without one, the
error propagates.

This is the one module that builds executors for local workers
(:func:`make_pool`) and owns their lifecycle (:func:`dispatch_with_pool`);
path tracking, sweeps and the Pieri tree each make one such call.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Literal, Optional, get_args

__all__ = [
    "DispatchTelemetry",
    "dispatch_jobs",
    "dispatch_with_pool",
    "make_pool",
]


#: The local pools: worker processes, or one worker inline in this process.
PoolMode = Literal["process", "serial"]
POOL_MODES = get_args(PoolMode)


def _resolve_workers(n_workers: Optional[int], mode: PoolMode) -> int:
    """The pool size asked for; ``None`` leaves one CPU to the master,
    and the ``"serial"`` pool is one worker."""
    if mode not in POOL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if n_workers is None:
        n_workers = max(1, (os.cpu_count() or 2) - 1)
    if n_workers < 1:
        raise ValueError("need at least one worker")
    return 1 if mode == "serial" else n_workers


class _InlineExecutor(Executor):
    """The ``"serial"`` pool: ``submit`` runs the call in the master and
    returns the settled future.

    Its one worker is this process, so the worker state the initializer
    sets — module globals such as the homotopy a worker tracks — lives
    here: ``shutdown`` puts back every global the initializer rebound,
    and a finished dispatch keeps nothing of its caller's alive.
    """

    def __init__(self, initializer=None, initargs: tuple = ()) -> None:
        self._names = getattr(initializer, "__globals__", {})
        before = dict(self._names)
        if initializer is not None:
            initializer(*initargs)
        self._replaced = {
            name: old for name, old in before.items()
            if self._names.get(name) is not old
        }

    def shutdown(self, wait=True, *, cancel_futures=False) -> None:
        self._names.update(self._replaced)
        self._replaced = {}

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def make_pool(
    mode: PoolMode,
    n_workers: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
) -> Executor:
    """The executor behind a worker ``mode``.

    ``"process"`` is a :class:`~concurrent.futures.ProcessPoolExecutor`
    whose workers each run ``initializer(*initargs)``; ``"serial"`` an
    executor that runs every call inline at ``submit``, in this process,
    so the initializer runs once, here, and what it set is undone when
    the pool shuts down.

    >>> seen = []
    >>> with make_pool("serial", 1, seen.append, ("ready",)) as pool:
    ...     pool.submit(pow, 2, 10).result(), seen
    (1024, ['ready'])
    """
    if mode == "process":
        return ProcessPoolExecutor(
            max_workers=n_workers, initializer=initializer, initargs=initargs
        )
    if mode != "serial":
        raise ValueError(f"unknown mode {mode!r}")
    return _InlineExecutor(initializer, initargs)


@dataclass
class DispatchTelemetry:
    """What the master observed: throughput, backlog, and crash accounting."""

    jobs_done: int = 0
    max_queue_length: int = 0
    max_active_jobs: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    jobs_abandoned: int = 0


def dispatch_jobs(
    initial_jobs: Iterable[Any],
    submit: Callable[[Any], Future],
    on_result: Callable[[Any, Any], Optional[Iterable[Any]]],
    n_workers: int,
    max_retries: int = 0,
    retry_key: Callable[[Any], Any] = id,
    on_abandoned: Optional[Callable[[Any], None]] = None,
    rebuild_pool: Optional[Callable[[], Callable[[Any], Future]]] = None,
    telemetry: Optional[DispatchTelemetry] = None,
    *,
    take: Callable[[deque, int], list],
) -> DispatchTelemetry:
    """Run the dynamic master loop until every job is done or abandoned.

    Parameters
    ----------
    initial_jobs:
        Jobs known at startup (the Pieri tree-root jobs, or a sweep's
        full pending list).
    submit:
        ``submit(unit) -> Future``; typically wraps ``pool.submit``.
    on_result:
        ``on_result(unit, result)`` consumes one worker result and returns
        the newly enabled jobs (or ``None``).  Called from the master
        thread only, so it may mutate shared state freely.
    n_workers:
        Upper bound on concurrently submitted jobs (the pool size).
    max_retries:
        How many times a job whose worker crashed is re-enqueued before
        being abandoned (``on_abandoned`` is then called if given).
    retry_key:
        Maps a job to the hashable key its retry budget is tracked under;
        defaults to object identity, which is correct because the same
        job object is re-enqueued.
    rebuild_pool:
        Optional factory returning a fresh ``submit`` after the executor
        broke (a worker process died).  A breakage cannot be attributed
        to one job, so no individual retry budget is charged: results
        that completed in the breakage race window are harvested, and
        every other in-flight job is re-enqueued.  Termination is still
        guaranteed — after ``max_retries + 1`` consecutive breakages
        (at submit or result time) with no job completing in between,
        the jobs in flight at the last breakage are collectively
        abandoned and the rest of the queue continues.
    telemetry:
        Pass a :class:`DispatchTelemetry` to have it mutated in place —
        the caller then keeps the partial counts even when ``on_result``
        raises to abort the run mid-flight.
    take:
        What an idle worker is handed: ``take(queue, n_idle)`` removes a
        non-empty list of jobs from the FCFS ``queue`` while ``n_idle``
        workers (this one included) wait, and that *unit* is what
        ``submit`` and ``on_result`` receive.  A caller whose queue
        already holds its units passes ``lambda queue, n_idle:
        queue.popleft()``.  Retries stay per job: a crashed unit comes
        back as its single jobs, each charged under its own
        ``retry_key``, and a job that has come back (crash or breakage)
        is from then on handed out alone, served before the queue — a
        poison job forfeits only itself, and no re-formed unit resets a
        budget.
    """
    queue: deque = deque(initial_jobs)
    # jobs that came back: served first, one job at a time
    retries: deque = deque()
    active: Dict[Future, list] = {}
    attempts: Dict[Any, int] = {}
    telemetry = DispatchTelemetry() if telemetry is None else telemetry
    fruitless_breaks = 0
    done_at_last_break = 0

    def abandon(job: Any) -> None:
        telemetry.jobs_abandoned += 1
        if on_abandoned is not None:
            on_abandoned(job)

    def next_unit() -> list:
        if retries:
            return [retries.popleft()]
        return take(queue, n_workers - len(active))

    def crash(unit: list) -> None:
        telemetry.worker_crashes += 1
        for job in unit:
            key = retry_key(job)
            attempts[key] = attempts.get(key, 0) + 1
            if attempts[key] <= max_retries:
                retries.append(job)
            else:
                abandon(job)

    def harvest(fut: Future, unit: list, lost: list) -> None:
        """Consume one settled future: result, own crash, or breakage
        (re-raised when the pool cannot be rebuilt)."""
        try:
            result = fut.result()
        except BrokenExecutor:
            if rebuild_pool is None:
                raise
            lost.append(unit)
        except Exception:
            crash(unit)
        else:
            telemetry.jobs_done += 1
            queue.extend(on_result(unit, result) or ())

    def reclaim_active() -> list:
        """Empty ``active`` after a breakage: harvest results that
        completed in the race window so their jobs are not executed
        twice, and return the jobs that were genuinely lost.  A job
        that *crashed on its own* in the window (any exception other
        than the breakage itself) still pays its retry budget."""
        lost = []
        for fut, unit in list(active.items()):
            if fut.done():
                harvest(fut, unit, lost)
            elif fut.cancel():
                lost.append(unit)
            else:
                # cancel() failing means the future slipped past the
                # done() check and completed (or is completing) in the
                # race window: requeueing it here would run — and
                # potentially commit — the job twice.  Harvest instead.
                harvest(fut, unit, lost)
        active.clear()
        return lost

    def note_breakage(in_flight) -> None:
        """One pool breakage: re-enqueue the lost jobs (no individual
        retry charge — blame is unattributable) unless breakage repeats
        with zero progress, then abandon them together; rebuild."""
        nonlocal submit, fruitless_breaks, done_at_last_break
        telemetry.worker_crashes += 1
        telemetry.pool_rebuilds += 1
        if telemetry.jobs_done == done_at_last_break:
            fruitless_breaks += 1
        else:
            fruitless_breaks = 1
        done_at_last_break = telemetry.jobs_done
        lost = [job for unit in in_flight for job in unit]
        if fruitless_breaks > max_retries:
            for job in lost:
                abandon(job)
            fruitless_breaks = 0
        else:
            retries.extend(lost)
        submit = rebuild_pool()

    while queue or retries or active:
        while (queue or retries) and len(active) < n_workers:
            unit = next_unit()
            try:
                fut = submit(unit)
            except BrokenExecutor:
                if rebuild_pool is None:
                    raise
                # the dead pool's in-flight futures die with it: reclaim
                # them now so the same breakage is not processed twice
                note_breakage([unit] + reclaim_active())
                continue
            active[fut] = unit
        # the backlog: what waits for a worker, retried jobs included
        telemetry.max_queue_length = max(
            telemetry.max_queue_length, len(queue) + len(retries)
        )
        telemetry.max_active_jobs = max(telemetry.max_active_jobs, len(active))
        if not active:
            continue
        done, _ = wait(list(active), return_when=FIRST_COMPLETED)
        lost: list = []
        for fut in done:
            harvest(fut, active.pop(fut), lost)
        if lost:
            note_breakage(lost + reclaim_active())
    return telemetry


def dispatch_with_pool(
    new_pool: Callable[[], Executor],
    submit_job: Callable[[Any, Any], Future],
    initial_jobs: Iterable[Any],
    on_result: Callable[[Any, Any], Optional[Iterable[Any]]],
    n_workers: int,
    max_retries: int = 0,
    retry_key: Callable[[Any], Any] = id,
    on_abandoned: Optional[Callable[[Any], None]] = None,
    telemetry: Optional[DispatchTelemetry] = None,
    *,
    take: Callable[[deque, int], list],
) -> DispatchTelemetry:
    """:func:`dispatch_jobs` plus executor lifecycle, in one call.

    Owns the pool: creates it via ``new_pool`` (typically a
    :func:`make_pool` call), submits through ``submit_job(pool, unit)``,
    transparently replaces a broken process pool (the inline pool
    cannot break), and always shuts the final pool down.  The loop
    returns with nothing in flight, so that shutdown waits for the
    workers to exit; when ``on_result`` or ``on_abandoned`` raised to
    stop the run, whatever is still queued or running is dropped, as a
    kill would drop it.
    """
    state = {"pool": new_pool()}

    def submit(unit: list) -> Future:
        return submit_job(state["pool"], unit)

    def rebuild_pool() -> Callable[[Any], Future]:
        state["pool"].shutdown(wait=False, cancel_futures=True)
        state["pool"] = new_pool()
        return submit

    rebuildable = isinstance(state["pool"], ProcessPoolExecutor)
    try:
        telemetry = dispatch_jobs(
            initial_jobs,
            submit,
            on_result,
            n_workers=n_workers,
            max_retries=max_retries,
            retry_key=retry_key,
            on_abandoned=on_abandoned,
            rebuild_pool=rebuild_pool if rebuildable else None,
            telemetry=telemetry,
            take=take,
        )
    except BaseException:
        state["pool"].shutdown(wait=False, cancel_futures=True)
        raise
    state["pool"].shutdown(wait=True)
    return telemetry
