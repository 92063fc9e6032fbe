"""The checkpointed, dynamically load-balanced sweep engine.

Runs every job of a :class:`~repro.sweep.spec.SweepSpec` over a pool of
local workers using the paper's dynamic master/worker protocol (the same
:func:`~repro.parallel.dispatcher.dispatch_jobs` loop that drives the
parallel Pieri tree), journaling each finished job to an on-disk
checkpoint (:class:`~repro.sweep.journal.SweepJournal`) the moment its
result arrives.  A killed sweep — ``SIGKILL``, power loss, a dead worker
taking the pool down — restarts with only the unfinished jobs, and the
per-job seeds make the merged result set identical to an uninterrupted
run.

Schedules — how the pending list is cut into the units the one
:func:`~repro.parallel.dispatcher.dispatch_with_pool` call hands out:

- ``dynamic`` (default) — one job a unit, first-come-first-served;
  per-job journaling, so a kill loses at most the jobs in flight.
- ``static`` — one contiguous block per worker, cut before the run;
  minimal coordination but journaling is per *block*, so checkpoints are
  coarser and a skewed job mix leaves workers idle (simulated in
  ``tests/test_simcluster.py::TestStaticVsDynamic``).

Polynomial-system jobs route through :func:`repro.homotopy.solve` (one
structure-of-arrays front) with the job's start-system strategy —
``total_degree``, ``linear_product``, or ``polyhedral``, which tracks
one path per unit of mixed volume; Pieri jobs run the tree solver per
instance, whole tree levels tracked as stacked SoA fronts, and journal
the per-level batch stats.
Workers self-report busy seconds and identity, exactly like
:mod:`repro.parallel.executors`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Literal, Optional, Sequence

import numpy as np

from ..kernels import kernel_cache_info
from ..parallel.dispatcher import (
    DispatchTelemetry,
    PoolMode,
    _resolve_workers,
    dispatch_with_pool,
    make_pool,
)
from ..parallel.executors import (
    WorkerKey,
    _busy_list,
    _worker_key,
    load_imbalance,
)
from ..telemetry import Telemetry, merge_summaries, use_telemetry
from .journal import SweepJournal
from .spec import JobSpec, SweepSpec

__all__ = [
    "SweepReport",
    "run_sweep",
    "run_job",
    "solutions_fingerprint",
    "aggregate_job_telemetry",
]


def solutions_fingerprint(solutions: Sequence[np.ndarray], digits: int = 6) -> str:
    """Order-independent hash of a solution set, rounded to ``digits``.

    Two runs of the same seeded job produce the same fingerprint, so the
    kill/resume identity check can compare whole result sets without
    storing every coordinate in the journal.  ``+ 0.0`` turns a rounded
    ``-0.0`` into ``0.0``: the sign of a zero is not part of a root, and
    JSON would write it out.
    """
    canon = sorted(
        [
            [round(float(v.real), digits) + 0.0,
             round(float(v.imag), digits) + 0.0]
            for v in np.asarray(s, dtype=complex).ravel()
        ]
        for s in solutions
    )
    payload = json.dumps(canon, separators=(",", ":")).encode()
    return hashlib.sha1(payload).hexdigest()


def _build_system(kind: str, params: Dict[str, int], rng: np.random.Generator):
    from ..systems import (
        cyclic_roots_system,
        katsura_system,
        noon_system,
        rps_surrogate_system,
    )

    if kind == "cyclic":
        return cyclic_roots_system(params["n"])
    if kind == "katsura":
        return katsura_system(params["n"])
    if kind == "noon":
        return noon_system(params["n"])
    if kind == "rps":
        # the surrogate's random coefficients come from the job seed too
        return rps_surrogate_system(params["n"], rng=rng)
    raise ValueError(f"not a polynomial-system job kind: {kind!r}")


def _maybe_inject_failure(job_id: str) -> None:
    """Test hook: crash the worker on a named job, exactly once.

    ``REPRO_SWEEP_KILL_JOB`` names the job and ``REPRO_SWEEP_KILL_MARKER``
    a path used to remember the crash already happened (so the retried
    job succeeds).  ``KILL`` dies like a segfaulted process
    (``os._exit``), ``FAIL`` raises like a crashed job.

    ``REPRO_SWEEP_STALL_JOB`` + ``REPRO_SWEEP_STALL_SECONDS`` instead
    *delay* the named job once (same marker protocol) — the fleet
    fault-injection tests use it to hold a lease open long enough to
    ``SIGKILL`` the master mid-lease at a deterministic point.
    """
    marker = os.environ.get("REPRO_SWEEP_KILL_MARKER")
    if os.environ.get("REPRO_SWEEP_KILL_JOB") == job_id:
        if marker and not os.path.exists(marker):
            Path(marker).write_text(job_id)
            os._exit(13)
    if os.environ.get("REPRO_SWEEP_FAIL_JOB") == job_id:
        if marker and not os.path.exists(marker):
            Path(marker).write_text(job_id)
            raise RuntimeError(f"injected failure for {job_id}")
    if os.environ.get("REPRO_SWEEP_STALL_JOB") == job_id:
        if marker and not os.path.exists(marker):
            Path(marker).write_text(job_id)
            time.sleep(float(os.environ.get("REPRO_SWEEP_STALL_SECONDS", "5")))


def run_job(job: JobSpec) -> dict:
    """Execute one sweep job; returns its deterministic result record.

    The ``result`` sub-dict depends only on the job spec (everything is
    seeded), never on which worker ran it or when.
    """
    params = job.param_dict
    rng = np.random.default_rng(job.seed)
    level_seconds = None
    if job.kind == "pieri":
        from ..schubert import PieriInstance, PieriSolver

        instance = PieriInstance.random(
            params["m"], params["p"], params["q"], rng
        )
        report = PieriSolver(instance, seed=job.seed).solve()
        result = {
            "n_solutions": report.n_solutions,
            "expected": report.expected_count(),
            "failures": report.failures,
            "max_residual_exp": (
                None
                if report.n_solutions == 0
                else int(np.ceil(np.log10(max(report.max_residual(), 1e-300))))
            ),
            "fingerprint": solutions_fingerprint(report.solutions),
            # per-level batch stats: sizes, shared homotopies, requeues,
            # effort (a level's wall seconds ride at record level)
            "levels": [
                {k: v for k, v in rec.items() if k != "seconds"}
                for rec in report.level_batches
            ],
        }
        level_seconds = [
            round(rec["seconds"], 6) for rec in report.level_batches
        ]
    else:
        from ..homotopy import solve

        report = solve(
            _build_system(job.kind, params, rng),
            start=job.start,
            rng=rng,
            endgame=job.endgame,
            kernel=job.kernel,
            predictor=job.predictor,
        )
        result = {
            "start": job.start,
            "endgame": job.endgame,
            "n_paths": report.n_paths,
            "n_solutions": report.n_solutions,
            "success": report.summary["success"],
            "diverged": report.summary["diverged"],
            "failed": report.summary["failed"],
            "singular": report.summary["singular"],
            "fingerprint": solutions_fingerprint(report.solutions),
            # predictor-pipeline effort: deterministic per-path counter
            # totals, the evidence behind the PR-10 speedup gates (the
            # recycle-hit count is how many tangent solves reused the
            # corrector's final Jacobian and paid only a J_t evaluation)
            "predictor": report.summary.get("predictor", job.predictor),
            "newton_total": report.summary["newton_total"],
            "jacobian_evaluations": report.summary["jacobian_evaluations"],
            "tangents_recycled": report.summary["tangents_recycled"],
        }
        if report.summary.get("fallback_retracked"):
            result["fallback_retracked"] = report.summary[
                "fallback_retracked"
            ]
        # multiplicity evidence: histogram keys become strings in JSON,
        # so store them as strings up front for a stable round trip
        hist = report.summary.get("multiplicity_histogram", {})
        result["multiplicity_histogram"] = {
            str(k): int(v) for k, v in sorted(hist.items())
        }
        if report.singular_solutions:
            result["n_singular_roots"] = len(report.singular_solutions)
            result["singular_fingerprint"] = solutions_fingerprint(
                report.singular_solutions
            )
        # ``lifting_seed``/``relifts`` journal the polyhedral lifting
        # draw: a DegenerateLiftingError retry replays identically from
        # the seed
        for key in (
            "mixed_volume", "n_cells", "phase1_failures",
            "lifting_seed", "relifts",
        ):
            if key in report.summary:
                result[key] = report.summary[key]
        if "kernel" in report.summary:
            # journal the deterministic counters only: taping seconds
            # are wall-clock and the cache counters process-cumulative
            # (both depend on what ran before in this worker), and
            # journaled records must be identical across kill/resume
            # replays — cache state rides at record level instead
            result["kernel"] = {
                k: v
                for k, v in report.summary["kernel"].items()
                if k not in ("taping_seconds", "cache")
            }
    record = {
        "job_id": job.job_id,
        "kind": job.kind,
        "params": params,
        "seed": job.seed,
        "result": result,
    }
    if level_seconds is not None:
        # wall seconds, in ``result["levels"]`` order: not replayable
        record["level_seconds"] = level_seconds
    return record


def _run_job_timed(job_dict: dict):
    """Worker entry point: run one job, self-report time and identity.

    Each job runs inside its own :class:`~repro.telemetry.Telemetry`
    context.  The *deterministic* half of what it recorded — counters
    and span call counts, identical on every replay of the job spec —
    is journaled inside ``result``; the wall-clock span seconds and the
    worker's process-cumulative kernel-cache counters ride at record
    level next to ``seconds``/``worker``, where the journal-identity
    contract already ignores them.
    """
    job = JobSpec.from_dict(job_dict)
    _maybe_inject_failure(job.job_id)
    tel = Telemetry(name=job.job_id)
    t0 = time.perf_counter()
    with use_telemetry(tel):
        record = run_job(job)
    record["seconds"] = time.perf_counter() - t0
    record["worker"] = list(_worker_key())
    deterministic = tel.deterministic_summary()
    if deterministic:
        record["result"]["telemetry"] = deterministic
    wall = tel.wall_summary()
    if wall:
        record["telemetry_seconds"] = wall
    record["kernel_cache"] = kernel_cache_info()
    return record


def _run_job_block(job_dicts: List[dict]):
    """The submitted function: run one unit of jobs, in order."""
    return [_run_job_timed(d) for d in job_dicts]


@dataclass
class SweepReport:
    """What one engine invocation did, plus the merged result set."""

    spec: SweepSpec
    schedule: str
    mode: str
    n_workers: int
    wall_seconds: float = 0.0
    records: Dict[str, dict] = field(default_factory=dict)
    ran_job_ids: List[str] = field(default_factory=list)
    skipped: int = 0
    worker_busy_seconds: List[float] = field(default_factory=list)
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    jobs_abandoned: int = 0
    #: why each abandoned job was given up on: the ``repr`` of the
    #: exception its last attempt ended in, or ``"worker process died"``
    abandoned: Dict[str, str] = field(default_factory=dict)
    aborted: bool = False
    #: protocol stats when the run was driven by the multi-host fleet
    #: (``schedule == "fleet"``): workers seen, steals, requeues,
    #: duplicates, timeouts — see :mod:`repro.parallel.fleet.master`
    fleet: Optional[dict] = None
    #: merged per-job telemetry (counters, span calls and — for jobs
    #: run by *this* invocation — span seconds); ``None`` when no job
    #: recorded any
    telemetry: Optional[dict] = None

    @property
    def n_done(self) -> int:
        return len(self.records)

    @property
    def complete(self) -> bool:
        return not self.aborted and self.n_done == self.spec.n_jobs

    @property
    def total_cpu_seconds(self) -> float:
        return float(sum(self.worker_busy_seconds))

    @property
    def load_imbalance(self) -> float:
        """max busy / mean busy over the pool; 1.0 is perfect balance."""
        return load_imbalance(self.worker_busy_seconds)


class _SweepAborted(Exception):
    """Internal: the abort_after budget was reached (simulated kill)."""


def aggregate_job_telemetry(records) -> Optional[dict]:
    """Merge journaled per-job telemetry into one sweep-level summary.

    Recombines each record's deterministic span *calls* (inside
    ``result``) with its record-level wall ``telemetry_seconds`` when
    present — records journaled by an earlier, killed run carry calls
    only, which merge fine.
    """
    summaries = []
    for rec in records:
        det = (rec.get("result") or {}).get("telemetry")
        if not det:
            continue
        wall = rec.get("telemetry_seconds") or {}
        if wall and det.get("spans"):
            det = dict(det)
            det["spans"] = {
                key: (
                    {"calls": calls, "seconds": wall[key]}
                    if key in wall
                    else calls
                )
                for key, calls in det["spans"].items()
            }
        summaries.append(det)
    return merge_summaries(summaries)


def run_sweep(
    spec: SweepSpec,
    checkpoint: str | Path,
    n_workers: Optional[int] = None,
    schedule: Literal["dynamic", "static"] = "dynamic",
    mode: PoolMode = "process",
    max_retries: int = 2,
    abort_after: Optional[int] = None,
) -> SweepReport:
    """Run (or resume) a sweep against a checkpoint directory.

    Jobs already present in the journal are skipped; everything else is
    sharded over ``n_workers`` local workers.  ``abort_after`` stops the
    run after that many *new* jobs have been journaled — the in-flight
    remainder is dropped exactly as a ``SIGKILL`` would drop it, which
    is what the resume tests exercise.

    Fault tolerance is the dispatcher's, whatever the schedule and
    mode: a unit whose worker crashed (raised, *or* died as a process —
    a dead pool is rebuilt transparently) comes back as its single jobs,
    each retried alone up to ``max_retries`` times and then abandoned,
    with the reason kept in ``report.abandoned`` and the manifest.  The
    other jobs run on; the journal keeps every completed job and the
    manifest is finalized on the way out (``incomplete`` if anything was
    abandoned), so a rerun resumes from whatever finished.
    """
    n_workers = _resolve_workers(n_workers, mode)
    if schedule not in ("dynamic", "static"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if abort_after is not None and abort_after < 1:
        raise ValueError("abort_after must be a positive count")

    journal = SweepJournal(checkpoint)
    journal.initialize(spec.to_dict())
    done = journal.load_records()
    pending = [job for job in spec.jobs if job.job_id not in done]
    report = SweepReport(
        spec=spec,
        schedule=schedule,
        mode=mode,
        n_workers=n_workers,
        records=dict(done),
        skipped=len(done),
    )
    journal.write_manifest(
        spec.n_jobs, len(done), "running", {"name": spec.name}
    )

    # the units the master hands out: the inline pool has no one to
    # pre-assign to, so serial keeps the per-job checkpoints
    if schedule == "static" and mode != "serial":
        bounds = np.linspace(0, len(pending), n_workers + 1).astype(int)
        units = [pending[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    else:
        units = [[job] for job in pending]

    per_worker: Dict[WorkerKey, float] = {}
    telemetry = DispatchTelemetry()

    def journal_unit(unit: List[JobSpec], records: List[dict]) -> None:
        for record in records:
            key = tuple(record["worker"])
            per_worker[key] = per_worker.get(key, 0.0) + record["seconds"]
            journal.append(record)
            report.records[record["job_id"]] = record
            report.ran_job_ids.append(record["job_id"])
            if abort_after is not None and len(report.ran_job_ids) >= abort_after:
                raise _SweepAborted

    def on_abandoned(job: JobSpec) -> None:
        # called inside the dispatcher's ``except`` when the job raised;
        # after a dead worker process there may be no exception
        exc = sys.exc_info()[1]
        report.abandoned[job.job_id] = (
            "worker process died" if exc is None else repr(exc)
        )

    t_wall = time.perf_counter()
    try:
        with journal:
            dispatch_with_pool(
                lambda: make_pool(mode, n_workers, _warm_worker),
                lambda pool, unit: pool.submit(
                    _run_job_block, [job.to_dict() for job in unit]
                ),
                units,
                journal_unit,
                n_workers=n_workers,
                max_retries=max_retries,
                retry_key=lambda job: job.job_id,
                on_abandoned=on_abandoned,
                telemetry=telemetry,
                # the queue holds whole units; one that crashed comes back
                # as its single jobs, each retried alone
                take=lambda queue, n_idle: queue.popleft(),
            )
    except _SweepAborted:
        report.aborted = True
    finally:
        # even a crashed run leaves an honest manifest behind (the
        # journal itself is already durable, record by record)
        report.wall_seconds = time.perf_counter() - t_wall
        report.worker_busy_seconds = _busy_list(per_worker, n_workers)
        report.worker_crashes = telemetry.worker_crashes
        report.pool_rebuilds = telemetry.pool_rebuilds
        report.jobs_abandoned = telemetry.jobs_abandoned
        report.telemetry = aggregate_job_telemetry(report.records.values())
        status = "complete" if report.complete else (
            "aborted" if report.aborted else "incomplete"
        )
        journal.write_manifest(
            spec.n_jobs, report.n_done, status,
            {"name": spec.name, "abandoned": report.abandoned},
        )
    return report


def _warm_worker() -> None:
    """Pool initializer: pay the solver-module import cost up front so a
    worker's first job doesn't bill it as compute time."""
    import repro.homotopy  # noqa: F401
    import repro.schubert  # noqa: F401
    import repro.systems  # noqa: F401
