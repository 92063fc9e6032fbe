"""Discrete-event simulation of static vs dynamic load balancing (paper §II-A).

Models the paper's MPI runs on the NCSA Platinum cluster (see DESIGN.md
substitutions): ``n_cpus`` processors at ``clock_ghz``, a master/slave
protocol with per-message latency and a serially-serviced master, and an
optional non-blocking prefetch that overlaps communication with
computation (the paper's MPI_Isend/Irecv improvement).

- **static**: paths are split once into one contiguous block per processor
  (chunking="block", the PHCpack distribution; "round_robin" is available
  as an ablation); processor finish time = its chunk's total compute time.
  No master, no per-job messages — but whole regions of expensive divergent
  paths land in few chunks, which is the imbalance of Tables I/II.
- **dynamic**: all CPUs compute (the paper's 8-CPU dynamic speedup of 7.2
  shows the master is not a dedicated processor); the master role is a
  serially-serviced coordination resource.  Each returned result costs one
  master service slot plus two message latencies before the next path is
  assigned; with ``overlap_comm`` the next job is prefetched so a slave
  only idles when the master saturates.

The simulated quantity is the paper's table cell: wall-clock minutes and
the speedup relative to the one-CPU run of the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .engine import EventQueue
from .workload import Workload

__all__ = [
    "ClusterSpec",
    "SimResult",
    "simulate_static",
    "simulate_dynamic",
    "speedup_table",
]


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware/protocol parameters of the simulated cluster."""

    clock_ghz: float = 1.0
    latency_seconds: float = 1e-3         # one-way message latency
    master_service_seconds: float = 2e-3  # master time per received result
    overlap_comm: bool = True             # non-blocking send/recv prefetch
    #: probability that a job attempt crashes (the time spent is wasted and
    #: the job is re-run: immediately on the same CPU for static, by a
    #: fresh master assignment for dynamic).  Failure-injection extension.
    failure_rate: float = 0.0
    failure_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")

    def compute_seconds(self, cost: float) -> float:
        """Wall seconds to run a 1 GHz-referenced cost on this clock."""
        return cost / self.clock_ghz

    def attempts_for(self, rng: np.random.Generator) -> int:
        """Sample the number of attempts one job needs (>= 1)."""
        if self.failure_rate == 0.0:
            return 1
        attempts = 1
        while rng.random() < self.failure_rate:
            attempts += 1
        return attempts


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    schedule: str
    n_cpus: int
    wall_seconds: float
    busy_seconds: List[float] = field(default_factory=list)
    jobs_done: int = 0
    messages: int = 0
    failed_attempts: int = 0

    @property
    def wall_minutes(self) -> float:
        return self.wall_seconds / 60.0

    @property
    def total_cpu_seconds(self) -> float:
        return float(sum(self.busy_seconds))

    @property
    def load_imbalance(self) -> float:
        """max busy / mean busy over the CPUs that did any work.

        Idle CPUs are *excluded*: simulated allocations are often far larger
        than the job list (the paper's 128-CPU rows), and counting trailing
        never-used CPUs would swamp the statistic.  The real executors use
        the complementary full-pool convention — see
        :func:`repro.parallel.executors.load_imbalance`.
        """
        busy = np.asarray([b for b in self.busy_seconds if b > 0])
        if busy.size == 0 or busy.mean() == 0:
            return 1.0
        return float(busy.max() / busy.mean())

    def speedup(self, t1_seconds: float) -> float:
        return t1_seconds / self.wall_seconds


def simulate_static(
    workload: Workload,
    n_cpus: int,
    spec: ClusterSpec | None = None,
    chunking: str = "block",
) -> SimResult:
    """One-shot pre-assignment; finish = slowest chunk."""
    spec = spec or ClusterSpec()
    if n_cpus < 1:
        raise ValueError("need at least one CPU")
    if chunking == "block":
        chunks = np.array_split(workload.costs, n_cpus)
    elif chunking == "round_robin":
        chunks = [workload.costs[w::n_cpus] for w in range(n_cpus)]
    else:
        raise ValueError(f"unknown chunking {chunking!r}")
    failed_attempts = 0
    if spec.failure_rate > 0:
        rng = np.random.default_rng(spec.failure_seed)
        busy = []
        for chunk in chunks:
            total = 0.0
            for cost in chunk:
                attempts = spec.attempts_for(rng)
                failed_attempts += attempts - 1
                total += attempts * float(cost)
            busy.append(spec.compute_seconds(total))
    else:
        busy = [spec.compute_seconds(float(chunk.sum())) for chunk in chunks]
    # one scatter message per processor at start, one gather at the end
    comm = 2.0 * spec.latency_seconds if n_cpus > 1 else 0.0
    wall = max(busy) + comm
    return SimResult(
        schedule="static",
        n_cpus=n_cpus,
        wall_seconds=wall,
        busy_seconds=busy,
        jobs_done=workload.n_paths,
        messages=2 * (n_cpus - 1),
        failed_attempts=failed_attempts,
    )


def simulate_dynamic(
    workload: Workload, n_cpus: int, spec: ClusterSpec | None = None
) -> SimResult:
    """Master/slave FCFS with optional communication/computation overlap.

    All CPUs compute; the master is a shared serial resource whose service
    gates job assignments.  Without overlap every job pays a round trip
    (two latencies + one service) before computing; with overlap the next
    job is prefetched while the current one computes, so the only stalls
    are master saturation and the initial fill.
    """
    spec = spec or ClusterSpec()
    if n_cpus < 1:
        raise ValueError("need at least one CPU")
    costs = list(map(float, workload.costs))
    n_jobs = len(costs)
    failed_attempts = 0
    if spec.failure_rate > 0:
        # each crashed attempt wastes one full run of the job; the master
        # reassigns immediately (modelled as an inflated job cost)
        rng = np.random.default_rng(spec.failure_seed)
        inflated = []
        for cost in costs:
            attempts = spec.attempts_for(rng)
            failed_attempts += attempts - 1
            inflated.append(attempts * cost)
        costs = inflated
    if n_cpus == 1:
        # degenerate: no coordination, serial run without messages
        wall = spec.compute_seconds(float(sum(costs)))
        return SimResult(
            "dynamic", 1, wall, [wall], n_jobs, 0, failed_attempts
        )

    queue = EventQueue()
    busy = [0.0] * n_cpus
    state = {
        "next_job": 0,
        "master_free_at": 0.0,
        "jobs_done": 0,
        "messages": 0,
    }
    buffered: List[int | None] = [None] * n_cpus
    idle: List[bool] = [True] * n_cpus
    per_job_overhead = (
        0.0
        if spec.overlap_comm
        else 2 * spec.latency_seconds + spec.master_service_seconds
    )

    def start_compute(cpu: int, job: int) -> None:
        idle[cpu] = False
        duration = spec.compute_seconds(costs[job]) + per_job_overhead
        busy[cpu] += spec.compute_seconds(costs[job])
        queue.schedule(duration, lambda: finish_compute(cpu))

    def finish_compute(cpu: int) -> None:
        state["jobs_done"] += 1
        state["messages"] += 2  # result out, next assignment in
        # the master services this result (serially) and refills the buffer
        queue.schedule(spec.latency_seconds, lambda: master_service(cpu))
        if buffered[cpu] is not None:
            job = buffered[cpu]
            buffered[cpu] = None
            start_compute(cpu, job)
        else:
            idle[cpu] = True

    def master_service(cpu: int) -> None:
        start = max(queue.now, state["master_free_at"])
        state["master_free_at"] = start + spec.master_service_seconds
        delay = state["master_free_at"] - queue.now
        queue.schedule(delay + spec.latency_seconds, lambda: deliver(cpu))

    def deliver(cpu: int) -> None:
        if state["next_job"] >= n_jobs:
            return
        job = state["next_job"]
        state["next_job"] += 1
        if idle[cpu]:
            start_compute(cpu, job)
        elif spec.overlap_comm:
            buffered[cpu] = job
        else:
            # without overlap the slave was necessarily idle here; keep the
            # job anyway to preserve work conservation
            buffered[cpu] = job

    # bootstrap: one job per CPU, plus one prefetched job with overlap
    for cpu in range(n_cpus):
        if state["next_job"] >= n_jobs:
            break
        job = state["next_job"]
        state["next_job"] += 1
        start_compute(cpu, job)
    if spec.overlap_comm:
        for cpu in range(n_cpus):
            if state["next_job"] >= n_jobs:
                break
            buffered[cpu] = state["next_job"]
            state["next_job"] += 1

    wall = queue.run()
    if state["jobs_done"] != n_jobs:
        raise RuntimeError(
            f"dynamic simulation lost jobs: {state['jobs_done']} of {n_jobs}"
        )
    return SimResult(
        schedule="dynamic",
        n_cpus=n_cpus,
        wall_seconds=wall,
        busy_seconds=busy,
        jobs_done=state["jobs_done"],
        messages=state["messages"],
        failed_attempts=failed_attempts,
    )


def speedup_table(
    workload: Workload,
    cpu_counts: List[int],
    spec: ClusterSpec | None = None,
) -> List[dict]:
    """Rows shaped like the paper's Tables I/II.

    Each row: #CPUs, static/dynamic wall minutes and speedups, and the
    improvement of dynamic over static.
    """
    spec = spec or ClusterSpec()
    t1 = simulate_static(workload, 1, spec).wall_seconds
    rows = []
    for n in cpu_counts:
        st = simulate_static(workload, n, spec)
        dy = simulate_dynamic(workload, n, spec)
        rows.append(
            {
                "cpus": n,
                "static_minutes": st.wall_minutes,
                "static_speedup": st.speedup(t1),
                "dynamic_minutes": dy.wall_minutes,
                "dynamic_speedup": dy.speedup(t1),
                "improvement_pct": 100.0
                * (st.wall_seconds - dy.wall_seconds)
                / st.wall_seconds,
            }
        )
    return rows
