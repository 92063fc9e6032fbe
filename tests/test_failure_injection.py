"""Failure injection: worker crashes and simulated job failures.

The master/slave protocol must never silently lose a job (and with the
Pieri tree, a lost internal job loses its entire subtree of solutions).
These tests crash workers deliberately and check the schedulers recover.

``TestFleetSocketFaults`` stages the same failures over *real* asyncio
sockets: ``SIGKILL`` of the fleet master mid-lease, a worker process
dying mid-job, and a torn journal line — in every case the resumed run
must reach a result set identical to an uninterrupted one, with each
job journaled exactly once.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.parallel.pieri_scheduler as scheduler_mod
from repro.parallel import solve_pieri_parallel
from repro.schubert import (
    PieriInstance,
    PieriSolver,
    level_job_counts,
    pieri_root_count,
    verify_solutions,
)
from repro.schubert.tree import PieriTreeNode
from repro.simcluster import (
    ClusterSpec,
    simulate_dynamic,
    simulate_static,
    uniform_workload,
)


class FlakyWorker:
    """Wraps the real Pieri worker; crashes on the first k distinct jobs."""

    def __init__(self, real, crash_times: int):
        self.real = real
        self.remaining = crash_times
        self.crashes = 0

    def __call__(self, args):
        if self.remaining > 0:
            self.remaining -= 1
            self.crashes += 1
            raise RuntimeError("injected worker crash")
        return self.real(args)


_REAL_PIERI_WORKER = scheduler_mod._run_pieri_job


def _die_once(args):
    """Pieri worker that kills its process on the first multi-edge bundle
    (module-level so the pool can pickle it by name)."""
    marker = os.environ["REPRO_TEST_DIE_MARKER"]
    if len(args) > 1 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return _REAL_PIERI_WORKER(args)


class TestPieriSchedulerFaults:
    def test_recovers_from_crashes(self, monkeypatch):
        """Crashed jobs are re-enqueued; the full solution set survives."""
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(0))
        flaky = FlakyWorker(scheduler_mod._run_pieri_job, crash_times=3)
        monkeypatch.setattr(scheduler_mod, "_run_pieri_job", flaky)
        report = solve_pieri_parallel(
            instance, mode="serial", seed=1, max_job_retries=5
        )
        assert flaky.crashes == 3
        assert report.worker_crashes == 3
        assert report.n_solutions == pieri_root_count(2, 2, 0)
        assert verify_solutions(instance, report.solutions).ok

    def test_retry_budget_exhaustion_counts_failures(self, monkeypatch):
        """A permanently crashing job is eventually abandoned, not hung."""
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(2))

        def always_crash(args):
            raise RuntimeError("permanent crash")

        monkeypatch.setattr(scheduler_mod, "_run_pieri_job", always_crash)
        report = solve_pieri_parallel(
            instance, mode="serial", seed=3, max_job_retries=1
        )
        assert report.n_solutions == 0
        assert report.failures >= 1
        assert report.worker_crashes > 0

    def test_crashed_bundle_is_retried_as_singletons(self, monkeypatch):
        """The first multi-edge bundle crashes once: its edges come back
        one by one, each tracked exactly once in the end."""
        real, calls = scheduler_mod._run_pieri_job, []

        def crash_first_bundle(args):
            cols = [tuple(c) for c, _start in args]
            calls.append(cols)
            if len(cols) > 1 and sum(len(c) > 1 for c in calls) == 1:
                raise RuntimeError("injected bundle crash")
            return real(args)

        monkeypatch.setattr(scheduler_mod, "_run_pieri_job", crash_first_bundle)
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(6))
        report = solve_pieri_parallel(instance, mode="serial", seed=7)
        crashed = next(c for c in calls if len(c) > 1)
        after = calls[calls.index(crashed) + 1:]
        assert after[: len(crashed)] == [[edge] for edge in crashed]
        assert report.worker_crashes == 1
        assert report.failures == 0
        assert report.n_solutions == pieri_root_count(2, 2, 1)
        assert verify_solutions(instance, report.solutions).ok
        assert sum(report.jobs_per_level.values()) == sum(
            level_job_counts(2, 2, 1)
        )

    def test_poison_edge_forfeits_only_its_own_subtree(self, monkeypatch):
        """An edge that crashes every worker it reaches is charged alone:
        abandoned after ``max_job_retries``, its bundle-mates unharmed."""
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(8))
        seq = PieriSolver(instance, seed=9).solve()
        # a level-3 edge: poison it and count the leaves below it
        poison = next(
            node
            for root_child in PieriTreeNode(instance.problem).children()
            for mid in root_child.children()
            for node in mid.children()
        )

        def leaves(node):
            if node.is_leaf():
                return 1
            return sum(leaves(child) for child in node.children())

        real, attempts = scheduler_mod._run_pieri_job, []

        def poisoned(args):
            if any(tuple(c) == poison.columns for c, _start in args):
                attempts.append(len(args))
                raise RuntimeError("poison edge")
            return real(args)

        monkeypatch.setattr(scheduler_mod, "_run_pieri_job", poisoned)
        report = solve_pieri_parallel(
            instance, mode="serial", seed=9, max_job_retries=2
        )
        # once in whatever bundle it rode in, then alone until abandoned
        assert len(attempts) == 3 and attempts[1:] == [1, 1]
        assert report.worker_crashes == 3
        assert report.failures == 1
        assert report.n_solutions == seq.n_solutions - leaves(poison)
        flat = np.stack([s.ravel() for s in seq.solutions])
        for sol in report.solutions:
            assert np.min(np.max(np.abs(flat - sol.ravel()), axis=1)) < 1e-8

    def test_broken_pool_mid_bundle_loses_no_edge(self, monkeypatch, tmp_path):
        """A worker *process* dying with a bundle in hand breaks the pool:
        the master rebuilds it and every edge is still tracked."""
        monkeypatch.setenv("REPRO_TEST_DIE_MARKER", str(tmp_path / "died"))
        monkeypatch.setattr(scheduler_mod, "_run_pieri_job", _die_once)
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(10))
        report = solve_pieri_parallel(
            instance, n_workers=2, mode="process", seed=11
        )
        assert (tmp_path / "died").exists(), "the injected death never fired"
        assert report.pool_rebuilds >= 1
        assert report.failures == 0
        assert report.n_solutions == pieri_root_count(2, 2, 1)
        assert verify_solutions(instance, report.solutions).ok
        assert list(report.jobs_per_level.values()) == level_job_counts(2, 2, 1)

    def test_no_crashes_zero_counter(self):
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(4))
        report = solve_pieri_parallel(instance, mode="serial", seed=5)
        assert report.worker_crashes == 0


def _head(queue, n_idle):
    """The head of the queue, a one-job unit."""
    return [queue.popleft()]


class TestDispatcherPoolBreakage:
    """The generic dispatcher under a job that kills its worker process."""

    @staticmethod
    def _fake_submit():
        from concurrent.futures import BrokenExecutor, Future

        def submit(unit):
            fut = Future()
            if "poison" in unit:
                fut.set_exception(BrokenExecutor("worker died"))
            else:
                fut.set_result([job.upper() for job in unit])
            return fut

        return submit

    def test_poison_job_is_abandoned_but_the_rest_complete(self):
        from repro.parallel import dispatch_jobs

        done, lost = [], []
        telemetry = dispatch_jobs(
            ["poison", "a", "b", "c"],
            self._fake_submit(),
            lambda unit, result: done.extend(result),
            n_workers=2,
            max_retries=1,
            on_abandoned=lost.append,
            rebuild_pool=self._fake_submit,
            take=_head,
        )
        # healthy jobs all finish exactly once; their retry budgets are
        # never charged for breakage they did not cause
        assert sorted(done) == ["A", "B", "C"]
        assert lost == ["poison"]
        assert telemetry.jobs_abandoned == 1
        assert telemetry.pool_rebuilds >= 2
        assert telemetry.jobs_done == 3

    def test_poison_submit_raise_terminates(self):
        """A submit() that raises BrokenExecutor synchronously must hit
        the same fruitless-breakage cap, not rebuild forever."""
        from concurrent.futures import BrokenExecutor, Future

        from repro.parallel import dispatch_jobs

        def make_submit():
            def submit(unit):
                if "poison" in unit:
                    raise BrokenExecutor("died at submit")
                fut = Future()
                fut.set_result([job.upper() for job in unit])
                return fut

            return submit

        done, lost = [], []
        telemetry = dispatch_jobs(
            ["a", "poison", "b"],
            make_submit(),
            lambda unit, result: done.extend(result),
            n_workers=2,
            max_retries=1,
            on_abandoned=lost.append,
            rebuild_pool=make_submit,
            take=_head,
        )
        assert sorted(done) == ["A", "B"]
        assert lost == ["poison"]
        assert telemetry.jobs_done == 2

    def test_result_completing_in_cancel_race_window_runs_once(self):
        """Regression: a future that completes between the ``done()``
        check and ``cancel()`` during breakage reclaim must be harvested,
        not requeued — requeueing executed (and committed) the job twice.
        """
        from concurrent.futures import BrokenExecutor, Future

        from repro.parallel import dispatch_jobs

        class SlipperyFuture(Future):
            """Already completed, but ``done()`` lies once — modelling
            completion inside the done()/cancel() race window (a real
            completed Future's ``cancel()`` genuinely returns False)."""

            def __init__(self, value):
                super().__init__()
                self.set_result(value)
                self._lied = False

            def done(self):
                if not self._lied:
                    self._lied = True
                    return False
                return super().done()

        executions = []

        def make_submit():
            def submit(unit):
                if "poison" in unit:
                    raise BrokenExecutor("died at submit")
                executions.extend(unit)
                return SlipperyFuture([job.upper() for job in unit])

            return submit

        done, lost = [], []
        telemetry = dispatch_jobs(
            ["a", "poison"],
            make_submit(),
            lambda unit, result: done.extend(result),
            n_workers=2,
            max_retries=1,
            on_abandoned=lost.append,
            rebuild_pool=make_submit,
            take=_head,
        )
        assert executions.count("a") == 1, "the race window re-ran the job"
        assert done == ["A"], "the in-window result must commit exactly once"
        assert lost == ["poison"]
        assert telemetry.jobs_done == 1

    def test_breakage_without_rebuilder_raises(self):
        from concurrent.futures import BrokenExecutor

        import pytest as _pytest

        from repro.parallel import dispatch_jobs

        with _pytest.raises(BrokenExecutor):
            dispatch_jobs(
                ["poison"],
                self._fake_submit(),
                lambda unit, result: None,
                n_workers=1,
                take=_head,
            )


class TestDispatcherBundles:
    """``dispatch_jobs(take=...)``: bundles out, per-job budgets back."""

    @staticmethod
    def _pairs(queue, n_idle):
        return [queue.popleft() for _ in range(min(2, len(queue)))]

    def test_crashed_bundle_charges_each_job_and_retries_them_alone(self):
        from concurrent.futures import Future

        from repro.parallel import dispatch_jobs

        submitted = []

        def submit(bundle):
            submitted.append(list(bundle))
            fut = Future()
            if "poison" in bundle:
                fut.set_exception(RuntimeError("crash"))
            else:
                fut.set_result([job.upper() for job in bundle])
            return fut

        done, lost = [], []
        telemetry = dispatch_jobs(
            ["a", "poison", "b", "c"],
            submit,
            lambda bundle, result: done.extend(result),
            n_workers=1,
            max_retries=2,
            retry_key=lambda job: job,
            on_abandoned=lost.append,
            take=self._pairs,
        )
        assert sorted(done) == ["A", "B", "C"]
        assert lost == ["poison"]      # the job, not the bundle it rode in
        assert telemetry.jobs_abandoned == 1
        # one crash in the bundle, then alone until the budget is spent;
        # its bundle-mate "a" was charged once and finished on its retry
        assert submitted == [
            ["a", "poison"], ["a"], ["poison"], ["poison"], ["b", "c"],
        ]
        assert telemetry.worker_crashes == 3

    def test_bundle_lost_to_a_breakage_comes_back_uncharged(self):
        from concurrent.futures import BrokenExecutor, Future

        from repro.parallel import dispatch_jobs

        seen = []

        def make_submit():
            def submit(bundle):
                seen.append(list(bundle))
                fut = Future()
                if len(seen) == 1:
                    fut.set_exception(BrokenExecutor("worker died"))
                elif seen.count(list(bundle)) == 1:
                    fut.set_exception(RuntimeError("first solo try crashes"))
                else:
                    fut.set_result([job.upper() for job in bundle])
                return fut

            return submit

        done, lost = [], []
        telemetry = dispatch_jobs(
            ["a", "b", "c"],
            make_submit(),
            lambda bundle, result: done.extend(result),
            n_workers=1,
            max_retries=1,      # a charge for the breakage would abandon
            retry_key=lambda job: job,
            on_abandoned=lost.append,
            rebuild_pool=make_submit,
            take=self._pairs,
        )
        assert seen[:3] == [["a", "b"], ["a"], ["b"]]   # back one by one
        assert sorted(done) == ["A", "B", "C"] and lost == []
        assert telemetry.pool_rebuilds == 1

    def test_default_take_is_the_head_of_the_queue(self):
        """A take of the head alone serves the queue first come first
        served, enabled jobs joining its tail."""
        from concurrent.futures import Future

        from repro.parallel import dispatch_jobs

        order = []

        def submit(unit):
            order.extend(unit)
            fut = Future()
            fut.set_result(unit)
            return fut

        dispatch_jobs(
            [1, 2, 3], submit,
            lambda unit, result: [10 * job for job in unit if job < 10],
            n_workers=1,
            take=_head,
        )
        assert order == [1, 2, 3, 10, 20, 30]

    def test_backlog_counts_the_jobs_waiting_to_retry(self):
        """A job that came back waits for a worker as much as a queued
        one: ``"poison"`` waits behind ``"a"``'s solo retry."""
        from concurrent.futures import Future

        from repro.parallel import dispatch_jobs

        def submit(bundle):
            fut = Future()
            if len(bundle) > 1:
                fut.set_exception(RuntimeError("crash"))
            else:
                fut.set_result(bundle)
            return fut

        telemetry = dispatch_jobs(
            ["a", "poison"],
            submit,
            lambda bundle, result: None,
            n_workers=1,
            max_retries=1,
            retry_key=lambda job: job,
            take=self._pairs,
        )
        assert telemetry.jobs_done == 2
        assert telemetry.max_queue_length == 1


class TestSimulatedFailures:
    def test_failure_rate_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(failure_rate=1.0)
        with pytest.raises(ValueError):
            ClusterSpec(failure_rate=-0.1)

    def test_failures_cost_time_but_finish_all_jobs(self):
        wl = uniform_workload(200, 1.0)
        clean = ClusterSpec(failure_rate=0.0)
        faulty = ClusterSpec(failure_rate=0.2, failure_seed=7)
        for sim in (simulate_static, simulate_dynamic):
            ok = sim(wl, 8, clean)
            bad = sim(wl, 8, faulty)
            assert bad.jobs_done == ok.jobs_done == 200
            assert bad.failed_attempts > 0
            assert bad.wall_seconds > ok.wall_seconds

    def test_expected_overhead_matches_geometric_retries(self):
        """Mean attempts are 1/(1-r); total work scales accordingly."""
        wl = uniform_workload(5000, 1.0)
        rate = 0.25
        res = simulate_dynamic(wl, 4, ClusterSpec(failure_rate=rate, failure_seed=8))
        expected_factor = 1.0 / (1.0 - rate)
        measured = res.total_cpu_seconds / wl.total_seconds
        assert abs(measured - expected_factor) < 0.05 * expected_factor

    def test_zero_rate_identical_to_default(self):
        wl = uniform_workload(50, 0.5)
        a = simulate_dynamic(wl, 4, ClusterSpec())
        b = simulate_dynamic(wl, 4, ClusterSpec(failure_rate=0.0))
        assert a.wall_seconds == b.wall_seconds
        assert a.failed_attempts == b.failed_attempts == 0

    def test_deterministic_given_seed(self):
        wl = uniform_workload(100, 1.0)
        spec = ClusterSpec(failure_rate=0.3, failure_seed=9)
        r1 = simulate_static(wl, 4, spec)
        r2 = simulate_static(wl, 4, spec)
        assert r1.wall_seconds == r2.wall_seconds
        assert r1.failed_attempts == r2.failed_attempts


# ---------------------------------------------------------------------------
# fleet faults over real sockets (ISSUE-7)
# ---------------------------------------------------------------------------

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def results_only(records):
    """The deterministic part of a record set (drops timing/worker info)."""
    return {jid: rec["result"] for jid, rec in records.items()}


def fleet_spec(name, n=8):
    from repro.sweep import JobSpec, SweepSpec

    return SweepSpec(name, [JobSpec("katsura", {"n": 2}, seed=s)
                            for s in range(n)])


def journal_job_ids(checkpoint):
    """Every decodable job id in journal order (duplicates included)."""
    path = os.path.join(str(checkpoint), "journal.jsonl")
    ids = []
    with open(path) as fh:
        for line in fh:
            try:
                ids.append(json.loads(line)["job_id"])
            except (ValueError, KeyError):
                continue
    return ids


class TestFleetSocketFaults:
    """Real subprocesses, real TCP, real SIGKILL."""

    @staticmethod
    def _env(**extra):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        env.update({k: str(v) for k, v in extra.items()})
        return env

    def _start_master(self, spec_path, checkpoint, env=None,
                      heartbeat_timeout=2.0):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.sweep", "run", str(spec_path),
                "--checkpoint", str(checkpoint), "--fleet", "master",
                "--bind", "127.0.0.1:0",
                "--heartbeat-timeout", str(heartbeat_timeout),
                "--lease-seconds", "1.0",
            ],
            env=env or self._env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = proc.stdout.readline()
        assert "listening on" in line, f"master failed to bind: {line!r}"
        port = int(line.rsplit(":", 1)[1])
        return proc, port

    def _start_worker(self, port, worker_id, env=None, reconnect=30):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.sweep", "run",
                "--fleet", "worker", "--connect", f"127.0.0.1:{port}",
                "--worker-id", worker_id,
                "--reconnect-seconds", str(reconnect),
            ],
            env=env or self._env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkill_master_mid_lease_resumes_identically(self, tmp_path):
        """SIGKILL the master while a worker holds a lease and is busy;
        the restarted master adopts the worker's held jobs and the merged
        journal equals an uninterrupted run, every job exactly once."""
        from repro.sweep import SweepJournal, run_sweep

        spec = fleet_spec("fleet-sigkill")
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        checkpoint = tmp_path / "ck"
        journal_path = checkpoint / "journal.jsonl"
        marker = tmp_path / "stalled.marker"
        # the worker stalls (once) on job 3, holding its lease open so
        # the SIGKILL below is guaranteed to land mid-lease
        worker_env = self._env(
            REPRO_SWEEP_STALL_JOB=spec.jobs[3].job_id,
            REPRO_SWEEP_STALL_SECONDS="6",
            REPRO_SWEEP_KILL_MARKER=marker,
        )
        master, port = self._start_master(spec_path, checkpoint)
        worker = self._start_worker(port, "faulty-w0", env=worker_env)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if marker.exists() and journal_path.exists() and (
                    journal_path.read_text().count("\n") >= 1
                ):
                    break
                assert master.poll() is None, "master finished too early"
                time.sleep(0.05)
            assert marker.exists(), "the stall never fired"
            os.kill(master.pid, signal.SIGKILL)
            master.wait(timeout=30)

            killed = SweepJournal(checkpoint).load_records()
            assert 0 < len(killed) < spec.n_jobs, "kill should land mid-sweep"

            # same command, same checkpoint: the resume
            master2, port2 = self._start_master(spec_path, checkpoint)
            # the stalled worker is still alive and reconnecting; add a
            # helper so the resume also exercises a second registration
            worker2 = self._start_worker(port2, "helper-w1")
            out, _ = master2.communicate(timeout=120)
            assert master2.returncode == 0, out
            assert "complete" in out
            worker.wait(timeout=60)
            worker2.wait(timeout=60)
        finally:
            for proc in (master, worker):
                if proc.poll() is None:
                    proc.kill()

        final = SweepJournal(checkpoint).load_records()
        reference = run_sweep(spec, tmp_path / "ref", mode="serial")
        assert results_only(final) == results_only(reference.records)
        # exactly once: no job id ever journaled twice, even with the
        # stalled worker resending its unsent result after the restart
        ids = journal_job_ids(checkpoint)
        assert sorted(ids) == sorted(set(ids))

    def test_worker_killed_mid_job_is_survived(self, tmp_path):
        """A worker process that dies mid-job (os._exit) loses nothing:
        the heartbeat timeout requeues its lease and the surviving
        worker finishes the sweep."""
        from repro.sweep import SweepJournal, run_sweep

        spec = fleet_spec("fleet-worker-death")
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        checkpoint = tmp_path / "ck"
        marker = tmp_path / "died.marker"
        # both workers carry the kill hook with a shared marker, so
        # whichever one leases job 2 dies — exactly once
        worker_env = self._env(
            REPRO_SWEEP_KILL_JOB=spec.jobs[2].job_id,
            REPRO_SWEEP_KILL_MARKER=marker,
        )
        master, port = self._start_master(spec_path, checkpoint,
                                          heartbeat_timeout=1.5)
        workers = [
            self._start_worker(port, f"mortal-w{i}", env=worker_env)
            for i in range(2)
        ]
        try:
            out, _ = master.communicate(timeout=180)
            assert master.returncode == 0, out
            assert "complete" in out
            codes = [w.wait(timeout=60) for w in workers]
        finally:
            for proc in [master] + workers:
                if proc.poll() is None:
                    proc.kill()

        assert marker.exists(), "the injected worker death never fired"
        assert codes.count(13) == 1, f"exactly one worker dies: {codes}"
        final = SweepJournal(checkpoint).load_records()
        reference = run_sweep(spec, tmp_path / "ref", mode="serial")
        assert results_only(final) == results_only(reference.records)
        ids = journal_job_ids(checkpoint)
        assert sorted(ids) == sorted(set(ids))

    def test_torn_journal_line_rerun_resumes_identically(self, tmp_path):
        """A journal whose final line was torn by a kill mid-append is
        not a crash: the resume re-runs exactly the torn job."""
        from repro.sweep import SweepJournal, run_sweep

        spec = fleet_spec("fleet-torn", n=5)
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        checkpoint = tmp_path / "ck"
        master, port = self._start_master(spec_path, checkpoint)
        worker = self._start_worker(port, "torn-w0")
        try:
            out, _ = master.communicate(timeout=120)
            assert master.returncode == 0, out
            worker.wait(timeout=60)
        finally:
            for proc in (master, worker):
                if proc.poll() is None:
                    proc.kill()

        journal_path = checkpoint / "journal.jsonl"
        lines = journal_path.read_text().splitlines(keepends=True)
        torn_id = json.loads(lines[-1])["job_id"]
        journal_path.write_text(
            "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        )
        with pytest.warns(RuntimeWarning):
            partial = SweepJournal(checkpoint).load_records()
        assert set(partial) == {j.job_id for j in spec.jobs} - {torn_id}

        master2, port2 = self._start_master(spec_path, checkpoint)
        worker2 = self._start_worker(port2, "torn-w1")
        try:
            out, _ = master2.communicate(timeout=120)
            assert master2.returncode == 0, out
            assert "ran 1 jobs" in out
            worker2.wait(timeout=60)
        finally:
            for proc in (master2, worker2):
                if proc.poll() is None:
                    proc.kill()

        # the torn mid-file line still warns on load — expected
        with pytest.warns(RuntimeWarning):
            final = SweepJournal(checkpoint).load_records()
        reference = run_sweep(spec, tmp_path / "ref", mode="serial")
        assert results_only(final) == results_only(reference.records)
