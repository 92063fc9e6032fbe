"""Tests for the real parallel executors (process/serial, static/dynamic)."""

import gc
import os
import subprocess
import sys
import weakref
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import repro.parallel.executors as executors_mod
import repro.parallel.pieri_scheduler as scheduler_mod
from repro.homotopy import make_homotopy_and_starts
from repro.parallel import (
    dispatch_jobs,
    solve_pieri_parallel,
    track_paths_parallel,
)
from repro.parallel.dispatcher import make_pool
from repro.parallel.executors import _busy_list, load_imbalance
from repro.schubert import PieriInstance, PieriSolver, pieri_root_count
from repro.schubert.solver import EFFORT_KEYS
from repro.systems import cyclic_roots_system
from repro.tracker import BatchHomotopy, PathTracker, TrackerOptions

SRC = Path(__file__).resolve().parent.parent / "src"


class TestLoadImbalance:
    """Regression: a zero-busy pool must report 0.0, not divide by zero."""

    def test_zero_busy_workers(self):
        # e.g. every job culled before dispatch, or a resume with
        # nothing pending: no balance statistic exists
        assert load_imbalance([]) == 0.0
        assert load_imbalance([0.0, 0.0, 0.0]) == 0.0
        assert load_imbalance(_busy_list({}, 4)) == 0.0

    def test_zero_busy_emits_no_warning(self):
        with np.errstate(all="raise"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert load_imbalance(_busy_list({}, 8)) == 0.0

    def test_balanced_and_skewed_pools(self):
        assert load_imbalance([1.0, 1.0]) == 1.0
        assert load_imbalance([3.0, 1.0]) == 1.5
        # idle workers padded in by _busy_list count as zeros
        assert load_imbalance(_busy_list({(1, 1): 2.0}, 2)) == 2.0


@pytest.fixture(scope="module")
def cyclic4():
    """cyclic-4 homotopy + its 24 start solutions (shared by the module)."""
    target = cyclic_roots_system(4)
    homotopy, starts = make_homotopy_and_starts(
        target, rng=np.random.default_rng(0)
    )
    return homotopy, starts


@pytest.fixture(scope="module")
def cyclic4_per_path(cyclic4):
    """Each path of ``cyclic4`` tracked alone, as a one-row front."""
    homotopy, starts = cyclic4
    tracker = PathTracker(TrackerOptions())
    return [tracker.track(homotopy, s, path_id=i) for i, s in enumerate(starts)]


def assert_rows_equal(expected, results):
    """Path by path, the same status, endpoint, accepted steps and
    Newton iterations, bit for bit: a row's arithmetic does not depend
    on the rows its front carries beside it."""
    assert [r.path_id for r in results] == [r.path_id for r in expected]
    for a, b in zip(expected, results):
        assert a.status == b.status
        assert np.array_equal(a.solution, b.solution, equal_nan=True)
        assert a.stats.steps_accepted == b.stats.steps_accepted
        assert a.stats.newton_iterations == b.stats.newton_iterations


class TestFlatExecutors:
    def test_serial_baseline(self, cyclic4):
        homotopy, starts = cyclic4
        report = track_paths_parallel(homotopy, starts, mode="serial")
        assert len(report.results) == len(starts)
        assert report.n_workers == 1
        assert report.total_cpu_seconds > 0

    def test_process_mode_runs(self, cyclic4):
        homotopy, starts = cyclic4
        report = track_paths_parallel(
            homotopy,
            starts[:8],
            n_workers=2,
            schedule="dynamic",
            mode="process",
        )
        assert len(report.results) == 8
        assert report.n_workers == 2

    def test_results_ordered_by_path_id(self, cyclic4):
        homotopy, starts = cyclic4
        report = track_paths_parallel(
            homotopy, starts, n_workers=2, schedule="dynamic", mode="process"
        )
        assert [r.path_id for r in report.results] == list(range(len(starts)))

    def test_invalid_args(self, cyclic4):
        homotopy, starts = cyclic4
        with pytest.raises(ValueError):
            track_paths_parallel(homotopy, starts, n_workers=0)
        with pytest.raises(ValueError):
            track_paths_parallel(homotopy, starts, schedule="bogus", n_workers=2)
        # the pool is all ``mode`` names: every block is one front
        for mode in ("bogus", "batch", "hybrid"):
            with pytest.raises(ValueError):
                track_paths_parallel(homotopy, starts, mode=mode, n_workers=2)

    def test_busy_accounting(self, cyclic4):
        homotopy, starts = cyclic4
        report = track_paths_parallel(
            homotopy, starts, n_workers=2, schedule="static", mode="process"
        )
        assert len(report.worker_busy_seconds) == 2
        assert report.total_cpu_seconds > 0
        assert report.load_imbalance >= 1.0

    def test_dynamic_busy_is_self_reported(self, cyclic4):
        """Busy seconds come from worker self-reports, so they must sum to
        roughly the serial tracking time (not a round-robin guess)."""
        homotopy, starts = cyclic4
        report = track_paths_parallel(
            homotopy, starts, n_workers=2, schedule="dynamic", mode="process"
        )
        assert len(report.worker_busy_seconds) == 2
        per_path = sum(r.stats.seconds for r in report.results)
        assert report.total_cpu_seconds == pytest.approx(per_path, rel=0.5)


class TestBatchModes:
    """Every pool tracks a block as one SoA front."""

    def test_hybrid_single_worker_still_batches(self, cyclic4):
        """A process pool of one worker is this process tracking one SoA
        front, not a pool of one."""
        homotopy, starts = cyclic4
        report = track_paths_parallel(
            homotopy, starts[:6], n_workers=1, mode="process"
        )
        assert report.n_workers == 1
        assert len(report.results) == 6
        # batch-tracked paths share wall-clock accounting: per-path
        # seconds are amortized shares of the front's sweeps, bounded by
        # the single busy figure
        assert len(report.worker_busy_seconds) == 1
        assert max(r.stats.seconds for r in report.results) <= (
            report.worker_busy_seconds[0] + 1e-6
        )


class Boom(Exception):
    pass


class ExplodingHomotopy(BatchHomotopy):
    """Every evaluation raises: a worker that crashes on any block."""

    dim = 1

    def evaluate_batch(self, X, t):
        raise Boom("exploding homotopy")

    def jacobian_x_batch(self, X, t):
        raise Boom("exploding homotopy")


class TestOneLocalMaster:
    """``mode`` says who runs a block and ``schedule`` how the path list
    is cut: every combination is one ``dispatch_with_pool`` call whose
    blocks are fronts."""

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_every_cut_matches_serial(
        self, cyclic4, cyclic4_per_path, mode, schedule
    ):
        homotopy, starts = cyclic4
        report = track_paths_parallel(
            homotopy, starts, n_workers=2, schedule=schedule, mode=mode
        )
        n_workers = 1 if mode == "serial" else 2
        assert report.n_workers == n_workers
        assert len(report.worker_busy_seconds) == n_workers
        assert report.schedule == schedule
        # who runs a row, and beside which rows, cannot change its bits
        assert_rows_equal(cyclic4_per_path, report.results)

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_one_worker_is_one_front(self, cyclic4, monkeypatch, schedule):
        homotopy, starts = cyclic4
        real, calls = executors_mod._track_block, []

        def spy(block):
            calls.append(len(block))
            return real(block)

        monkeypatch.setattr(executors_mod, "_track_block", spy)
        track_paths_parallel(
            homotopy, starts[:6], n_workers=1, schedule=schedule, mode="process"
        )
        assert calls == [6]

    @pytest.mark.parametrize(
        "schedule, widths", [("static", [12, 12]), ("dynamic", [3] * 8)]
    )
    def test_blocks_are_the_schedule_cut(
        self, cyclic4, monkeypatch, schedule, widths
    ):
        """Two workers: ``static`` is one block per worker, ``dynamic``
        ``4 * n_workers`` blocks, each one ``_track_block`` call."""
        homotopy, starts = cyclic4
        real, calls = executors_mod.make_pool, []

        def spy(*args):
            pool = real(*args)
            submit = pool.submit

            def recorded(fn, block):
                calls.append((fn, len(block)))
                return submit(fn, block)

            pool.submit = recorded
            return pool

        monkeypatch.setattr(executors_mod, "make_pool", spy)
        track_paths_parallel(
            homotopy, starts, n_workers=2, schedule=schedule, mode="process"
        )
        assert {fn for fn, _ in calls} == {executors_mod._track_block}
        assert sorted(width for _, width in calls) == widths

    @pytest.mark.parametrize(
        "mode, schedule",
        [("serial", "dynamic"), ("process", "static"), ("process", "dynamic")],
    )
    def test_worker_exception_reaches_the_caller(
        self, monkeypatch, mode, schedule
    ):
        real, shutdowns = executors_mod.make_pool, []

        def spy(*args):
            pool = real(*args)
            shutdown = pool.shutdown

            def recorded(**kwargs):
                shutdowns.append(kwargs)
                shutdown(**kwargs)

            pool.shutdown = recorded
            return pool

        monkeypatch.setattr(executors_mod, "make_pool", spy)
        starts = [[1.0 + 0j]] * 6
        with pytest.raises(Exception) as info:
            track_paths_parallel(
                ExplodingHomotopy(), starts, n_workers=2,
                schedule=schedule, mode=mode,
            )
        chain = [info.value, info.value.__cause__, info.value.__context__]
        assert any(isinstance(exc, Boom) for exc in chain)
        # the one pool is shut down, dropping whatever was still queued
        assert shutdowns == [{"wait": False, "cancel_futures": True}]


class TestMakePool:
    """The ``"serial"`` pool: an executor that runs the call at submit."""

    def test_result_and_exception_are_settled_futures(self):
        seen = []
        with make_pool("serial", 1, seen.append, ("init",)) as pool:
            assert seen == ["init"]  # the initializer ran here, once
            done = pool.submit(divmod, 7, 2)
            assert done.done() and done.result() == (3, 1)
            failed = pool.submit(divmod, 1, 0)
            assert failed.done()
            assert isinstance(failed.exception(), ZeroDivisionError)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_pool("bogus", 1)

    def test_serial_path_tracking_keeps_no_worker_state(self):
        """The inline worker's globals are put back when the dispatch
        ends: a homotopy the caller dropped is freed."""
        homotopy, starts = make_homotopy_and_starts(
            cyclic_roots_system(3), rng=np.random.default_rng(1)
        )
        alive = weakref.ref(homotopy)
        track_paths_parallel(homotopy, starts, mode="serial")
        del homotopy
        gc.collect()
        assert alive() is None
        assert executors_mod._WORKER_HOMOTOPY is None
        assert executors_mod._WORKER_TRACKER is None

    def test_serial_pieri_solve_keeps_no_worker_state(self):
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(3))
        alive = weakref.ref(instance)
        report = solve_pieri_parallel(instance, mode="serial", seed=4)
        assert report.n_solutions == pieri_root_count(2, 2, 0)
        del instance, report
        gc.collect()
        assert alive() is None
        assert scheduler_mod._WORKER_SOLVER is None

    def test_dispatch_jobs_with_bundles_over_the_serial_pool(self):
        """The real master loop over the inline pool: bundles out, a
        crashed bundle back as single jobs, every job done once."""
        pool, handed, done = make_pool("serial", 1), [], []
        crashed = []

        def work(bundle):
            handed.append(list(bundle))
            if 3 in bundle and not crashed:
                crashed.append(bundle)
                raise RuntimeError("crash once")
            return [job * job for job in bundle]

        def take(queue: deque, n_idle: int):
            return [queue.popleft() for _ in range(min(2, len(queue)))]

        telemetry = dispatch_jobs(
            range(5),
            lambda bundle: pool.submit(work, bundle),
            lambda bundle, squares: done.extend(squares),
            n_workers=1,
            max_retries=1,
            retry_key=lambda job: job,
            take=take,
        )
        assert handed == [[0, 1], [2, 3], [2], [3], [4]]
        assert sorted(done) == [0, 1, 4, 9, 16]
        assert telemetry.worker_crashes == 1
        assert telemetry.jobs_abandoned == 0


class TestParallelPieri:
    def test_matches_sequential_solutions(self):
        """The key property: parallel == sequential, path by path."""
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(1))
        seq = PieriSolver(instance, seed=2).solve()
        par = solve_pieri_parallel(instance, mode="serial", seed=2)
        assert par.n_solutions == seq.n_solutions == pieri_root_count(2, 2, 0)
        key = lambda c: str(np.round(c.ravel(), 6).tolist())
        assert sorted(map(key, par.solutions)) == sorted(
            map(key, seq.solutions)
        )

    def test_bigger_case_serial(self):
        instance = PieriInstance.random(3, 2, 0, np.random.default_rng(3))
        par = solve_pieri_parallel(instance, mode="serial", seed=4)
        assert par.n_solutions == 5
        assert par.failures == 0
        assert par.max_residual() < 1e-8
        assert par.all_distinct()

    def test_process_mode(self):
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(5))
        par = solve_pieri_parallel(
            instance, n_workers=2, mode="process", seed=6
        )
        assert par.n_solutions == 2
        assert par.failures == 0

    def test_job_counts_match_table3_structure(self):
        from repro.schubert import level_job_counts

        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(7))
        par = solve_pieri_parallel(instance, mode="serial", seed=8)
        expected = level_job_counts(2, 2, 1)
        got = [par.jobs_per_level[i + 1] for i in range(len(expected))]
        assert got == expected

    def test_scheduler_telemetry(self):
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(9))
        par = solve_pieri_parallel(
            instance, n_workers=2, mode="process", seed=10
        )
        assert par.wall_seconds > 0
        assert par.max_active_jobs >= 1
        assert par.n_workers == 2

    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(2, 2, 0), (2, 2, 1), (3, 2, 0)])
    def test_bundles_match_sequential(self, shape, n_workers, mode):
        """Whatever bundles the moment forms, the solution set is the
        sequential level-by-level one and every level counts its edges
        (the serial pool is one worker whatever ``n_workers`` asks)."""
        self._assert_bundles_match_sequential(shape, n_workers, mode)

    @pytest.mark.parametrize("mode", ["process"])
    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize("shape", [(2, 2, 0), (2, 2, 1), (3, 2, 0)])
    def test_split_bundles_match_sequential(
        self, shape, n_workers, mode, monkeypatch
    ):
        """The same with the floor at 1: the master splits these narrow
        levels among the idle workers, as it does levels of two floors
        and more (a lone worker is always handed the whole level)."""
        monkeypatch.setattr(scheduler_mod, "MIN_SHARE", 1)
        self._assert_bundles_match_sequential(shape, n_workers, mode)

    @staticmethod
    def _assert_bundles_match_sequential(shape, n_workers, mode):
        instance = PieriInstance.random(*shape, np.random.default_rng(21))
        seq = PieriSolver(instance, seed=22).solve()
        par = solve_pieri_parallel(
            instance, n_workers=n_workers, mode=mode, seed=22
        )
        assert par.n_workers == (1 if mode == "serial" else n_workers)
        assert par.failures == seq.failures == 0
        assert par.n_solutions == seq.n_solutions == pieri_root_count(*shape)
        flat = np.stack([s.ravel() for s in seq.solutions])
        for sol in par.solutions:
            assert np.min(np.max(np.abs(flat - sol.ravel()), axis=1)) < 1e-8
        assert par.all_distinct()
        assert par.jobs_per_level == seq.jobs_per_level

    def test_every_edge_is_tracked_exactly_once(self, monkeypatch):
        from repro.schubert import level_job_counts

        real, seen = scheduler_mod._run_pieri_job, []

        def recording(args):
            seen.extend(tuple(cols) for cols, _start in args)
            return real(args)

        monkeypatch.setattr(scheduler_mod, "_run_pieri_job", recording)
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(23))
        par = solve_pieri_parallel(instance, mode="serial", seed=24)
        assert len(seen) == len(set(seen)) == sum(level_job_counts(2, 2, 1))
        assert sum(par.jobs_per_level.values()) == len(seen)

    def test_level_records_aggregate_the_bundles(self):
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(25))
        par = solve_pieri_parallel(instance, mode="serial", seed=26)
        n = instance.problem.num_conditions
        assert [r["level"] for r in par.level_batches] == list(range(1, n + 1))
        for record in par.level_batches:
            lvl = record["level"]
            assert record["n_jobs"] == par.jobs_per_level[lvl]
            assert record["seconds"] == par.seconds_per_level[lvl]
            assert 1 <= record["n_chunks"] <= record["n_jobs"]
            assert 1 <= record["n_homotopies"] <= record["n_jobs"]
            assert record["chart_switches"] >= 0 and record["retries"] >= 0

    def test_one_worker_takes_one_bundle_per_level(self):
        """Deterministic: a lone worker is always the only idle one, so
        its share of each level is the whole level."""
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(27))
        par = solve_pieri_parallel(instance, mode="serial", seed=28)
        assert [r["n_chunks"] for r in par.level_batches] == (
            [1] * instance.problem.num_conditions
        )
        assert par.max_active_jobs == 1

    def test_take_front_splits_the_head_level_evenly(self, monkeypatch):
        from types import SimpleNamespace

        monkeypatch.setattr(scheduler_mod, "MIN_SHARE", 1)
        jobs = [SimpleNamespace(level=lvl, tag=i)
                for i, lvl in enumerate([3, 4, 3, 3, 4, 3, 3])]
        queue = deque(jobs)
        take = scheduler_mod._take_front
        first = take(queue, 2)      # 5 ready at level 3, 2 idle
        assert [j.tag for j in first] == [0, 2, 3]
        second = take(queue, 1)     # the head moved to level 4
        assert [j.tag for j in second] == [1, 4]
        third = take(queue, 3)      # 2 ready, 3 idle: one each
        assert [j.tag for j in third] == [5]
        assert [j.tag for j in queue] == [6]

    def test_take_front_keeps_shares_at_least_the_floor(self):
        """A level narrower than two floors travels whole; from two
        floors on, it splits into even shares no narrower than one."""
        from types import SimpleNamespace

        floor = scheduler_mod.MIN_SHARE
        take = scheduler_mod._take_front

        def level(lvl, n, tag=0):
            return [SimpleNamespace(level=lvl, tag=tag + i) for i in range(n)]

        queue = deque(level(5, 2 * floor - 1))
        assert len(take(queue, 2)) == 2 * floor - 1 and not queue
        queue = deque(level(5, 2 * floor))
        first = take(queue, 2)
        assert [j.tag for j in first] == list(range(floor))
        assert [j.tag for j in take(queue, 1)] == list(range(floor, 2 * floor))
        # the head's level goes first, the rest keeps its order
        head, later = level(7, floor + 1), level(8, 3 * floor, tag=1000)
        queue = deque([head[0], *later[:floor], *head[1:], *later[floor:]])
        assert take(queue, 3) == head
        assert list(queue) == later

    def test_a_fresh_worker_imports_nothing_while_it_tracks(self):
        """A pool is forked per solve from a master that only built the
        solver: a module a worker's first front imports lazily (numpy.ma
        behind ``np.setdiff1d`` took ~35 ms) is paid by every worker of
        every solve."""
        script = (
            "import sys, numpy as np\n"
            "from repro.parallel import solve_pieri_parallel\n"
            "from repro.schubert import PieriInstance, PieriSolver\n"
            "instance = PieriInstance.random(2, 2, 1, np.random.default_rng(1))\n"
            "solver = PieriSolver(instance, seed=2)\n"
            "before = set(sys.modules)\n"
            "solver.solve()\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_two_process_workers_match_the_sequential_batch_bitwise(self):
        """Every level of a small tree is narrower than two floors, so it
        travels whole to one worker, which tracks the sequential batch
        solver's level front: same rows in the same order, the same
        roots bit for bit and the same per-level effort."""
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(29))
        seq = PieriSolver(instance, seed=30).solve(mode="batch")
        par = solve_pieri_parallel(
            instance, n_workers=2, mode="process", seed=30
        )
        assert [r["n_chunks"] for r in par.level_batches] == (
            [1] * instance.problem.num_conditions
        )
        assert par.failures == seq.failures == 0
        assert [s.tobytes() for s in par.solutions] == [
            s.tobytes() for s in seq.solutions
        ]
        keys = ("level", "n_jobs", "n_homotopies", "chart_switches",
                "retries", "collisions", *EFFORT_KEYS)
        assert [[r[k] for k in keys] for r in par.level_batches] == [
            [r[k] for k in keys] for r in seq.level_batches
        ]

    def test_invalid_workers(self):
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(11))
        with pytest.raises(ValueError):
            solve_pieri_parallel(instance, n_workers=0)
        with pytest.raises(ValueError):
            solve_pieri_parallel(instance, n_workers=2, mode="bogus")
