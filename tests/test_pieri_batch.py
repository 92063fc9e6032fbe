"""Batched Pieri tracking: StackedHomotopy and the one job driver.

Every edge goes through ``PieriSolver.run_jobs_batched``, and the tree
solve tracks each level as one stacked SoA front: the retry ladder and
chart-switch requeues inside those fronts, the per-level records and
effort, the pinned bits, the ``continue_to_instance`` online phase and
the sweep's Pieri jobs.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.kernels import slp
from repro.linalg import batched_det
from repro.parallel import solve_pieri_parallel
from repro.schubert import (
    PieriInstance,
    PieriReport,
    PieriSolver,
    PieriTree,
    continue_to_instance,
    trivial_solution_matrix,
)
from repro.schubert.homotopy import evaluate_map
from repro.schubert.parameter import PieriParameterHomotopy
from repro.schubert.solver import EFFORT_KEYS
from repro.sweep import JobSpec
from repro.sweep.engine import run_job, solutions_fingerprint
from repro.tracker import (
    BatchHomotopy,
    BatchTracker,
    PathStatus,
    PathTracker,
    StackedHomotopy,
    TrackerOptions,
    tighten_options,
)
from repro.tracker.interface import _per_path_t


class Line(BatchHomotopy):
    """H(x, t) = x - a t - 1: the single path is x(t) = 1 + a t."""

    def __init__(self, a):
        self.a = a

    @property
    def dim(self):
        return 1

    def evaluate_batch(self, X, t):
        return X - self.a * _per_path_t(t, len(X))[:, None] - 1.0

    def jacobian_x_batch(self, X, t):
        return np.ones((len(X), 1, 1), dtype=complex)

    def jacobian_t_batch(self, X, t):
        return np.full((len(X), 1), -self.a + 0j)


def _sorted_solutions(solutions):
    return sorted(
        solutions, key=lambda s: (float(s.real.sum()), float(s.imag.sum()))
    )


def _assert_same_solution_sets(a, b, tol=1e-8):
    sa, sb = _sorted_solutions(a), _sorted_solutions(b)
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert np.max(np.abs(x - y)) < tol


class TestStackedHomotopy:
    def test_delegates_to_owners(self):
        stack = StackedHomotopy([Line(2.0), Line(-1.0)], [0, 1, 0])
        assert stack.npaths == 3 and stack.dim == 1
        X = np.array([[1.0 + 0j], [2.0 + 0j], [3.0 + 0j]])
        t = np.array([0.1, 0.5, 0.9])
        res = stack.evaluate_batch(X, t)
        members = [Line(2.0), Line(-1.0), Line(2.0)]
        for i, h in enumerate(members):
            assert np.allclose(res[i], h.evaluate(X[i], t[i]))
            assert np.allclose(
                stack.jacobian_t_batch(X, t)[i], h.jacobian_t(X[i], t[i])
            )
        r2, j2 = stack.evaluate_and_jacobian_batch(X, t)
        jx, jt = stack.jacobians_batch(X, t)
        assert np.allclose(r2, res)
        assert np.allclose(j2, jx)

    def test_restrict_slices_ownership(self):
        stack = StackedHomotopy([Line(2.0), Line(-1.0)], [0, 1, 1])
        sub = stack.restrict([2, 0])
        assert isinstance(sub, StackedHomotopy)
        assert sub.npaths == 2
        assert list(sub.owners) == [1, 0]
        # restrictions compose (tracker-then-newton culling)
        assert list(sub.restrict([1]).owners) == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            StackedHomotopy([], [])
        with pytest.raises(ValueError):
            StackedHomotopy([Line(1.0)], [0, 1])  # owner out of range

        class Two(Line):
            @property
            def dim(self):
                return 2

        with pytest.raises(ValueError):
            StackedHomotopy([Line(1.0), Two(1.0)], [0, 1])
        stack = StackedHomotopy([Line(1.0)], [0, 0])
        with pytest.raises(ValueError):
            stack.evaluate_batch(np.zeros((3, 1), dtype=complex), 0.0)

    def test_tracking_matches_scalar_members(self):
        members = [Line(2.0), Line(-1.0)]
        owners = [0, 1, 1]
        starts = [[1.0], [1.0], [1.0]]
        batch = BatchTracker().track_batch(
            StackedHomotopy(members, owners), starts
        )
        for r, k, x0 in zip(batch, owners, starts):
            scalar = PathTracker().track(members[k], x0)
            assert r.status == scalar.status
            assert np.max(np.abs(r.solution - scalar.solution)) < 1e-10

    def test_per_path_t_start_vector(self):
        results = BatchTracker().track_batch(
            StackedHomotopy([Line(2.0)], [0, 0]),
            [[1.8], [1.0]],
            t_start=np.array([0.4, 0.0]),
        )
        assert all(r.success for r in results)
        assert all(abs(r.solution[0] - 3.0) < 1e-9 for r in results)
        with pytest.raises(ValueError):
            BatchTracker().track_batch(
                Line(1.0), [[1.0], [1.0]], t_start=np.array([0.0, 1.0])
            )
        with pytest.raises(ValueError):
            BatchTracker().track_batch(
                Line(1.0), [[1.0], [1.0]], t_start=np.array([0.0])
            )


def _same_level_edges(shape, level, rng):
    """Two distinct edge homotopies of one tree level (one front)."""
    instance = PieriInstance.random(*shape, rng)
    solver = PieriSolver(instance, seed=int(rng.integers(1000)))
    homs = {}
    for node in PieriTree(instance.problem).walk_bfs():
        key = node.level and (node.pattern().bottom_pivots, node.columns[-1])
        if node.level == level and key not in homs:
            homs[key] = solver.make_homotopy(node)
    return list(homs.values())[:2]


class TestStackRowsOfAFront:
    """A member hands the same bits whether it owns every row of its
    stack (its rows and times pass straight through) or shares the
    stack with another member (its rows gathered, as evenly spaced
    views or by index, and scattered back)."""

    B = slp.BLOCK
    METHODS = ("evaluate_batch", "jacobian_x_batch", "jacobian_t_batch",
               "evaluate_and_jacobian_batch", "jacobians_batch")

    @pytest.mark.parametrize("npts", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_one_member_stack_is_its_rows_in_a_two_member_stack(self, npts):
        rng = np.random.default_rng([17, npts])
        first, other = _same_level_edges((2, 2, 1), 5, rng)
        X = rng.standard_normal((npts, first.dim)) + 1j * rng.standard_normal(
            (npts, first.dim)
        )
        tt = rng.random(npts)
        alone = StackedHomotopy([first], [0] * npts)
        alternating = np.arange(2 * npts) % 2
        scattered = np.ones(npts + 7, dtype=np.int64)
        scattered[np.sort(rng.choice(npts + 7, npts, replace=False))] = 0
        for owners in (alternating, scattered):
            mine = np.flatnonzero(owners == 0)
            X2 = rng.standard_normal((owners.size, first.dim)) + 0j
            t2 = rng.random(owners.size)
            X2[mine], t2[mine] = X, tt
            pair = StackedHomotopy([first, other], owners)
            for method in self.METHODS:
                want = getattr(alone, method)(X, tt)
                got = getattr(pair, method)(X2, t2)
                want = want if isinstance(want, tuple) else (want,)
                got = got if isinstance(got, tuple) else (got,)
                for w, g in zip(want, got):
                    assert g[mine].tobytes() == w.tobytes(), method
            # a culled front hands the member its surviving rows
            keep = np.flatnonzero(rng.random(owners.size) < 0.7)
            res = pair.restrict(keep).evaluate_batch(X2[keep], t2[keep])
            own = keep[owners[keep] == 0]
            alone_res = first.evaluate_batch(X2[own], t2[own])
            assert res[owners[keep] == 0].tobytes() == alone_res.tobytes()


#: sha256 of a solve's roots and per-level effort counters.  The bracket
#: products round by the BLAS kernel, so the digests hold for one
#: numpy/OpenBLAS build: where another build rounds them differently,
#: re-pin at a commit known to be correct, never at the change under test.
PINS = {
    (2, 2, 2): "8526b4d11523738646422fcc0b780ab7b21d1c2184ca3deebdd02fc0b7a1b739",
    (2, 2, 3): "e4c4bb5961fd9ca55f6c2039e04a217004e7a6384f8951d01e0071d7c06abe0a",
}
PIN_SEEDS = {(2, 2, 2): (41, 42), (2, 2, 3): (43, 44)}


def _solve_digest(report):
    digest = hashlib.sha256()
    for solution in report.solutions:
        digest.update(solution.tobytes())
    for record in report.level_batches:
        counts = [record["level"], *(record[k] for k in EFFORT_KEYS)]
        digest.update(repr(counts).encode())
    return digest.hexdigest()


class TestBitwisePins:
    """Speed work on the Pieri front changes no bit of a solve."""

    @pytest.mark.parametrize("shape", sorted(PINS))
    def test_batch_solve_is_pinned(self, shape):
        rng_seed, seed = PIN_SEEDS[shape]
        instance = PieriInstance.random(*shape, np.random.default_rng(rng_seed))
        report = PieriSolver(instance, seed=seed).solve()
        assert report.failures == 0
        assert _solve_digest(report) == PINS[shape]

    def test_two_process_workers_are_pinned(self):
        rng_seed, seed = PIN_SEEDS[2, 2, 2]
        instance = PieriInstance.random(2, 2, 2, np.random.default_rng(rng_seed))
        report = solve_pieri_parallel(
            instance, n_workers=2, mode="process", seed=seed
        )
        assert _solve_digest(report) == PINS[2, 2, 2]


class TestBatchedDet:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_lapack(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((40, k, k)) + 1j * rng.standard_normal(
            (40, k, k)
        )
        assert np.allclose(batched_det(a), np.linalg.det(a))
        stacked = a.reshape(8, 5, k, k)
        assert np.allclose(batched_det(stacked), np.linalg.det(stacked))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            batched_det(np.zeros((3, 2, 4)))


class TestPieriEdgeBatchProtocol:
    def _edge(self, m=2, p=2, q=1, seed=5, depth=3):
        from repro.schubert.tree import PieriTreeNode

        instance = PieriInstance.random(m, p, q, np.random.default_rng(seed))
        solver = PieriSolver(instance, seed=seed + 1)
        node = PieriTreeNode(instance.problem)
        for _ in range(depth):
            node = next(node.children())
        return solver.make_homotopy(node)

    def test_is_native_batch(self):
        hom = self._edge()
        assert isinstance(hom, BatchHomotopy)

    def test_evaluate_batch_matches_reference_dets(self):
        """The vectorized assembly equals the definitional construction."""
        hom = self._edge()
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, hom.dim)) + 1j * rng.standard_normal(
            (4, hom.dim)
        )
        tt = np.array([0.0, 0.3, 0.7, 0.99])
        res = hom.evaluate_batch(X, tt)
        n = hom.dim
        for i in range(4):
            c = hom.to_matrix(X[i])
            mats = [
                np.hstack(
                    [
                        evaluate_map(c, hom.pattern, hom.points[e], 1.0),
                        hom.planes[e],
                    ]
                )
                for e in range(n - 1)
            ]
            t = tt[i]
            s = (1 - t) * hom.gamma_s + t * hom.points[-1]
            k = (1 - t) * hom.gamma_k * hom.k_special + t * hom.planes[-1]
            mats.append(
                np.hstack([evaluate_map(c, hom.pattern, s, complex(t)), k])
            )
            assert np.allclose(res[i], np.linalg.det(np.array(mats)), atol=1e-10)

    def test_batch_jacobians_match_scalar_rows(self):
        hom = self._edge(m=3, p=2, q=0, seed=9, depth=4)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, hom.dim)) + 1j * rng.standard_normal(
            (5, hom.dim)
        )
        tt = np.linspace(0.05, 0.95, 5)
        res, jac = hom.evaluate_and_jacobian_batch(X, tt)
        jx, jt = hom.jacobians_batch(X, tt)
        for i in range(5):
            r0, j0 = hom.evaluate_and_jacobian_x(X[i], tt[i])
            assert np.allclose(res[i], r0)
            assert np.allclose(jac[i], j0)
            assert np.allclose(jx[i], j0)
            assert np.allclose(jt[i], hom.jacobian_t(X[i], tt[i]))

    def test_jacobians_against_finite_differences(self):
        hom = self._edge(m=2, p=2, q=1, seed=3, depth=5)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(hom.dim) + 1j * rng.standard_normal(hom.dim)
        t = 0.41
        jac = hom.jacobian_x(x, t)
        h = 1e-7
        for k in range(hom.dim):
            xp = x.copy()
            xp[k] += h
            fd = (hom.evaluate(xp, t) - hom.evaluate(x, t)) / h
            assert np.allclose(jac[:, k], fd, atol=1e-4)
        fd = (hom.evaluate(x, t + h) - hom.evaluate(x, t)) / h
        assert np.allclose(hom.jacobian_t(x, t), fd, atol=1e-4)


class TestSolverParity:
    """The level fronts' ladder and chart switch, and the job driver's
    input checks."""

    def test_batch_rejects_mixed_levels(self):
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(1))
        solver = PieriSolver(instance, seed=2)
        jobs = solver.initial_jobs()
        results, stats = solver.run_jobs_batched(jobs)
        deeper = PieriReport(instance).record_front(
            jobs, [r.matrix for r in results], stats, 0.0
        )
        with pytest.raises(ValueError):
            solver.run_jobs_batched([jobs[0], deeper[0]])
        # an empty front reports the same keys as any other, all zero
        nothing, zeros = solver.run_jobs_batched([])
        assert nothing == [] and set(zeros) == set(stats)
        assert set(zeros.values()) == {0}

    def test_retry_ladder_parity(self):
        """Coarse steps force failures; the level fronts climb the
        ladder and still deliver every root."""
        stress = TrackerOptions(
            initial_step=0.4,
            max_step=0.4,
            min_step=0.1,
            corrector_tol=1e-10,
            corrector_iterations=3,
            expand_after=2,
        )
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(0))
        batch = PieriSolver(instance, options=stress, seed=0).solve()
        assert sum(r["retries"] for r in batch.level_batches) > 0
        assert batch.failures == 0 and batch.n_solutions == 8
        assert batch.all_distinct() and batch.max_residual() < 1e-8

    def test_chart_switch_requeue_parity(self, monkeypatch):
        """A tight divergence bound forces chart switches; the switched
        rows still end at every root."""
        monkeypatch.setattr("repro.tracker.batch.DIVERGENCE_BOUND", 20.0)
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(0))
        batch = PieriSolver(instance, seed=0).solve()
        assert sum(r["chart_switches"] for r in batch.level_batches) > 0
        assert batch.failures == 0
        assert batch.n_solutions == 8
        assert batch.all_distinct() and batch.max_residual() < 1e-8

    def test_retry_options_preserve_unlisted_fields(self, monkeypatch):
        """Every rung of the ladder runs ``tighten_options`` of the one
        before, and ``dataclasses.replace`` keeps custom fields."""
        import repro.tracker.result as ladder

        rungs = []

        def recorded(options):
            rungs.append(tighten_options(options))
            return rungs[-1]

        monkeypatch.setattr(ladder, "tighten_options", recorded)
        custom = dataclasses.replace(
            PieriSolver.DEFAULT_OPTIONS,
            initial_step=0.4, max_step=0.4, min_step=0.1,
        )
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(0))
        report = PieriSolver(instance, options=custom, seed=0).solve()
        assert report.effort("retries") > 0 and rungs
        for retried in rungs:
            assert retried.min_step < custom.min_step
            assert retried.predictor == "euler"
        assert {r.max_steps for r in rungs} <= {
            custom.max_steps * 4, custom.max_steps * 16, custom.max_steps * 64
        }


class TestCubicDefaultGate:
    """The Pieri default predicts with the cubic on the seed's step
    control: same roots, fewer evaluations — gated on counts that repeat
    exactly for a seed, not on a wall ratio."""

    def test_same_roots_for_three_quarters_of_the_evaluations(self):
        instance = PieriInstance.random(2, 2, 2, np.random.default_rng(3))
        assert PieriSolver.DEFAULT_OPTIONS.predictor == "cubic"
        euler = PieriSolver(
            instance,
            options=dataclasses.replace(
                PieriSolver.DEFAULT_OPTIONS, predictor="euler"
            ),
            seed=3,
        ).solve()
        batch = PieriSolver(instance, seed=3).solve()
        assert batch.options["predictor"] == "cubic"
        assert euler.options == {**batch.options, "predictor": "euler"}
        for report in (euler, batch):
            assert report.failures == 0 and report.n_solutions == 32
            assert report.all_distinct()
        _assert_same_solution_sets(euler.solutions, batch.solutions)
        assert batch.effort("jacobian_evaluations") <= 0.75 * euler.effort(
            "jacobian_evaluations"
        )
        assert batch.effort("newton_iterations") < euler.effort(
            "newton_iterations"
        )
        # every level books its own effort, and the tree's is their sum
        assert [r["level"] for r in batch.level_batches] == list(
            range(1, instance.problem.num_conditions + 1)
        )
        for report in (euler, batch):
            for record in report.level_batches:
                assert record["steps_accepted"] >= record["n_jobs"]
                assert record["jacobian_evaluations"] > 0
                assert record["newton_iterations"] > 0
            for key in EFFORT_KEYS:
                assert report.effort(key) == sum(
                    r[key] for r in report.level_batches
                )
        # two workers' bundles are as wide as the moment allowed, so only
        # what does not depend on width is asserted of them
        par = solve_pieri_parallel(instance, n_workers=2, seed=3)
        assert par.failures == 0 and par.options == batch.options
        _assert_same_solution_sets(batch.solutions, par.solutions)
        assert par.jobs_per_level == batch.jobs_per_level

    def test_a_jump_is_retracked_not_delivered(self):
        """Regression (PR 24's soak, op ``[103, 4]``): under the default
        one path of level 11 jumps onto a neighbour and the tree used to
        return 124 distinct roots of 128 with ``failures == 0``.  The
        level front now sees two endpoints coincide at one poset node
        and sends both up the retry ladder."""
        rng = np.random.default_rng([103, 4])
        seed = int(rng.integers(2**31))
        instance = PieriInstance.random(2, 2, 3, rng)
        report = PieriSolver(instance, seed=seed).solve()
        assert report.failures == 0 and report.n_solutions == 128
        assert report.all_distinct()
        assert {
            r["level"]: (r["collisions"], r["retries"])
            for r in report.level_batches
            if r["retries"]
        } == {11: (2, 2)}


    @pytest.mark.parametrize(
        "key, level", [([7, 4], 16), ([32, 1], 4)], ids=["7-4", "32-1"]
    )
    def test_euler_jumps_are_retracked_not_delivered(self, key, level):
        """The two (2,2,3) jumps PR 16's runs met under ``"euler"``: one
        path jumps onto a neighbour at one level, both climb the ladder
        and the tree returns every root."""
        rng = np.random.default_rng(key)
        seed = int(rng.integers(2**31))
        instance = PieriInstance.random(2, 2, 3, rng)
        options = dataclasses.replace(
            PieriSolver.DEFAULT_OPTIONS, predictor="euler"
        )
        report = PieriSolver(instance, options=options, seed=seed).solve()
        assert report.failures == 0 and report.n_solutions == 128
        assert report.all_distinct()
        assert {
            r["level"]: (r["collisions"], r["retries"])
            for r in report.level_batches
            if r["retries"]
        } == {level: (2, 2)}


class TestParallelGranularityKeyword:
    """``granularity`` is a compatibility keyword: both names run the one
    bundle master (its own tests live in ``test_parallel.py``)."""

    @pytest.mark.parametrize("granularity", ["edge", "level"])
    def test_both_names_match_sequential(self, granularity):
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(13))
        seq = PieriSolver(instance, seed=14).solve()
        par = solve_pieri_parallel(
            instance, mode="serial", seed=14,
            granularity=granularity,
        )
        assert par.failures == seq.failures
        _assert_same_solution_sets(seq.solutions, par.solutions)
        assert len(par.level_batches) == instance.problem.num_conditions
        assert all(r["n_chunks"] >= 1 for r in par.level_batches)
        assert par.jobs_per_level == seq.jobs_per_level

    def test_rejects_unknown_granularity(self):
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(1))
        with pytest.raises(ValueError):
            solve_pieri_parallel(instance, n_workers=1, granularity="bogus")


class TestContinuationBatch:
    @pytest.fixture(scope="class")
    def solved_base(self):
        base = PieriInstance.random(2, 2, 1, np.random.default_rng(31))
        report = PieriSolver(base, seed=32).solve()
        assert report.n_solutions == 8
        return base, report.solutions

    def test_parameter_homotopy_batch_protocol(self, solved_base):
        base, sols = solved_base
        target = PieriInstance.random(2, 2, 1, np.random.default_rng(35))
        hom = PieriParameterHomotopy(base, target, np.random.default_rng(36))
        X = np.stack([hom.from_matrix(s) for s in sols[:3]])
        tt = np.array([0.0, 0.4, 0.8])
        res, jac = hom.evaluate_and_jacobian_batch(X, tt)
        for i in range(3):
            r0, j0 = hom.evaluate_and_jacobian_x(X[i], tt[i])
            assert np.allclose(res[i], r0)
            assert np.allclose(jac[i], j0)
        # start solutions are exact roots at t = 0
        assert np.max(np.abs(hom.evaluate_batch(X, 0.0)[0])) < 1e-8

    def test_zero_pivot_recorded_as_failed(self, solved_base, monkeypatch):
        """A zero-pivot endpoint becomes a FAILED result, not a silent drop."""
        base, sols = solved_base
        target = PieriInstance.random(2, 2, 1, np.random.default_rng(37))
        import repro.schubert.parameter as parameter_module

        real = parameter_module.normalize_to_standard_chart
        calls = {"n": 0}

        def flaky(matrix, pattern):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ZeroDivisionError("injected zero pivot")
            return real(matrix, pattern)

        monkeypatch.setattr(
            parameter_module, "normalize_to_standard_chart", flaky
        )
        sols_out, results = continue_to_instance(
            base, sols, target, rng=np.random.default_rng(38)
        )
        assert len(results) == len(sols)
        assert len(sols_out) == len(sols) - 1
        assert sum(r.status is PathStatus.FAILED for r in results) == 1
        assert sum(r.success for r in results) == len(sols_out)


class TestSweepBatchMode:
    def test_job_ids_and_roundtrip(self):
        a = JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=3)
        assert a.job_id == "pieri-m2-p2-q0-s3"
        assert JobSpec.from_dict(a.to_dict()) == a
        assert "mode" not in a.to_dict()
        # the deleted axis is an unknown key, named in the refusal
        with pytest.raises(ValueError, match="mode"):
            JobSpec.from_dict({**a.to_dict(), "mode": "batch"})

    def test_batch_job_journals_level_stats(self):
        record = run_job(JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=3))
        result = record["result"]
        assert "mode" not in result
        levels = result["levels"]
        assert [rec["level"] for rec in levels] == [1, 2, 3, 4]
        assert all(
            set(rec) >= {"n_jobs", "n_homotopies", "chart_switches", "retries",
                         *EFFORT_KEYS}
            for rec in levels
        )
        # the wall seconds ride at record level, one a level
        assert all("seconds" not in rec for rec in levels)
        assert len(record["level_seconds"]) == len(levels)
        assert all(sec > 0 for sec in record["level_seconds"])
        # the journaled fingerprint is the tree solve's solution set
        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(3))
        report = PieriSolver(instance, seed=3).solve()
        assert result["fingerprint"] == solutions_fingerprint(report.solutions)

    def test_pieri_results_replay_identically(self):
        """A sweep's resume identity: the ``result`` of one pieri job
        spec is the same dict on every run."""
        job = JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=3)
        assert run_job(job)["result"] == run_job(job)["result"]
