"""Batch tracking layer: masked batch Newton, SoA tracker, row-of-front identity.

The contract under test: there is one tracker loop, and a path is tracked
bit for bit the same whatever rows travel with it — ``PathTracker.track``
(a one-row front) returns exactly its row of a wide
``BatchTracker.track_batch`` front, on a polynomial homotopy
(ConvexHomotopy) as on a Pieri determinant homotopy.
"""

import dataclasses

import numpy as np
import pytest

from repro.endgame import CauchyEndgame, RefineEndgame
from repro.homotopy import ConvexHomotopy, make_homotopy_and_starts, solve
from repro.schubert import PieriInstance, PieriReport, PieriSolver
from repro.systems import cyclic_roots_system, katsura_system
from repro.kernels import slp
from repro.tracker import (
    BatchHomotopy,
    BatchTracker,
    Ladder,
    PathStatus,
    PathTracker,
    StackedHomotopy,
    TrackerOptions,
    TrackStats,
    batch_newton_correct,
    newton_correct,
)
from repro.tracker.interface import _per_path_t


class SqrtHomotopy(BatchHomotopy):
    """H(x, t) = x^2 - (1 + 3t): paths x(t) = +/- sqrt(1 + 3t)."""

    @property
    def dim(self):
        return 1

    def evaluate_batch(self, X, t):
        return X ** 2 - (1 + 3 * _per_path_t(t, len(X))[:, None])

    def jacobian_x_batch(self, X, t):
        return 2 * X[:, :, None]

    def jacobian_t_batch(self, X, t):
        return np.full((len(X), 1), -3.0 + 0j)


class TestBatchInterface:
    def test_rejects_other_types(self):
        """Every entry point names what it was handed instead of failing
        deep in the loop: the tracker (for either tracker class), each
        member of a stack, the one-row corrector and both endgames'
        one-row ``finish``.  ``batch_newton_correct`` stays duck-typed
        (``tests/test_predictor.py`` records through a wrapper)."""
        options = TrackerOptions()
        entry_points = (
            lambda h: BatchTracker().track_batch(h, [[1.0]]),
            lambda h: PathTracker().track(h, [1.0]),
            lambda h: StackedHomotopy([SqrtHomotopy(), h], [0, 1]),
            lambda h: newton_correct(h, [1.0], 0.0),
            lambda h: RefineEndgame().finish(h, [1.0], 1.0, options),
            lambda h: CauchyEndgame().finish(h, [1.0], 0.99, options),
        )
        for enter in entry_points:
            with pytest.raises(TypeError, match="object"):
                enter(object())

    def test_scalar_t_broadcasts(self):
        homotopy, starts = make_homotopy_and_starts(
            cyclic_roots_system(3), rng=np.random.default_rng(0)
        )
        X = np.array(starts[:2])
        assert np.allclose(
            homotopy.evaluate_batch(X, 0.5),
            homotopy.evaluate_batch(X, np.array([0.5, 0.5])),
        )

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_per_path_t_hands_a_front_its_times_as_they_are(self, dtype):
        tt = np.array([0.25, 0.5, 0.75], dtype=dtype)
        assert _per_path_t(tt, 3) is tt
        # a view of a front's times (a member's evenly spaced rows)
        assert _per_path_t(tt[::2], 2).base is tt

    def test_per_path_t_broadcasts_and_casts(self):
        out = _per_path_t(0.5, 3)
        assert out.dtype == float and out.tolist() == [0.5, 0.5, 0.5]
        out = _per_path_t(1 - 0.5j, 2)
        assert out.dtype == complex and out.tolist() == [1 - 0.5j] * 2
        for given in ([0, 1, 1], np.array([0, 1, 1]), [0.0, 0.5, 1.0]):
            out = _per_path_t(given, 3)
            assert out.dtype == float
            assert out.tolist() == [float(v) for v in given]
        out = _per_path_t(np.array([0.5, 1.0], dtype=np.float32), 2)
        assert out.dtype == float and out.tolist() == [0.5, 1.0]
        assert _per_path_t([0.5j, 1.0], 2).dtype == complex

    def test_per_path_t_rejects_a_wrong_shape(self):
        for given in (np.zeros(2), np.zeros((3, 1)), [0.1, 0.2]):
            with pytest.raises(
                ValueError, match=r"expected t scalar or shape \(3,\), got"
            ):
                _per_path_t(given, 3)

    def test_convex_is_native_batch(self):
        target = cyclic_roots_system(3)
        homotopy, _ = make_homotopy_and_starts(
            target, rng=np.random.default_rng(0)
        )
        assert isinstance(homotopy, ConvexHomotopy)
        assert isinstance(homotopy, BatchHomotopy)


class TestBatchedSystemEvaluation:
    def test_evaluate_and_jacobian_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        sys = katsura_system(4)
        pts = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        res, jac = sys.evaluate_and_jacobian_many(pts)
        assert res.shape == (9, 5) and jac.shape == (9, 5, 5)
        for i in range(9):
            r, j = sys.evaluate_and_jacobian(pts[i])
            assert np.allclose(res[i], r, atol=1e-10)
            assert np.allclose(jac[i], j, atol=1e-10)

    def test_evaluate_many_shares_the_scatter_path(self):
        rng = np.random.default_rng(8)
        sys = cyclic_roots_system(5)
        pts = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        res, _ = sys.evaluate_and_jacobian_many(pts)
        np.testing.assert_array_equal(sys.evaluate_many(pts), res)

    def test_shape_validation(self):
        sys = cyclic_roots_system(3)
        with pytest.raises(ValueError):
            sys.evaluate_and_jacobian_many(np.zeros((2, 4), dtype=complex))


class TestBatchNewton:
    def test_converges_like_scalar(self):
        h = SqrtHomotopy()
        X = np.array([[1.9 + 0j], [-1.9 + 0j], [2.2 + 0j]])
        out = batch_newton_correct(h, X, 1.0, tol=1e-12)
        assert out.converged.all()
        assert np.allclose(np.abs(out.x[:, 0]), 2.0, atol=1e-10)
        for i, x0 in enumerate(X):
            scalar = newton_correct(h, x0, 1.0, tol=1e-12)
            assert np.allclose(out.x[i], scalar.x)
            assert out.iterations[i] == scalar.iterations

    def test_singular_member_is_masked_not_fatal(self):
        """One singular path must not poison the rest of the batch."""
        h = SqrtHomotopy()
        # x = 0 has a singular Jacobian; its neighbours are fine
        X = np.array([[1.9 + 0j], [0.0 + 0j], [-2.1 + 0j]])
        out = batch_newton_correct(h, X, 1.0, tol=1e-12)
        assert out.singular[1] and not out.converged[1]
        assert not out.singular[0] and not out.singular[2]
        assert out.converged[0] and out.converged[2]
        assert abs(out.x[0, 0] - 2.0) < 1e-10
        assert abs(out.x[2, 0] + 2.0) < 1e-10
        # the singular path is left where Newton abandoned it
        assert out.x[1, 0] == 0.0

    def test_active_mask_skips_paths(self):
        h = SqrtHomotopy()
        X = np.array([[1.9 + 0j], [1.9 + 0j]])
        out = batch_newton_correct(
            h, X, 1.0, active=np.array([True, False])
        )
        assert out.converged[0] and not out.converged[1]
        assert out.x[1, 0] == 1.9  # untouched
        assert np.isinf(out.residual[1])

    def test_matches_scalar_on_polynomial_homotopy(self):
        target = cyclic_roots_system(4)
        homotopy, starts = make_homotopy_and_starts(
            target, rng=np.random.default_rng(3)
        )
        X = np.array(starts)
        out = batch_newton_correct(homotopy, X, 0.0, tol=1e-10)
        for i, s in enumerate(starts):
            scalar = newton_correct(homotopy, s, 0.0, tol=1e-10)
            assert out.converged[i] == scalar.converged
            assert np.allclose(out.x[i], scalar.x, atol=1e-10)


class TestBatchTrackerBasics:
    def test_empty_batch(self):
        assert BatchTracker().track_batch(SqrtHomotopy(), []) == []

    def test_two_branches(self):
        results = BatchTracker().track_batch(SqrtHomotopy(), [[1.0], [-1.0]])
        assert [r.path_id for r in results] == [0, 1]
        assert all(r.success for r in results)
        assert abs(results[0].solution[0] - 2.0) < 1e-9
        assert abs(results[1].solution[0] + 2.0) < 1e-9

    def test_stats_populated(self):
        (r,) = BatchTracker().track_batch(SqrtHomotopy(), [[1.0]])
        assert r.stats.steps_accepted > 0
        assert r.stats.newton_iterations > 0
        assert r.stats.seconds >= 0
        assert r.stats.t_reached == pytest.approx(1.0)

    def test_bad_start_fails_without_stalling_batch(self):
        results = BatchTracker().track_batch(SqrtHomotopy(), [[0.0], [1.0]])
        assert results[0].status is PathStatus.FAILED
        assert results[1].success
        # like PathTracker, a path failing the initial check reports its
        # original start point, not a partially-Newton-iterated one
        assert results[0].solution[0] == 0.0

    def test_failed_initial_check_keeps_start_point(self):
        """Newton halves x each sweep from a far start but cannot converge
        within the iteration cap; the FAILED result must still carry the
        caller's start point, exactly as PathTracker reports it."""
        far = [1e6]
        scalar = PathTracker().track(SqrtHomotopy(), far)
        (batch,) = BatchTracker().track_batch(SqrtHomotopy(), [far])
        assert scalar.status is PathStatus.FAILED
        assert batch.status is PathStatus.FAILED
        assert scalar.solution[0] == 1e6
        assert batch.solution[0] == 1e6

    def test_t_start_validation(self):
        with pytest.raises(ValueError):
            BatchTracker().track_batch(SqrtHomotopy(), [[1.0]], t_start=1.0)

    def test_custom_path_ids(self):
        results = BatchTracker().track_batch(
            SqrtHomotopy(), [[1.0], [-1.0]], path_ids=[7, 9]
        )
        assert [r.path_id for r in results] == [7, 9]


class TestScalarParity:
    """One loop: ``PathTracker.track`` is the one-row case of the front."""

    @pytest.mark.parametrize("kernel", ["naive", "slp"])
    @pytest.mark.parametrize("predictor", ["euler", "hermite", "cubic"])
    @pytest.mark.parametrize("system", ["cyclic5", "katsura5"])
    def test_track_is_row_of_the_front(self, system, predictor, kernel):
        """Regression for the hand-kept scalar loop's drift: under
        hermite it ended 49 of these 60 cyclic-5 paths (27 of 32 on
        katsura-5) at last-bit-different endpoints, and the diverging
        cyclic-5 paths 7 / 44 / 45 took other step sequences (path 7:
        323 accepted / 11 rejected scalar, 363 / 10 in the front)."""
        if system == "cyclic5":
            target, n_paths = cyclic_roots_system(5), 60
        else:
            target, n_paths = katsura_system(5), None
        homotopy, starts = make_homotopy_and_starts(
            target, rng=np.random.default_rng(3), kernel=kernel
        )
        starts = starts[:n_paths]
        options = TrackerOptions(predictor=predictor)
        front = BatchTracker(options).track_batch(homotopy, starts)
        tracker = PathTracker(options)
        for i, row in enumerate(front):
            one = tracker.track(homotopy, starts[i], path_id=i)
            assert one.status == row.status
            assert np.array_equal(one.solution, row.solution)
            for counter in (
                "steps_accepted", "steps_rejected", "newton_iterations",
                "jacobian_evaluations", "tangents_recycled",
            ):
                assert getattr(one.stats, counter) == getattr(row.stats, counter)
        if system == "cyclic5":
            # the slice exercises divergence culling, not just successes
            assert not any(front[i].success for i in (7, 44, 45))

    def test_pieri_edge_is_row_of_the_level_front_under_cubic(self):
        """The Pieri default's history is per row: an edge tracked alone,
        a one-job ``run_jobs_batched`` front, ends where its row of the
        level-wide front does (1e-8, not bits: the bracket GEMMs round
        by shape)."""
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(21))
        solver = PieriSolver(instance, seed=22)
        assert solver.tracker.options.predictor == "cubic"
        report = PieriReport(instance)
        jobs = solver.initial_jobs()
        while jobs:
            wide, stats = solver.run_jobs_batched(jobs)
            for job, row in zip(jobs, wide):
                (one,), _ = solver.run_jobs_batched([job])
                assert one.path_result.status == row.path_result.status
                assert np.max(np.abs(one.matrix - row.matrix)) < 1e-8
            jobs = report.record_front(
                jobs, [r.matrix for r in wide], stats, 0.0
            )
        assert report.failures == 0 and report.n_solutions == 8

    def test_solve_rejects_unknown_mode(self, monkeypatch):
        with pytest.raises(ValueError):
            solve(cyclic_roots_system(3), mode="bogus")

        # ... before any start-system work: a typo must not cost the
        # mixed-cell enumeration and phase 1 of the polyhedral route
        def no_cells(*args, **kwargs):
            raise AssertionError("start system built before mode was checked")

        monkeypatch.setattr("repro.polyhedral.homotopy.mixed_cells", no_cells)
        with pytest.raises(ValueError):
            solve(cyclic_roots_system(3), start="polyhedral", mode="bogus")


class TestLiveLadder:
    """A row that climbs the re-track ladder re-enters the running
    front: each attempt is the row tracked alone on its rung's options,
    and the kept attempt absorbs the ones it supersedes."""

    B = slp.BLOCK
    attempts: dict = {}

    @pytest.mark.parametrize("npts", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_reentered_row_is_its_rung_alone(self, npts):
        # 8 katsura-3 starts cycled over the front: each start's rows
        # collide, and an 8-step budget fails the hermite first pass of
        # every path, so rows re-enter both ways and climb rungs 1 to 3
        # beside hermite rows of the first pass
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(3), rng=np.random.default_rng(5), kernel="slp"
        )
        starts = np.asarray(starts)
        which = np.arange(npts) % len(starts)
        options = TrackerOptions(predictor="hermite", max_steps=8)
        ladder = Ladder(options, retry_failed=True)
        front = BatchTracker(options).track_batch(
            homotopy, starts[which], ladder=ladder
        )
        attempts = self.attempts  # shared by the front sizes

        def alone(start, rung):
            if (start, rung) not in attempts:
                attempts[start, rung] = BatchTracker(
                    ladder.sets[rung]
                ).track_batch(homotopy, starts[[start]])[0]
            return dataclasses.replace(
                attempts[start, rung],
                stats=dataclasses.replace(attempts[start, rung].stats),
            )

        fields = [
            f.name for f in dataclasses.fields(TrackStats) if f.name != "seconds"
        ]
        climbed = [ladder.rung.get(i, 0) for i in range(npts)]
        assert min(climbed) >= 1
        for i, row in enumerate(front):
            kept = alone(which[i], 0)
            for rung in range(1, climbed[i] + 1):
                kept = Ladder(options).keep(i, kept, alone(which[i], rung))
            assert (row.path_id, row.status) == (i, kept.status)
            assert row.solution.tobytes() == kept.solution.tobytes()
            assert [getattr(row.stats, f) for f in fields] == [
                getattr(kept.stats, f) for f in fields
            ]
        if npts > len(starts):
            assert max(climbed) == 3
            assert ladder.collisions > 0 and ladder.stable
