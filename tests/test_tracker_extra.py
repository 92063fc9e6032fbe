"""Additional tracker behaviours: resume, refinement, step control."""

import numpy as np
import pytest

from repro.polynomials import PolynomialSystem, variables
from repro.tracker import (
    BatchHomotopy,
    PathStatus,
    PathTracker,
    TrackerOptions,
    refine_solutions,
)
from repro.tracker.interface import _per_path_t


class CubicHomotopy(BatchHomotopy):
    """H(x,t) = x^3 - (1 + 7t): single smooth path from 1 to 2."""

    @property
    def dim(self):
        return 1

    def evaluate_batch(self, X, t):
        return X ** 3 - (1 + 7 * _per_path_t(t, len(X))[:, None])

    def jacobian_x_batch(self, X, t):
        return 3 * X[:, :, None] ** 2

    def jacobian_t_batch(self, X, t):
        return np.full((len(X), 1), -7.0 + 0j)


class TestResume:
    def test_t_start_resume_matches_full_track(self):
        h = CubicHomotopy()
        tracker = PathTracker()
        full = tracker.track(h, [1.0])
        # track halfway, then resume from there
        half_point = np.array([(1 + 7 * 0.5) ** (1 / 3)])
        resumed = tracker.track(h, half_point, t_start=0.5)
        assert resumed.success
        assert np.allclose(resumed.solution, full.solution, atol=1e-9)

    def test_t_start_validation(self):
        h = CubicHomotopy()
        with pytest.raises(ValueError):
            PathTracker().track(h, [1.0], t_start=1.0)
        with pytest.raises(ValueError):
            PathTracker().track(h, [1.0], t_start=-0.1)

    def test_t_start_bad_point_fails(self):
        h = CubicHomotopy()
        result = PathTracker().track(h, [-5.0], t_start=0.5)
        # Newton at t=0.5 from -5 converges to a different cube root or
        # fails; either way the endpoint must solve H(., 1) if SUCCESS
        if result.success:
            assert abs(result.solution[0] ** 3 - 8) < 1e-6


class TestStepControl:
    def test_max_steps_enforced(self):
        h = CubicHomotopy()
        opts = TrackerOptions(max_steps=2, initial_step=1e-4, max_step=1e-4,
                              min_step=1e-9)
        result = PathTracker(opts).track(h, [1.0])
        assert result.status is PathStatus.FAILED
        assert result.stats.total_steps <= 3

    def test_small_max_step_still_succeeds(self):
        h = CubicHomotopy()
        opts = TrackerOptions(initial_step=0.01, max_step=0.02)
        result = PathTracker(opts).track(h, [1.0])
        assert result.success
        # small steps -> many accepted steps
        assert result.stats.steps_accepted >= 40

    def test_expansion_reduces_steps(self):
        h = CubicHomotopy()
        slow = TrackerOptions(initial_step=0.01, max_step=0.01)
        fast = TrackerOptions(initial_step=0.01, max_step=0.2, expand_after=2)
        n_slow = PathTracker(slow).track(h, [1.0]).stats.steps_accepted
        n_fast = PathTracker(fast).track(h, [1.0]).stats.steps_accepted
        assert n_fast < n_slow


class TestRefineSolutions:
    def test_refines_success_results(self):
        (x,) = variables(1)
        target = PolynomialSystem([x**3 - 8])
        h = CubicHomotopy()
        results = PathTracker().track_many(h, [[1.0]])
        # blur the solution, then refine against the target system
        results[0].solution = results[0].solution + 1e-5
        refined = refine_solutions(target, results, tol=1e-13)
        assert abs(refined[0].solution[0] - 2.0) < 1e-12
        assert refined[0].residual < 1e-12

    def test_leaves_failures_untouched(self):
        (x,) = variables(1)
        target = PolynomialSystem([x**3 - 8])
        from repro.tracker import PathResult, TrackStats

        fail = PathResult(
            PathStatus.FAILED,
            np.array([123.0 + 0j]),
            np.array([1.0 + 0j]),
            1.0,
            TrackStats(),
        )
        out = refine_solutions(target, [fail])
        assert out[0].solution[0] == 123.0

    def test_keeps_the_endpoint_when_refinement_does_not_converge(self):
        """x^2 + 1 from a real start: Newton stays on the real axis and
        wanders for ever.  The tracker's endpoint must survive that, not
        be replaced by wherever the twentieth iterate happened to be."""
        (x,) = variables(1)
        target = PolynomialSystem([x**2 + 1])
        from repro.tracker import PathResult, TrackStats, newton_refine_system

        start = np.array([0.7 + 0j])
        assert not newton_refine_system(target, start).converged
        ok = PathResult(
            PathStatus.SUCCESS, start.copy(), start.copy(), 1e-9, TrackStats()
        )
        (out,) = refine_solutions(target, [ok])
        assert np.array_equal(out.solution, start) and out.residual == 1e-9


class TestStatsBookkeeping:
    def test_total_steps_sum(self):
        from repro.tracker import TrackStats

        s = TrackStats(steps_accepted=5, steps_rejected=2)
        assert s.total_steps == 7

    def test_seconds_recorded(self):
        result = PathTracker().track(CubicHomotopy(), [1.0])
        assert result.stats.seconds > 0

    def test_path_repr(self):
        result = PathTracker().track(CubicHomotopy(), [1.0], path_id=42)
        assert "42" in repr(result)
        assert "success" in repr(result)
