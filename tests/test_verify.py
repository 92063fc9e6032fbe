"""Tests for the independent Schubert solution verifier."""

import numpy as np
import pytest

from repro.schubert import (
    PieriInstance,
    PieriSolver,
    verify_solutions,
)


@pytest.fixture(scope="module")
def solved_220():
    instance = PieriInstance.random(2, 2, 0, np.random.default_rng(0))
    report = PieriSolver(instance, seed=1).solve()
    return instance, report


class TestVerifier:
    def test_accepts_valid_solution_set(self, solved_220):
        instance, report = solved_220
        v = verify_solutions(instance, report.solutions)
        assert v.ok, str(v)
        assert v.n_solutions == v.expected_count == 2
        assert v.max_residual < 1e-8
        assert v.pattern_violations == 0
        assert v.chart_violations == 0

    def test_detects_missing_solution(self, solved_220):
        instance, report = solved_220
        v = verify_solutions(instance, report.solutions[:1])
        assert not v.ok
        assert any("count" in issue for issue in v.issues)

    def test_detects_duplicate(self, solved_220):
        instance, report = solved_220
        v = verify_solutions(
            instance, [report.solutions[0], report.solutions[0].copy()]
        )
        assert not v.ok
        assert any("collide" in issue for issue in v.issues)

    def test_detects_wrong_residual(self, solved_220):
        instance, report = solved_220
        bad = report.solutions[0].copy()
        # perturb a free coefficient (not a pivot)
        idx = np.argwhere(np.abs(bad) > 1e-12)[0]
        bad[tuple(idx)] += 0.1
        v = verify_solutions(instance, [bad, report.solutions[1]])
        assert not v.ok
        assert any("residual" in issue for issue in v.issues)

    def test_detects_pattern_violation(self, solved_220):
        instance, report = solved_220
        bad = report.solutions[0].copy()
        # the (2,2,0) root pattern [3 4] leaves (row 4, col 1) zero
        bad[3, 0] = 0.5
        v = verify_solutions(instance, [bad, report.solutions[1]])
        assert v.pattern_violations >= 1
        assert not v.ok

    def test_detects_chart_violation(self, solved_220):
        instance, report = solved_220
        bad = report.solutions[0] * 2.0  # pivots no longer 1
        v = verify_solutions(instance, [bad, report.solutions[1]])
        assert v.chart_violations >= 1

    def test_detects_wrong_shape(self, solved_220):
        instance, report = solved_220
        v = verify_solutions(
            instance, [np.zeros((2, 2)), report.solutions[1]]
        )
        assert not v.ok

    def test_str_rendering(self, solved_220):
        instance, report = solved_220
        assert "OK" in str(verify_solutions(instance, report.solutions))
        assert "FAILED" in str(verify_solutions(instance, []))

    def test_verifies_parallel_results(self):
        from repro.parallel import solve_pieri_parallel

        instance = PieriInstance.random(2, 2, 0, np.random.default_rng(2))
        par = solve_pieri_parallel(instance, mode="serial", seed=3)
        assert verify_solutions(instance, par.solutions).ok
