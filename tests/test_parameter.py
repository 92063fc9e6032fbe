"""Tests for coefficient-parameter continuation and the placement oracle."""

import numpy as np
import pytest

from repro.control import PolePlacementOracle, random_plant
from repro.schubert import (
    PieriInstance,
    PieriParameterHomotopy,
    PieriSolver,
    continue_to_instance,
    continue_to_instances,
    pieri_root_count,
    verify_solutions,
)


@pytest.fixture(scope="module")
def solved_base():
    base = PieriInstance.random(2, 2, 0, np.random.default_rng(0))
    report = PieriSolver(base, seed=1).solve()
    assert report.n_solutions == 2
    return base, report.solutions


class TestParameterHomotopy:
    def test_start_solutions_are_exact_roots(self, solved_base):
        base, sols = solved_base
        target = PieriInstance.random(2, 2, 0, np.random.default_rng(2))
        hom = PieriParameterHomotopy(base, target, np.random.default_rng(3))
        for sol in sols:
            x0 = hom.from_matrix(sol)
            assert np.max(np.abs(hom.evaluate(x0, 0.0))) < 1e-8

    def test_target_conditions_at_t1(self, solved_base):
        base, _ = solved_base
        target = PieriInstance.random(2, 2, 0, np.random.default_rng(4))
        hom = PieriParameterHomotopy(base, target, np.random.default_rng(5))
        ks, ss = hom._paths_at(1.0)
        for k, kt in zip(ks, target.planes):
            assert np.allclose(k, kt)
        for s, st in zip(ss, target.points):
            assert abs(s - st) < 1e-12

    def test_jacobian_finite_difference(self, solved_base):
        base, sols = solved_base
        target = PieriInstance.random(2, 2, 0, np.random.default_rng(6))
        hom = PieriParameterHomotopy(base, target, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x = rng.standard_normal(hom.dim) + 1j * rng.standard_normal(hom.dim)
        t = 0.3
        jac = hom.jacobian_x(x, t)
        h = 1e-7
        for k in range(hom.dim):
            xp = x.copy()
            xp[k] += h
            fd = (hom.evaluate(xp, t) - hom.evaluate(x, t)) / h
            assert np.allclose(jac[:, k], fd, atol=1e-5)

    def test_mismatched_problems_rejected(self):
        a = PieriInstance.random(2, 2, 0, np.random.default_rng(9))
        b = PieriInstance.random(3, 2, 0, np.random.default_rng(10))
        with pytest.raises(ValueError):
            PieriParameterHomotopy(a, b)

    def test_chart_roundtrip(self, solved_base):
        base, sols = solved_base
        target = PieriInstance.random(2, 2, 0, np.random.default_rng(11))
        hom = PieriParameterHomotopy(base, target, np.random.default_rng(12))
        x = hom.from_matrix(sols[0])
        assert np.allclose(hom.from_matrix(hom.to_matrix(x)), x)


class TestContinuation:
    @pytest.mark.parametrize("m,p,q", [(2, 2, 0), (3, 2, 0), (2, 2, 1)])
    def test_full_solution_set_transported(self, m, p, q):
        base = PieriInstance.random(m, p, q, np.random.default_rng(13))
        report = PieriSolver(base, seed=14).solve()
        target = PieriInstance.random(m, p, q, np.random.default_rng(15))
        sols, results = continue_to_instance(
            base, report.solutions, target, rng=np.random.default_rng(16)
        )
        v = verify_solutions(target, sols)
        assert v.ok, str(v)
        assert len(sols) == pieri_root_count(m, p, q)
        assert all(r.success for r in results)

    def test_fewer_paths_than_tree(self):
        """The offline/online asymmetry: d(m,p,q) << total tree jobs."""
        base = PieriInstance.random(2, 2, 1, np.random.default_rng(17))
        report = PieriSolver(base, seed=18).solve()
        tree_jobs = sum(report.jobs_per_level.values())
        assert tree_jobs == 37  # sum of (2,2,1) level counts
        assert pieri_root_count(2, 2, 1) == 8 < tree_jobs


class TestStackedContinuation:
    def test_duplicate_retrack_reaches_every_query(self, monkeypatch):
        """B = 3 stack: the shared duplicate-retrack loop indexes its
        result list and the re-track callback by path id, so each query
        must hand it ids 0..d-1 — stacked row ids raised IndexError for
        every query but the first."""
        base = PieriInstance.random(2, 2, 0, np.random.default_rng(40))
        report = PieriSolver(base, seed=41).solve()
        rng = np.random.default_rng(42)
        targets = [PieriInstance.random(2, 2, 0, rng) for _ in range(3)]
        retracked = []

        def every_path_collides(results, tol=1e-6):
            ids = [r.path_id for r in results if r.success]
            retracked.append(ids)
            return ids

        monkeypatch.setattr(
            "repro.tracker.result.duplicate_path_ids", every_path_collides
        )
        pairs = continue_to_instances(
            base, report.solutions, targets, rng=np.random.default_rng(43)
        )
        # one escalation rung per query re-tracks both of its paths; they
        # reproduce their endpoints, so the loop settles on the next look
        assert [ids for ids in retracked if ids] == [[0, 1]] * 3
        for target, (sols, results) in zip(targets, pairs):
            assert [r.path_id for r in results] == [0, 1]
            assert all(r.success for r in results)
            v = verify_solutions(target, sols)
            assert v.ok, str(v)


class TestOracle:
    def test_train_and_place(self):
        oracle = PolePlacementOracle.train(2, 2, 0, seed=19)
        assert oracle.n_solutions == 2
        assert oracle.offline_paths == 7
        plant = random_plant(2, 2, 0, np.random.default_rng(20))
        poles = [-1 + 1j, -1 - 1j, -2.5, -3.5]
        result = oracle.place(plant, poles, seed=21)
        assert result.n_laws == 2
        assert result.max_pole_error() < 1e-6

    def test_many_queries_same_oracle(self):
        oracle = PolePlacementOracle.train(2, 2, 0, seed=22)
        for k in range(3):
            plant = random_plant(2, 2, 0, np.random.default_rng(30 + k))
            poles = [-1 - 0.2 * k + 1j, -1 - 0.2 * k - 1j, -2.0, -3.0 - 1j]
            result = oracle.place(plant, poles, seed=k)
            assert result.n_laws == 2
            assert result.max_pole_error() < 1e-6

    def test_validation_errors(self):
        oracle = PolePlacementOracle.train(2, 2, 0, seed=23)
        wrong_shape = random_plant(3, 2, 0, np.random.default_rng(24))
        with pytest.raises(ValueError):
            oracle.place(wrong_shape, [-1, -2, -3, -4, -5, -6])
        plant = random_plant(2, 2, 0, np.random.default_rng(25))
        with pytest.raises(ValueError):
            oracle.place(plant, [-1, -2, -3])  # wrong pole count

    def test_dynamic_oracle(self):
        oracle = PolePlacementOracle.train(2, 2, 1, seed=26)
        assert oracle.n_solutions == 8
        plant = random_plant(2, 2, 1, np.random.default_rng(27))
        poles = [complex(-1.2 - 0.3 * k, 0.8 * (-1) ** k) for k in range(8)]
        result = oracle.place(plant, poles, seed=28)
        assert result.n_laws >= 7  # rare boundary cases tolerated
        assert result.max_pole_error() < 1e-6
