"""Unit tests for repro.polynomials.system (compiled evaluation)."""

import numpy as np
import pytest

from repro.polynomials import Polynomial, PolynomialSystem, variables


def _random_point(nvars, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)


class TestBasics:
    def setup_method(self):
        self.x, self.y = variables(2, ["x", "y"])
        self.sys = PolynomialSystem([self.x**2 + self.y - 1, self.x - self.y])

    def test_shape(self):
        assert self.sys.neqs == 2
        assert self.sys.nvars == 2
        assert self.sys.is_square()
        assert len(self.sys) == 2

    def test_indexing_iteration(self):
        assert self.sys[0] == self.x**2 + self.y - 1
        assert list(self.sys)[1] == self.x - self.y

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolynomialSystem([])

    def test_mixed_nvars_rejected(self):
        (z,) = variables(1)
        with pytest.raises(ValueError):
            PolynomialSystem([self.x, z])

    def test_degrees_and_bezout(self):
        assert self.sys.degrees() == (2, 1)
        assert self.sys.total_degree_bound() == 2


class TestEvaluation:
    def setup_method(self):
        x, y, z = variables(3)
        self.polys = [
            x**3 - 2 * y * z + 1,
            x * y * z - 4j,
            y**2 + z**2 - x,
        ]
        self.sys = PolynomialSystem(self.polys)

    def test_matches_termwise(self):
        pt = _random_point(3, seed=3)
        fast = self.sys.evaluate(pt)
        slow = np.array([p.evaluate(pt) for p in self.polys])
        assert np.allclose(fast, slow)

    def test_jacobian_matches_symbolic(self):
        pt = _random_point(3, seed=4)
        jac = self.sys.jacobian_at(pt)
        sym = self.sys.jacobian_system()
        expected = np.array([[sym[i][j].evaluate(pt) for j in range(3)] for i in range(3)])
        assert np.allclose(jac, expected)

    def test_jacobian_finite_difference(self):
        pt = _random_point(3, seed=5)
        jac = self.sys.jacobian_at(pt)
        h = 1e-7
        for v in range(3):
            pt_p = pt.copy()
            pt_p[v] += h
            fd = (self.sys.evaluate(pt_p) - self.sys.evaluate(pt)) / h
            assert np.allclose(jac[:, v], fd, atol=1e-5)

    def test_evaluate_and_jacobian_consistent(self):
        pt = _random_point(3, seed=6)
        res, jac = self.sys.evaluate_and_jacobian(pt)
        assert np.allclose(res, self.sys.evaluate(pt))
        assert np.allclose(jac, self.sys.jacobian_at(pt))

    def test_evaluate_many(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((11, 3)) + 1j * rng.standard_normal((11, 3))
        bulk = self.sys.evaluate_many(pts)
        assert bulk.shape == (11, 3)
        for k in range(11):
            assert np.allclose(bulk[k], self.sys.evaluate(pts[k]))

    def test_zero_at_zero_exponent_point(self):
        # monomial with exponent zero at coordinate zero must not produce 0**0 issues
        x, y = variables(2)
        sys = PolynomialSystem([x + 1, y**2 + x])
        res = sys.evaluate([0, 0])
        assert np.allclose(res, [1, 0])
        jac = sys.jacobian_at([0, 0])
        assert np.allclose(jac, [[1, 0], [1, 0]])

    def test_residual_norm(self):
        x, y = variables(2)
        sys = PolynomialSystem([x - 1, y - 2])
        assert sys.residual_norm([1, 2]) < 1e-15
        assert sys.residual_norm([0, 0]) == 2.0

    def test_wrong_point_shape(self):
        with pytest.raises(ValueError):
            self.sys.evaluate([1, 2])
        with pytest.raises(ValueError):
            self.sys.jacobian_at([1, 2])


class TestTransforms:
    def test_map(self):
        x, y = variables(2)
        sys = PolynomialSystem([x, y]).map(lambda p: p + 1)
        assert sys[0] == x + 1

    def test_repr_str(self):
        x, y = variables(2, ["x", "y"])
        sys = PolynomialSystem([x + y])
        assert "PolynomialSystem" in repr(sys)
        assert "x" in str(sys)


class TestScratchBuffers:
    def test_batched_evaluation_is_thread_safe(self):
        # the per-shape scratch buffers (powers / gather / product) are
        # thread-local: serve's executor solves and the fleet worker's
        # jobs can share one compiled-tables object across threads, and
        # a shared ``out=`` target makes
        # np.take raise "WRITEBACKIFCOPY base is read-only" under
        # contention (and would silently corrupt results otherwise)
        import concurrent.futures

        from repro.systems import cyclic_roots_system

        system = cyclic_roots_system(5)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        res0, jac0 = system.evaluate_and_jacobian_many(X)

        def work(_):
            out = []
            for _ in range(50):
                out.append(system.evaluate_and_jacobian_many(X))
            return out

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            rounds = list(pool.map(work, range(4)))
        for batch in rounds:
            for res, jac in batch:
                np.testing.assert_array_equal(res, res0)
                np.testing.assert_array_equal(jac, jac0)
