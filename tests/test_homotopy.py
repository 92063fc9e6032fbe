"""Integration tests: start systems + gamma homotopy + tracker = solver."""

import numpy as np
import pytest

from repro.homotopy import (
    ConvexHomotopy,
    LinearProductStart,
    distinct_solutions,
    random_gamma,
    solve,
    total_degree_start_solutions,
    total_degree_start_system,
)
from repro.polynomials import PolynomialSystem, variables
from repro.systems import random_dense_system


class TestStartSystems:
    def test_total_degree_roots_solve_start_system(self):
        x, y = variables(2)
        target = PolynomialSystem([x**2 + y - 1, x * y**3 - 2])
        rng = np.random.default_rng(0)
        start, consts = total_degree_start_system(target, rng)
        assert start.degrees() == (2, 4)
        roots = list(total_degree_start_solutions(target.degrees(), consts))
        assert len(roots) == 8
        for r in roots:
            assert start.residual_norm(r) < 1e-10

    def test_total_degree_rejects_non_square(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            total_degree_start_system(PolynomialSystem([x + y]))

    def test_total_degree_rejects_constant_equation(self):
        x, y = variables(2)
        from repro.polynomials import constant

        with pytest.raises(ValueError):
            total_degree_start_system(
                PolynomialSystem([constant(1, 2), x + y])
            )

    def test_linear_product_roots_solve_start_system(self):
        x, y = variables(2)
        target = PolynomialSystem([x**2 + y**2 - 1, x * y - 1])
        lp = LinearProductStart(target, np.random.default_rng(1))
        start = lp.system()
        sols = list(lp.solutions())
        assert len(sols) == 4
        for s in sols:
            assert start.residual_norm(s) < 1e-8

    def test_gamma_on_unit_circle(self):
        g = random_gamma(np.random.default_rng(2))
        assert abs(abs(g) - 1) < 1e-12


class TestConvexHomotopy:
    def test_endpoints(self):
        x, y = variables(2)
        f = PolynomialSystem([x - 1, y - 2])
        g = PolynomialSystem([x + 1, y + 2])
        h = ConvexHomotopy(g, f, gamma=1.0)
        pt = np.array([5.0, 7.0], dtype=complex)
        assert np.allclose(h.evaluate(pt, 0.0), g.evaluate(pt))
        assert np.allclose(h.evaluate(pt, 1.0), f.evaluate(pt))

    def test_jacobian_t_analytic(self):
        x, y = variables(2)
        f = PolynomialSystem([x**2 - 1, y - 2])
        g = PolynomialSystem([x + 1, y**2 + 2])
        h = ConvexHomotopy(g, f, gamma=0.5 + 0.1j)
        pt = np.array([0.3 + 0.2j, -0.4j])
        fd = (h.evaluate(pt, 0.5 + 1e-7) - h.evaluate(pt, 0.5)) / 1e-7
        assert np.allclose(h.jacobian_t(pt, 0.5), fd, atol=1e-5)

    def test_shape_mismatch_rejected(self):
        x, y = variables(2)
        (z,) = variables(1)
        with pytest.raises(ValueError):
            ConvexHomotopy(PolynomialSystem([z]), PolynomialSystem([x, y]))

    def test_zero_gamma_rejected(self):
        x, y = variables(2)
        f = PolynomialSystem([x, y])
        with pytest.raises(ValueError):
            ConvexHomotopy(f, f, gamma=0.0)


class TestSolve:
    def test_univariate_roots(self):
        (x,) = variables(1)
        target = PolynomialSystem([x**3 - 1])
        report = solve(target, rng=np.random.default_rng(3))
        assert report.n_paths == 3
        assert report.n_solutions == 3
        for s in report.solutions:
            assert abs(s[0] ** 3 - 1) < 1e-9

    def test_two_circles(self):
        x, y = variables(2)
        target = PolynomialSystem([x**2 + y**2 - 4, (x - 1) ** 2 + y**2 - 4])
        report = solve(target, rng=np.random.default_rng(4))
        # two finite intersection points; 2 of 4 paths diverge
        assert report.n_solutions == 2
        for s in report.solutions:
            assert target.residual_norm(s) < 1e-8

    def test_random_dense_reaches_bezout(self):
        target = random_dense_system(2, degree=2, rng=np.random.default_rng(5))
        report = solve(target, rng=np.random.default_rng(6))
        assert report.n_paths == 4
        assert report.n_solutions == 4
        assert report.summary["diverged"] == 0

    def test_linear_product_start(self):
        x, y = variables(2)
        target = PolynomialSystem([x**2 + y**2 - 4, (x - 1) ** 2 + y**2 - 4])
        report = solve(
            target, start="linear_product", rng=np.random.default_rng(7)
        )
        assert report.n_solutions == 2

    def test_unknown_start_kind(self):
        x, y = variables(2)
        target = PolynomialSystem([x, y])
        with pytest.raises(ValueError):
            solve(target, start="bogus")

    def test_distinct_solutions_dedup(self):
        from repro.tracker import PathResult, PathStatus, TrackStats

        a = PathResult(
            PathStatus.SUCCESS, np.array([1.0 + 0j]), np.array([0j]), 0.0, TrackStats()
        )
        b = PathResult(
            PathStatus.SUCCESS,
            np.array([1.0 + 1e-9j]),
            np.array([0j]),
            0.0,
            TrackStats(),
        )
        c = PathResult(
            PathStatus.DIVERGED, np.array([9e9 + 0j]), np.array([0j]), 1.0, TrackStats()
        )
        assert len(distinct_solutions([a, b, c])) == 1
