"""The bracket evaluator of the Pieri conditions against dense oracles.

``intersection_residuals`` / ``evaluate_map`` / ``np.linalg.det`` stay the
reference: every shape class the evaluator has a code path for — p = 1
(empty monomials), p = 2, p = 3 (products of two unknowns), m = 1, q > 0
(several powers of s per column) and a re-pinned chart — is checked
against them, Jacobians and t-derivatives against central differences.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import slp
from repro.linalg import random_plane
from repro.schubert import (
    PieriEdgeHomotopy,
    PieriInstance,
    PieriParameterHomotopy,
    PieriParameterStack,
    PieriSolver,
    PieriTree,
    evaluate_map,
    intersection_residuals,
)
from repro.schubert.brackets import (
    BracketChart,
    path_at,
    path_derivative,
    plane_brackets,
    plane_path_brackets,
)

#: p = 1, p = 2, p = 3, m = 1 and q > 0 are all present
SHAPES = [(2, 1, 1), (1, 2, 0), (2, 2, 1), (3, 2, 0), (1, 3, 1), (2, 3, 0), (3, 3, 0)]

GAMMA_S = np.exp(0.7j)
GAMMA_K = np.exp(2.1j)


def _random_edge(shape, rng, repin=False):
    """An edge homotopy at a random tree node, optionally re-pinned."""
    instance = PieriInstance.random(*shape, rng)
    nodes = [
        node
        for node in PieriTree(instance.problem).walk_bfs()
        if node.level > 0
    ]
    node = nodes[rng.integers(len(nodes))]
    n, jstar = node.level, node.columns[-1]
    pin_row = None
    if repin:
        rows = [r - 1 for r, j in node.pattern().support() if j - 1 == jstar]
        pin_row = rows[rng.integers(len(rows))]
    return PieriEdgeHomotopy(
        node.pattern(),
        jstar,
        instance.planes[:n],
        instance.points[:n],
        gamma_s=GAMMA_S,
        gamma_k=GAMMA_K,
        pin_row=pin_row,
    )


def _points(rng, npaths, dim):
    return rng.standard_normal((npaths, dim)) + 1j * rng.standard_normal(
        (npaths, dim)
    )


def _dense_edge_residual(hom, x, t):
    """All n conditions of an edge homotopy by dense determinants."""
    c = hom.to_matrix(x)
    fixed = intersection_residuals(
        c, hom.pattern, hom.planes[:-1], hom.points[:-1]
    )
    s = (1 - t) * hom.gamma_s + t * hom.points[-1]
    k = (1 - t) * hom.gamma_k * hom.k_special + t * hom.planes[-1]
    moving = np.linalg.det(np.hstack([evaluate_map(c, hom.pattern, s, t), k]))
    return np.append(fixed, moving)


def _central_jacobian(evaluate, X, t, h=1e-6):
    jac = np.empty(X.shape + (X.shape[1],), dtype=complex)
    for k in range(X.shape[1]):
        step = np.zeros(X.shape[1])
        step[k] = h
        jac[:, :, k] = (evaluate(X + step, t) - evaluate(X - step, t)) / (2 * h)
    return jac


def _central_dt(evaluate, X, t, h=1e-6):
    return (evaluate(X, t + h) - evaluate(X, t - h)) / (2 * h)


class TestPlaneBrackets:
    @pytest.mark.parametrize("amb,m", [(3, 2), (3, 1), (4, 2), (5, 2), (6, 3)])
    def test_laplace_expansion(self, amb, m):
        rng = np.random.default_rng(amb * 10 + m)
        p = amb - m
        k = random_plane(amb, m, rng)
        x = _points(rng, amb, p)
        minors = [np.linalg.det(x[list(s)]) for s in combinations(range(amb), p)]
        assert np.allclose(
            plane_brackets(k) @ minors, np.linalg.det(np.hstack([x, k]))
        )

    @pytest.mark.parametrize("amb,m", [(3, 1), (4, 2), (6, 3)])
    def test_path_brackets_are_the_polynomial(self, amb, m):
        rng = np.random.default_rng(amb)
        k0, k1 = random_plane(amb, m, rng), random_plane(amb, m, rng)
        coef = plane_path_brackets(k0, k1)
        assert coef.shape[0] == m + 1
        dcoef = path_derivative(coef)
        for t in (0.0, 0.37, 1.0, 0.4 + 0.2j):
            assert np.allclose(
                path_at(coef, t), plane_brackets((1 - t) * k0 + t * k1)
            )
            h = 1e-6
            fd = (path_at(coef, t + h) - path_at(coef, t - h)) / (2 * h)
            assert np.allclose(path_at(dcoef, t), fd, atol=1e-8)

    def test_special_start_plane_keeps_exact_zeros(self):
        """Brackets of a 0/1 start plane stay exact (no interpolation noise)."""
        k0 = np.zeros((4, 2), dtype=complex)
        k0[1, 0] = k0[3, 1] = 1.0
        k1 = random_plane(4, 2, np.random.default_rng(0))
        const = plane_path_brackets(GAMMA_K * k0, k1)[0]
        assert np.count_nonzero(const) == 1
        assert np.isclose(abs(const[np.flatnonzero(const)[0]]), 1.0)


class TestEdgeHomotopy:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("repin", [False, True])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), t=st.floats(0.02, 0.98))
    def test_matches_dense_oracle(self, shape, repin, seed, t):
        rng = np.random.default_rng([seed, *shape])
        hom = _random_edge(shape, rng, repin)
        X = _points(rng, 3, hom.dim)
        tt = np.array([t, 0.5 * t, 1.0])
        res, jac = hom.evaluate_and_jacobian_batch(X, tt)
        dense = np.array([_dense_edge_residual(hom, x, ti) for x, ti in zip(X, tt)])
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(res - dense)) < 1e-11 * scale
        fd = _central_jacobian(hom.evaluate_batch, X, tt)
        assert np.max(np.abs(jac - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))
        # t-derivative away from the clipped end; jacobians_batch agrees
        inner = np.array([t, 0.5 * t, 0.5])
        jt = hom.jacobian_t_batch(X, inner)
        fd_t = _central_dt(hom.evaluate_batch, X, inner)
        assert np.max(np.abs(jt - fd_t)) < 1e-6 * max(1.0, np.max(np.abs(fd_t)))
        jac2, jt2 = hom.jacobians_batch(X, inner)
        assert np.array_equal(jt2, jt)
        assert np.array_equal(jac2, hom.jacobian_x_batch(X, inner))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_t1_is_the_nth_condition(self, shape):
        rng = np.random.default_rng([3, *shape])
        hom = _random_edge(shape, rng)
        x = _points(rng, 1, hom.dim)[0]
        dense = intersection_residuals(
            hom.to_matrix(x), hom.pattern, hom.planes, hom.points
        )
        assert np.allclose(hom.evaluate(x, 1.0), dense, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 3, 0), (2, 1, 1)])
    def test_scalar_methods_are_one_row_batches(self, shape):
        rng = np.random.default_rng([5, *shape])
        hom = _random_edge(shape, rng)
        x = _points(rng, 1, hom.dim)[0]
        t = 0.41
        res, jac = hom.evaluate_and_jacobian_batch(x[None, :], t)
        assert np.array_equal(hom.evaluate(x, t), res[0])
        assert np.array_equal(hom.jacobian_x(x, t), jac[0])
        assert np.array_equal(hom.evaluate_and_jacobian_x(x, t)[1], jac[0])
        assert np.array_equal(
            hom.jacobian_t(x, t), hom.jacobian_t_batch(x[None, :], t)[0]
        )

    def test_complex_time_flows_through(self):
        """The Cauchy endgame evaluates on circles in the complex t-plane."""
        rng = np.random.default_rng(8)
        hom = _random_edge((2, 2, 1), rng)
        x = _points(rng, 1, hom.dim)[0]
        t = 0.9 + 0.05j
        assert np.allclose(
            hom.evaluate(x, t), _dense_edge_residual(hom, x, t), atol=1e-11
        )

    def test_rows_of_a_wide_front_evaluate_like_the_rows_alone(self):
        rng = np.random.default_rng(9)
        instance = PieriInstance.random(2, 2, 3, rng)
        node = [
            nd for nd in PieriTree(instance.problem).walk_bfs() if nd.level == 16
        ][0]
        hom = PieriSolver(instance, seed=0).make_homotopy(node)
        X = _points(rng, 40, hom.dim)
        tt = rng.random(40)
        res, jac = hom.evaluate_and_jacobian_batch(X, tt)
        res3, jac3 = hom.evaluate_and_jacobian_batch(X[:3], tt[:3])
        assert np.allclose(res[:3], res3, rtol=1e-13, atol=1e-13)
        assert np.allclose(jac[:3], jac3, rtol=1e-13, atol=1e-13)
        dense = _dense_edge_residual(hom, X[-1], tt[-1])
        assert np.allclose(res[-1], dense, rtol=1e-10, atol=1e-10)

    def test_no_determinant_is_taken_while_tracking(self, monkeypatch):
        """Every condition replays a tape: determinants are for set-up."""
        from repro.schubert import brackets

        hom = _random_edge((2, 2, 1), np.random.default_rng(10))

        def forbidden(stack):
            raise AssertionError("determinant taken at evaluation time")

        monkeypatch.setattr(brackets, "batched_det", forbidden)
        monkeypatch.setattr(np.linalg, "det", forbidden)
        X = _points(np.random.default_rng(11), 2, hom.dim)
        hom.evaluate_and_jacobian_batch(X, 0.3)
        hom.jacobians_batch(X, 0.3)


class TestParameterHomotopy:
    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16), t=st.floats(0.02, 0.98))
    def test_matches_dense_oracle(self, shape, seed, t):
        rng = np.random.default_rng([seed, *shape])
        start = PieriInstance.random(*shape, rng)
        target = PieriInstance.random(*shape, rng)
        hom = PieriParameterHomotopy(start, target, rng)
        X = _points(rng, 2, hom.dim)
        tt = np.array([t, 1.0 - t])
        res, jac = hom.evaluate_and_jacobian_batch(X, tt)
        for x, ti, row in zip(X, tt, res):
            ks, ss = hom._paths_at(ti)
            dense = intersection_residuals(hom.to_matrix(x), hom.pattern, ks, ss)
            assert np.allclose(row, dense, rtol=1e-11, atol=1e-11)
        fd = _central_jacobian(hom.evaluate_batch, X, tt)
        assert np.max(np.abs(jac - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))
        jac2, jt = hom.jacobians_batch(X, tt)
        fd_t = _central_dt(hom.evaluate_batch, X, tt)
        assert np.max(np.abs(jt - fd_t)) < 1e-6 * max(1.0, np.max(np.abs(fd_t)))
        assert np.array_equal(jac2, jac)
        assert np.array_equal(
            hom.jacobian_t(X[0], tt[0]), hom.jacobian_t_batch(X[:1], tt[:1])[0]
        )

    def test_stack_rows_equal_member_rows(self):
        rng = np.random.default_rng(12)
        start = PieriInstance.random(2, 2, 1, rng)
        members = [
            PieriParameterHomotopy(
                start, PieriInstance.random(2, 2, 1, rng), rng
            )
            for _ in range(3)
        ]
        owners = [0, 1, 1, 2, 0, 2, 2]
        stack = PieriParameterStack(members, owners)
        X = _points(rng, len(owners), stack.dim)
        tt = rng.random(len(owners))
        res, jac = stack.evaluate_and_jacobian_batch(X, tt)
        jac2, jt = stack.jacobians_batch(X, tt)
        for row, k in enumerate(owners):
            r1, j1 = members[k].evaluate_and_jacobian_batch(X[row : row + 1], tt[row])
            assert np.allclose(res[row], r1[0], rtol=1e-13, atol=1e-14)
            assert np.allclose(jac[row], j1[0], rtol=1e-13, atol=1e-14)
            assert np.allclose(
                jt[row],
                members[k].jacobian_t_batch(X[row : row + 1], tt[row])[0],
                rtol=1e-13,
                atol=1e-14,
            )
        sub = stack.restrict([1, 4, 6])
        assert np.allclose(
            sub.evaluate_batch(X[[1, 4, 6]], tt[[1, 4, 6]]),
            res[[1, 4, 6]],
            rtol=1e-13,
            atol=1e-14,
        )


class TestBracketChart:
    B = slp.BLOCK

    @pytest.mark.parametrize("shape", SHAPES)
    def test_unit_tape_replays_the_minors_of_the_map(self, shape):
        """Form (S, d) with coefficient 1 is the s**d part of det X(s)[S, :]."""
        rng = np.random.default_rng([14, *shape])
        hom = PieriParameterHomotopy(
            PieriInstance.random(*shape, rng),
            PieriInstance.random(*shape, rng),
            rng,
        )
        chart = hom._chart
        amb, p = chart.amb, chart.p
        subsets = list(combinations(range(amb), p))
        x = _points(rng, 1, hom.dim)
        pi, _ = chart.replay(chart.extend(x), hom._pluecker)
        pi = pi[0].reshape(len(subsets), chart.degrees)
        s = 0.3 - 0.8j
        X = evaluate_map(hom.to_matrix(x[0]), hom.pattern, s)
        minors = [np.linalg.det(X[list(rows)]) for rows in subsets]
        assert np.allclose(pi @ s ** np.arange(chart.degrees), minors)

    @pytest.mark.parametrize("npts", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_monomials_of_a_row_do_not_depend_on_the_front(self, npts):
        """Each row's monomials are bit for bit the ones it gets alone,
        for p = 1 (the empty product) to p = 4; at p <= 2 the replay is
        still bit for bit ``np.prod``'s (at p = 2 the product is a
        gather), so those solves keep their bits."""
        for shape in [(2, 1, 1), (2, 2, 1), (2, 3, 0), (1, 4, 0)]:
            rng = np.random.default_rng([npts, *shape])
            hom = PieriParameterHomotopy(
                PieriInstance.random(*shape, rng),
                PieriInstance.random(*shape, rng),
                rng,
            )
            chart, tape = hom._chart, hom._pluecker
            y = chart.extend(_points(rng, npts, hom.dim))
            front = chart._products(y)
            assert front.shape == (npts, chart._monomials.shape[1]), shape
            for i in range(npts):
                alone = chart._products(y[i : i + 1])
                assert alone.tobytes() == front[i : i + 1].tobytes(), (shape, i)
            if chart.p > 2:
                continue
            monomials = np.prod(y[:, chart._monomials], axis=1)
            grad = np.matmul(monomials, tape).transpose(1, 0, 2)
            value = np.matmul(grad, (y * chart._first)[:, :, None])[:, :, 0]
            got_value, got_grad = chart.replay(y, tape)
            assert got_value.tobytes() == value.tobytes(), shape
            assert got_grad.tobytes() == grad.tobytes(), shape

    def test_extend_appends_the_pinned_ones(self):
        chart = BracketChart(4, [(0, 0), (1, 1), (2, 1)], [(3, 0), (3, 1)])
        X = _points(np.random.default_rng(15), 3, 3)
        y = chart.extend(X)
        assert y.dtype == complex and y.shape == (3, 5)
        assert np.array_equal(y, np.concatenate([X, np.ones((3, 2))], axis=1))

    def test_pinned_entries_come_one_per_column_in_order(self):
        with pytest.raises(ValueError):
            BracketChart(4, [(0, 0), (1, 1)], [(3, 1), (2, 0)])
