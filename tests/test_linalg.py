"""Unit tests for repro.linalg (cofactors, planes, polynomial matrices)."""

import numpy as np
import pytest

from repro.linalg import (
    PolyMatrix,
    adjugate,
    charpoly_coefficients,
    cofactor_matrix,
    det_and_cofactors,
    orth_basis,
    plane_distance,
    random_complex_matrix,
    random_plane,
    random_unitary,
    resolvent_numerator,
    subspace_angle,
)


class TestCofactors:
    def test_cofactor_2x2(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        cof = cofactor_matrix(m)
        expected = np.array([[4.0, -3.0], [-2.0, 1.0]])
        assert np.allclose(cof, expected)

    def test_adjugate_identity(self):
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            m = random_complex_matrix(n, n, rng)
            adj = adjugate(m)
            det = np.linalg.det(m)
            assert np.allclose(adj @ m, det * np.eye(n), atol=1e-9 * max(1, abs(det)))

    def test_det_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        m = random_complex_matrix(5, 5, rng)
        _, cof = det_and_cofactors(m)
        h = 1e-7
        for i in range(5):
            for j in range(5):
                mp = m.copy()
                mp[i, j] += h
                fd = (np.linalg.det(mp) - np.linalg.det(m)) / h
                assert abs(fd - cof[i, j]) < 1e-4 * max(1.0, abs(cof[i, j]))

    def test_det_and_cofactors_consistent(self):
        rng = np.random.default_rng(2)
        m = random_complex_matrix(6, 6, rng)
        det, _ = det_and_cofactors(m)
        assert abs(det - np.linalg.det(m)) < 1e-9 * max(1, abs(det))

    def test_singular_matrix_cofactors_finite(self):
        # rank-deficient: adjugate still well-defined, Jacobi's formula is not
        m = np.outer(np.arange(1, 5.0), np.arange(1, 5.0))
        cof = cofactor_matrix(m)
        assert np.all(np.isfinite(cof))
        assert np.allclose(adjugate(m) @ m, np.zeros((4, 4)), atol=1e-9)

    def test_1x1(self):
        det, cof = det_and_cofactors(np.array([[3.0 + 1j]]))
        assert det == 3.0 + 1j
        assert cof[0, 0] == 1.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            cofactor_matrix(np.ones((2, 3)))


class TestPlanes:
    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(3)
        u = random_unitary(6, rng)
        assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

    def test_random_plane_shape_and_rank(self):
        rng = np.random.default_rng(4)
        k = random_plane(5, 2, rng)
        assert k.shape == (5, 2)
        assert np.linalg.matrix_rank(k) == 2

    def test_random_plane_bad_dim(self):
        with pytest.raises(ValueError):
            random_plane(3, 0)
        with pytest.raises(ValueError):
            random_plane(3, 4)

    def test_orth_basis(self):
        rng = np.random.default_rng(5)
        m = random_complex_matrix(6, 3, rng)
        q = orth_basis(m)
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        # same span: projection of m onto q-span recovers m
        assert np.allclose(q @ (q.conj().T @ m), m, atol=1e-10)

    def test_orth_basis_rank_deficient(self):
        m = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            orth_basis(m)

    def test_plane_distance_zero_for_same_span(self):
        rng = np.random.default_rng(6)
        k = random_plane(6, 3, rng)
        g = random_complex_matrix(3, 3, rng)  # change of basis
        assert plane_distance(k, k @ g) < 1e-10

    def test_plane_distance_one_for_orthogonal(self):
        e1 = np.eye(4)[:, :2]
        e2 = np.eye(4)[:, 2:]
        assert abs(plane_distance(e1, e2) - 1.0) < 1e-12

    def test_subspace_angle_range(self):
        rng = np.random.default_rng(7)
        a = random_plane(6, 2, rng)
        b = random_plane(6, 2, rng)
        ang = subspace_angle(a, b)
        assert 0 <= ang <= np.pi / 2 + 1e-12
        assert subspace_angle(a, a) < 1e-7


class TestPolyMatrix:
    def test_eval(self):
        # M(s) = [[1, s], [0, s^2]]
        m = PolyMatrix(
            [
                np.array([[1.0, 0.0], [0.0, 0.0]]),
                np.array([[0.0, 1.0], [0.0, 0.0]]),
                np.array([[0.0, 0.0], [0.0, 1.0]]),
            ]
        )
        val = m(2.0)
        assert np.allclose(val, [[1, 2], [0, 4]])
        assert m.degree == 2

    def test_trailing_zero_trim(self):
        m = PolyMatrix([np.eye(2), np.zeros((2, 2))])
        assert m.degree == 0

    def test_add_matmul(self):
        a = PolyMatrix([np.eye(2), np.eye(2)])  # I + I s
        b = PolyMatrix([np.eye(2) * 2])
        c = a + b
        assert np.allclose(c(1.0), 4 * np.eye(2))
        d = a @ a  # (I + I s)^2 = I + 2 I s + I s^2
        assert np.allclose(d.coefficient(1), 2 * np.eye(2))
        assert d.degree == 2

    def test_stacks(self):
        a = PolyMatrix([np.ones((2, 1))])
        b = PolyMatrix([np.zeros((2, 1)), np.ones((2, 1))])
        h = a.hstack(b)
        assert h.shape == (2, 2)
        assert np.allclose(h(3.0), [[1, 3], [1, 3]])
        v = PolyMatrix([np.ones((1, 2))]).vstack(PolyMatrix([np.zeros((1, 2))]))
        assert v.shape == (2, 2)


class TestCharpoly:
    def test_matches_numpy_eigvals(self):
        rng = np.random.default_rng(8)
        a = random_complex_matrix(5, 5, rng)
        coeffs = charpoly_coefficients(a)
        # evaluate chi at the eigenvalues -> 0
        eigs = np.linalg.eigvals(a)
        for lam in eigs:
            val = sum(c * lam**k for k, c in enumerate(coeffs))
            assert abs(val) < 1e-8

    def test_monic(self):
        a = np.diag([1.0, 2.0, 3.0])
        coeffs = charpoly_coefficients(a)
        assert coeffs[-1] == 1.0
        # chi(s) = (s-1)(s-2)(s-3) = s^3 - 6 s^2 + 11 s - 6
        assert np.allclose(coeffs, [-6, 11, -6, 1])

    def test_resolvent_numerator_identity(self):
        rng = np.random.default_rng(9)
        n, m, p = 4, 2, 3
        a = random_complex_matrix(n, n, rng)
        b = random_complex_matrix(n, m, rng)
        c = random_complex_matrix(p, n, rng)
        num, chi = resolvent_numerator(a, b, c)
        s = 0.7 - 0.3j
        chi_s = sum(co * s**k for k, co in enumerate(chi))
        direct = c @ np.linalg.solve(s * np.eye(n) - a, b)
        assert np.allclose(num(s) / chi_s, direct, atol=1e-9)

    def test_resolvent_chi_matches_charpoly(self):
        rng = np.random.default_rng(10)
        a = random_complex_matrix(3, 3, rng)
        _, chi = resolvent_numerator(a, np.eye(3), np.eye(3))
        assert np.allclose(chi, charpoly_coefficients(a))
