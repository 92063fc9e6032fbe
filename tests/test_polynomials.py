"""Unit tests for repro.polynomials.poly."""

import numpy as np
import pytest

from repro.polynomials import Polynomial, constant, variables


class TestConstruction:
    def test_basic_dict(self):
        p = Polynomial({(2, 0): 1, (0, 1): -3})
        assert p.nvars == 2
        assert p.coefficient((2, 0)) == 1
        assert p.coefficient((0, 1)) == -3
        assert p.coefficient((1, 1)) == 0

    def test_zero_coefficients_pruned(self):
        p = Polynomial({(1, 0): 0.0, (0, 1): 2.0})
        assert len(p) == 1

    def test_duplicate_keys_not_possible_but_merge_on_add(self):
        p = Polynomial({(1,): 2}) + Polynomial({(1,): 3})
        assert p.coefficient((1,)) == 5

    def test_empty_needs_nvars(self):
        with pytest.raises(ValueError):
            Polynomial({})
        z = Polynomial({}, nvars=3)
        assert z.is_zero() and z.nvars == 3

    def test_bad_exponent_length(self):
        with pytest.raises(ValueError):
            Polynomial({(1, 2): 1}, nvars=3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(-1,): 1})

    def test_names(self):
        x, y = variables(2, ["x", "y"])
        assert (x * y).names in (("x", "y"),)
        with pytest.raises(ValueError):
            Polynomial({(1,): 1}, names=["a", "b"])


class TestArithmetic:
    def setup_method(self):
        self.x, self.y = variables(2, ["x", "y"])

    def test_add_sub(self):
        p = self.x + self.y - self.x
        assert p == self.y

    def test_scalar_ops(self):
        p = 2 * self.x + 1
        assert p.coefficient((1, 0)) == 2
        assert p.constant_term() == 1
        q = 1 - self.x
        assert q.coefficient((1, 0)) == -1

    def test_mul(self):
        p = (self.x + self.y) * (self.x - self.y)
        assert p == self.x**2 - self.y**2

    def test_pow(self):
        p = (self.x + 1) ** 3
        assert p.coefficient((3, 0)) == 1
        assert p.coefficient((2, 0)) == 3
        assert p.coefficient((1, 0)) == 3
        assert p.constant_term() == 1

    def test_pow_zero(self):
        assert (self.x**0) == constant(1, 2)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            self.x ** (-1)

    def test_div_scalar(self):
        p = (2 * self.x) / 2
        assert p == self.x
        with pytest.raises(TypeError):
            self.x / self.y

    def test_nvars_mismatch(self):
        (z,) = variables(1)
        with pytest.raises(ValueError):
            self.x + z

    def test_complex_coefficients(self):
        p = 1j * self.x
        assert p.coefficient((1, 0)) == 1j
        assert (p * p).coefficient((2, 0)) == -1


class TestCalculus:
    def setup_method(self):
        self.x, self.y = variables(2, ["x", "y"])

    def test_diff(self):
        p = self.x**3 * self.y + 2 * self.y
        assert p.diff(0) == 3 * self.x**2 * self.y
        assert p.diff(1) == self.x**3 + 2

    def test_diff_constant_is_zero(self):
        assert constant(5, 2).diff(0).is_zero()

    def test_diff_out_of_range(self):
        with pytest.raises(IndexError):
            self.x.diff(5)

    def test_gradient(self):
        g = (self.x * self.y).gradient()
        assert g == (self.y, self.x)

    def test_product_rule_numeric(self):
        rng = np.random.default_rng(0)
        p = self.x**2 + 3 * self.y
        q = self.x * self.y - 1
        point = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = (p * q).diff(0).evaluate(point)
        rhs = (p.diff(0) * q + p * q.diff(0)).evaluate(point)
        assert abs(lhs - rhs) < 1e-12


class TestEvaluation:
    def setup_method(self):
        self.x, self.y = variables(2, ["x", "y"])

    def test_evaluate_simple(self):
        p = self.x**2 + self.y
        assert p.evaluate([2, 3]) == 7

    def test_evaluate_complex(self):
        p = self.x**2 + 1
        assert abs(p.evaluate([1j, 0])) < 1e-15

    def test_call_alias(self):
        assert (self.x * self.y)([2, 5]) == 10

    def test_evaluate_many_matches_single(self):
        rng = np.random.default_rng(1)
        p = self.x**3 - 2j * self.x * self.y + 4
        pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        bulk = p.evaluate_many(pts)
        single = np.array([p.evaluate(pt) for pt in pts])
        assert np.allclose(bulk, single)

    def test_evaluate_many_zero_poly(self):
        z = Polynomial({}, nvars=2)
        assert np.all(z.evaluate_many(np.ones((4, 2))) == 0)

    def test_wrong_point_length(self):
        with pytest.raises(ValueError):
            self.x.evaluate([1, 2, 3])


class TestStructure:
    def setup_method(self):
        self.x, self.y = variables(2, ["x", "y"])

    def test_degrees(self):
        p = self.x**2 * self.y + self.y
        assert p.total_degree() == 3
        assert Polynomial({}, nvars=2).total_degree() == -1

    def test_substitute(self):
        p = self.x**2 * self.y + self.y
        q = p.substitute(0, 2)
        assert q == 5 * self.y

    def test_extend(self):
        p = self.x + self.y
        q = p.extend(4)
        assert q.nvars == 4
        assert q.coefficient((1, 0, 0, 0)) == 1

    def test_extend_shrink_rejected(self):
        with pytest.raises(ValueError):
            (self.x + self.y).extend(1)

    def test_homogenize(self):
        p = self.x**2 + self.y + 1
        h = p.homogenize()
        assert h.nvars == 3
        degs = {sum(e) for e, _ in h.terms()}
        assert degs == {2}
        # dehomogenize: set the new variable to 1
        back = h.substitute(2, 1)
        assert all(
            back.coefficient(e + (0,)) == c for e, c in p.terms()
        )

    def test_almost_equal(self):
        p = self.x + constant(1e-14, 2)
        assert p.almost_equal(self.x, tol=1e-12)
        assert not p.almost_equal(self.y, tol=1e-12)

    def test_str_roundtrip_sanity(self):
        p = self.x**2 - 3 * self.y + 1
        s = str(p)
        assert "x**2" in s and "y" in s

    def test_hash_consistency(self):
        assert hash(self.x + self.y) == hash(self.y + self.x)

    def test_conjugate(self):
        p = (2 + 3j) * self.x
        assert p.conjugate().coefficient((1, 0)) == 2 - 3j
