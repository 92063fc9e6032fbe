"""Univariate polynomial matrices and the Faddeev-LeVerrier recursion.

The control layer verifies closed-loop poles through the polynomial matrix

    K(s) = [ C * adj(sI - A) * B ]
           [ chi_A(s) * I_m      ]

whose column span at ``s`` equals ``[C (sI-A)^{-1} B; I]`` wherever
``chi_A(s) != 0``.  The numerator ``C adj(sI - A) B`` and the characteristic
polynomial come out of one Faddeev-LeVerrier recursion; :class:`PolyMatrix`
stores matrix coefficients per power of ``s`` and supports the little
algebra (evaluate, add, multiply, determinant by interpolation) needed for
verification and for realizing dynamic compensators.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["PolyMatrix", "charpoly_coefficients", "resolvent_numerator"]


class PolyMatrix:
    """Matrix polynomial  M(s) = sum_k coeffs[k] * s**k.

    ``coeffs`` is a sequence of equally-shaped 2-D complex arrays, constant
    term first.  Trailing zero coefficients are trimmed on construction.
    """

    def __init__(self, coeffs: Sequence[np.ndarray]) -> None:
        mats = [np.asarray(c, dtype=complex) for c in coeffs]
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        shape = mats[0].shape
        if len(shape) != 2 or any(m.shape != shape for m in mats):
            raise ValueError("all coefficients must be 2-D with equal shape")
        while len(mats) > 1 and not np.any(mats[-1]):
            mats.pop()
        self._coeffs = mats

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._coeffs[0].shape

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> np.ndarray:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k].copy()
        return np.zeros(self.shape, dtype=complex)

    def __call__(self, s: complex) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        power = 1.0 + 0j
        for c in self._coeffs:
            out += c * power
            power *= s
        return out

    # ------------------------------------------------------------------
    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        n = max(len(self._coeffs), len(other._coeffs))
        out = []
        for k in range(n):
            out.append(self.coefficient(k) + other.coefficient(k))
        return PolyMatrix(out)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "PolyMatrix":
        return PolyMatrix([c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("inner dimensions do not match")
        deg = self.degree + other.degree
        out = [
            np.zeros((self.shape[0], other.shape[1]), dtype=complex)
            for _ in range(deg + 1)
        ]
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] += a @ b
        return PolyMatrix(out)

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        """Horizontal concatenation [self | other]."""
        if self.shape[0] != other.shape[0]:
            raise ValueError("row counts differ")
        n = max(len(self._coeffs), len(other._coeffs))
        return PolyMatrix(
            [
                np.hstack([self.coefficient(k), other.coefficient(k)])
                for k in range(n)
            ]
        )

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape[1] != other.shape[1]:
            raise ValueError("column counts differ")
        n = max(len(self._coeffs), len(other._coeffs))
        return PolyMatrix(
            [
                np.vstack([self.coefficient(k), other.coefficient(k)])
                for k in range(n)
            ]
        )

    # ------------------------------------------------------------------
    @staticmethod
    def constant(matrix: np.ndarray) -> "PolyMatrix":
        return PolyMatrix([np.asarray(matrix, dtype=complex)])

    def __repr__(self) -> str:
        return f"PolyMatrix(shape={self.shape}, degree={self.degree})"


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Coefficients of chi_A(s) = det(sI - A), constant term first.

    Faddeev-LeVerrier: exact in exact arithmetic, adequate in double
    precision for the modest state dimensions used here.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("square matrix required")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[n - k + 1] * np.eye(n, dtype=complex)
        coeffs[n - k] = -np.trace(a @ m) / k
    return coeffs


def resolvent_numerator(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[PolyMatrix, np.ndarray]:
    """``(C adj(sI-A) B, chi_A)`` via Faddeev-LeVerrier.

    Returns the polynomial matrix ``N(s) = C adj(sI - A) B`` (so that
    ``C (sI-A)^{-1} B = N(s)/chi_A(s)``) and the characteristic polynomial
    coefficients (constant first).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    n = a.shape[0]
    chi = np.zeros(n + 1, dtype=complex)
    chi[n] = 1.0
    # adj(sI - A) = sum_{k=0}^{n-1} M_k s^k with the same recursion
    mk = np.eye(n, dtype=complex)  # coefficient of s^{n-1}
    adj_coeffs = [None] * n
    adj_coeffs[n - 1] = mk
    m = mk
    for k in range(1, n + 1):
        trace_term = -np.trace(a @ m) / k
        chi[n - k] = trace_term
        if k < n:
            m = a @ m + trace_term * np.eye(n, dtype=complex)
            adj_coeffs[n - 1 - k] = m
    numerator = PolyMatrix([c @ mk_ @ b for mk_ in adj_coeffs])
    return numerator, chi
