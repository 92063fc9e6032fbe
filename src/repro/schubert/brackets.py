"""Bracket expansion of the Pieri conditions (paper §III-B, equation (3)).

Laplace expansion of an intersection condition along the map's columns,

    det [X | K]  =  sum_S  kappa_S(K) * det X[S, :],

runs over the ``C(m+p, p)`` row subsets ``S``; ``kappa_S`` is the signed
complementary maximal minor of the plane (its bracket, dual Pluecker
coordinate).  The expansion separates what a condition *is* from where it
is evaluated:

- the brackets depend on the plane alone (:func:`plane_brackets`), and
  along a straight plane path ``K(t) = (1-t) K0 + t K1`` each one is a
  degree-m polynomial in t (:func:`plane_path_brackets`), so t-derivatives
  are analytic;
- ``det X[S, :]`` is multilinear in the columns of X, and a chart makes
  each column affine in its own unknowns — so a condition with constant
  coefficients is a constant multilinear form in the unknowns.
  :meth:`BracketChart.tape` records such forms once;
  :meth:`BracketChart.replay` evaluates their values and gradients with
  one small matrix product per form and no determinant.

What moves with t stays outside the tape: the Pieri edge homotopy replays
the coefficients of ``t**d`` of its moving condition at entries weighted
by the moving point; the parameter homotopy, where every plane and point
moves, replays the Pluecker coordinates of the map itself and contracts
them with the conditions' coefficients path by path.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Sequence, Tuple

import numpy as np

from ..linalg import batched_det

__all__ = [
    "plane_brackets",
    "plane_path_brackets",
    "path_at",
    "path_derivative",
    "BracketChart",
]


def _frozen(*tables: np.ndarray):
    """Memoized tables are shared by every caller: make them read-only."""
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _row_subsets(amb: int, p: int):
    """Row subsets ``(C, p)``, complements ``(C, amb-p)``, Laplace signs.

    The complements are plain set differences: ``np.setdiff1d`` imports
    ``numpy.ma`` on first use, ~35 ms in every fresh worker process.
    """
    picks = list(combinations(range(amb), p))
    subsets = np.array(picks, dtype=np.int64).reshape(len(picks), p)
    comps = [[r for r in range(amb) if r not in s] for s in picks]
    comps = np.array(comps, dtype=np.int64).reshape(len(picks), amb - p)
    signs = (-1.0) ** (subsets.sum(axis=1) + p * (p - 1) // 2)
    return _frozen(subsets, comps, signs)


@lru_cache(maxsize=None)
def _ordered_rows(amb: int, p: int):
    """Subset and sign of every ordered choice of one row per column.

    ``det X[S, :]`` contains ``sign[r] * prod_j X[r_j, j]`` for the row
    choices ``r = (r_0, ..., r_{p-1})`` with ``{r_j} = S``, the sign being
    that of the permutation sorting r; ``index[r]`` is the position of S
    among the subsets, and ``sign[r] = 0`` where a row repeats.
    """
    subsets = _row_subsets(amb, p)[0]
    index = np.zeros((amb,) * p, dtype=np.int64)
    sign = np.zeros((amb,) * p)
    for sigma in permutations(range(p)):
        parity = sum(
            sigma[a] > sigma[b] for a in range(p) for b in range(a + 1, p)
        )
        rows = tuple(subsets[:, sigma].T)
        index[rows] = np.arange(len(subsets))
        sign[rows] = (-1.0) ** parity
    return _frozen(index, sign)


def plane_brackets(planes) -> np.ndarray:
    """Signed complementary minors of a ``(..., m+p, m)`` stack of planes.

    Returns ``(..., C)`` with ``det [X | K] = sum_S out[S] * det X[S, :]``
    for every ``(m+p) x p`` matrix X.

    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> x, k = rng.standard_normal((5, 2)), rng.standard_normal((5, 3))
    >>> minors = [np.linalg.det(x[list(s)]) for s in combinations(range(5), 2)]
    >>> np.allclose(plane_brackets(k) @ minors, np.linalg.det(np.hstack([x, k])))
    True
    """
    k = np.asarray(planes)
    amb, m = k.shape[-2:]
    _, comps, signs = _row_subsets(amb, amb - m)
    return signs * batched_det(k[..., comps, :])


def plane_path_brackets(k0, k1) -> np.ndarray:
    """Coefficients of the brackets along ``K(t) = (1-t) k0 + t k1``.

    Returns ``(m+1, ..., C)``: slice d holds the coefficient of ``t**d``.
    The determinant is multilinear in the plane's columns, so the
    coefficient of ``t**d`` collects the brackets of the planes that take
    d columns from ``k1 - k0`` and the rest from ``k0`` — exact where the
    start plane has exact zeros.

    >>> import numpy as np
    >>> rng = np.random.default_rng(1)
    >>> k0, k1 = rng.standard_normal((2, 4, 2))
    >>> coef = plane_path_brackets(k0, k1)
    >>> np.allclose(path_at(coef, 0.3), plane_brackets(0.7 * k0 + 0.3 * k1))
    True
    """
    k0 = np.asarray(k0, dtype=complex)
    step = np.asarray(k1, dtype=complex) - k0
    m = k0.shape[-1]
    picks = np.array(list(product((False, True), repeat=m)))  # (2^m, m)
    mixed = np.where(
        picks[:, None, :], step[..., None, :, :], k0[..., None, :, :]
    )
    by_degree = picks.sum(axis=1) == np.arange(m + 1)[:, None]
    return np.moveaxis(by_degree.astype(complex) @ plane_brackets(mixed), -2, 0)


def path_at(coef: np.ndarray, t) -> np.ndarray:
    """A polynomial path — coefficient of ``t**d`` in ``coef[d]`` — at t
    (Horner); ``t`` must broadcast against ``coef[0]``."""
    value = coef[-1]
    for c in coef[-2::-1]:
        value = value * t + c
    return value


def path_derivative(coef: np.ndarray) -> np.ndarray:
    """Coefficients of ``d/dt`` of a polynomial path (one degree fewer)."""
    degrees = np.arange(1, len(coef)).reshape((-1,) + (1,) * (coef.ndim - 1))
    return degrees * coef[1:]


class BracketChart:
    """The multilinear forms of one chart of a localization pattern.

    A chart splits the support of a pattern into ``n`` free entries (the
    unknowns, in the order of the unknown vector) and ``p`` entries pinned
    to 1, one per column.  Both are ``(row, column)`` pairs, 0-based, in
    concatenated rows; ``pinned[j]`` lies in column j.  The *extended*
    unknown vector appends the p pinned ones to the unknowns, and an entry
    in concatenated row r contributes ``s**(r // (m+p))`` times its value
    to ambient row ``r % (m+p)`` of its column of ``X(s)``.

    Every ``det X(s)[S, :]`` is then a sum of signed products of one entry
    per column, each carrying ``s`` to the total power of its entries.  A
    *form* gives each (subset, total power) pair a coefficient; its
    gradient by an entry of column j is a combination of the *monomials*
    — products of one entry from every other column — and, being linear
    in column 0, its value is that gradient times column 0's entries
    (Euler's identity).

    The line ``[x, 1]`` meets the point ``[2, 5]`` of the projective line
    where ``det [[x, 2], [1, 5]] = 5 x - 2`` vanishes:

    >>> import numpy as np
    >>> chart = BracketChart(2, free=[(0, 0)], pinned=[(1, 0)])
    >>> tape = chart.tape(plane_brackets(np.array([[2.0], [5.0]]))[None, :, None])
    >>> value, grad = chart.replay(chart.extend(np.array([[3.0 + 0j]])), tape)
    >>> float(value[0, 0].real), grad[0, 0].real
    (13.0, array([ 5., -2.]))
    """

    def __init__(
        self,
        amb: int,
        free: Sequence[Tuple[int, int]],
        pinned: Sequence[Tuple[int, int]],
    ) -> None:
        entries = list(free) + list(pinned)
        p = len(pinned)
        if [j for _, j in pinned] != list(range(p)):
            raise ValueError("need one pinned entry per column, in order")
        self.amb = amb
        self.p = p
        self.n = len(free)
        rows = np.array([r for r, _ in entries], dtype=np.int64)
        #: power of the interpolation point each entry is weighted by
        self.power = rows // amb
        #: column of X each entry belongs to
        self.column = np.array([j for _, j in entries], dtype=np.int64)
        ambient = rows % amb
        members = [np.flatnonzero(self.column == j) for j in range(p)]
        #: number of total powers a form distinguishes (0 .. degrees - 1)
        self.degrees = 1 + sum(int(self.power[ids].max()) for ids in members)
        #: 1.0 on column 0's entries
        self._first = (self.column == 0).astype(complex)

        # Block j lists the monomials that multiply an entry of column j
        # (one entry from every other column, C order); for each pair the
        # tables name the subset their rows make up, the sign of that
        # product in the subset's determinant (0: a row taken twice, or an
        # entry outside column j) and the total power of s.
        index, sign = _ordered_rows(amb, p)
        monomials = [
            np.array(
                list(product(*members[:j], *members[j + 1 :])), dtype=np.int64
            )
            for j in range(p)
        ]
        shape = (sum(map(len, monomials)), len(entries))
        self._subset = np.zeros(shape, dtype=np.int64)
        self._degree = np.zeros(shape, dtype=np.int64)
        self._sign = np.zeros(shape)
        row = 0
        for j, (others, ids) in enumerate(zip(monomials, members)):
            by_column = list(others.T[:, :, None])
            by_column.insert(j, ids)
            chosen = tuple(ambient[g] for g in by_column)
            block = slice(row, row + len(others))
            self._subset[block, ids] = index[chosen]
            self._sign[block, ids] = sign[chosen]
            self._degree[block, ids] = sum(self.power[g] for g in by_column)
            row += len(others)
        #: ``(p - 1, nmon)`` entry ids; p = 1 has the one empty product
        self._monomials = np.concatenate(monomials).T
        #: its rows, held once: slicing them a call slowed Pieri fronts
        self._factors = tuple(np.ascontiguousarray(f) for f in self._monomials)

    def extend(self, X: np.ndarray) -> np.ndarray:
        """Append the pinned ones: ``(npaths, n)`` -> ``(npaths, n + p)``."""
        y = np.empty((X.shape[0], self.n + self.p), dtype=complex)
        y[:, : self.n] = X
        y[:, self.n :] = 1.0
        return y

    def _products(self, y: np.ndarray) -> np.ndarray:
        """The ``(npaths, nmon)`` monomials at ``y``, factors multiplied
        left to right (ones at p = 1, a gather at p = 2): unlike
        ``np.prod``'s reduce, a row's bits do not depend on the front."""
        factors = self._factors
        if not factors:
            return np.ones((y.shape[0], 1), dtype=complex)
        products = y[:, factors[0]]
        for factor in factors[1:]:
            products = products * y[:, factor]
        return products

    def tape(self, coef: np.ndarray) -> np.ndarray:
        """Record R forms: ``coef[i, S, d]`` is what form i gives subset S
        at total power d, shape ``(R, C, degrees)``.  Returns the
        ``(R, nmon, n + p)`` coefficients :meth:`replay` multiplies by."""
        return np.asarray(coef)[:, self._subset, self._degree] * self._sign

    def replay(self, y: np.ndarray, tape: np.ndarray):
        """Values ``(npaths, R)`` and gradients ``(npaths, R, n + p)`` of
        the taped forms at the extended vectors ``y``.

        One ``npaths x nmon x (n + p)`` product per form keeps every
        BLAS call far below the size OpenBLAS hands to its thread pool;
        a single product over all forms crossed it on wide fronts and
        doubled the CPU time of a solve.
        """
        grad = np.matmul(self._products(y), tape).transpose(1, 0, 2)
        return np.matmul(grad, (y * self._first)[:, :, None])[:, :, 0], grad
