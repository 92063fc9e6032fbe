"""Polynomial systems with a compiled, vectorized evaluator.

A :class:`PolynomialSystem` bundles ``neqs`` polynomials in ``nvars``
variables and precompiles them into flat numpy tables so that evaluating the
residual and the Jacobian — the inner loop of every path tracker — costs a
handful of vectorized operations instead of Python-level term iteration.

Compilation layout
------------------
All distinct monomials of the system are collected into one exponent matrix
``E`` of shape ``(nmono, nvars)``.  Evaluating the monomial vector at a point
``x`` is ``prod(x**E, axis=1)``.  Each equation is then a sparse linear
combination of monomial values, stored as (row, column, coefficient)
triplets.  The Jacobian reuses the same table: the derivative of a monomial
with respect to variable ``v`` is ``e_v * monomial / x_v``, handled by a
second set of triplets built at compile time (with exponent reduced by one,
so there is no division at evaluation time and no trouble at ``x_v == 0``).
"""

from __future__ import annotations

import threading
from typing import List, Sequence, Tuple

import numpy as np

from .poly import Polynomial

__all__ = ["PolynomialSystem"]


class _CompiledTables:
    """Flat tables for vectorized residual/Jacobian evaluation of
    ``(row, exponent, coefficient)`` term triplets."""

    __slots__ = (
        "expos",
        "maxdeg",
        "flat_cols",
        "res_rows",
        "res_cols",
        "res_coefs",
        "jac_rows",
        "jac_vars",
        "jac_cols",
        "jac_coefs",
        "jac_term",
        "_scratch",
    )

    def __init__(self, triplets, nvars: int) -> None:
        mono_index: dict[Tuple[int, ...], int] = {}

        def intern(expo: Tuple[int, ...]) -> int:
            idx = mono_index.get(expo)
            if idx is None:
                idx = len(mono_index)
                mono_index[expo] = idx
            return idx

        res_rows: List[int] = []
        res_cols: List[int] = []
        res_coefs: List[complex] = []
        jac_rows: List[int] = []
        jac_vars: List[int] = []
        jac_cols: List[int] = []
        jac_coefs: List[complex] = []
        jac_term: List[int] = []  # triplet each Jacobian entry derives from

        for i, expo, c in triplets:
            res_rows.append(i)
            res_cols.append(intern(expo))
            res_coefs.append(c)
            for v, e in enumerate(expo):
                if e == 0:
                    continue
                reduced = list(expo)
                reduced[v] = e - 1
                jac_rows.append(i)
                jac_vars.append(v)
                jac_cols.append(intern(tuple(reduced)))
                jac_coefs.append(e * c)
                jac_term.append(len(res_rows) - 1)

        nmono = max(1, len(mono_index))
        expos = np.zeros((nmono, nvars), dtype=np.int64)
        for expo, idx in mono_index.items():
            expos[idx] = expo
        self.expos = expos
        self.maxdeg = int(expos.max()) if expos.size else 0
        # flat gather indices into a (npts, (maxdeg+1)*nvars) power table:
        # monomial m needs power expos[m, v] of variable v at column
        # expos[m, v] * nvars + v of the flattened table
        self.flat_cols = expos * nvars + np.arange(nvars, dtype=np.int64)
        self.res_rows = np.asarray(res_rows, dtype=np.int64)
        self.res_cols = np.asarray(res_cols, dtype=np.int64)
        self.res_coefs = np.asarray(res_coefs, dtype=complex)
        self.jac_rows = np.asarray(jac_rows, dtype=np.int64)
        self.jac_vars = np.asarray(jac_vars, dtype=np.int64)
        self.jac_cols = np.asarray(jac_cols, dtype=np.int64)
        self.jac_coefs = np.asarray(jac_coefs, dtype=complex)
        self.jac_term = np.asarray(jac_term, dtype=np.int64)
        # per-batch-shape scratch buffers (powers / gather / product),
        # reused across calls so replaying the same points-shape — every
        # step of a tracked front — does not reallocate the power table.
        # Thread-local: serve's executor solves and the fleet worker's
        # ``asyncio.to_thread`` jobs can share one compiled-tables object
        # across threads, and a shared ``out=`` buffer races
        self._scratch = threading.local()

    def __getstate__(self):
        # scratch buffers are per-process working memory, not state:
        # shipping a system to a pool worker must not drag along the
        # last batch's power tables
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_scratch"
        }
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._scratch = threading.local()

    def monomial_values(self, x: np.ndarray) -> np.ndarray:
        # x: (nvars,) complex -> (nmono,) complex
        with np.errstate(invalid="ignore"):
            return np.prod(x[None, :] ** self.expos, axis=1)

    def monomial_values_many(self, pts: np.ndarray) -> np.ndarray:
        # pts: (npts, nvars) complex -> (npts, nmono) complex; one shared
        # monomial table evaluated for the whole batch at once.  Powers are
        # built by repeated multiplication (cheaper than complex ``**``),
        # then each monomial is one flat gather plus a product over the
        # variable axis — two vectorized ops regardless of batch size.
        # Callers are expected to hold an errstate guard (diverging paths
        # legitimately push intermediate values past inf).  Scratch
        # buffers are cached per batch shape: a tracked front replays
        # the same ``npts`` every step, so the power table, the gather
        # target and the product accumulator are allocated once and
        # every element is overwritten on each call.
        npts, nvars = pts.shape
        cache = getattr(self._scratch, "buffers", None)
        if cache is None:
            cache = self._scratch.buffers = {}
        buffers = cache.get(npts)
        if buffers is None:
            if len(cache) >= 8:
                cache.clear()
            powers = np.empty((npts, self.maxdeg + 1, nvars), dtype=complex)
            gathered = np.empty(
                (npts,) + self.flat_cols.shape, dtype=complex
            )
            out = np.empty((npts, self.flat_cols.shape[0]), dtype=complex)
            buffers = cache[npts] = (powers, gathered, out)
        powers, gathered, out = buffers
        powers[:, 0] = 1.0
        for k in range(1, self.maxdeg + 1):
            np.multiply(powers[:, k - 1], pts, out=powers[:, k])
        flat = powers.reshape(npts, (self.maxdeg + 1) * nvars)
        np.take(flat, self.flat_cols, axis=1, out=gathered)
        # explicit sequential product over the variable axis: unlike
        # np.prod, whose reduction kernel rounds differently for
        # different batch shapes, elementwise multiplies make the result
        # independent of how points are batched — which is what
        # guarantees BatchTracker == PathTracker bit for bit
        np.copyto(out, gathered[:, :, 0])
        for v in range(1, nvars):
            np.multiply(out, gathered[:, :, v], out=out)
        return out


class PolynomialSystem:
    """A square-or-rectangular system of complex multivariate polynomials."""

    def __init__(self, polys: Sequence[Polynomial]) -> None:
        polys = list(polys)
        if not polys:
            raise ValueError("a system needs at least one polynomial")
        nvars = polys[0].nvars
        for p in polys:
            if p.nvars != nvars:
                raise ValueError("all polynomials must share the same variables")
        self._polys: Tuple[Polynomial, ...] = tuple(polys)
        self._nvars = nvars
        self._tables: _CompiledTables | None = None

    # ------------------------------------------------------------------
    @property
    def polynomials(self) -> Tuple[Polynomial, ...]:
        return self._polys

    @property
    def neqs(self) -> int:
        return len(self._polys)

    @property
    def nvars(self) -> int:
        return self._nvars

    def is_square(self) -> bool:
        return self.neqs == self.nvars

    def __len__(self) -> int:
        return self.neqs

    def __getitem__(self, i: int) -> Polynomial:
        return self._polys[i]

    def __iter__(self):
        return iter(self._polys)

    def degrees(self) -> Tuple[int, ...]:
        return tuple(p.total_degree() for p in self._polys)

    def total_degree_bound(self) -> int:
        """The Bezout number: the product of the equation degrees."""
        out = 1
        for d in self.degrees():
            out *= max(d, 0)
        return out

    # ------------------------------------------------------------------
    def _compiled(self) -> _CompiledTables:
        if self._tables is None:
            self._tables = _CompiledTables(
                (
                    (i, expo, c)
                    for i, poly in enumerate(self._polys)
                    for expo, c in poly.terms()
                ),
                self._nvars,
            )
        return self._tables

    def evaluate(self, point: Sequence[complex]) -> np.ndarray:
        """Residual vector F(x), shape ``(neqs,)``."""
        x = np.asarray(point, dtype=complex)
        if x.shape != (self._nvars,):
            raise ValueError(f"expected point of length {self._nvars}")
        t = self._compiled()
        mono = t.monomial_values(x)
        out = np.zeros(self.neqs, dtype=complex)
        np.add.at(out, t.res_rows, t.res_coefs * mono[t.res_cols])
        return out

    def jacobian_at(self, point: Sequence[complex]) -> np.ndarray:
        """Jacobian matrix J(x), shape ``(neqs, nvars)``."""
        x = np.asarray(point, dtype=complex)
        if x.shape != (self._nvars,):
            raise ValueError(f"expected point of length {self._nvars}")
        t = self._compiled()
        mono = t.monomial_values(x)
        out = np.zeros((self.neqs, self._nvars), dtype=complex)
        if len(t.jac_rows):
            np.add.at(
                out,
                (t.jac_rows, t.jac_vars),
                t.jac_coefs * mono[t.jac_cols],
            )
        return out

    def evaluate_and_jacobian(
        self, point: Sequence[complex]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual and Jacobian sharing one monomial-table evaluation."""
        x = np.asarray(point, dtype=complex)
        if x.shape != (self._nvars,):
            raise ValueError(f"expected point of length {self._nvars}")
        t = self._compiled()
        mono = t.monomial_values(x)
        res = np.zeros(self.neqs, dtype=complex)
        np.add.at(res, t.res_rows, t.res_coefs * mono[t.res_cols])
        jac = np.zeros((self.neqs, self._nvars), dtype=complex)
        if len(t.jac_rows):
            np.add.at(
                jac,
                (t.jac_rows, t.jac_vars),
                t.jac_coefs * mono[t.jac_cols],
            )
        return res, jac

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Residuals at many points; returns shape ``(npts, neqs)``."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self._nvars:
            raise ValueError(f"expected array of shape (npts, {self._nvars})")
        t = self._compiled()
        with np.errstate(invalid="ignore", over="ignore"):
            mono = t.monomial_values_many(pts)
            return self._scatter_residuals(t, mono)

    def _scatter_residuals(self, t: _CompiledTables, mono: np.ndarray) -> np.ndarray:
        # scatter-add term contributions equation-wise; the equation axis
        # leads so np.add.at accumulates whole (npts,) rows per term
        out = np.zeros((self.neqs, mono.shape[0]), dtype=complex)
        np.add.at(out, t.res_rows, t.res_coefs[:, None] * mono[:, t.res_cols].T)
        return out.T

    def evaluate_and_jacobian_many(
        self, points: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residuals and Jacobians for a whole batch of points.

        Returns ``(res, jac)`` with shapes ``(npts, neqs)`` and
        ``(npts, neqs, nvars)``, sharing one monomial-table evaluation —
        the batched analogue of :meth:`evaluate_and_jacobian` and the
        ``"naive"`` system kernel's arithmetic (no homotopy evaluates
        through it: Newton refinement on the target and the oracles the
        term kernels are measured against do).
        """
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self._nvars:
            raise ValueError(f"expected array of shape (npts, {self._nvars})")
        t = self._compiled()
        with np.errstate(invalid="ignore", over="ignore"):
            mono = t.monomial_values_many(pts)
            res = self._scatter_residuals(t, mono)
            jac_t = np.zeros(
                (self.neqs, self._nvars, pts.shape[0]), dtype=complex
            )
            if len(t.jac_rows):
                np.add.at(
                    jac_t,
                    (t.jac_rows, t.jac_vars),
                    t.jac_coefs[:, None] * mono[:, t.jac_cols].T,
                )
        return res, jac_t.transpose(2, 0, 1)

    def residual_norm(self, point: Sequence[complex]) -> float:
        """Max-norm of the residual at ``point``."""
        return float(np.max(np.abs(self.evaluate(point))))

    # ------------------------------------------------------------------
    def jacobian_system(self) -> List[List[Polynomial]]:
        """Symbolic Jacobian as a matrix of polynomials (mostly for tests)."""
        return [[p.diff(v) for v in range(self._nvars)] for p in self._polys]

    def map(self, func) -> "PolynomialSystem":
        return PolynomialSystem([func(p) for p in self._polys])

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self._polys)

    def __repr__(self) -> str:
        return f"PolynomialSystem(neqs={self.neqs}, nvars={self.nvars})"
