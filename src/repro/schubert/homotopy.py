"""The Pieri homotopy: determinant intersection conditions and the moving
special plane (paper §III-B, equation (3)).

Solutions are stored as *concatenated coefficient matrices*: a complex
matrix ``C`` of shape ``(nrows, p)`` whose row ``r`` (0-based) holds the
coefficient of ``s**(r // (m+p))`` for ambient coordinate ``r % (m+p)`` of a
column.  A matrix *fits* a localization pattern when it vanishes outside the
pattern's support; the **standard chart** normalizes every bottom-pivot
entry to 1.

The map is evaluated with per-column homogenization: column ``j`` of

    X(s, s0)[i, j] = sum_l C[l*(m+p) + i, j] * s**l * s0**(L_j - l)

has degree ``L_j = floor((b_j - 1)/(m+p))``, and the intersection condition
"X meets the m-plane K at s" is the single equation ``det [X(s,1) | K] = 0``.

**The special plane.**  For a pattern with bottom pivots ``b``, the corner
rows ``i_j = ((b_j - 1) mod (m+p)) + 1`` are pairwise distinct, and
``special_plane`` spans the standard basis vectors of the *other* m ambient
rows.  Expanding the determinant then gives the identity

    det [X(s, 0) | K_b]  =  +/- s**(sum L_j) * prod_j C[b_j, j],

i.e. the map meets ``K_b`` at infinity iff one of its bottommost entries is
zero (the paper's key lemma) — so a child solution, embedded with its new
star equal to zero, is an *exact and regular* start point.

**The homotopy per tree edge** (equation (3)): with the first ``n-1``
conditions held fixed, move the interpolation point from infinity to
``s_n`` and the plane from ``K_b`` to ``K_n`` along gamma-twisted paths

    s(t) = (1-t) gamma_s + t s_n,   s0(t) = t,
    K(t) = (1-t) gamma_k K_b + t K_n,

and track the n free coefficients (the chart pins the child's pivot, not
the parent's, because the new star starts at zero).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

# Unused here: the benchmark's tier-1 tracer test, which this repo may not
# edit, reads this module's `batched_det` as its example of a function
# held by name that must see the tracer's wrapper.
from ..linalg import batched_det  # noqa: F401
from ..tracker import BatchHomotopy
from ..tracker.interface import _per_path_t
from .brackets import BracketChart, plane_brackets, plane_path_brackets
from .patterns import LocalizationPattern

__all__ = [
    "special_plane",
    "trivial_solution_matrix",
    "evaluate_map",
    "intersection_residuals",
    "normalize_to_standard_chart",
    "PieriEdgeHomotopy",
]


def trivial_solution_matrix(pattern_or_problem) -> np.ndarray:
    """The unique matrix fitting the trivial pattern (identity top block)."""
    problem = getattr(pattern_or_problem, "problem", pattern_or_problem)
    c = np.zeros((problem.nrows, problem.p), dtype=complex)
    for j in range(problem.p):
        c[j, j] = 1.0
    return c


def special_plane(pattern: LocalizationPattern) -> np.ndarray:
    """K_b: the span of the m standard basis vectors avoiding the corners."""
    amb = pattern.problem.ambient
    corners = {r - 1 for r in pattern.corner_rows()}  # 0-based
    rows = [r for r in range(amb) if r not in corners]
    k = np.zeros((amb, pattern.problem.m), dtype=complex)
    for col, r in enumerate(rows):
        k[r, col] = 1.0
    return k


def evaluate_map(
    c: np.ndarray,
    pattern: LocalizationPattern,
    s: complex,
    s0: complex = 1.0,
) -> np.ndarray:
    """X(s, s0): the (m+p) x p matrix of the homogenized map."""
    amb = pattern.problem.ambient
    p = pattern.problem.p
    x = np.zeros((amb, p), dtype=complex)
    for j in range(p):
        lj = pattern.column_degree(j)
        for l in range(lj + 1):
            weight = (s**l) * (s0 ** (lj - l))
            block = c[l * amb : (l + 1) * amb, j]
            x[:, j] += block * weight
    return x


def intersection_residuals(
    c: np.ndarray,
    pattern: LocalizationPattern,
    planes: Sequence[np.ndarray],
    points: Sequence[complex],
) -> np.ndarray:
    """det [X(s_i, 1) | K_i] for every given condition (verification)."""
    out = np.empty(len(planes), dtype=complex)
    for i, (k, s) in enumerate(zip(planes, points)):
        m = np.hstack([evaluate_map(c, pattern, s, 1.0), k])
        out[i] = np.linalg.det(m)
    return out


def normalize_to_standard_chart(
    c: np.ndarray, pattern: LocalizationPattern
) -> np.ndarray:
    """Scale each column so its bottom-pivot entry equals 1."""
    amb = pattern.problem.ambient
    out = c.copy()
    for j, b in enumerate(pattern.bottom_pivots):
        pivot = out[b - 1, j]
        if pivot == 0:
            raise ZeroDivisionError(
                f"bottom pivot of column {j} is zero; solution fits a child "
                "pattern (non-generic input)"
            )
        out[:, j] /= pivot
    return out


class _BatchSlices:
    """The batch protocol as views of one kernel: a subclass supplies
    ``_batch(X, t, with_t=False) -> (residuals, dH/dx, dH/dt or None)``
    on a stack of points, each at its own t."""

    def evaluate_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._batch(X, t)[0]

    def jacobian_x_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._batch(X, t)[1]

    def evaluate_and_jacobian_batch(self, X, t):
        return self._batch(X, t)[:2]

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._batch(X, t, with_t=True)[2]

    def jacobians_batch(self, X, t):
        return self._batch(X, t, with_t=True)[1:]


class PieriEdgeHomotopy(_BatchSlices, BatchHomotopy):
    """The square homotopy tracked along one Pieri-tree edge.

    A :class:`~repro.tracker.BatchHomotopy`: N points, each at its own
    t, per call.  The conditions are evaluated through their bracket
    expansion (:mod:`repro.schubert.brackets`): the ``n - 1`` fixed
    conditions are constant multilinear forms in the unknowns, taped at
    construction and replayed per call; the moving condition is a
    polynomial in t whose coefficients are taped forms too, replayed at
    the unknowns weighted by the moving point.  No determinant is taken
    while tracking.  Everything carries a leading *path* axis, and the
    one-point methods run through the batched kernel as one-row batches.
    Many edges of one tree level (same ``dim``, different patterns and
    gammas) combine into one front via
    :class:`~repro.tracker.StackedHomotopy`.

    Parameters
    ----------
    pattern:
        The *parent* pattern (level n) whose solutions are computed.
    jstar:
        The column (0-based) whose bottom pivot was incremented; the new
        star starts at zero and the chart pins the child's pivot instead.
    planes, points:
        The first ``n`` intersection conditions; the last one is the moving
        condition, the first ``n - 1`` are held fixed.
    gamma_s, gamma_k:
        Random nonzero complex twists for the point and plane paths (the
        gamma trick).  Supply explicitly for reproducible runs.
    pin_row:
        0-based concatenated row of column ``jstar`` pinned to 1 by the
        chart.  Defaults to the child's pivot row (the only entry known to
        be nonzero at t = 0).  Because the determinant conditions are
        invariant under column scaling, re-pinning tracks the *same*
        geometric path in different coordinates — used to continue paths
        that leave the default chart (apparent divergence).
    """

    def __init__(
        self,
        pattern: LocalizationPattern,
        jstar: int,
        planes: Sequence[np.ndarray],
        points: Sequence[complex],
        gamma_s: complex | None = None,
        gamma_k: complex | None = None,
        rng: np.random.Generator | None = None,
        pin_row: int | None = None,
    ) -> None:
        problem = pattern.problem
        n = pattern.level
        if len(planes) != n or len(points) != n:
            raise ValueError(f"level-{n} pattern needs exactly {n} conditions")
        if not 0 <= jstar < problem.p:
            raise ValueError("jstar out of range")
        rng = np.random.default_rng() if rng is None else rng
        if gamma_s is None:
            gamma_s = np.exp(2j * np.pi * rng.random())
        if gamma_k is None:
            gamma_k = np.exp(2j * np.pi * rng.random())
        if gamma_s == 0 or gamma_k == 0:
            raise ValueError("gamma twists must be nonzero")

        self.pattern = pattern
        self.problem = problem
        self.jstar = int(jstar)
        self.planes = [np.asarray(k, dtype=complex) for k in planes]
        self.points = [complex(s) for s in points]
        self.gamma_s = complex(gamma_s)
        self.gamma_k = complex(gamma_k)
        self.k_special = special_plane(pattern)

        amb = problem.ambient
        b = pattern.bottom_pivots
        # chart: pin pivots of all columns except jstar at the parent's
        # bottom pivot; for jstar pin the *child's* pivot (one row up) by
        # default, or the caller-supplied pin_row after a chart switch.
        if pin_row is None:
            pin_row = b[self.jstar] - 2  # child pivot, 0-based
        else:
            support_rows = {
                r - 1 for r, j in pattern.support() if j - 1 == self.jstar
            }
            if pin_row not in support_rows:
                raise ValueError(
                    f"pin_row {pin_row} outside column {self.jstar} support"
                )
        self.pin_row = int(pin_row)
        fixed: List[Tuple[int, int]] = []
        for j in range(problem.p):
            row = self.pin_row if j == self.jstar else b[j] - 1  # 0-based
            fixed.append((row, j))
        self._fixed = set(fixed)
        free: List[Tuple[int, int]] = []
        for r1, j1 in pattern.support():
            pos = (r1 - 1, j1 - 1)
            if pos not in self._fixed:
                free.append(pos)
        free.sort()
        self._free = free
        if len(free) != n:
            raise AssertionError(
                f"chart has {len(free)} free entries, expected {n}"
            )

        # scatter/gather index tables shared by the scalar and batched
        # chart maps (to_matrix / to_matrix_batch)
        self._fixed_rows = np.array([r for r, _ in fixed], dtype=np.int64)
        self._fixed_cols = np.array([j for _, j in fixed], dtype=np.int64)
        self._free_rows = np.array([r for r, _ in free], dtype=np.int64)
        self._free_cols = np.array([j for _, j in free], dtype=np.int64)

        # --- bracket evaluator (see repro.schubert.brackets) -----------
        chart = self._chart = BracketChart(amb, free, fixed)
        powers = np.arange(chart.degrees)
        # the n-1 fixed conditions det [X(s_i, 1) | K_i] are constant
        # forms: bracket S of K_i times s_i to the total power
        self._tape = chart.tape(
            plane_brackets(np.stack(self.planes)[:-1])[:, :, None]
            * np.array(self.points[:-1])[:, None, None] ** powers
        )
        # moving condition: entry e of column j carries the weight
        # s**l * s0**(L_j - l), and bracket S of K(t) is a polynomial of
        # degree m in t — one form per power of t, the same at every
        # power of s because the weights already hold those
        self._s_pow = chart.power
        self._s0_pow = (
            np.array(pattern.column_degrees(), dtype=np.int64)[chart.column]
            - chart.power
        )
        moving = plane_path_brackets(
            self.gamma_k * self.k_special, self.planes[-1]
        )
        self._moving_tape = chart.tape(
            np.repeat(moving[:, :, None], chart.degrees, axis=2)
        )
        self._t_pow = np.arange(len(moving))
        # constants of the t-derivative: s'(t) = s_n - gamma_s, s0' = 1
        self._ds_ls = (self.points[-1] - self.gamma_s) * self._s_pow
        self._ls_1 = np.maximum(self._s_pow - 1, 0)
        self._l0_1 = np.maximum(self._s0_pow - 1, 0)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self._free)

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        """Scatter the unknown vector into a concatenated matrix."""
        return self.to_matrix_batch(np.asarray(x, dtype=complex)[None, :])[0]

    def to_matrix_batch(self, X: np.ndarray) -> np.ndarray:
        """Scatter a stack of unknown vectors, shape (npaths, nrows, p)."""
        X = np.asarray(X, dtype=complex)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected X of shape (npaths, {self.dim})")
        c = np.zeros(
            (X.shape[0], self.problem.nrows, self.problem.p), dtype=complex
        )
        c[:, self._fixed_rows, self._fixed_cols] = 1.0
        c[:, self._free_rows, self._free_cols] = X
        return c

    def from_matrix(self, c: np.ndarray) -> np.ndarray:
        """Gather the unknown vector from a matrix in this chart."""
        for row, j in self._fixed:
            if abs(c[row, j] - 1.0) > 1e-8:
                raise ValueError("matrix is not in this homotopy's chart")
        return np.array([c[row, j] for row, j in self._free], dtype=complex)

    def start_vector(self, child_matrix: np.ndarray) -> np.ndarray:
        """Embed a child solution (standard chart) as the start unknowns.

        The child matrix vanishes at the new star position, so gathering
        the parent chart's free entries automatically sets it to zero.
        """
        return np.array(
            [child_matrix[row, j] for row, j in self._free], dtype=complex
        )

    # ------------------------------------------------------------------
    def _moving(self, xe: np.ndarray, tt: np.ndarray, with_t: bool = False):
        """The moving condition ``det [X(s(t), s0(t)) | K(t)]`` per path.

        Returns ``(residual, x-gradient, t-derivative)`` at the extended
        unknowns ``xe``; the t-derivative is ``None`` unless asked for.
        The map depends on t through the entry weights, the plane through
        the powers of t that combine the replayed forms.
        """
        n = self._chart.n
        s = ((1.0 - tt) * self.gamma_s + tt * self.points[-1])[:, None]
        s0 = tt.astype(complex)[:, None]
        s_w, s0_w = s**self._s_pow, s0**self._s0_pow
        w = s_w * s0_w
        value, grad = self._chart.replay(xe * w, self._moving_tape)
        t_pow = s0**self._t_pow
        res = (t_pow * value).sum(axis=1)
        grad = np.matmul(t_pow[:, None, :], grad)[:, 0]
        jac = grad[:, :n] * w[:, :n]
        if not with_t:
            return res, jac, None
        # chain rule through the entry weights
        dw = self._ds_ls * s**self._ls_1 * s0_w + s_w * (
            self._s0_pow * s0**self._l0_1
        )
        dt_pow = self._t_pow[1:] * t_pow[:, :-1]
        dt = (dt_pow * value[:, 1:]).sum(axis=1) + (grad * xe * dw).sum(axis=1)
        return res, jac, dt

    def _batch(self, X, t, with_t: bool = False):
        """``(residuals, dH/dx, dH/dt or None)`` of a stack of points."""
        X = np.asarray(X, dtype=complex)
        npaths, n = X.shape
        tt = _per_path_t(t, npaths)
        xe = self._chart.extend(X)
        res = np.empty((npaths, n), dtype=complex)
        jac = np.empty((npaths, n, n), dtype=complex)
        res[:, :-1], grad = self._chart.replay(xe, self._tape)
        jac[:, :-1] = grad[:, :, :n]
        res[:, -1], jac[:, -1], dt = self._moving(xe, tt, with_t)
        if not with_t:
            return res, jac, None
        jt = np.zeros((npaths, n), dtype=complex)
        jt[:, -1] = dt
        return res, jac, jt

    # The benchmark's tracer wraps the methods it finds in this class's
    # own namespace, so the inherited ones are listed here by name.
    evaluate_batch = _BatchSlices.evaluate_batch
    jacobian_x_batch = _BatchSlices.jacobian_x_batch
    evaluate_and_jacobian_batch = _BatchSlices.evaluate_and_jacobian_batch
    jacobians_batch = _BatchSlices.jacobians_batch
    evaluate = BatchHomotopy.evaluate
    jacobian_x = BatchHomotopy.jacobian_x
    evaluate_and_jacobian_x = BatchHomotopy.evaluate_and_jacobian_x
    jacobian_t = BatchHomotopy.jacobian_t

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        """Only the moving condition depends on t: the fixed forms are
        not replayed."""
        X = np.asarray(X, dtype=complex)
        tt = _per_path_t(t, X.shape[0])
        out = np.zeros((X.shape[0], self.dim), dtype=complex)
        out[:, -1] = self._moving(self._chart.extend(X), tt, with_t=True)[2]
        return out

    # ------------------------------------------------------------------
    # tracker-level rescue hook (see repro.tracker.rescue)
    # ------------------------------------------------------------------
    def rescale_patch(self, x: np.ndarray, t: float):
        """Re-pin the chart of an apparently divergent path, if useful.

        Large coordinates usually mean the path left the affine chart
        (the pinned entry of the moving column tends to zero), not that
        the solution is at infinity: the determinant conditions are
        invariant under column scaling, so the currently largest entry
        of column ``jstar`` becomes the new pin.  Returns
        ``(new_homotopy, new_x)`` — the same geometric path in the
        re-pinned chart, with identical gamma twists so the per-node
        start/endpoint bijection is preserved — or ``None`` when no
        switch applies (no progress made, already in the best chart, or
        a zero candidate pivot).
        """
        if t <= 0.0 or t >= 1.0:
            return None
        c = self.to_matrix(np.asarray(x, dtype=complex))
        col_rows = [
            r - 1 for r, j in self.pattern.support() if j - 1 == self.jstar
        ]
        values = np.abs(c[col_rows, self.jstar])
        pin_row = col_rows[int(np.argmax(values))]
        if pin_row == self.pin_row or c[pin_row, self.jstar] == 0:
            return None
        c = c.copy()
        c[:, self.jstar] /= c[pin_row, self.jstar]
        new_hom = PieriEdgeHomotopy(
            self.pattern,
            self.jstar,
            self.planes,
            self.points,
            gamma_s=self.gamma_s,
            gamma_k=self.gamma_k,
            pin_row=pin_row,
        )
        return new_hom, new_hom.from_matrix(c)

    def __repr__(self) -> str:
        return (
            f"PieriEdgeHomotopy(pattern={self.pattern.shorthand()}, "
            f"jstar={self.jstar}, dim={self.dim})"
        )
