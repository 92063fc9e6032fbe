"""A small batched dual-simplex LP feasibility kernel for the lower-hull test.

Mixed-cell enumeration needs one primitive: *is there a vector gamma
satisfying these equalities and inequalities?*  (The equalities say the
chosen edge of each lifted support is level under gamma; the
inequalities say every other lifted point lies above.)  The systems are
tiny — at most ``nvars`` equalities and a few dozen inequalities — but
the enumeration asks thousands of them, and the ones asked together
(every edge pair of two supports, every partial cell of one search
level) share one shape.  So the kernel answers a *stack* of same-shape
systems at once, :func:`lp_feasible_stack`; the scalar entry points
:func:`lp_feasible` and :func:`inequalities_feasible` are one-row calls
of it.  A dense tableau kernel beats pulling in an external solver, and
keeping it here makes the enumeration's pruning logic auditable end to
end.

The kernel works in two stages, each vectorised over the stack:

1. eliminate the equality constraints by parametrizing their solution
   set (particular solution + nullspace via one stacked SVD), leaving a
   pure inequality system ``A z <= b`` in the nullspace coordinates;
   rows are grouped by the rank of their equalities, so each group
   shares one reduced shape;
2. run the dual simplex on the all-slack basis: with a zero objective
   the basis is dual-feasible from the start, and each pivot repairs one
   primal infeasibility.  Bland's smallest-index rule on both the
   leaving and entering choice guarantees termination.  Every row
   pivots on its own tableau with exactly the scalar arithmetic, and a
   row leaves the stack once it is answered, so a row's answer never
   depends on the rest of its stack.

Stacks run in chunks of at most :data:`STACK_BYTES` of tableau
(:func:`chunk_length`), which bounds the kernel's memory whatever the
stack's length.

The enumeration uses feasibility answers only to *prune* partial cells,
and verifies every surviving cell exactly in integer arithmetic
(:mod:`repro.polyhedral.cells`), so the kernel is allowed to err on the
side of ``True`` — the iteration-cap fallback — but must never declare
a feasible system infeasible.  Infeasibility is therefore only reported
with a certificate row in hand (all tableau entries nonnegative against
a negative right-hand side).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STACK_BYTES",
    "chunk_length",
    "inequalities_feasible",
    "lp_feasible",
    "lp_feasible_stack",
]

#: slack below which a tableau entry counts as "could be negative"; data
#: entering the kernel is integral with magnitudes ~1e3, so true
#: violations are orders of magnitude above float noise
_TOL = 1e-9

#: tableau bytes one chunk of a stack may hold; the pivot's temporaries
#: are of the same size, so a chunk peaks at a small multiple of this
STACK_BYTES = 1 << 19


def chunk_length(m: int, n: int) -> int:
    """Rows of a stack of ``m``-inequality, ``n``-variable LPs per chunk.

    >>> chunk_length(10, 4) == STACK_BYTES // (8 * 10 * (2 * 4 + 10 + 1))
    True
    """
    return max(1, STACK_BYTES // (8 * max(m, 1) * (2 * n + m + 1)))


def _dual_simplex(A: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Feasibility of every ``A[k] z <= b[k]`` (z free), ``A`` of shape
    ``(rows, m, d)`` with ``m, d >= 1``."""
    rows, m, d = A.shape
    ncols = 2 * d + m
    # columns: u (d), v (d) with z = u - v, then m slacks; all >= 0
    T = np.concatenate(
        [A, -A, np.broadcast_to(np.eye(m), (rows, m, m)), b[:, :, None]], axis=2
    )
    basis = np.tile(np.arange(2 * d, ncols), (rows, 1))
    answer = np.ones(rows, dtype=bool)
    live = np.arange(rows)
    for _ in range(60 * (m + d + 4)):
        bad = T[:, :, -1] < -tol
        # Bland (dual): leave on the smallest basic-variable index
        r = np.where(bad, basis, ncols).argmin(axis=1)
        at = np.arange(live.size)
        elig = T[at, r, :ncols] < -tol
        open_ = bad.any(axis=1)
        pivots = elig.any(axis=1)
        # no violated row: feasible; a violated row with no negative
        # entry is the certificate: infeasible
        answer[live[open_ & ~pivots]] = False
        keep = open_ & pivots
        if not keep.all():
            live, T, basis, r, elig = (
                live[keep], T[keep], basis[keep], r[keep], elig[keep]
            )
            if live.size == 0:
                break
            at = np.arange(live.size)
        j = elig.argmax(axis=1)  # zero objective: every eligible ratio ties at 0
        piv = T[at, r] / T[at, r, j][:, None]
        T -= T[at, :, j][:, :, None] * piv[:, None, :]
        T[at, r] = piv
        basis[at, r] = j
    # rows still live hit the iteration cap: unresolved, so they keep the
    # prune-safe True
    return answer


def _feasible_chunk(A_eq, b_eq, A_ub, b_ub, tol: float) -> np.ndarray:
    """:func:`lp_feasible_stack` on one chunk: eliminate, then simplex."""
    rows, k, n = A_eq.shape
    m = A_ub.shape[1]
    if k == 0:
        if m == 0:
            return np.ones(rows, dtype=bool)
        if n == 0:
            return np.all(b_ub >= -tol, axis=1)
        return _dual_simplex(A_ub, b_ub, tol)
    u, s, vt = np.linalg.svd(A_eq, full_matrices=True)
    ns = s.shape[1]
    top = s[:, 0] if ns else np.zeros(rows)
    rank = np.sum(s > np.maximum(tol, 1e-12 * top)[:, None], axis=1)
    # particular solution by pseudo-inverse; check consistency
    s_inv = np.zeros_like(s)
    nz = np.arange(ns) < rank[:, None]
    s_inv[nz] = 1.0 / s[nz]
    ub = np.swapaxes(u, 1, 2)[:, :ns] @ b_eq[:, :, None]
    x0 = (np.swapaxes(vt[:, :ns], 1, 2) @ (s_inv[:, :, None] * ub))[:, :, 0]
    resid = (A_eq @ x0[:, :, None])[:, :, 0] - b_eq
    scale = np.maximum(1.0, np.max(np.abs(b_eq), axis=1))
    answer = ~(np.max(np.abs(resid), axis=1) > 1e-6 * scale)
    if m == 0:
        return answer
    b_red = b_ub - (A_ub @ x0[:, :, None])[:, :, 0]
    for r in sorted(set(rank[answer].tolist())):
        group = np.flatnonzero(answer & (rank == r))
        if r == n:
            floor = -1e-6 * np.maximum(1.0, np.max(np.abs(b_ub[group]), axis=1))
            answer[group] = np.all(b_red[group] >= floor[:, None], axis=1)
        else:
            null = np.swapaxes(vt[group, r:], 1, 2)  # (rows, n, n - rank)
            answer[group] = _dual_simplex(A_ub[group] @ null, b_red[group], tol)
    return answer


def lp_feasible_stack(
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    tol: float = _TOL,
) -> np.ndarray:
    """Is each ``{A_eq[k] x = b_eq[k], A_ub[k] x <= b_ub[k]}`` feasible?

    ``A_eq`` is ``(rows, k, n)`` and ``A_ub`` is ``(rows, m, n)``; either
    block may be empty (``k == 0`` or ``m == 0``).  Returns one bool per
    row, each equal to the row's own one-row answer.

    >>> import numpy as np
    >>> A_eq = np.array([[[1.0, 1.0]], [[1.0, 1.0]]])
    >>> A_ub = np.array([[[1.0, 0.0], [0.0, 1.0]]] * 2)
    >>> lp_feasible_stack(A_eq, np.array([[2.0], [-2.0]]),
    ...                   A_ub, np.zeros((2, 2))).tolist()
    [False, True]
    """
    A_eq = np.asarray(A_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    A_ub = np.asarray(A_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    rows, m, n = A_ub.shape
    step = chunk_length(m, n)
    out = np.empty(rows, dtype=bool)
    for lo in range(0, rows, step):
        hi = lo + step
        out[lo:hi] = _feasible_chunk(
            A_eq[lo:hi], b_eq[lo:hi], A_ub[lo:hi], b_ub[lo:hi], tol
        )
    return out


def inequalities_feasible(
    A: np.ndarray, b: np.ndarray, tol: float = _TOL
) -> bool:
    """Does ``A z <= b`` admit a solution (z free)?  Dual simplex.

    >>> import numpy as np
    >>> inequalities_feasible(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    True
    >>> inequalities_feasible(np.array([[1.0], [-1.0]]), np.array([-2.0, 3.0]))
    True
    >>> inequalities_feasible(np.array([[1.0], [-1.0]]), np.array([-2.0, 1.0]))
    False
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(len(A))
    return bool(
        lp_feasible_stack(np.zeros((1, 0, A.shape[1])), np.zeros((1, 0)),
                          A[None], b[None], tol)[0]
    )


def lp_feasible(
    A_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    A_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    tol: float = _TOL,
) -> bool:
    """Is ``{A_eq x = b_eq, A_ub x <= b_ub}`` feasible (x free)?

    Either constraint block may be ``None``/empty.  Equalities are
    eliminated first; inconsistent equalities are infeasible outright.

    >>> import numpy as np
    >>> lp_feasible(np.array([[1.0, 1.0]]), np.array([2.0]),
    ...             np.array([[1.0, 0.0]]), np.array([5.0]))
    True
    >>> lp_feasible(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 3.0]),
    ...             None, None)
    False
    """
    blocks = []
    for A, b in ((A_eq, b_eq), (A_ub, b_ub)):
        if A is None or len(A) == 0:
            blocks.append(None)
        else:
            A = np.atleast_2d(np.asarray(A, dtype=float))
            blocks.append((A, np.asarray(b, dtype=float).reshape(len(A))))
    known = [blk[0].shape[1] for blk in blocks if blk is not None]
    if not known:
        return True
    n = known[0]
    (A_eq, b_eq), (A_ub, b_ub) = (
        blk if blk is not None else (np.zeros((0, n)), np.zeros(0))
        for blk in blocks
    )
    return bool(
        lp_feasible_stack(A_eq[None], b_eq[None], A_ub[None], b_ub[None], tol)[0]
    )
