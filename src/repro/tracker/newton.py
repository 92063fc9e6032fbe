"""Newton correctors.

One structure-of-arrays corrector against a :class:`BatchHomotopy`
(:func:`batch_newton_correct`: the inner loop of the path tracker, one
stacked ``np.linalg.solve`` per sweep over the still-working paths;
:func:`newton_correct` is its one-row case), and a root refiner for
plain :class:`~repro.polynomials.PolynomialSystem` objects (used by
endgames and by tests to sharpen solutions to near machine precision).

Each path of a batch converges, underflows, or goes singular on its own
history alone, and paths that finish early are masked out of later
sweeps so no work (or divergence) from one path can perturb another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interface import BatchHomotopy, _per_path_t, require_batch_homotopy

__all__ = [
    "NewtonResult",
    "BatchNewtonResult",
    "newton_correct",
    "batch_newton_correct",
    "newton_refine_system",
]

#: contraction factor gating loose update-size acceptance: an update may
#: take the loose exit only when it shrank to at most this fraction of
#: the previous update — evidence the iteration is in its quadratic
#: regime, not inching along a near-singular stretch
CONTRACTION = 0.1


@dataclass
class NewtonResult:
    """Outcome of a Newton iteration on one point: one row of a
    :class:`BatchNewtonResult`, ``jacobian`` being ``None`` unless it
    was requested and is current."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual: float
    singular: bool = False
    jacobian: np.ndarray | None = None
    jac_evaluations: int = 0


def _solve(jac: np.ndarray, res: np.ndarray) -> np.ndarray | None:
    """Solve J dx = -res, returning None when J is numerically singular."""
    try:
        dx = np.linalg.solve(jac, -res)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(dx)):
        return None
    return dx


def newton_correct(
    homotopy: BatchHomotopy,
    x: np.ndarray,
    t: float,
    tol: float = 1e-10,
    max_iterations: int = 6,
    want_jacobian: bool = False,
    update_tol: float | None = None,
    loose_tol: float | None = None,
    fail_fast: bool = False,
) -> NewtonResult:
    """Newton's method on ``H(., t) = 0`` starting from ``x``.

    The one-row case of :func:`batch_newton_correct` — same sweeps, same
    criteria — unpacked into a :class:`NewtonResult`; anything but a
    :class:`BatchHomotopy` raises ``TypeError``.
    """
    out = _newton_sweeps(
        require_batch_homotopy(homotopy),
        np.asarray(x, dtype=complex)[None, :], t,
        tol, max_iterations, None, want_jacobian, update_tol, loose_tol,
        fail_fast,
    )
    return NewtonResult(
        out.x[0],
        bool(out.converged[0]),
        int(out.iterations[0]),
        float(out.residual[0]),
        singular=bool(out.singular[0]),
        jacobian=out.jacobian[0] if want_jacobian and out.jac_current[0] else None,
        jac_evaluations=int(out.jac_evaluations[0]),
    )


@dataclass
class BatchNewtonResult:
    """Outcome of one batched Newton run; leading axis is the path axis.

    ``jacobian``/``jac_current`` are populated only under
    ``want_jacobian``: rows with ``jac_current`` True hold ``J_x`` at
    the returned point (residual-check convergence — the evaluation
    that declared convergence produced the matrix) or within the
    update-size threshold of it (update acceptance — the final sweep's
    matrix), ready for the tracker to recycle into its next tangent
    solve.  Underflow- and tail-converged rows moved ``x`` a
    noise-floor-sized but *unvalidated* distance after the last
    Jacobian evaluation: their matrix is stale and they stay False.
    ``jac_evaluations`` counts, per path, the fused
    ``evaluate_and_jacobian_batch`` sweeps the path took part in.
    """

    x: np.ndarray           # (npaths, dim) corrected points
    converged: np.ndarray   # (npaths,) bool
    iterations: np.ndarray  # (npaths,) int
    residual: np.ndarray    # (npaths,) float max-norm residuals
    singular: np.ndarray    # (npaths,) bool
    jac_evaluations: np.ndarray | None = None  # (npaths,) int
    jacobian: np.ndarray | None = None         # (npaths, dim, dim)
    jac_current: np.ndarray | None = None      # (npaths,) bool


def _solve_batch(jac: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve J_i dx_i = -res_i over a stack, flagging singular members.

    The stacked LAPACK call raises for the whole batch when any member is
    exactly singular, so on failure we fall back to per-member solves and
    mark only the offenders.
    """
    try:
        dx = np.linalg.solve(jac, -res[..., None])[..., 0]
    except np.linalg.LinAlgError:
        dx = np.zeros_like(res)
        ok = np.ones(jac.shape[0], dtype=bool)
        for i in range(jac.shape[0]):
            try:
                dx[i] = np.linalg.solve(jac[i], -res[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return dx, ok & np.isfinite(dx).all(axis=1)
    return dx, np.isfinite(dx).all(axis=1)


def batch_newton_correct(
    homotopy: BatchHomotopy,
    X: np.ndarray,
    t,
    tol: float = 1e-10,
    max_iterations: int = 6,
    active: np.ndarray | None = None,
    want_jacobian: bool = False,
    update_tol: float | None = None,
    loose_tol: float | None = None,
    fail_fast: bool = False,
) -> BatchNewtonResult:
    """Newton's method on ``H(., t_i) = 0`` for a whole batch of paths.

    ``X`` is ``(npaths, dim)``, ``t`` a scalar or ``(npaths,)`` vector.
    Paths where ``active`` is False are left untouched (reported as not
    converged with infinite residual); each active path converges,
    underflows, or is flagged singular on its own history, and finished
    paths drop out of later sweeps.  Each sweep costs one batched
    evaluation plus one stacked ``np.linalg.solve`` over the
    still-working paths.

    Convergence is declared on the max-norm of the *residual*; a path
    also stops early if its update underflows (quadratic convergence hit
    the noise floor).  With ``want_jacobian`` the residual- and
    update-converged rows hand out ``J_x`` at (or within ``update_tol``
    of) their accepted point (see :class:`BatchNewtonResult`) — exactly
    the matrix the tracker's next tangent solve needs.

    ``update_tol`` additionally accepts on *update size* (PHCpack's path
    corrector criterion): once ``|dx|`` falls below it, quadratic
    convergence puts the next residual below tolerance, so the
    verification sweep is skipped — one fused evaluation saved per
    accepted step.  ``loose_tol`` (>= ``update_tol``) accepts a step
    earlier still, but only with *quadratic-contraction evidence*: the
    update must also have shrunk to at most :data:`CONTRACTION` times
    the previous one, so a corrector that is merely inching along
    (near-singular endgame region, wandering path) never takes the
    loose exit and falls back to the strict criteria.

    ``fail_fast`` rejects as soon as an update *grows*: a contracting
    Newton run shrinks its update every sweep, so growth means the
    prediction missed the basin and the remaining sweeps are almost
    always wasted — the tracker learns of the rejection several fused
    evaluations earlier and retries with a smaller step.

    ``max_iterations``, ``update_tol``, ``loose_tol`` and ``fail_fast``
    may also be given per path, as ``(npaths,)`` arrays (a NaN
    tolerance switches that exit off for its row): a front whose rows
    run under different options (the re-track ladder's rungs) corrects
    them in one call, each row exactly as a front of its own would.
    """
    return _newton_sweeps(
        homotopy, X, t, tol, max_iterations, active, want_jacobian,
        update_tol, loose_tol, fail_fast,
    )


def _newton_sweeps(
    homotopy, X, t, tol, max_iterations, active, want_jacobian,
    update_tol, loose_tol, fail_fast,
) -> BatchNewtonResult:
    """The one Newton iteration of the tracker package, behind both
    public names (a traced call of either opens one span)."""
    X = np.asarray(X, dtype=complex).copy()
    if X.ndim != 2:
        raise ValueError("X must have shape (npaths, dim)")
    npaths = X.shape[0]
    tt = _per_path_t(t, npaths)
    converged = np.zeros(npaths, dtype=bool)
    singular = np.zeros(npaths, dtype=bool)
    iterations = np.zeros(npaths, dtype=np.int64)
    residual = np.full(npaths, np.inf)
    jac_evals = np.zeros(npaths, dtype=np.int64)
    jac_out = jac_cur = None
    if want_jacobian:
        jac_out = np.zeros((npaths, X.shape[1], X.shape[1]), dtype=complex)
        jac_cur = np.zeros(npaths, dtype=bool)

    def result() -> BatchNewtonResult:
        return BatchNewtonResult(
            X, converged, iterations, residual, singular,
            jac_evaluations=jac_evals, jacobian=jac_out, jac_current=jac_cur,
        )

    if active is None:
        work = np.arange(npaths)
    else:
        work = np.flatnonzero(np.asarray(active, dtype=bool))
    # bh_work is the homotopy restricted to the rows ``swept`` (None:
    # every row); a row's position in it is found when a stage needs it
    bh_work, swept = homotopy, None

    def within(rows: np.ndarray) -> np.ndarray:
        return rows if swept is None else np.searchsorted(swept, rows)

    dx_prev = np.full(npaths, np.inf)
    # per-row limits: a row below the largest takes its closing
    # residual evaluation at its own last sweep
    limit = None
    if isinstance(max_iterations, np.ndarray):
        limit = np.asarray(max_iterations, dtype=np.int64)
        max_iterations = int(limit.max()) if npaths else 0
    rowwise = [
        isinstance(v, np.ndarray) for v in (update_tol, loose_tol, fail_fast)
    ]
    if rowwise[2] and not fail_fast.any():
        fail_fast, rowwise[2] = False, False
    # the last update's size is read by the loose exit and fail-fast only
    keep_prev = loose_tol is not None or rowwise[2] or bool(fail_fast)
    for it in range(1, max_iterations + 1):
        if work.size == 0:
            return result()
        # the rows still at work, as an index into the full arrays.
        # While every row survives that is a slice (a view, no gather)
        # and ``restrict`` would be the identity; each stage below
        # likewise re-gathers only when it actually drops a row
        whole = work.size == npaths
        rows = slice(None) if whole else work
        bh_work = homotopy if whole else homotopy.restrict(work)
        # restriction composes, so mid-sweep re-checks restrict this
        # view instead of re-slicing the full stack from scratch
        swept = None if whole else work
        res, jac = bh_work.evaluate_and_jacobian_batch(X[rows], tt[rows])
        jac_evals[rows] += 1
        resnorm = np.abs(res).max(axis=1)
        residual[rows] = resnorm
        done = resnorm <= tol
        if done.any():
            fin = work[done]
            converged[fin] = True
            iterations[fin] = it - 1
            if want_jacobian:
                jac_out[fin] = jac[done]
                jac_cur[fin] = True
            keep = ~done
            rows = work = work[keep]
            res, jac = res[keep], jac[keep]
            if work.size == 0:
                return result()
        dx, ok = _solve_batch(jac, res)
        if not ok.all():
            bad = work[~ok]
            singular[bad] = True
            iterations[bad] = it - 1
            rows = work = work[ok]
            dx, jac = dx[ok], jac[ok]
            if work.size == 0:
                return result()
        X[rows] += dx
        dxnorm = np.abs(dx).max(axis=1)
        if update_tol is not None:
            # update-size acceptance: quadratic convergence puts the
            # next residual below tolerance, so skip its verification
            # sweep; the handed-out Jacobian is the final sweep's,
            # current to within |dx| of the accepted point.  The
            # threshold is absolute, like the residual criterion it
            # replaces — a relative one balloons on diverging paths
            small = dxnorm <= (update_tol[rows] if rowwise[0] else update_tol)
            if loose_tol is not None:
                prev = dx_prev[rows]
                small |= (
                    (dxnorm <= (loose_tol[rows] if rowwise[1] else loose_tol))
                    # finite guard: prev is inf on a row's first sweep,
                    # and one update is no contraction evidence at all
                    & np.isfinite(prev)
                    & (dxnorm <= CONTRACTION * prev)
                )
            if small.any():
                fin = work[small]
                converged[fin] = True
                iterations[fin] = it
                if want_jacobian:
                    jac_out[fin] = jac[small]
                    jac_cur[fin] = True
                keep = ~small
                rows = work = work[keep]
                dx = dx[keep]
                dxnorm = dxnorm[keep]
                if work.size == 0:
                    return result()
        if rowwise[2] or fail_fast:
            grew = dxnorm > dx_prev[rows]
            if rowwise[2]:
                grew &= fail_fast[rows]
            if grew.any():
                iterations[work[grew]] = it
                keep = ~grew
                rows = work = work[keep]
                dx = dx[keep]
                dxnorm = dxnorm[keep]
                if work.size == 0:
                    return result()
        if keep_prev:
            dx_prev[rows] = dxnorm
        # update underflow: quadratic convergence hit the noise floor,
        # |dx| <= 1e-15 max(1, |x|).  No row is there while every update
        # exceeds that bound at the front's largest coordinate
        xabs = np.abs(X[rows])
        if not dxnorm.min() > 1e-15 * np.maximum(1.0, xabs.max()):
            under = dxnorm <= 1e-15 * np.maximum(1.0, xabs.max(axis=1))
            if under.any():
                u = work[under]
                res = bh_work.restrict(within(u)).evaluate_batch(X[u], tt[u])
                rn = np.abs(res).max(axis=1)
                residual[u] = rn
                converged[u] = rn <= tol * 1e3
                iterations[u] = it
                work = work[~under]
        if limit is not None and it < max_iterations:
            last = limit[work] == it
            if last.any():
                out = work[last]
                _close_rows(
                    bh_work.restrict(within(out)), X, tt, out, tol, it,
                    residual, converged, iterations,
                )
                work = work[~last]
    if work.size:
        _close_rows(
            bh_work.restrict(within(work)), X, tt, work, tol, max_iterations,
            residual, converged, iterations,
        )
    return result()


def _close_rows(bh, X, tt, rows, tol, it, residual, converged, iterations):
    """Rows out of sweeps: their residual at the last update decides."""
    rn = np.max(np.abs(bh.evaluate_batch(X[rows], tt[rows])), axis=1)
    residual[rows] = rn
    converged[rows] = rn <= tol
    iterations[rows] = it


def newton_refine_system(
    system,
    x: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int = 20,
) -> NewtonResult:
    """Refine an approximate root of a square :class:`PolynomialSystem`."""
    if not system.is_square():
        raise ValueError("Newton refinement needs a square system")
    x = np.asarray(x, dtype=complex).copy()
    residual = float("inf")
    for it in range(1, max_iterations + 1):
        res, jac = system.evaluate_and_jacobian(x)
        residual = float(np.max(np.abs(res)))
        if residual <= tol:
            return NewtonResult(x, True, it - 1, residual)
        dx = _solve(jac, res)
        if dx is None:
            return NewtonResult(x, False, it - 1, residual, singular=True)
        x = x + dx
    res = system.evaluate(x)
    residual = float(np.max(np.abs(res)))
    return NewtonResult(x, residual <= tol, max_iterations, residual)
