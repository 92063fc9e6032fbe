"""Batched structure-of-arrays path tracking.

:class:`BatchTracker` advances N solution paths at once: the state is one
``(npaths, dim)`` complex array plus per-path vectors for time, step size
and streak counters, and every stage of the predictor-corrector loop — the
tangent solve, the Newton sweeps, the step-control bookkeeping — is one
vectorized numpy call over the whole *active front* instead of N Python
round trips.  This is the data-parallel axis orthogonal to the paper's
distribution of whole paths across workers: where Verschelde-Wang amortize
path cost over MPI ranks, the batch tracker amortizes Python and numpy
dispatch overhead over paths, and the two compose (see
``mode="hybrid"`` in :func:`repro.parallel.track_paths_parallel`).

This is the one predictor-corrector loop of the package: each path keeps
its own adaptive step size, so the decisions it makes (accept/reject,
expand/shrink, diverge, fail) depend only on its own history — a row is
tracked bit for bit the same whatever rows travel with it — and the batch
runs them in lockstep sweeps.  :class:`~repro.tracker.tracker.PathTracker`
is the one-row case.  Paths that
finish — converged to t=1, diverged past the bound, or failed on step
underflow — are *culled* from the front, so late sweeps run on ever
smaller batches.  The endgame (sharpening at t=1) is deferred and run once
as a single batched Newton over every surviving path.

Time accounting: exclusive per-path cost is not observable when paths
share batched kernel calls, so per-path ``stats.seconds`` is *amortized*
— each sweep's wall-clock cost is split evenly over the paths live in
the front for that sweep (plus their share of the start-point check and
the endgame batch).  Per-path seconds are therefore comparable across
batch sizes, they sum to the batch's wall clock, and a one-row front's
are that path's exclusive wall time.

With ``options.trace_paths`` set and an ambient
:class:`~repro.telemetry.Telemetry` context active, the tracker
additionally records per-path trace events (step accept/reject with t,
step size and Newton count; endgame handoffs) and predictor/corrector
spans; the default path keeps every hook behind a single ``None`` check.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from ..telemetry import current_telemetry, maybe_span
from .interface import BatchHomotopy, HomotopyFunction, as_batch
from .newton import _solve_batch, batch_newton_correct
from .predictor import make_predictor
from .result import PathResult, PathStatus, TrackStats
from .tracker import TrackerOptions

__all__ = ["BatchTracker"]

# internal per-path state codes while the batch is in flight
_RUNNING = -1
_ENDGAME = -2
_STATUS_BY_CODE = {
    0: PathStatus.SUCCESS,
    1: PathStatus.DIVERGED,
    2: PathStatus.FAILED,
    3: PathStatus.SINGULAR,
    4: PathStatus.AT_INFINITY,
}
_CODE_BY_STATUS = {s: c for c, s in _STATUS_BY_CODE.items()}


class BatchTracker:
    """Tracks batches of solution paths from t=0 to t=1 as one SoA front.

    ``endgame`` picks the terminal-phase strategy: ``None`` (the default
    :class:`~repro.endgame.RefineEndgame`), a name (``"refine"`` /
    ``"cauchy"``), or an :class:`~repro.endgame.EndgameStrategy`
    instance; the whole surviving front is finished by one
    :meth:`~repro.endgame.EndgameStrategy.finish_batch` call.
    """

    def __init__(
        self, options: TrackerOptions | None = None, endgame=None
    ) -> None:
        self.options = (options or TrackerOptions()).validated()
        # imported lazily: repro.endgame builds on the tracker submodules
        from ..endgame import make_endgame

        self.endgame = make_endgame(endgame)

    # ------------------------------------------------------------------
    def _tangents(
        self,
        homotopy: BatchHomotopy,
        X: np.ndarray,
        tt: np.ndarray,
        jac: np.ndarray | None = None,
        jac_ok: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """dx/dt from J_x dx/dt = -J_t per path, plus a per-path ok flag.

        ``jac``/``jac_ok`` hand recycled corrector Jacobians across the
        step boundary: rows with ``jac_ok`` True reuse their matrix and
        only evaluate ``J_t`` (an eval-only pass — on the SLP backend
        one "eval" program instead of the fused "eval_jac"); the rest
        take the full fused ``jacobians_batch`` route.
        """
        if jac is None or jac_ok is None or not jac_ok.any():
            jac_x, jac_t = homotopy.jacobians_batch(X, tt)
            return _solve_batch(jac_x, jac_t)
        if jac_ok.all():
            return _solve_batch(jac, homotopy.jacobian_t_batch(X, tt))
        loc_r = np.flatnonzero(jac_ok)
        loc_f = np.flatnonzero(~jac_ok)
        jac_x = np.empty((X.shape[0], X.shape[1], X.shape[1]), dtype=complex)
        jac_t = np.empty_like(X)
        jac_x[loc_r] = jac[loc_r]
        jac_t[loc_r] = homotopy.restrict(loc_r).jacobian_t_batch(
            X[loc_r], tt[loc_r]
        )
        jac_x[loc_f], jac_t[loc_f] = homotopy.restrict(loc_f).jacobians_batch(
            X[loc_f], tt[loc_f]
        )
        return _solve_batch(jac_x, jac_t)

    def track_batch(
        self,
        homotopy: BatchHomotopy | HomotopyFunction,
        starts: Sequence[Sequence[complex]],
        path_ids: Sequence[int] | None = None,
        t_start: float | Sequence[float] = 0.0,
    ) -> List[PathResult]:
        """Track all ``starts`` from ``t=t_start`` to t=1 in lockstep sweeps.

        ``homotopy`` may be a native :class:`BatchHomotopy` or any scalar
        :class:`HomotopyFunction` (wrapped via
        :func:`~repro.tracker.interface.as_batch`); a
        :class:`~repro.tracker.stacked.StackedHomotopy` lets each row
        track its *own* homotopy.  ``t_start`` is a scalar or one value
        per path — per-path starts serve batched chart-switch
        continuation, where each resumed path picks up at the ``t`` it
        had reached.  Returns one :class:`PathResult` per start, in
        input order.
        """
        return self._traced(homotopy, starts, path_ids, t_start)

    def _traced(self, homotopy, starts, path_ids, t_start) -> List[PathResult]:
        """The body behind both public names, ``track_batch`` and
        :meth:`PathTracker.track <repro.tracker.tracker.PathTracker.track>`
        (a traced call of either opens one span)."""
        tel = current_telemetry() if self.options.trace_paths else None
        if tel is None:
            return self._track_batch(homotopy, starts, path_ids, t_start, None)
        with tel.trace():
            return self._track_batch(homotopy, starts, path_ids, t_start, tel)

    def _track_batch(
        self,
        homotopy: BatchHomotopy | HomotopyFunction,
        starts: Sequence[Sequence[complex]],
        path_ids: Sequence[int] | None,
        t_start: float | Sequence[float],
        tel,
    ) -> List[PathResult]:
        opts = self.options
        bh = as_batch(homotopy)
        X = np.array([np.asarray(s, dtype=complex) for s in starts], dtype=complex)
        if X.size == 0:
            return []
        if X.ndim != 2 or X.shape[1] != bh.dim:
            raise ValueError(f"expected starts of shape (npaths, {bh.dim})")
        n = X.shape[0]
        T = np.asarray(t_start, dtype=float)
        if T.ndim == 0:
            T = np.full(n, float(T))
        elif T.shape != (n,):
            raise ValueError(f"expected t_start scalar or shape ({n},)")
        else:
            T = T.copy()
        if np.any((T < 0.0) | (T >= 1.0)):
            raise ValueError("t_start must lie in [0, 1)")
        if path_ids is None:
            path_ids = list(range(n))
        elif len(path_ids) != n:
            raise ValueError("path_ids must match the number of starts")

        x_start = X.copy()
        step = np.full(n, opts.initial_step)
        easy = np.zeros(n, dtype=np.int64)
        accepted = np.zeros(n, dtype=np.int64)
        rejected = np.zeros(n, dtype=np.int64)
        newton = np.zeros(n, dtype=np.int64)
        jac_evals = np.zeros(n, dtype=np.int64)
        recycled = np.zeros(n, dtype=np.int64)
        state = np.full(n, _RUNNING, dtype=np.int64)
        res_final = np.full(n, np.inf)
        t_reached = np.zeros(n)
        charged = np.zeros(n)
        pred = make_predictor(opts.predictor)
        # the error-model pipeline is on or off as a whole (see Predictor)
        recycle = fail_fast = on = pred.error_model
        update_tol = float(np.sqrt(opts.corrector_tol)) if on else None
        loose_tol = opts.corrector_tol ** (1.0 / 3.0) if on else None
        # per-call predictor history (secant/Hermite memory), seeded with
        # the uncorrected starts — a requeued/resumed batch (chart-switch
        # continuation with per-path t_start) begins with *empty* history
        pstate = pred.make_state(X, T)
        if recycle:
            # corrector Jacobians carried across the step boundary; rows
            # stay valid over rejections (the point did not move)
            re_jac = np.zeros((n, bh.dim, bh.dim), dtype=complex)
            re_ok = np.zeros(n, dtype=bool)

        mark = time.perf_counter()

        def charge(idx: np.ndarray) -> None:
            # amortize the wall time since the last mark evenly over the
            # paths that were live in the front for it
            nonlocal mark
            now = time.perf_counter()
            if idx.size:
                charged[idx] += (now - mark) / idx.size
            mark = now

        def classify(idx: np.ndarray, status: PathStatus, res: np.ndarray) -> None:
            state[idx] = _CODE_BY_STATUS[status]
            res_final[idx] = res
            t_reached[idx] = T[idx]

        # make sure the start points actually solve H(., t_start)
        with maybe_span(tel, "start_check", "corrector"):
            check = batch_newton_correct(
                bh, X, T, tol=opts.corrector_tol,
                max_iterations=opts.corrector_iterations,
                want_jacobian=recycle,
            )
        newton += check.iterations
        jac_evals += check.jac_evaluations
        bad = np.flatnonzero(~check.converged)
        classify(bad, PathStatus.FAILED, check.residual[bad])
        # failed paths keep their original start point; only converged
        # paths adopt the corrected one
        X[check.converged] = check.x[check.converged]
        if recycle:
            re_ok[:] = check.jac_current
            re_jac[check.jac_current] = check.jacobian[check.jac_current]
        charge(np.arange(n))

        # --- main predictor-corrector sweeps over the active front
        while True:
            run = np.flatnonzero(state == _RUNNING)
            if run.size == 0:
                break
            exhausted = run[accepted[run] + rejected[run] >= opts.max_steps]
            if exhausted.size:
                classify(
                    exhausted, PathStatus.FAILED, np.full(exhausted.size, np.inf)
                )
                run = np.flatnonzero(state == _RUNNING)
                if run.size == 0:
                    break
            # the running rows, as an index into the front's arrays.
            # While no row has left the front that is a slice (views,
            # no gathers) and ``restrict`` would be the identity
            whole = run.size == n
            live = slice(None) if whole else run
            bh_run = bh if whole else bh.restrict(run)
            X_run, T_run = X[live], T[live]
            dt = np.minimum(step[live], 1.0 - T_run)
            t_new = T_run + dt

            # --- predict: batched tangent (recycled J_x where valid),
            # predictor-strategy point guess with secant fallback
            with maybe_span(tel, "tangent", "predictor"):
                hit = re_ok[live] if recycle else None
                if recycle and hit.any():
                    tangent, ok = self._tangents(
                        bh_run, X_run, T_run, jac=re_jac[live], jac_ok=hit
                    )
                    recycled[live] += hit
                    jac_evals[live] += ~hit
                    if tel is not None:
                        tel.count(
                            "tracker.tangents_recycled", int(hit.sum())
                        )
                else:
                    tangent, ok = self._tangents(bh_run, X_run, T_run)
                    jac_evals[live] += 1
                x_pred = pred.predict(
                    pstate, run, X_run, T_run, dt, tangent, ok
                )

            # --- correct
            with maybe_span(tel, "newton", "corrector"):
                corr = batch_newton_correct(
                    bh_run,
                    x_pred,
                    t_new,
                    tol=opts.corrector_tol,
                    max_iterations=opts.corrector_iterations,
                    want_jacobian=recycle,
                    update_tol=update_tol,
                    loose_tol=loose_tol,
                    fail_fast=fail_fast,
                )
            newton[live] += corr.iterations
            jac_evals[live] += corr.jac_evaluations

            conv = corr.converged
            err_all = None
            if pred.error_model and conv.any():
                # suspected path jump: the corrector converged, but to a
                # point far beyond what the prediction's error model can
                # explain — almost certainly a neighboring path's basin.
                # Rejecting here costs one retry at a smaller step and
                # saves the whole endpoint-collision retracking rung the
                # jump would otherwise trigger
                err_all = np.abs(corr.x - x_pred).max(axis=1)
                jump = conv & (err_all > pred.jump_factor * pred.target_error)
                if jump.any():
                    conv = conv & ~jump
                    if tel is not None:
                        tel.count("tracker.jump_rejections", int(jump.sum()))
            if tel is not None:
                for k in range(run.size):
                    tel.instant(
                        "step_accept" if conv[k] else "step_reject",
                        "tracker",
                        path=int(path_ids[run[k]]),
                        t=float(t_new[k]),
                        dt=float(dt[k]),
                        newton=int(corr.iterations[k]),
                    )
                    tel.observe("step_size", float(dt[k]))
            acc = run[conv]
            if acc.size:
                pred.accepted(
                    pstate, acc, X[acc], T[acc], tangent[conv], ok[conv]
                )
                X[acc] = corr.x[conv]
                T[acc] = t_new[conv]
                accepted[acc] += 1
                if recycle:
                    re_ok[acc] = corr.jac_current[conv]
                    cur = conv & corr.jac_current
                    re_jac[run[cur]] = corr.jacobian[cur]
                if pred.error_model:
                    # asymptotic error model: err ~ C dt^p per path, so
                    # the dt that would have hit the target error is
                    # dt * (target / err)^(1/p), damped by safety and
                    # capped at max_growth per step
                    err = err_all[conv]
                    growth = np.full(acc.size, pred.max_growth)
                    pos = err > 0.0
                    growth[pos] = np.minimum(
                        pred.max_growth,
                        pred.safety
                        * (pred.target_error / err[pos]) ** (1.0 / pred.order),
                    )
                    step[acc] = np.minimum(
                        np.maximum(dt[conv] * growth, opts.min_step),
                        opts.max_step,
                    )
                    if tel is not None:
                        for e in err:
                            tel.observe("predictor_error", float(e))
                else:
                    easy[acc] += 1
                    expand = (easy[acc] >= opts.expand_after) & (
                        corr.iterations[conv] <= 2
                    )
                    grow = acc[expand]
                    step[grow] = np.minimum(
                        step[grow] * opts.expand, opts.max_step
                    )
                    easy[grow] = 0
                norms = np.abs(X[acc]).max(axis=1)
                div = norms > opts.divergence_bound
                if div.any():
                    classify(
                        acc[div], PathStatus.DIVERGED, corr.residual[conv][div]
                    )
                # survivors that reached t=1 leave the front for the endgame
                done = (~div) & (T[acc] >= 1.0)
                state[acc[done]] = _ENDGAME
                if tel is not None:
                    for p in acc[done]:
                        tel.instant(
                            "endgame_handoff",
                            "tracker",
                            path=int(path_ids[p]),
                            reason="arrived",
                        )

            rej = run[~conv]
            if rej.size:
                rejected[rej] += 1
                easy[rej] = 0
                step[rej] *= opts.shrink
                under = step[rej] < opts.min_step
                dead = rej[under]
                if dead.size:
                    blew_up = np.max(np.abs(X[dead]), axis=1) > 1e3
                    res_dead = corr.residual[~conv][under]
                    classify(
                        dead[blew_up], PathStatus.DIVERGED, res_dead[blew_up]
                    )
                    fail = dead[~blew_up]
                    # stalls inside the endgame's operating radius are
                    # handed to the strategy instead of failing
                    in_radius = T[fail] > 1.0 - self.endgame.operating_radius
                    state[fail[in_radius]] = _ENDGAME
                    if tel is not None:
                        for p in fail[in_radius]:
                            tel.instant(
                                "endgame_handoff",
                                "tracker",
                                path=int(path_ids[p]),
                                reason="stalled",
                                t=float(T[p]),
                            )
                    classify(
                        fail[~in_radius],
                        PathStatus.FAILED,
                        res_dead[~blew_up][~in_radius],
                    )

            charge(run)

        # --- endgame: the whole surviving front finishes as one batch
        endg = np.flatnonzero(state == _ENDGAME)
        winding = np.zeros(n, dtype=np.int64)
        finished_by_endgame = np.zeros(n, dtype=bool)
        finished_by_endgame[endg] = True
        if endg.size:
            with maybe_span(tel, "finish", "endgame"):
                out = self.endgame.finish_batch(
                    bh.restrict(endg), X[endg], T[endg], opts
                )
            newton[endg] += out.iterations
            X[endg] = out.x
            winding[endg] = out.winding_number
            for st in (
                PathStatus.SUCCESS,
                PathStatus.FAILED,
                PathStatus.SINGULAR,
                PathStatus.DIVERGED,
                PathStatus.AT_INFINITY,
            ):
                mask = np.array([s is st for s in out.status], dtype=bool)
                if mask.any():
                    classify(endg[mask], st, out.residual[mask])
            charge(endg)

        # --- gather SoA state back into per-path results
        results: List[PathResult] = []
        for i in range(n):
            stats = TrackStats(
                steps_accepted=int(accepted[i]),
                steps_rejected=int(rejected[i]),
                newton_iterations=int(newton[i]),
                t_reached=float(t_reached[i]),
                seconds=float(charged[i]),
                jacobian_evaluations=int(jac_evals[i]),
                tangents_recycled=int(recycled[i]),
            )
            w = int(winding[i])
            results.append(
                PathResult(
                    _STATUS_BY_CODE[int(state[i])],
                    X[i],
                    x_start[i],
                    float(res_final[i]),
                    stats,
                    int(path_ids[i]),
                    endgame=self.endgame.name if finished_by_endgame[i] else None,
                    winding_number=w if w > 0 else None,
                    multiplicity=w if w > 0 else None,
                )
            )
        return results

    # alias matching PathTracker.track_many's shape for drop-in use
    track_many = track_batch
