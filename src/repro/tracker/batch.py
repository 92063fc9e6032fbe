"""Batched structure-of-arrays path tracking.

:class:`BatchTracker` advances N solution paths at once: the state is one
``(npaths, dim)`` complex array plus per-path vectors for time, step size
and streak counters, and every stage of the predictor-corrector loop — the
tangent solve, the Newton sweeps, the step-control bookkeeping — is one
vectorized numpy call over the whole *active front* instead of N Python
round trips.  This is the data-parallel axis orthogonal to the paper's
distribution of whole paths across workers: where Verschelde-Wang amortize
path cost over MPI ranks, the batch tracker amortizes Python and numpy
dispatch overhead over paths, and the two compose: every worker of
:func:`repro.parallel.track_paths_parallel` tracks its block of paths as
one front.

This is the one predictor-corrector loop of the package: each path keeps
its own adaptive step size, so the decisions it makes (accept/reject,
expand/shrink, diverge, fail) depend only on its own history — a row is
tracked bit for bit the same whatever rows travel with it — and the batch
runs them in lockstep sweeps.  :class:`~repro.tracker.tracker.PathTracker`
is the one-row case.  Paths that
finish — converged to t=1, diverged past the bound, or failed on step
underflow — are *culled* from the front, so late sweeps run on ever
smaller batches.  The endgame (sharpening at t=1) is deferred and run once
as a single batched Newton over every surviving path.  Tracked under a
re-track :class:`~repro.tracker.result.Ladder`, the front also grows: a
path that collides or fails re-enters it from its start, on its next
rung's options, and rides the remaining sweeps.

Time accounting: exclusive per-path cost is not observable when paths
share batched kernel calls, so per-path ``stats.seconds`` is *amortized*
— each sweep's wall-clock cost is split evenly over the paths live in
the front for that sweep (plus their share of the start-point check and
the endgame batch).  Per-path seconds are therefore comparable across
batch sizes, they sum to the batch's wall clock, and a one-row front's
are that path's exclusive wall time.

Inside a ``tel.trace()`` region of the ambient
:class:`~repro.telemetry.Telemetry` context (``solve(trace_paths=True)``
opens one), the tracker additionally records per-path trace events
(step accept/reject with t, step size and Newton count; endgame
handoffs) and predictor/corrector spans; the default path keeps every hook behind a single ``None`` check.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from ..telemetry import active_tracer, maybe_span
from .interface import BatchHomotopy, require_batch_homotopy
from .newton import _solve_batch, batch_newton_correct
from .predictor import make_predictor
from .result import Ladder, PathResult, PathStatus, TrackStats, option_rungs
from .tracker import TrackerOptions

__all__ = ["BatchTracker"]

# step control: a streak of easy steps multiplies the step by EXPAND, a
# rejection by SHRINK; a row whose max-norm passes DIVERGENCE_BOUND is
# DIVERGED (the paper's "paths diverging to infinity")
EXPAND = 1.5
SHRINK = 0.5
DIVERGENCE_BOUND = 1e8

# internal per-path state codes while the batch is in flight
_RUNNING = -1
_ENDGAME = -2
_UNUSED = -3
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
        homotopy: BatchHomotopy,
        starts: Sequence[Sequence[complex]],
        path_ids: Sequence[int] | None = None,
        t_start: float | Sequence[float] = 0.0,
        ladder: Ladder | None = None,
    ) -> List[PathResult]:
        """Track all ``starts`` from ``t=t_start`` to t=1 in lockstep sweeps.

        ``homotopy`` is any :class:`BatchHomotopy` (anything else raises
        ``TypeError``); a
        :class:`~repro.tracker.stacked.StackedHomotopy` lets each row
        track its *own* homotopy.  ``t_start`` is a scalar or one value
        per path — per-path starts serve batched chart-switch
        continuation, where each resumed path picks up at the ``t`` it
        had reached.  Returns one :class:`PathResult` per start, in
        input order.

        With a :class:`~repro.tracker.result.Ladder` the front climbs
        the re-track ladder while it runs: a colliding or failed row
        re-enters the running front from its start, on the next of
        :func:`~repro.tracker.result.option_rungs` of this tracker's
        options, as soon as the ladder knows it must; its result is the
        attempt the ladder keeps, with every attempt's effort.
        """
        return self._track_batch(homotopy, starts, path_ids, t_start, ladder)

    def _track_batch(
        self,
        homotopy: BatchHomotopy,
        starts: Sequence[Sequence[complex]],
        path_ids: Sequence[int] | None,
        t_start: float | Sequence[float],
        ladder: Ladder | None = None,
    ) -> List[PathResult]:
        """The body behind both public names, ``track_batch`` and
        :meth:`PathTracker.track <repro.tracker.tracker.PathTracker.track>`
        (a traced call of either opens one span)."""
        require_batch_homotopy(homotopy)
        tel = active_tracer()
        opts = self.options
        X0 = np.array(
            [np.asarray(s, dtype=complex) for s in starts], dtype=complex
        )
        if X0.size == 0:
            return []
        if X0.ndim != 2 or X0.shape[1] != homotopy.dim:
            raise ValueError(
                f"expected starts of shape (npaths, {homotopy.dim})"
            )
        n, dim = X0.shape
        T0 = np.asarray(t_start, dtype=float)
        if T0.ndim == 0:
            T0 = np.full(n, float(T0))
        elif T0.shape != (n,):
            raise ValueError(f"expected t_start scalar or shape ({n},)")
        if np.any((T0 < 0.0) | (T0 >= 1.0)):
            raise ValueError("t_start must lie in [0, 1)")
        if path_ids is None:
            path_ids = list(range(n))
        elif len(path_ids) != n:
            raise ValueError("path_ids must match the number of starts")

        # one option set per rung: rows start on set 0, and a re-entered
        # row is an attempt of its own, in a slot of its own; every
        # per-row decision below reads the slot's set (``oset``)
        sets = [opts] if ladder is None else option_rungs(opts, ladder.rounds)
        watch = None if ladder is None else ladder.front(path_ids, dim)
        preds = [make_predictor(o.predictor) for o in sets]
        em = np.array([p.error_model for p in preds])
        # the error-model pipeline is on or off per set, as a whole (see
        # Predictor); corrector_tol is the front's (the ladder keeps it)
        jump_at = np.array([
            p.jump_factor * p.target_error if p.error_model else np.inf
            for p in preds
        ])
        update_tols = np.where(em, np.sqrt(opts.corrector_tol), np.nan)
        loose_tols = np.where(em, opts.corrector_tol ** (1.0 / 3.0), np.nan)
        iters = np.array([o.corrector_iterations for o in sets])
        budgets = np.array([o.max_steps for o in sets])
        recycle = bool(em.any())

        # a slot per attempt (a row climbs at most ``rounds`` rungs),
        # allocated once: a front whose slots grew would reallocate its
        # widest arrays mid-flight
        cap = n * len(sets)
        src = np.zeros(cap, dtype=np.int64)  # slot -> input row
        oset = np.zeros(cap, dtype=np.int64)
        ids = np.asarray(path_ids)
        X = np.zeros((cap, dim), dtype=complex)
        T = np.zeros(cap)
        step = np.zeros(cap)
        easy = np.zeros(cap, dtype=np.int64)
        accepted = np.zeros(cap, dtype=np.int64)
        rejected = np.zeros(cap, dtype=np.int64)
        newton = np.zeros(cap, dtype=np.int64)
        jac_evals = np.zeros(cap, dtype=np.int64)
        recycled = np.zeros(cap, dtype=np.int64)
        state = np.full(cap, _UNUSED, dtype=np.int64)
        res_final = np.full(cap, np.inf)
        t_reached = np.zeros(cap)
        charged = np.zeros(cap)
        # per-call predictor history (secant/Hermite memory), seeded with
        # the uncorrected starts — a requeued/resumed batch (chart-switch
        # continuation with per-path t_start) begins with *empty* history
        pstate = preds[0].make_state(X, T)
        if recycle:
            # corrector Jacobians carried across the step boundary; rows
            # stay valid over rejections (the point did not move)
            re_jac = np.zeros((cap, dim, dim), dtype=complex)
            re_ok = np.zeros(cap, dtype=bool)
        winding = np.zeros(cap, dtype=np.int64)
        finished_by_endgame = np.zeros(cap, dtype=bool)
        latest = np.arange(n)          # input row -> its latest slot
        nslots = 0
        arrivals: list = []
        endings: list = []

        mark = time.perf_counter()

        def charge(idx: np.ndarray) -> None:
            # amortize the wall time since the last mark evenly over the
            # paths that were live in the front for it
            nonlocal mark
            now = time.perf_counter()
            if idx.size:
                charged[idx] += (now - mark) / idx.size
            mark = now

        def classify(
            idx: np.ndarray, status: PathStatus, res: np.ndarray,
            ended: bool = True,
        ) -> None:
            state[idx] = _CODE_BY_STATUS[status]
            res_final[idx] = res
            t_reached[idx] = T[idx]
            if watch is not None and ended and idx.size:
                endings.append(idx)

        def groups(rows: np.ndarray):
            # (option set, positions in ``rows``) for each set in play;
            # until a row re-enters, every slot is on set 0
            if nslots == n:
                return [(0, slice(None))]
            k = oset[rows]
            present = np.flatnonzero(np.bincount(k, minlength=len(sets)))
            if present.size == 1:
                return [(int(present[0]), slice(None))]
            return [(j, np.flatnonzero(k == j)) for j in present.tolist()]

        def per_row(table, rows: np.ndarray, parts):
            # each row's entry of a per-set table, given ``groups(rows)``:
            # one scalar while the rows share a set
            return table[parts[0][0]] if len(parts) == 1 else table[oset[rows]]

        def enter(rows: np.ndarray, ks: np.ndarray) -> None:
            # new attempts of input rows ``rows`` on option sets ``ks``:
            # from their starts, after a check that those solve H(., t0)
            nonlocal nslots
            slots = np.arange(nslots, nslots + rows.size)
            nslots += rows.size
            src[slots], oset[slots] = rows, ks
            latest[rows] = slots
            X[slots], T[slots] = X0[rows], T0[rows]
            step[slots] = [sets[k].initial_step for k in ks.tolist()]
            state[slots] = _RUNNING
            pstate.x_prev[slots], pstate.t_prev[slots] = X[slots], T[slots]
            for k, at in groups(slots):
                g = slots[at]
                with maybe_span(tel, "start_check", "corrector"):
                    check = batch_newton_correct(
                        homotopy if nslots == n else homotopy.restrict(src[g]),
                        X[g], T[g], tol=opts.corrector_tol,
                        max_iterations=sets[k].corrector_iterations,
                        want_jacobian=recycle,
                    )
                newton[g] += check.iterations
                jac_evals[g] += check.jac_evaluations
                bad = ~check.converged
                classify(g[bad], PathStatus.FAILED, check.residual[bad])
                # failed paths keep their original start point; only
                # converged paths adopt the corrected one
                X[g[check.converged]] = check.x[check.converged]
                if em[k]:
                    re_ok[g] = check.jac_current
                    cur = g[check.jac_current]
                    re_jac[cur] = check.jacobian[check.jac_current]
            charge(slots)

        def finish(slots: np.ndarray) -> None:
            # the endgame, one batch per option set
            for k, at in groups(slots):
                g = slots[at]
                with maybe_span(tel, "finish", "endgame"):
                    out = self.endgame.finish_batch(
                        homotopy.restrict(src[g]), X[g], T[g], sets[k]
                    )
                newton[g] += out.iterations
                X[g] = out.x
                winding[g] = out.winding_number
                finished_by_endgame[g] = True
                for st in _STATUS_BY_CODE.values():
                    mask = np.array([s is st for s in out.status], dtype=bool)
                    if mask.any():
                        classify(g[mask], st, out.residual[mask], ended=False)
            charge(slots)

        def finish_rows(rows):
            # the ladder's early endgame for rows that reached t = 1
            g = latest[rows]
            finish(g)
            return (
                X[g],
                state[g] == _CODE_BY_STATUS[PathStatus.SUCCESS],
                state[g] == _CODE_BY_STATUS[PathStatus.FAILED],
            )

        def settle() -> bool:
            # hand the attempts that just finished to the ladder and let
            # the rows it sends up re-enter the front; True if any did
            entered = False
            while arrivals or endings:
                got = np.concatenate(arrivals or [np.zeros(0, np.int64)])
                out = np.concatenate(endings or [np.zeros(0, np.int64)])
                arrivals.clear()
                endings.clear()
                rows, ks = watch.step(
                    src[got], X[got], src[out],
                    state[out] == _CODE_BY_STATUS[PathStatus.FAILED],
                    t_reached[out], finish_rows,
                )
                if rows.size:
                    if tel is not None:
                        tel.count("tracker.retry_rungs")
                    enter(rows, ks)
                    entered = True
            return entered

        enter(np.arange(n), np.zeros(n, dtype=np.int64))
        if watch is not None:
            settle()

        # --- main predictor-corrector sweeps over the active front
        while True:
            run = np.flatnonzero(state == _RUNNING)
            parts = groups(run)
            spent = accepted[run] + rejected[run]
            exhausted = run[spent >= per_row(budgets, run, parts)]
            if exhausted.size:
                classify(
                    exhausted, PathStatus.FAILED, np.full(exhausted.size, np.inf)
                )
            entered = watch is not None and settle()
            if exhausted.size or entered:
                run = np.flatnonzero(state == _RUNNING)
                parts = groups(run)
            if run.size == 0:
                break
            # the running rows, as an index into the front's arrays.
            # While every slot is a running first attempt that is a
            # slice (views, no gathers) and ``restrict`` would be the
            # identity
            whole = run.size == n and nslots == n
            live = slice(0, n) if whole else run
            bh_run = homotopy if whole else homotopy.restrict(src[run])
            X_run, T_run = X[live], T[live]
            dt = np.minimum(step[live], 1.0 - T_run)
            t_new = T_run + dt

            # --- predict: batched tangent (recycled J_x where valid),
            # each set's predictor guess with secant fallback
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
                x_pred = np.empty_like(X_run)
                for k, at in parts:
                    x_pred[at] = preds[k].predict(
                        pstate, run[at], X_run[at], T_run[at], dt[at],
                        tangent[at], ok[at],
                    )

            # --- correct
            em_run = per_row(em, run, parts)
            any_em = bool(em_run.any())
            update_tol = per_row(update_tols, run, parts) if any_em else None
            loose_tol = per_row(loose_tols, run, parts) if any_em else None
            with maybe_span(tel, "newton", "corrector"):
                corr = batch_newton_correct(
                    bh_run,
                    x_pred,
                    t_new,
                    tol=opts.corrector_tol,
                    max_iterations=per_row(iters, run, parts),
                    want_jacobian=recycle,
                    update_tol=update_tol,
                    loose_tol=loose_tol,
                    fail_fast=em_run,
                )
            newton[live] += corr.iterations
            jac_evals[live] += corr.jac_evaluations

            conv = corr.converged
            err_all = None
            if any_em and conv.any():
                # suspected path jump: the corrector converged, but to a
                # point far beyond what the prediction's error model can
                # explain — almost certainly a neighboring path's basin.
                # Rejecting here costs one retry at a smaller step and
                # saves the whole endpoint-collision retracking rung the
                # jump would otherwise trigger
                err_all = np.abs(corr.x - x_pred).max(axis=1)
                jump = conv & (err_all > per_row(jump_at, run, parts))
                if jump.any():
                    conv = conv & ~jump
                    if tel is not None:
                        tel.count("tracker.jump_rejections", int(jump.sum()))
            if tel is not None:
                for k in range(run.size):
                    tel.instant(
                        "step_accept" if conv[k] else "step_reject",
                        "tracker",
                        path=int(ids[src[run[k]]]),
                        t=float(t_new[k]),
                        dt=float(dt[k]),
                        newton=int(corr.iterations[k]),
                    )
                    tel.observe("step_size", float(dt[k]))
            acc = run[conv]
            if acc.size:
                preds[0].accepted(
                    pstate, acc, X[acc], T[acc], tangent[conv], ok[conv]
                )
                x_acc, t_acc = corr.x[conv], t_new[conv]
                X[acc], T[acc] = x_acc, t_acc
                accepted[acc] += 1
                if recycle:
                    cur = conv & corr.jac_current & em_run
                    re_ok[acc] = cur[conv]
                    re_jac[run[cur]] = corr.jacobian[cur]
                dt_acc = dt[conv]
                acc_parts = groups(acc)
                for k, at in acc_parts:
                    o, pred = sets[k], preds[k]
                    rows = acc[at]
                    if pred.error_model:
                        # asymptotic error model: err ~ C dt^p per path,
                        # so the dt that would have hit the target error
                        # is dt * (target / err)^(1/p), damped by safety
                        # and capped at max_growth per step
                        err = err_all[conv][at]
                        growth = np.full(rows.size, pred.max_growth)
                        pos = err > 0.0
                        growth[pos] = np.minimum(
                            pred.max_growth,
                            pred.safety
                            * (pred.target_error / err[pos])
                            ** (1.0 / pred.order),
                        )
                        step[rows] = np.minimum(
                            np.maximum(dt_acc[at] * growth, o.min_step),
                            o.max_step,
                        )
                        if tel is not None:
                            for e in err:
                                tel.observe("predictor_error", float(e))
                    else:
                        easy[rows] += 1
                        expand = (easy[rows] >= o.expand_after) & (
                            corr.iterations[conv][at] <= 2
                        )
                        grow = rows[expand]
                        step[grow] = np.minimum(
                            step[grow] * EXPAND, o.max_step
                        )
                        easy[grow] = 0
                norms = np.abs(x_acc).max(axis=1)
                div = norms > DIVERGENCE_BOUND
                if div.any():
                    classify(
                        acc[div], PathStatus.DIVERGED, corr.residual[conv][div]
                    )
                # survivors that reached t=1 leave the front for the endgame
                done = acc[(~div) & (t_acc >= 1.0)]
                state[done] = _ENDGAME
                if watch is not None and done.size:
                    arrivals.append(done)
                if tel is not None:
                    for p in done:
                        tel.instant(
                            "endgame_handoff",
                            "tracker",
                            path=int(ids[src[p]]),
                            reason="arrived",
                        )

            rej = run[~conv]
            if rej.size:
                rejected[rej] += 1
                easy[rej] = 0
                for k, at in groups(rej):
                    o, rows = sets[k], rej[at]
                    step[rows] *= SHRINK
                    under = step[rows] < o.min_step
                    dead = rows[under]
                    if not dead.size:
                        continue
                    blew_up = np.max(np.abs(X[dead]), axis=1) > 1e3
                    res_dead = corr.residual[~conv][at][under]
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
                                path=int(ids[src[p]]),
                                reason="stalled",
                                t=float(T[p]),
                            )
                    classify(
                        fail[~in_radius],
                        PathStatus.FAILED,
                        res_dead[~blew_up][~in_radius],
                    )

            charge(run)

        # --- endgame: the surviving front finishes as one batch per set
        endg = np.flatnonzero(state == _ENDGAME)
        if endg.size:
            finish(endg)

        # --- gather SoA state back into per-path results, each row's
        # attempts folded into the one its ladder keeps
        if nslots < cap:
            # the results are views of X: keep no unused slot alive
            X = X[:nslots].copy()
        results: List[PathResult | None] = [None] * n
        for i in range(nslots):
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
            row = int(src[i])
            attempt = PathResult(
                _STATUS_BY_CODE[int(state[i])],
                X[i],
                X0[row],
                float(res_final[i]),
                stats,
                int(ids[row]),
                endgame=self.endgame.name if finished_by_endgame[i] else None,
                winding_number=w if w > 0 else None,
                multiplicity=w if w > 0 else None,
            )
            prior = results[row]
            results[row] = (
                attempt if prior is None
                else ladder.keep(attempt.path_id, prior, attempt)
            )
        return results
