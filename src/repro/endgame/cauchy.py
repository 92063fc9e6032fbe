"""The Cauchy (loop) endgame: winding numbers and singular endpoints.

Near a singular endpoint the path is *not* analytic in ``t`` — it is a
branch of a cycle of ``w`` paths permuted by the local monodromy, and it
expands in the fractional power ``s = (1 - t)^{1/w}``.  That structure
is exactly measurable: fix a small radius ``r`` and track the path
around the circle

    t(theta) = 1 - r e^{i theta},   theta: 0 -> 2 pi w

in complex time.  After one revolution the path lands on the *next*
branch of its cycle; after ``w`` revolutions it closes up, and ``w`` is
the winding number.  By Cauchy's integral formula the limit point
``x(1)`` equals the circle average of ``x(t(theta))``, so the mean of
the ``w K`` equally spaced loop samples recovers the singular endpoint
to ``O(r^{2/w})`` — which a few polishing Newton steps (linearly
convergent at a multiple root) then tighten further.

The loop tracking is *batched along the path axis*: every path of a
front that needs the endgame anchors on its ring and loops in lockstep,
one :func:`~repro.tracker.newton.batch_newton_correct` call per sample
angle, with closed-up paths culled from the looping front.  The scalar
entry point runs the same kernels as a one-row batch, so a path is
classified the same whatever rows loop with it.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import active_tracer
from ..tracker.interface import require_batch_homotopy
from ..tracker.newton import batch_newton_correct
from ..tracker.result import PathStatus
from .strategy import (
    ENDGAME_ITERATIONS,
    ENDGAME_TOL,
    BatchEndgameOutcome,
    EndgameOutcome,
    EndgameStrategy,
    RefineEndgame,
)

__all__ = ["CauchyEndgame"]


class CauchyEndgame(EndgameStrategy):
    """Winding-number endgame recovering singular endpoints by loop means.

    The strategy first runs the plain :class:`~repro.endgame.strategy.
    RefineEndgame` sharpen — a regular endpoint is accepted exactly as
    the default endgame would accept it, so on systems without singular
    roots the two strategies agree decision for decision.  Only paths
    the sharpen marks SINGULAR or FAILED enter the Cauchy phase.

    Parameters
    ----------
    operating_radius:
        Radius ``r`` of the loop circle, and the hand-over region: the
        trackers give stalled paths with ``t > 1 - r`` to the endgame
        instead of failing them.  Too large risks enclosing other
        branch points; too small leaves no room between the stall
        front and the circle.
    samples_per_loop:
        Corrector stops per revolution (``K``).  More samples cost more
        Newton sweeps but keep each angular step safely inside the
        corrector's basin and sharpen the circle average.
    max_winding:
        Give up (keeping the plain-refinement classification) if the
        path has not closed up after this many revolutions.

    The remaining tolerances are class constants (override by subclass):

    ``closure_tol``
        Relative tolerance declaring the loop closed — comfortably above
        corrector noise, comfortably below branch separation.
    ``residual_bound``
        A recovered endpoint must satisfy ``|H(x, 1)| <= residual_bound``
        or the recovery is rejected (spurious closure).
    ``jacobian_rcond``
        The *stall detector*.  At a multiple root the residual tolerance
        is deceptive — ``|H(x, 1)| ~ |x - x*|^w`` is tiny long before
        ``x`` is accurate — so plain refinement can report SUCCESS with
        an endpoint off by orders of magnitude.  Any accepted endpoint
        whose Jacobian has ``s_min < jacobian_rcond * max(1, s_max)``
        is therefore re-examined by the loop phase; a loop closing at
        ``w = 1`` keeps SUCCESS (now with a certified endpoint),
        ``w >= 2`` reclassifies the endpoint as a measured singularity.
    ``verify_tol``
        The *hop detector*.  When several singular roots share a target
        system, their loop rings can overlap and an anchor Newton may
        hop onto a different root's cycle, recovering the wrong
        endpoint.  Every closed loop is therefore verified by walking
        its anchor back inward: the walk must return to within
        ``verify_tol * max(1, |x|)`` of the tracked endpoint, or the
        recovery is rejected (the plain-refinement verdict stands).
    """

    name = "cauchy"
    closure_tol = 1e-6
    residual_bound = 1e-6
    jacobian_rcond = 1e-5
    verify_tol = 0.05

    def __init__(
        self,
        operating_radius: float = 0.05,
        samples_per_loop: int = 16,
        max_winding: int = 8,
    ) -> None:
        if not 0.0 < operating_radius < 1.0:
            raise ValueError("operating_radius must lie in (0, 1)")
        if samples_per_loop < 4:
            raise ValueError("need at least 4 samples per loop")
        if max_winding < 1:
            raise ValueError("max_winding must be positive")
        self.operating_radius = float(operating_radius)
        self.samples_per_loop = int(samples_per_loop)
        self.max_winding = int(max_winding)
        self._refine = RefineEndgame()

    # ------------------------------------------------------------------
    def finish(self, homotopy, x, t, options) -> EndgameOutcome:
        """Scalar entry point: the batch kernels run as a one-row batch."""
        out = self._classify(
            require_batch_homotopy(homotopy),
            np.asarray(x, dtype=complex)[None, :],
            np.array([float(t)]),
            options,
        )
        w = int(out.winding_number[0])
        return EndgameOutcome(
            out.status[0],
            out.x[0],
            float(out.residual[0]),
            int(out.iterations[0]),
            winding_number=w if w > 0 else None,
            multiplicity=w if w > 0 else None,
        )

    # ------------------------------------------------------------------
    def _loop_at_radius(
        self, homotopy, loopers, pending, z_cur, rho, options, iterations
    ):
        """One lockstep loop attempt around ``t = 1 - rho e^{i theta}``.

        ``pending`` indexes into ``loopers``/``z_cur`` (local rows);
        returns ``(w, mean, closed)`` arrays over ``pending``:
        per-path winding number, circle average, and whether the loop
        closed up within ``max_winding`` revolutions.  ``iterations``
        is updated in place with the Newton effort.
        """
        tel = active_tracer()
        k_loop = self.samples_per_loop
        z0 = z_cur[pending].copy()
        z = z0.copy()
        prev = z0.copy()
        sums = z0.astype(complex).copy()
        w_out = np.zeros(pending.size, dtype=np.int64)
        mean = np.zeros_like(z0)
        closed_out = np.zeros(pending.size, dtype=bool)
        active = np.arange(pending.size)
        scale0 = np.maximum(1.0, np.max(np.abs(z0), axis=1))
        for step in range(1, self.max_winding * k_loop + 1):
            if active.size == 0:
                break
            theta = 2.0 * np.pi * step / k_loop
            t_step = 1.0 - rho * complex(np.cos(theta), np.sin(theta))
            pred = 2.0 * z[active] - prev[active] if step > 1 else z[active]
            corr = batch_newton_correct(
                homotopy.restrict(loopers[pending[active]]),
                pred,
                np.full(active.size, t_step),
                tol=options.corrector_tol,
                max_iterations=options.corrector_iterations,
            )
            iterations[loopers[pending[active]]] += corr.iterations
            conv = corr.converged
            live = active[conv]  # a failed loop step abandons this radius
            prev[live] = z[live]
            z[live] = corr.x[conv]
            active = live
            if active.size == 0:
                break
            if step % k_loop == 0:
                gap = np.max(np.abs(z[active] - z0[active]), axis=1)
                closed = gap <= self.closure_tol * scale0[active]
                done = active[closed]
                if tel is not None:
                    tel.instant(
                        "winding_attempt",
                        "endgame",
                        revolution=step // k_loop,
                        rho=float(rho),
                        looping=int(active.size),
                        closed=int(done.size),
                    )
                w_out[done] = step // k_loop
                mean[done] = sums[done] / step
                closed_out[done] = True
                active = active[~closed]
            sums[active] += z[active]
        return w_out, mean, closed_out

    def _walk_back_verify(
        self,
        homotopy,
        loopers,
        cand,
        z_cur,
        mean_cand,
        x_ref,
        scale_ref,
        rho,
        rho_ref,
        options,
        iterations,
    ) -> np.ndarray:
        """Two-gate validation of closed loops (returns a bool mask).

        The anchor of every candidate walks a factor-2 ladder from its
        loop radius ``rho`` all the way down to the bottom rung (a
        radius of ``~rho 2^-24``, where the walked point is an excellent
        limit-point estimate).  Gate one — hop detection: the walk,
        *snapshotted at each path's own reference radius* ``rho_ref``
        (the stall radius for handed-over paths, the bottom rung for
        arrived ones), must land within ``verify_tol`` of the tracked
        endpoint, else the anchor hopped onto another root's cycle.
        Gate two — monodromy purity: the loop mean must agree with the
        bottom-rung point to the same tolerance; a clean circle average
        *is* the limit point by Cauchy's integral formula, so
        disagreement means the loop circle enclosed a second branch
        point and the measured permutation is garbage.
        """
        z_back = z_cur[cand].copy()
        snapshot = z_back.copy()
        snapped = np.zeros(cand.size, dtype=bool)
        ok = np.ones(cand.size, dtype=bool)
        rho_bottom = rho * 0.5**24
        ref = rho_ref[cand]
        # a retry attempt shrinks the loop radius below some stalls'
        # reference radius; their hop-gate point lies *above* the loop
        # ladder, so a copy of the anchor walks UP to it (factor-2
        # steps, capped at the exact reference radius per path)
        above = np.flatnonzero(ref > rho * (1.0 + 1e-12))
        if above.size:
            z_up = z_back[above].copy()
            cur = np.full(above.size, rho)
            ok_up = np.ones(above.size, dtype=bool)
            for _ in range(30):
                act = np.flatnonzero(
                    ok_up & (cur < ref[above] * (1.0 - 1e-12))
                )
                if act.size == 0:
                    break
                target = np.minimum(ref[above[act]], cur[act] * 2.0)
                corr = batch_newton_correct(
                    homotopy.restrict(loopers[cand[above[act]]]),
                    z_up[act],
                    1.0 - target,
                    tol=options.corrector_tol,
                    max_iterations=ENDGAME_ITERATIONS,
                )
                iterations[loopers[cand[above[act]]]] += corr.iterations
                zp = z_up[act]
                zp[corr.converged] = corr.x[corr.converged]
                z_up[act] = zp
                ok_up[act[~corr.converged]] = False
                cur[act] = target
            snapshot[above] = z_up
            snapped[above] = True
            ok[above[~ok_up]] = False
        rho_prev = rho
        rho_k = rho / 2.0
        while rho_k >= rho_bottom * (1.0 - 1e-12):
            # a path whose reference radius falls between this rung and
            # the previous one gets an exact correction AT that radius
            # for its hop-gate comparison point (a grid rung could be a
            # whole factor of 2 away, and the path's genuine radial
            # movement over that factor can exceed the gate tolerance)
            cross = np.flatnonzero(
                ok
                & ~snapped
                & (ref <= rho_prev * (1.0 + 1e-12))
                & (ref > rho_k * (1.0 + 1e-12))
            )
            if cross.size:
                corr = batch_newton_correct(
                    homotopy.restrict(loopers[cand[cross]]),
                    z_back[cross],
                    1.0 - ref[cross],
                    tol=options.corrector_tol,
                    max_iterations=ENDGAME_ITERATIONS,
                )
                iterations[loopers[cand[cross]]] += corr.iterations
                snapshot[cross[corr.converged]] = corr.x[corr.converged]
                snapped[cross[corr.converged]] = True
                ok[cross[~corr.converged]] = False
            part = np.flatnonzero(ok)
            if part.size == 0:
                break
            corr = batch_newton_correct(
                homotopy.restrict(loopers[cand[part]]),
                z_back[part],
                1.0 - rho_k,
                tol=options.corrector_tol,
                max_iterations=ENDGAME_ITERATIONS,
            )
            iterations[loopers[cand[part]]] += corr.iterations
            zp = z_back[part]
            zp[corr.converged] = corr.x[corr.converged]
            z_back[part] = zp
            ok[part[~corr.converged]] = False
            rho_prev = rho_k
            rho_k /= 2.0
        # arrived paths (reference radius below the bottom rung) compare
        # at the bottom, the best available limit estimate
        snapshot[~snapped] = z_back[~snapped]
        tol = self.verify_tol * scale_ref[cand]
        drift_ref = np.max(np.abs(snapshot - x_ref[cand]), axis=1)
        drift_mean = np.max(np.abs(mean_cand - z_back), axis=1)
        return ok & (drift_ref <= tol) & (drift_mean <= tol)

    def finish_batch(self, homotopy, X, tt, options) -> BatchEndgameOutcome:
        return self._classify(homotopy, X, tt, options)

    def _classify(self, homotopy, X, tt, options) -> BatchEndgameOutcome:
        """The body behind both public names (a traced call of either
        opens one span)."""
        X = np.asarray(X, dtype=complex)
        n = X.shape[0]
        tt = np.asarray(tt, dtype=float)
        if tt.ndim == 0:
            tt = np.full(n, float(tt))

        # stalled rows were handed over mid-tracking (t < 1): they
        # always enter the loop phase, and — unlike arrived rows — they
        # must not inherit a t = 1 sharpen verdict if recovery fails,
        # because such a sharpen would jump from a point the tracker
        # could not even reach (pre-endgame semantics: a stall is
        # FAILED until something positively classifies it).  The
        # sharpen therefore runs only on the arrived rows; stalled rows
        # start from the honest FAILED default.
        stalled = tt < 1.0
        status = [PathStatus.FAILED] * n
        x_out = X.copy()
        residual = np.full(n, np.inf)
        iterations = np.zeros(n, dtype=np.int64)
        winding = np.zeros(n, dtype=np.int64)
        arrived = np.flatnonzero(~stalled)
        if arrived.size:
            # 1) the plain sharpen; its verdicts stand unless the loop
            #    phase positively recovers a path
            out = self._refine.finish_batch(
                homotopy.restrict(arrived), X[arrived], tt[arrived], options
            )
            for local, row in enumerate(arrived):
                status[row] = out.status[local]
            x_out[arrived] = out.x
            residual[arrived] = out.residual
            iterations[arrived] = out.iterations

        def finalize() -> BatchEndgameOutcome:
            for row in np.flatnonzero(stalled & (winding == 0)):
                # report the honest stall state: the last point the
                # tracker validly reached, with an infinite residual —
                # NOT the t = 1 sharpen's endpoint, whose deceptively
                # tiny residual (~|x - x*|^w) would make an unverified
                # jump look numerically converged downstream
                status[row] = PathStatus.FAILED
                x_out[row] = X[row]
                residual[row] = np.inf
            return BatchEndgameOutcome(
                status, x_out, residual, iterations, winding
            )

        hard = np.array(
            [s in (PathStatus.SINGULAR, PathStatus.FAILED) for s in status],
            dtype=bool,
        )
        hard |= stalled
        # stall detector: a SUCCESS whose endpoint Jacobian is numerically
        # degenerate is a multiple root wearing a small residual — the
        # loop phase re-examines it (see the class docstring)
        accepted = np.flatnonzero(~hard)
        if accepted.size:
            jac = homotopy.restrict(accepted).jacobian_x_batch(
                x_out[accepted], 1.0
            )
            sv = np.linalg.svd(jac, compute_uv=False)
            degenerate = sv[:, -1] < self.jacobian_rcond * np.maximum(
                1.0, sv[:, 0]
            )
            hard[accepted[degenerate]] = True
        need = np.flatnonzero(hard)
        if need.size == 0:
            return finalize()

        # 2) anchor every candidate on the ring t = 1 - r.  A single
        #    Newton jump from the (near-singular) endpoint is unreliable
        #    — the first update is ~1/|J| sized and can land on a
        #    *different* path's branch — so the anchor walks a ladder of
        #    geometrically inflating radii: at a tiny radius the path
        #    branch is the unambiguous nearest root, and each doubling
        #    moves the point by a bounded factor (~2^{1/w}) that stays
        #    inside the corrector's basin.  Stalled paths join the
        #    ladder at their own radius ``1 - t``.  A failed rung keeps
        #    the sharpen's classification for that path.
        r = self.operating_radius
        radii = r * (0.5 ** np.arange(24, -1, -1.0))
        z_anchor = X[need].copy()
        alive = np.ones(need.size, dtype=bool)
        rho_start = np.where(tt[need] < 1.0, 1.0 - tt[need], 0.0)
        alive &= rho_start <= r * (1.0 + 1e-12)
        for rho in radii:
            part = np.flatnonzero(alive & (rho_start <= rho * (1.0 + 1e-12)))
            if part.size == 0:
                continue
            rows = need[part]
            corr = batch_newton_correct(
                homotopy.restrict(rows),
                z_anchor[part],
                1.0 - rho,
                tol=options.corrector_tol,
                max_iterations=2 * ENDGAME_ITERATIONS,
            )
            iterations[rows] += corr.iterations
            zp = z_anchor[part]
            zp[corr.converged] = corr.x[corr.converged]
            z_anchor[part] = zp
            alive[part[~corr.converged]] = False
        loopers = need[alive]
        if loopers.size == 0:
            return finalize()

        # 3) loop in lockstep around t = 1 - rho e^{i theta}; a path
        #    whose point returns to its anchor after a whole revolution
        #    closes up and leaves the looping front with its winding
        #    number.  The loop radius is *adaptive*: the operating
        #    circle can accidentally enclose a second branch point of
        #    the homotopy (the monodromy then never closes, or a loop
        #    Newton step blows up), so unresolved paths walk two ladder
        #    rungs inward and retry on a 4x smaller circle, a few times.
        m = loopers.size
        z_cur = z_anchor[alive]
        x_ref = X[loopers]
        scale_ref = np.maximum(1.0, np.max(np.abs(x_ref), axis=1))
        rho_ref = rho_start[alive]
        w_found = np.zeros(m, dtype=np.int64)
        mean = np.zeros_like(z_cur)
        pending = np.arange(m)
        rho = r
        for attempt in range(3):
            if pending.size == 0:
                break
            if attempt > 0:
                # walk the pending anchors down two factor-2 rungs
                for sub in (2.0, 4.0):
                    if pending.size == 0:
                        break
                    corr = batch_newton_correct(
                        homotopy.restrict(loopers[pending]),
                        z_cur[pending],
                        1.0 - rho / sub,
                        tol=options.corrector_tol,
                        max_iterations=ENDGAME_ITERATIONS,
                    )
                    iterations[loopers[pending]] += corr.iterations
                    zp = z_cur[pending]
                    zp[corr.converged] = corr.x[corr.converged]
                    z_cur[pending] = zp
                    pending = pending[corr.converged]
                rho = rho / 4.0
            w_att, mean_att, closed = self._loop_at_radius(
                homotopy, loopers, pending, z_cur, rho, options, iterations
            )
            cand = pending[closed]
            retry = pending[~closed]
            if cand.size:
                # verify each closed loop by walking its anchor back
                # inward: a clean circle average equals the limit point
                # (Cauchy's formula), so mean and walk-back must agree;
                # a corrupted monodromy — the circle also enclosed a
                # *different* root's branch point, or the anchor hopped
                # rings — fails one of the gates and retries on the
                # next, 4x smaller circle
                ok = self._walk_back_verify(
                    homotopy,
                    loopers,
                    cand,
                    z_cur,
                    mean_att[closed],
                    x_ref,
                    scale_ref,
                    rho,
                    rho_ref,
                    options,
                    iterations,
                )
                good = cand[ok]
                w_found[good] = w_att[closed][ok]
                mean[good] = mean_att[closed][ok]
                retry = np.concatenate([retry, cand[~ok]])
            pending = np.sort(retry)

        rec = np.flatnonzero(w_found > 0)
        if rec.size == 0:
            return finalize()

        # 4) polish the circle averages at t = 1 (Newton converges
        #    linearly at a multiple root) and accept whichever point has
        #    the smaller residual — but only below the residual bound
        rows = loopers[rec]
        cand = mean[rec]
        res_mean = np.max(
            np.abs(homotopy.restrict(rows).evaluate_batch(cand, 1.0)), axis=1
        )
        polish = batch_newton_correct(
            homotopy.restrict(rows),
            cand,
            1.0,
            tol=ENDGAME_TOL,
            max_iterations=ENDGAME_ITERATIONS,
        )
        iterations[rows] += polish.iterations
        better = polish.residual < res_mean
        cand[better] = polish.x[better]
        res_cand = np.where(better, polish.residual, res_mean)
        accept = res_cand <= self.residual_bound
        for i in np.flatnonzero(accept):
            row = rows[i]
            w = int(w_found[rec[i]])
            # a loop closing after one revolution certifies a regular
            # (if ill-conditioned) endpoint; w >= 2 is a measured
            # singularity with cycle length w
            status[row] = (
                PathStatus.SINGULAR if w >= 2 else PathStatus.SUCCESS
            )
            x_out[row] = cand[i]
            residual[row] = res_cand[i]
            winding[row] = w
        return finalize()
