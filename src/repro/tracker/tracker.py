"""Adaptive predictor-corrector path tracking: options and the per-path name.

This is the Python counterpart of PHCpack's increment-and-fix continuation:

- **predictor** — first-order (tangent) prediction ``x + dt * dx/dt`` where
  the tangent solves ``J_x (dx/dt) = -J_t``; a cheap secant predictor is
  used as a fallback when the tangent solve fails.
- **corrector** — a few Newton iterations at the new ``t`` (increment and
  fix), accepting the step only when the corrector converges.
- **step control** — multiply the step by ``expand`` after a run of easy
  steps, shrink by ``shrink`` on failure; abort the path when the step
  underflows ``min_step``.
- **divergence** — paths whose solution norm exceeds ``divergence_bound``
  are classified DIVERGED (the paper's "paths diverging to infinity"), with
  the time spent recorded — these are exactly the expensive jobs that make
  static load balancing lose to dynamic balancing in Tables I and II.
- **endgame** — the terminal phase is delegated to a pluggable
  :class:`~repro.endgame.EndgameStrategy`.  The default
  :class:`~repro.endgame.RefineEndgame` sharpens the solution at
  ``t = 1`` with extra Newton iterations at a tighter tolerance —
  exactly the seed behavior; :class:`~repro.endgame.CauchyEndgame`
  additionally recovers singular endpoints by winding-number loops and
  takes over paths that stall inside its operating radius.

The loop itself lives once, in :class:`~repro.tracker.batch.BatchTracker`;
:class:`PathTracker` hands it one row at a time — the paper's unit of work,
whose ``stats.seconds`` are that path's exclusive wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .interface import HomotopyFunction
from .newton import newton_refine_system
from .predictor import make_predictor
from .result import PathResult

__all__ = ["TrackerOptions", "PathTracker"]


@dataclass
class TrackerOptions:
    """Tuning knobs for :class:`PathTracker` (defaults follow PHCpack's)."""

    initial_step: float = 0.05
    min_step: float = 1e-8
    max_step: float = 0.2
    expand: float = 1.5
    shrink: float = 0.5
    expand_after: int = 3          # consecutive accepted steps before expanding
    corrector_tol: float = 1e-9
    corrector_iterations: int = 5
    endgame_tol: float = 1e-12
    endgame_iterations: int = 15
    divergence_bound: float = 1e8
    max_steps: int = 2000
    # record per-path trace events into the ambient Telemetry context
    # (see repro.telemetry); off by default so the hot path stays free
    # of per-step allocation.  Never changes tracking decisions.
    trace_paths: bool = False
    # prediction strategy: "euler" (seed arithmetic, bit-identical) or
    # "hermite" (cubic through the last two accepted points + tangents);
    # also accepts a Predictor instance (see repro.tracker.predictor)
    predictor: object = "euler"
    # error-model step control (active when the predictor declares
    # ``error_model``): after an accepted step with measured predictor
    # error err, the next step is
    #   dt * min(max_growth, safety * (target / err) ** (1 / order))
    # clipped into [min_step, max_step] — replacing the streak heuristic.
    # The target is a *prediction* error the corrector must absorb, not
    # a solution accuracy; 0.03 keeps predictions inside Newton's basin
    # (and off neighboring paths — looser targets measurably raise
    # endpoint collisions) while letting steps grow to what the
    # corrector actually tolerates
    predictor_target_error: float = 0.03
    predictor_safety: float = 0.8
    predictor_max_growth: float = 2.0
    # jump rejection (error-model predictors only): a *converged* step
    # whose measured predictor error exceeds factor * target is treated
    # as a rejection — Newton converged, but to a point so far from the
    # prediction that it is almost certainly a neighboring path's basin,
    # not a continuation of this one.  One retry at a smaller step here
    # is far cheaper than the endpoint-collision re-tracking rung the
    # jump would otherwise trigger
    predictor_jump_factor: float = 10.0
    # recycle the corrector's final J_x into the next tangent solve so
    # an accepted step costs one fused evaluation instead of two; the
    # default None means "exactly when the predictor's error model is
    # active", keeping the Euler path byte-for-byte the seed loop
    recycle_jacobians: bool | None = None
    # corrector update-size acceptance (PHCpack's criterion): accept
    # once |dx| falls below this, skipping the residual-verification
    # sweep.  None (default) resolves to sqrt(corrector_tol) when the
    # error-model predictor is active and stays off otherwise; 0
    # forces it off, a positive float forces that threshold
    corrector_update_tol: float | None = None
    # contraction-gated loose acceptance: updates up to this (larger)
    # threshold are accepted when they also contracted to at most
    # CONTRACTION times the previous update — quadratic-regime evidence
    # that makes the loose exit safe near singular stretches.  None
    # resolves to corrector_tol**(1/3) under the error-model predictor
    # and off otherwise; 0 forces it off, a float forces the threshold
    corrector_loose_tol: float | None = None
    # reject a step as soon as a Newton update *grows* instead of
    # burning the remaining corrector sweeps confirming the miss; None
    # resolves to on exactly under the error-model predictor
    corrector_fail_fast: bool | None = None

    def validated(self) -> "TrackerOptions":
        if not (0 < self.min_step <= self.initial_step <= self.max_step):
            raise ValueError("need 0 < min_step <= initial_step <= max_step")
        if not (0 < self.shrink < 1 < self.expand):
            raise ValueError("need 0 < shrink < 1 < expand")
        if not (self.predictor_target_error > 0 and self.predictor_safety > 0):
            raise ValueError("need positive predictor target error and safety")
        if self.corrector_update_tol is not None and self.corrector_update_tol < 0:
            raise ValueError("corrector_update_tol must be >= 0 (or None)")
        if self.corrector_loose_tol is not None and self.corrector_loose_tol < 0:
            raise ValueError("corrector_loose_tol must be >= 0 (or None)")
        if not self.predictor_max_growth > 1:
            raise ValueError("need predictor_max_growth > 1")
        if not self.predictor_jump_factor > 1:
            raise ValueError("need predictor_jump_factor > 1")
        make_predictor(self.predictor)  # raises on unknown names
        return self


class PathTracker:
    """Tracks solution paths of a :class:`HomotopyFunction` one at a time.

    Each :meth:`track` is a one-row front of
    :class:`~repro.tracker.batch.BatchTracker` — same loop, same
    decisions, bit for bit the row that path would be in a wider front.
    ``endgame`` picks the terminal-phase strategy: ``None`` (the default
    :class:`~repro.endgame.RefineEndgame` — seed behavior, bit for
    bit), a name (``"refine"`` / ``"cauchy"``), or any
    :class:`~repro.endgame.EndgameStrategy` instance.
    """

    def __init__(
        self, options: TrackerOptions | None = None, endgame=None
    ) -> None:
        # imported lazily: the front is built on TrackerOptions above
        from .batch import BatchTracker

        self._front = BatchTracker(options, endgame=endgame)
        self.options = self._front.options
        self.endgame = self._front.endgame

    def track(
        self,
        homotopy: HomotopyFunction,
        start: Sequence[complex],
        path_id: int = -1,
        t_start: float = 0.0,
    ) -> PathResult:
        """Track one path from the start solution at ``t=t_start`` to t=1.

        ``t_start > 0`` resumes a path from a mid-way point (used by chart
        switching: the same geometric path continued in new coordinates).
        """
        return self._front._traced(homotopy, [start], [path_id], t_start)[0]

    def track_many(
        self,
        homotopy: HomotopyFunction,
        starts: Sequence[Sequence[complex]],
    ) -> list[PathResult]:
        """Track a batch of paths sequentially (the 1-CPU baseline)."""
        return [
            self.track(homotopy, start, path_id=i) for i, start in enumerate(starts)
        ]


def refine_solutions(system, results, tol: float = 1e-12):
    """Endgame helper: Newton-refine SUCCESS results against a target
    system.  A result whose refinement does not converge keeps the
    endpoint and residual the tracker delivered."""
    out = []
    for r in results:
        if r.success:
            nr = newton_refine_system(system, r.solution, tol=tol)
            if nr.converged:
                r.solution = nr.x
                r.residual = nr.residual
        out.append(r)
    return out
