"""Adaptive predictor-corrector path tracking: options and the per-path name.

This is the Python counterpart of PHCpack's increment-and-fix continuation:

- **predictor** — by default first-order (tangent) prediction
  ``x + dt * dx/dt`` where the tangent solves ``J_x (dx/dt) = -J_t``; a
  cheap secant predictor is used as a fallback when the tangent solve
  fails (``predictor="hermite"``: see :mod:`~repro.tracker.predictor`).
- **corrector** — a few Newton iterations at the new ``t`` (increment and
  fix), accepting the step only when the corrector converges.
- **step control** — multiply the step by ``EXPAND`` after a run of easy
  steps, by ``SHRINK`` on failure; abort the path when the step
  underflows ``min_step``.
- **divergence** — paths whose solution norm exceeds ``DIVERGENCE_BOUND``
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

:class:`TrackerOptions` is the whole resolved configuration of a front:
8 fields, each varied by some caller, none of which can be ``None`` or
defers to another, so ``dataclasses.asdict`` of it says what ran.  What
no caller varies is a constant beside the code that reads it
(:mod:`~repro.tracker.batch`, :mod:`~repro.endgame.strategy`,
:class:`~repro.tracker.predictor.Predictor`).

The loop itself lives once, in :class:`~repro.tracker.batch.BatchTracker`;
:class:`PathTracker` hands it one row at a time — the paper's unit of work,
whose ``stats.seconds`` are that path's exclusive wall time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from .interface import BatchHomotopy
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
    expand_after: int = 3          # consecutive accepted steps before expanding
    corrector_tol: float = 1e-9
    corrector_iterations: int = 5
    max_steps: int = 2000
    # prediction strategy: "euler" (seed arithmetic, bit-identical),
    # "hermite" (cubic through the last two accepted points + tangents,
    # which also switches on the error-model pipeline: step control,
    # Jacobian recycling and the corrector's early exits — its constants
    # are class attributes of repro.tracker.predictor.Predictor) or
    # "cubic" (that cubic on the seed's step control, the Pieri
    # default); also accepts a Predictor instance
    predictor: object = "euler"

    def echo(self) -> dict:
        """The options as reports carry them: a plain dict, no field of
        which resolves to anything else later, the predictor by name."""
        return dataclasses.asdict(
            dataclasses.replace(
                self, predictor=make_predictor(self.predictor).name
            )
        )

    def validated(self) -> "TrackerOptions":
        if not (0 < self.min_step <= self.initial_step <= self.max_step):
            raise ValueError("need 0 < min_step <= initial_step <= max_step")
        make_predictor(self.predictor)  # raises on unknown names
        return self


class PathTracker:
    """Tracks solution paths of a :class:`BatchHomotopy` one at a time.

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
        homotopy: BatchHomotopy,
        start: Sequence[complex],
        path_id: int = -1,
        t_start: float = 0.0,
    ) -> PathResult:
        """Track one path from the start solution at ``t=t_start`` to t=1.

        ``t_start > 0`` resumes a path from a mid-way point (used by chart
        switching: the same geometric path continued in new coordinates).
        """
        return self._front._track_batch(
            homotopy, [start], [path_id], t_start
        )[0]

    def track_many(
        self,
        homotopy: BatchHomotopy,
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
