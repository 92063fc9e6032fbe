"""The endgame strategy protocol and the default Newton-sharpen endgame.

An :class:`EndgameStrategy` owns the terminal phase of path tracking:
given a path that either arrived at ``t = 1`` or stalled inside the
strategy's *operating radius* (``t > 1 - operating_radius``), it
classifies the endpoint and may annotate it with a winding number and a
multiplicity.  The tracker loop
(:class:`~repro.tracker.batch.BatchTracker`) delegates to it through
:meth:`finish_batch` — one call for the whole surviving front, stacked
fronts included; :meth:`finish` is the one-row case for callers holding
a single point.

:class:`RefineEndgame` reproduces the seed trackers' hardcoded terminal
phase exactly — same Newton call, same classification — so it is the
default and keeps every pre-endgame result bit-identical.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..tracker.interface import BatchHomotopy, require_batch_homotopy
from ..tracker.newton import batch_newton_correct
from ..tracker.result import PathStatus

__all__ = [
    "EndgameOutcome",
    "BatchEndgameOutcome",
    "EndgameStrategy",
    "RefineEndgame",
    "make_endgame",
]

# the terminal sharpen at t = 1: a tighter tolerance than the
# corrector's, with room for the extra iterations it takes
ENDGAME_TOL = 1e-12
ENDGAME_ITERATIONS = 15


@dataclass
class EndgameOutcome:
    """Terminal classification of one path."""

    status: PathStatus
    x: np.ndarray
    residual: float
    iterations: int
    winding_number: int | None = None
    multiplicity: int | None = None


@dataclass
class BatchEndgameOutcome:
    """Terminal classifications for a whole front; leading axis = paths.

    ``winding_number`` uses 0 for "not annotated" (regular refinement);
    the trackers translate 0 back to ``None`` on the per-path results.
    """

    status: list          # list[PathStatus], one per path
    x: np.ndarray         # (npaths, dim) endpoints
    residual: np.ndarray  # (npaths,) float max-norm residuals at t = 1
    iterations: np.ndarray  # (npaths,) Newton iterations spent
    winding_number: np.ndarray  # (npaths,) int, 0 = unannotated


class EndgameStrategy(abc.ABC):
    """Pluggable terminal phase of the tracker loop.

    ``operating_radius`` is the strategy's hand-over region: a path that
    stalls (step underflow, no blow-up) at ``t > 1 - operating_radius``
    is given to the endgame instead of being classified FAILED.  The
    default radius of 0 disables hand-over, which is exactly the seed
    behavior.
    """

    #: short tag recorded on PathResult.endgame
    name: str = "endgame"
    #: stalled paths with t > 1 - operating_radius are handed over
    operating_radius: float = 0.0

    @abc.abstractmethod
    def finish(
        self,
        homotopy: BatchHomotopy,
        x: np.ndarray,
        t: float,
        options,
    ) -> EndgameOutcome:
        """Classify the endpoint of one path that reached time ``t``.

        ``t == 1.0`` for clean arrivals; ``t < 1`` only for stalls
        inside the operating radius (the point ``x`` is then the last
        accepted, corrector-converged point at ``t``).  Anything but a
        :class:`BatchHomotopy` raises ``TypeError``.
        """

    @abc.abstractmethod
    def finish_batch(
        self,
        homotopy: BatchHomotopy,
        X: np.ndarray,
        tt: np.ndarray,
        options,
    ) -> BatchEndgameOutcome:
        """Classify a whole front of endpoints, one row per path."""


class RefineEndgame(EndgameStrategy):
    """The seed endgame: one Newton sharpen at ``t = 1``.

    Classification (identical to the pre-endgame trackers): a singular
    Newton step reports SINGULAR; failure to converge with a residual
    above the corrector tolerance reports FAILED; everything else is
    SUCCESS.  ``operating_radius`` is 0, so stalled paths never reach
    this strategy and keep their seed classifications.
    """

    name = "refine"
    operating_radius = 0.0

    def finish(self, homotopy, x, t, options) -> EndgameOutcome:
        del t  # the sharpen always happens at t = 1, as the seed did
        out = self._sharpen(
            require_batch_homotopy(homotopy),
            np.asarray(x, dtype=complex)[None, :],
            options,
        )
        return EndgameOutcome(
            out.status[0], out.x[0], float(out.residual[0]), int(out.iterations[0])
        )

    def finish_batch(self, homotopy, X, tt, options) -> BatchEndgameOutcome:
        del tt
        return self._sharpen(homotopy, X, options)

    def _sharpen(self, homotopy, X, options) -> BatchEndgameOutcome:
        """The body behind both public names (a traced call of either
        opens one span)."""
        final = batch_newton_correct(
            homotopy,
            X,
            1.0,
            tol=ENDGAME_TOL,
            max_iterations=ENDGAME_ITERATIONS,
        )
        sing = final.singular
        failed = (~sing) & (~final.converged) & (
            final.residual > options.corrector_tol
        )
        status = [
            PathStatus.SINGULAR
            if s
            else (PathStatus.FAILED if f else PathStatus.SUCCESS)
            for s, f in zip(sing, failed)
        ]
        return BatchEndgameOutcome(
            status,
            final.x,
            final.residual,
            final.iterations,
            np.zeros(X.shape[0], dtype=np.int64),
        )


def make_endgame(endgame) -> EndgameStrategy:
    """Coerce a strategy spec — None, a name, or an instance — to a strategy.

    ``None`` and ``"refine"`` give the default :class:`RefineEndgame`;
    ``"cauchy"`` gives a :class:`~repro.endgame.cauchy.CauchyEndgame`
    with default knobs; an :class:`EndgameStrategy` instance passes
    through (the way to customize radii and loop sampling).
    """
    if endgame is None or endgame == "refine":
        return RefineEndgame()
    if endgame == "cauchy":
        from .cauchy import CauchyEndgame

        return CauchyEndgame()
    if isinstance(endgame, EndgameStrategy):
        return endgame
    raise ValueError(
        f"unknown endgame {endgame!r}; expected 'refine', 'cauchy', or an "
        "EndgameStrategy instance"
    )
