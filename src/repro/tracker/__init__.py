"""Predictor-corrector path tracking (PHCpack's continuation, in Python).

One tracker loop, two names for how many rows a front gets:

- :class:`BatchTracker` — N paths as a structure-of-arrays front, one
  vectorized numpy call per predictor/corrector stage.
- :class:`PathTracker` — one path at a time (the paper's unit of work):
  a one-row front through the same loop, bit for bit the row that path
  would be in a wider front.

The loop consumes any :class:`BatchHomotopy` (``dim``,
``evaluate_batch`` / ``jacobian_x_batch`` / ``jacobian_t_batch`` over a
stack of points, each at its own ``t``), the one homotopy protocol.  A
batch need not track one homotopy from many starts:
:class:`StackedHomotopy` stacks *distinct same-shape* homotopies (e.g.
every Pieri edge of one tree level) into a single structure-of-arrays
front.

Track the four total-degree paths of katsura-2 both ways:

>>> import numpy as np
>>> from repro.homotopy import make_homotopy_and_starts
>>> from repro.systems import katsura_system
>>> homotopy, starts = make_homotopy_and_starts(
...     katsura_system(2), rng=np.random.default_rng(0))
>>> one = PathTracker().track(homotopy, starts[0])
>>> one.success and 0.0 <= one.stats.t_reached <= 1.0
True
>>> front = BatchTracker().track_batch(homotopy, starts)
>>> [r.status == one.status for r in front][0]
True
>>> summarize_results(front)["total"]
4
"""

from .batch import BatchTracker
from .interface import BatchHomotopy
from .newton import (
    BatchNewtonResult,
    NewtonResult,
    batch_newton_correct,
    newton_correct,
    newton_refine_system,
)
from .predictor import (
    PREDICTORS,
    CubicPredictor,
    EulerPredictor,
    HermitePredictor,
    Predictor,
    PredictorState,
    make_predictor,
)
from .rescue import rescue_diverged
from .result import (
    Ladder,
    PathResult,
    PathStatus,
    TrackStats,
    duplicate_path_ids,
    greedy_cluster_indices,
    retrack_duplicate_clusters,
    summarize_results,
    tighten_options,
)
from .stacked import StackedHomotopy
from .tracker import PathTracker, TrackerOptions, refine_solutions

__all__ = [
    "BatchHomotopy",
    "StackedHomotopy",
    "NewtonResult",
    "BatchNewtonResult",
    "newton_correct",
    "batch_newton_correct",
    "newton_refine_system",
    "PathResult",
    "PathStatus",
    "TrackStats",
    "duplicate_path_ids",
    "greedy_cluster_indices",
    "retrack_duplicate_clusters",
    "tighten_options",
    "Ladder",
    "summarize_results",
    "rescue_diverged",
    "PathTracker",
    "BatchTracker",
    "TrackerOptions",
    "refine_solutions",
    "PREDICTORS",
    "Predictor",
    "PredictorState",
    "EulerPredictor",
    "HermitePredictor",
    "CubicPredictor",
    "make_predictor",
]
