"""Pluggable endgames: the terminal phase of path tracking as a strategy.

A homotopy path can end four ways: at a regular root (sharpen and
report), at a *singular* root (the Jacobian degenerates — plain Newton
stalls or wanders), at infinity, or nowhere (numerical failure).  The
seed trackers hardcoded one answer — a single Newton sharpen at
``t = 1`` — so every singular endpoint degraded to an opaque SINGULAR
label and every stall to FAILED.  This package turns the terminal phase
into a strategy the tracker loop (:class:`~repro.tracker.BatchTracker`,
stacked fronts included; :class:`~repro.tracker.PathTracker` is its
one-row case) delegates to:

- :class:`RefineEndgame` — the seed behavior, bit for bit: one Newton
  sharpen at ``t = 1`` with the options' endgame tolerance.  The
  default everywhere.
- :class:`CauchyEndgame` — a winding-number endgame.  When the sharpen
  stalls (or the tracker hands over a path that stalled inside the
  operating radius ``t > 1 - r``), the path is tracked around small
  circles ``t = 1 - r e^{i theta}`` in complex time; the number of
  loops until the path closes up is the winding number ``w`` (the cycle
  length of the branch), and by Cauchy's integral formula the mean of
  the ``w K`` equally spaced loop samples converges to the singular
  endpoint.  Recovered endpoints come back SINGULAR but *classified*:
  annotated with ``winding_number`` and ``multiplicity``, endpoint
  polished to near the limit point.

Track the one path of ``H(x, t) = x^2 - (1 - t)`` — at ``t = 1`` the
endpoint ``x = 0`` is a double root.  Plain refinement is *deceived* by
it: near a multiplicity-``w`` root the residual scales like
``|x - x*|^w``, so Newton reports a tiny residual (SUCCESS) while the
endpoint is off by orders of magnitude.  The Cauchy endgame spots the
degenerate Jacobian, measures the winding and recovers the endpoint
from the loop mean:

>>> import numpy as np
>>> from repro.tracker import BatchHomotopy, PathTracker, PathStatus
>>> class Collapse(BatchHomotopy):
...     '''x(t) = sqrt(1 - t): two branches collapsing at t = 1.'''
...     @property
...     def dim(self): return 1
...     def evaluate_batch(self, X, t):
...         return X ** 2 - (1 - np.reshape(t, (-1, 1)))
...     def jacobian_x_batch(self, X, t): return 2 * X[:, :, None]
...     def jacobian_t_batch(self, X, t): return np.ones_like(X)
>>> plain = PathTracker().track(Collapse(), [1.0])
>>> plain.success and plain.winding_number is None
True
>>> bool(abs(plain.solution[0]) > 1e-8)   # "converged", far from the root
True
>>> cauchy = PathTracker(endgame=CauchyEndgame()).track(Collapse(), [1.0])
>>> cauchy.status is PathStatus.SINGULAR, cauchy.winding_number
(True, 2)
>>> bool(abs(cauchy.solution[0]) < 1e-9)
True
"""

from .strategy import (
    BatchEndgameOutcome,
    EndgameOutcome,
    EndgameStrategy,
    RefineEndgame,
    make_endgame,
)
from .cauchy import CauchyEndgame

__all__ = [
    "EndgameStrategy",
    "EndgameOutcome",
    "BatchEndgameOutcome",
    "RefineEndgame",
    "CauchyEndgame",
    "make_endgame",
]
