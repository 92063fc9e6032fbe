"""Tracker-level path rescue: re-patch escaping paths and resume them.

A path that blows past the divergence bound mid-way is not necessarily
going to infinity — it may simply be leaving the *chart* its homotopy
tracks in.  The Pieri determinant homotopies hit this constantly (the
pinned entry of the moving column tends to zero; re-pinning the largest
entry re-scales the same geometric path into bounded coordinates), and
plain polynomial homotopies hit it on genuinely infinite endpoints
(where a projective patch turns "diverged" into a well-scaled point
with first coordinate tending to zero).

The generalized mechanism lives here, one layer below the solvers:
any homotopy may implement
:meth:`~repro.tracker.interface.HomotopyFunction.rescale_patch`,
returning ``(new_homotopy, new_x)`` — the same path in better
coordinates — and optionally
:meth:`~repro.tracker.interface.HomotopyFunction.finalize_rescued` to
map a finished result back to the caller's coordinate conventions.
:func:`rescue_diverged` sweeps a finished result list through that
protocol: every diverged path is re-patched and all of them resume
together, each from its own reached ``t``, as one stacked front.  The
blackbox solver's projective rescue is a thin client of it; the Schubert
solver's chart switch runs the same re-patch / resume / keep / fold
sequence inside its own requeue (it also has to swap the edge homotopy
the endpoint is read in).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..telemetry import current_telemetry
from .result import PathResult, PathStatus
from .stacked import StackedHomotopy

__all__ = [
    "rescue_diverged",
    "keep_rescue",
    "fold_rescued_effort",
]


def keep_rescue(resumed: PathResult) -> bool:
    """Does a resumed path's outcome supersede the diverged original?

    Only a *finished* classification does: SUCCESS, AT_INFINITY (the
    projective patch classified the escape), or an endgame-measured
    singularity.  Anything else keeps the original diverged result,
    exactly as the Schubert chart switch always behaved.
    """
    return (
        resumed.success
        or resumed.status is PathStatus.AT_INFINITY
        or (
            resumed.status is PathStatus.SINGULAR
            and resumed.winding_number is not None
        )
    )


def fold_rescued_effort(resumed: PathResult, prior: PathResult) -> PathResult:
    """Account the diverged attempt's effort on the kept rescue result.

    Shared by every rescue driver (:func:`rescue_diverged` here and the
    Schubert chart-switch requeue) so a rescued path reports the same
    bookkeeping — ``stats.rescues``, every effort counter accumulated,
    the *original* start point — no matter which driver rescued it.
    """
    resumed.stats.rescues = prior.stats.rescues + 1
    resumed.stats.absorb(prior.stats)
    resumed.start = np.asarray(prior.start, dtype=complex)
    return resumed


def rescue_diverged(
    tracker,
    homotopy,
    results: List[PathResult],
) -> tuple[List[PathResult], int]:
    """Re-patch and resume every DIVERGED path of a finished batch.

    ``results`` is mutated in place (and returned) together with the
    number of paths whose classification a rescue changed.  ``tracker``
    is a :class:`~repro.tracker.batch.BatchTracker`: the re-patched
    paths — each in its own patch homotopy, each from its own reached
    ``t`` — resume as one stacked front.  A rescue is kept only when the
    resumed path *finishes* (see :func:`keep_rescue`); otherwise the
    original diverged result stands.
    """
    tel = current_telemetry()
    rows: List[int] = []
    patches: list = []
    for i, r in enumerate(results):
        t = r.stats.t_reached
        if r.status is not PathStatus.DIVERGED or not 0.0 < t < 1.0:
            continue
        patch = homotopy.rescale_patch(r.solution, t)
        if patch is None:
            continue
        if tel is not None:
            tel.count("tracker.rescue_attempts")
            tel.instant("rescue_attempt", "tracker", path=int(r.path_id), t=float(t))
        rows.append(i)
        patches.append(patch)
    if not rows:
        return results, 0
    resumed = tracker.track_batch(
        StackedHomotopy([hom for hom, _ in patches], range(len(rows))),
        [x1 for _, x1 in patches],
        path_ids=[results[i].path_id for i in rows],
        t_start=np.array([results[i].stats.t_reached for i in rows]),
    )
    changed = 0
    for i, (new_hom, _), rr in zip(rows, patches, resumed):
        rr = new_hom.finalize_rescued(rr)
        if keep_rescue(rr):
            if tel is not None:
                tel.count("tracker.rescues_kept")
            results[i] = fold_rescued_effort(rr, results[i])
            changed += 1
    return results, changed
