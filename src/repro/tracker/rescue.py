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
:meth:`~repro.tracker.interface.BatchHomotopy.rescale_patch`,
returning ``(new_homotopy, new_x)`` — the same path in better
coordinates — and optionally
:meth:`~repro.tracker.interface.BatchHomotopy.finalize_rescued` to
map a finished result back to the caller's coordinate conventions.
:func:`rescue_diverged` sweeps a finished result list through that
protocol: every diverged path is re-patched and all of them resume
together, each from its own reached ``t``, as one stacked front.  It is
the one rescue driver: the blackbox solver's projective rescue calls it
on its one homotopy, and the Schubert chart switch calls it on each
row's own edge homotopy — after the first pass of a tree front and
after every rung of the re-track ladder — and reads back the homotopy
each kept endpoint now lives in.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..telemetry import current_telemetry
from .result import PathResult, PathStatus
from .stacked import StackedHomotopy

__all__ = [
    "rescue_diverged",
    "fold_rescued_effort",
]


def fold_rescued_effort(resumed: PathResult, prior: PathResult) -> PathResult:
    """Account the diverged attempt's effort on the kept rescue result:
    ``stats.rescues`` counted, every effort counter accumulated, the
    *original* start point kept."""
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
    ``t`` — resume as one stacked front.  ``homotopy`` is the one
    homotopy every row tracked, or a list of each row's own; in a list,
    a kept row's entry is replaced by the homotopy its endpoint now
    lives in.  A rescue is kept only when the resumed path *finishes* —
    SUCCESS, AT_INFINITY (the projective patch classified the escape),
    or an endgame-measured singularity; otherwise the original diverged
    result stands.
    """
    tel = current_telemetry()
    homs = homotopy if isinstance(homotopy, list) else [homotopy] * len(results)
    rows: List[int] = []
    patches: list = []
    for i, r in enumerate(results):
        t = r.stats.t_reached
        if r.status is not PathStatus.DIVERGED or not 0.0 < t < 1.0:
            continue
        patch = homs[i].rescale_patch(r.solution, t)
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
        if rr.success or rr.status is PathStatus.AT_INFINITY or (
            rr.status is PathStatus.SINGULAR and rr.winding_number is not None
        ):
            if tel is not None:
                tel.count("tracker.rescues_kept")
            results[i] = fold_rescued_effort(rr, results[i])
            homs[i] = new_hom
            changed += 1
    return results, changed
