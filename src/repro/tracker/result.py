"""Path-tracking results and statistics records.

These records double as the *workload evidence* for the parallel layer: the
paper's load-balancing story hinges on the large variance between cheap
converging paths and expensive diverging ones, so every result carries its
step/Newton counters and (when measured) wall-clock cost, which the cluster
simulator consumes to build empirical cost distributions.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field, fields
from typing import List, Sequence

import numpy as np

__all__ = [
    "PathStatus",
    "PathResult",
    "TrackStats",
    "greedy_cluster_indices",
    "duplicate_path_ids",
    "retrack_duplicate_clusters",
    "tighten_options",
    "summarize_results",
]


class PathStatus(enum.Enum):
    """Terminal classification of one tracked path."""

    SUCCESS = "success"          # reached t = 1 with a refined solution
    DIVERGED = "diverged"        # solution norm exceeded the divergence bound
    FAILED = "failed"            # step size underflow / Newton stagnation
    SINGULAR = "singular"        # Jacobian numerically singular at the end
    AT_INFINITY = "at_infinity"  # escaped the affine chart (projective rescue)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class TrackStats:
    """Effort counters for a single path."""

    steps_accepted: int = 0
    steps_rejected: int = 0
    newton_iterations: int = 0
    t_reached: float = 0.0
    seconds: float = 0.0
    rescues: int = 0
    #: fused J_x evaluations charged to this path (tangent solves that
    #: could not recycle, plus every corrector sweep the path took part
    #: in) — the denominator of the predictor pipeline's speedup gates
    jacobian_evaluations: int = 0
    #: tangent solves served by a recycled corrector Jacobian (only the
    #: cheap J_t evaluation was paid)
    tangents_recycled: int = 0

    @property
    def total_steps(self) -> int:
        return self.steps_accepted + self.steps_rejected

    def absorb(self, prior: "TrackStats") -> None:
        """Add a superseded attempt's effort to this, the kept attempt's.

        Every counter is additive except ``t_reached`` (the kept
        attempt's own) and ``rescues`` (attempts, not effort: the rescue
        drivers set it).
        """
        for f in fields(self):
            if f.name not in ("t_reached", "rescues"):
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(prior, f.name)
                )


@dataclass
class PathResult:
    """Outcome of tracking one solution path.

    The three trailing fields are *endgame annotations*, populated only
    when an endgame strategy classified the endpoint beyond the plain
    Newton sharpen: ``endgame`` names the strategy that finished the
    path, ``winding_number`` is the measured cycle length ``w`` of a
    Cauchy loop (1 for a regular endpoint), and ``multiplicity`` is the
    path-level multiplicity estimate — ``w`` at tracking time, possibly
    raised to the endpoint-cluster size by the solve layer.
    """

    status: PathStatus
    solution: np.ndarray
    start: np.ndarray
    residual: float
    stats: TrackStats = field(default_factory=TrackStats)
    path_id: int = -1
    endgame: str | None = None
    winding_number: int | None = None
    multiplicity: int | None = None

    @property
    def success(self) -> bool:
        return self.status is PathStatus.SUCCESS

    @property
    def endgame_classified(self) -> bool:
        """True when an endgame verdict stands behind this endpoint.

        A SINGULAR result with a measured winding number is a *finished*
        classification — the endpoint was recovered as the mean of the
        Cauchy loop samples — so the re-track ladder
        (:func:`retrack_duplicate_clusters`) does not burn attempts on it.
        """
        return self.winding_number is not None and self.status in (
            PathStatus.SINGULAR,
            PathStatus.SUCCESS,
            PathStatus.AT_INFINITY,
        )

    def __repr__(self) -> str:
        extra = (
            f", w={self.winding_number}" if self.winding_number is not None else ""
        )
        return (
            f"PathResult(id={self.path_id}, status={self.status.value}, "
            f"residual={self.residual:.2e}, steps={self.stats.total_steps}{extra})"
        )


def greedy_cluster_indices(points, tol: float) -> List[List[int]]:
    """First-seen greedy clustering of points in the max norm.

    Each point joins the *first* earlier representative within ``tol``
    and opens a new cluster otherwise — semantically identical to the
    textbook quadratic double loop.  Two points within ``tol`` in the
    max norm are within ``tol`` in the real part of their first
    coordinate, so sorting on that key and taking ``searchsorted``
    windows of width ``tol`` leaves only a handful of candidate pairs
    to test exactly; representatives are then resolved in index order
    over the close pairs alone.  Near-linear on a solve's endpoint set
    (512 endpoints: 19 ms as one reduction per point, under 1 ms here).
    Keys that do not separate the points (non-finite, or so many equal
    that the candidate table would outgrow the point set 32-fold) fall
    back to :func:`_greedy_cluster_scan`.
    """
    points = list(points)
    n = len(points)
    if n < 2:
        return [[i] for i in range(n)]
    P = np.asarray(points, dtype=complex).reshape(n, -1)
    key = P[:, 0].real
    order = np.argsort(key, kind="stable")
    ks = key[order]
    # a slightly wide window keeps rounding in ``ks + tol`` harmless:
    # candidates only need to be a superset of the close pairs
    stop = np.searchsorted(ks, ks + tol * (1.0 + 1e-9), side="right")
    counts = stop - np.arange(1, n + 1)
    total = int(counts.sum())
    # measured at 32 candidates a point: 0.7 / 3.5 / 10 ms here against
    # 1.2 / 13 / 165 ms for the scan at n = 128 / 512 / 2048 (level near
    # n / 2 a point); past that the (total, dim) pair table is memory
    # the scan never needs -- keys all equal make it n**2 / 2 rows
    if total > 32 * n or not np.isfinite(ks).all():
        return _greedy_cluster_scan(points, tol)
    first = np.repeat(np.arange(n), counts)
    second = first + 1 + np.arange(total) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    a, b = order[first], order[second]
    close = np.max(np.abs(P[a] - P[b]), axis=1) < tol
    early, late = np.minimum(a, b)[close], np.maximum(a, b)[close]
    rep = list(range(n))
    by_late = np.lexsort((early, late))
    for i, j in zip(early[by_late].tolist(), late[by_late].tolist()):
        # pairs of ``j`` arrive by rising ``i``, every ``i < j`` final
        if rep[j] == j and rep[i] == i:
            rep[j] = i
    clusters: dict = {}
    for i, r in enumerate(rep):
        clusters.setdefault(r, []).append(i)
    return list(clusters.values())


def _greedy_cluster_scan(points, tol: float) -> List[List[int]]:
    """The same clustering as one vectorized reduction per point against
    the whole representative matrix (~n numpy calls of growing width)."""
    clusters: List[List[int]] = []
    reps: np.ndarray | None = None
    nrep = 0
    for i, x in enumerate(points):
        x = np.asarray(x, dtype=complex)
        if nrep:
            hit = np.flatnonzero(
                np.max(np.abs(reps[:nrep] - x), axis=1) < tol
            )
            if hit.size:
                clusters[hit[0]].append(i)
                continue
        if reps is None:
            reps = np.empty((4, x.size), dtype=complex)
        elif nrep == reps.shape[0]:
            grown = np.empty((2 * nrep, x.size), dtype=complex)
            grown[:nrep] = reps
            reps = grown
        reps[nrep] = x
        nrep += 1
        clusters.append([i])
    return clusters


def duplicate_path_ids(results, tol: float = 1e-6) -> List[int]:
    """Path ids of *every* member of an endpoint-collision cluster.

    Two paths of a proper homotopy cannot share an endpoint at a regular
    root, so collisions indicate a predictor jump between close paths.
    Either party may be the one that jumped — the first path to arrive
    is no more trustworthy than the second — so all members of a cluster
    are candidates for conservative re-tracking, not just the
    later-arriving ones.  The collision test of every rung of
    :func:`retrack_duplicate_clusters`.
    """
    succ = [r for r in results if r.success]
    clusters = greedy_cluster_indices([r.solution for r in succ], tol)
    return [
        succ[i].path_id for cluster in clusters if len(cluster) > 1
        for i in cluster
    ]


def tighten_options(options):
    """One rung of the re-track ladder: the options a rung runs with.

    A quarter of the step-size window, a longer streak before a step
    grows, at most ``max(3, n - 1)`` corrector iterations, four times
    the step budget, and the seed Euler guess: re-tracks exist to undo
    predictor jumps, and a higher-order guess at a quarter step would
    still take the very leaps the re-track is meant to rule out.
    ``dataclasses.replace`` keeps every field not listed at the
    *caller's* value.
    """
    return dataclasses.replace(
        options,
        initial_step=max(options.initial_step / 4, options.min_step),
        min_step=options.min_step / 4,
        max_step=max(options.max_step / 4, options.min_step),
        expand_after=options.expand_after + 2,
        corrector_iterations=max(3, options.corrector_iterations - 1),
        max_steps=options.max_steps * 4,
        predictor="euler",
    )


def retrack_duplicate_clusters(
    results: List[PathResult],
    retrack,
    options,
    failed: Sequence[int] = (),
    endpoint=None,
    rounds: int = 3,
    tol: float = 1e-6,
) -> List[PathResult]:
    """The re-track ladder: re-track suspicious paths until they
    separate, finish, or stall.

    The one escalation loop behind the blackbox solver, polyhedral
    phase 1, the Pieri tree and the Pieri parameter continuation.  Each
    rung tightens the options once (:func:`tighten_options`) and
    re-tracks one front: every member of a colliding cluster (see
    :func:`duplicate_path_ids`) plus the rows of ``failed`` that have
    not succeeded and carry no endgame verdict (a Cauchy-measured
    singularity is a classification, not a failure), up to ``rounds``
    times.  The *no-progress bail-out* is the subtle part, and the
    reason this lives in one place: when a rung reproduces every
    endpoint it re-tracked (nothing moved beyond ``tol``), the collision
    is a genuine multiple root — not a predictor jump — and tighter
    steps can never separate it, so escalating further would only burn
    time.  A re-tracked path replaces the one before it unless that one
    succeeded and the re-track did not; either way the attempt kept
    absorbs the other's effort, so effort totals count every attempt.

    Parameters
    ----------
    results:
        Per-path results ordered by path id (mutated in place and also
        returned).
    retrack:
        ``retrack(path_ids, options) -> List[PathResult]`` — re-track a
        whole rung's members with the given (tightened) options as one
        front (results aligned with ``path_ids``).  Tightened re-tracks
        take 4x the steps of the main pass at a quarter the step size,
        which is exactly where a front pays.
    options:
        The options the main tracking pass used; tightened before the
        first rung.
    failed:
        Path ids to re-track for as long as they fail, besides the
        colliding ones.
    endpoint:
        ``endpoint(result) -> point or None`` — where two successful
        results are compared, when not at ``result.solution`` (``None``:
        the result takes no part in collisions).  Each rung calls it on
        the current results before its re-track and on every re-tracked
        result as it returns.
    """
    from ..telemetry import current_telemetry

    tel = current_telemetry()
    stable: set = set()
    for rung in range(rounds):
        seen = _compared(results, endpoint)
        at = {r.path_id: r.solution for r in seen}
        front = sorted(
            {pid for pid in duplicate_path_ids(seen, tol=tol) if pid not in stable}
            | {
                pid for pid in failed
                if not results[pid].success
                and not results[pid].endgame_classified
            }
        )
        if not front:
            break
        options = tighten_options(options)
        if tel is not None:
            tel.count("tracker.retry_rungs")
            tel.instant(
                "retry_rung", "tracker", rung=rung + 1, paths=len(front)
            )
        moved = False
        for pid, retracked in zip(front, retrack(front, options)):
            old = results[pid]
            if old.success and not retracked.success:
                old.stats.absorb(retracked.stats)
                continue
            point = _compared([retracked], endpoint)
            if point and pid in at and np.max(
                np.abs(point[0].solution - at[pid])
            ) < tol:
                # this path reproduced its endpoint at tighter steps:
                # its side of the collision is a genuine root, not a
                # predictor jump — exclude it from later rungs so a
                # single wandering path elsewhere cannot keep the
                # whole stable cluster re-tracking
                stable.add(pid)
            else:
                moved = True
            retracked.stats.absorb(old.stats)
            results[pid] = retracked
        if not moved:
            # every re-track reproduced its endpoint: the collision is a
            # genuine multiple root, and tighter steps will never
            # separate it — stop escalating
            break
    return results


def _compared(results, endpoint) -> List[PathResult]:
    """The successful results as the ladder compares them: at
    ``endpoint(r)`` when a hook is given, else as they are."""
    succ = [r for r in results if r.success]
    if endpoint is None:
        return succ
    points = [(r, endpoint(r)) for r in succ]
    return [
        dataclasses.replace(r, solution=p) for r, p in points if p is not None
    ]


def summarize_results(results: List[PathResult]) -> dict:
    """Aggregate counts and effort over a batch of path results."""
    by_status = {s: 0 for s in PathStatus}
    for r in results:
        by_status[r.status] += 1
    seconds = [r.stats.seconds for r in results]
    steps = [r.stats.total_steps for r in results]
    return {
        "total": len(results),
        "success": by_status[PathStatus.SUCCESS],
        "diverged": by_status[PathStatus.DIVERGED],
        "failed": by_status[PathStatus.FAILED],
        "singular": by_status[PathStatus.SINGULAR],
        "at_infinity": by_status[PathStatus.AT_INFINITY],
        "seconds_total": float(np.sum(seconds)) if seconds else 0.0,
        "seconds_mean": float(np.mean(seconds)) if seconds else 0.0,
        "seconds_std": float(np.std(seconds)) if seconds else 0.0,
        "steps_mean": float(np.mean(steps)) if steps else 0.0,
        # deterministic effort totals for the predictor pipeline gates
        "newton_total": int(sum(r.stats.newton_iterations for r in results)),
        "jacobian_evaluations": int(
            sum(r.stats.jacobian_evaluations for r in results)
        ),
        "tangents_recycled": int(
            sum(r.stats.tangents_recycled for r in results)
        ),
    }
