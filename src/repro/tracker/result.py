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
    "option_rungs",
    "Ladder",
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


def option_rungs(options, rounds: int) -> list:
    """The ladder's option sets: ``options``, then :func:`tighten_options`
    applied 1, ..., ``rounds`` times.  Index ``k`` is rung ``k``."""
    sets = [options]
    for _ in range(rounds):
        sets.append(tighten_options(sets[-1]))
    return sets


class Ladder:
    """The re-track ladder of one set of paths: its option sets, its
    policy, and where each path stands on it.

    A path *climbs* a rung when it is re-tracked from its start under
    the next option set (:func:`option_rungs`), up to ``rounds`` times.
    Two kinds of path climb:

    - every member of a collision cluster (endpoints within ``tol``, as
      :func:`duplicate_path_ids` defines them, compared at
      ``endpoint(result) -> point or None`` when a hook is given;
      ``None`` keeps a result out of collisions), except the *stable*
      members: a re-track that reproduced its endpoint says its side of
      the collision is a genuine root, and a cluster whose members are
      all stable is a genuine multiple root that tighter steps will
      never separate (the no-progress bail-out);
    - failed paths: under ``retry_failed`` every FAILED path as it
      fails, and after a front the ids its caller hands to
      :func:`retrack_duplicate_clusters`.

    Of two attempts a path keeps the later one, unless the earlier
    succeeded and the later did not (:meth:`keep`); the kept attempt
    absorbs the other's effort, so effort totals count every attempt.
    A re-track of a success that stopped short of the end
    (:meth:`short`) is *unresolved*, not reproduced: the path keeps
    climbing while it collides, and a path still in a collision after
    its last rung is reported FAILED.

    The ladder is consulted twice.  A :class:`~repro.tracker.batch.
    BatchTracker` front tracked with ``ladder=`` applies it *live*
    (:meth:`front`): a collision re-enters the running front as soon as
    its second member reaches t = 1, a FAILED path as soon as it fails,
    each on its next option set, so a rung's calls ride with the rest
    of the front.  :func:`retrack_duplicate_clusters` applies it after
    the front to what the front could not settle (collisions that show
    only among endgame-finished or chart-switched endpoints, failures of
    the endgame, the failures a caller hands in).  ``retries`` and
    ``collisions`` count the re-tracks of both, the latter those of a
    path whose kept attempt had succeeded.
    """

    def __init__(
        self,
        options,
        retry_failed: bool = False,
        endpoint=None,
        rounds: int = 3,
        tol: float = 1e-6,
    ) -> None:
        self.sets = option_rungs(options, rounds)
        self.retry_failed = retry_failed
        self.endpoint = endpoint
        self.rounds = rounds
        self.tol = tol
        #: path id -> rung of its latest attempt (absent: rung 0)
        self.rung: dict = {}
        self.stable: set = set()
        #: path id -> the failed re-track its kept success stands over
        self.unresolved: dict = {}
        #: path ids that climbed from a kept attempt that had failed
        self.failures: set = set()
        self.retries = 0
        self.collisions = 0

    def keep(self, pid: int, old: PathResult, new: PathResult) -> PathResult:
        """The attempt path ``pid`` keeps of ``old`` and its re-track
        ``new``, which absorbs the other's effort.  A success stands
        over a re-track that did not succeed, *unresolved* when the
        re-track stopped short of the end (:meth:`short`)."""
        if old.success and not new.success:
            old.stats.absorb(new.stats)
            if self.short(new.status is PathStatus.FAILED, new.stats.t_reached):
                self.unresolved[pid] = new
            return old
        new.stats.absorb(old.stats)
        self.unresolved.pop(pid, None)
        return new

    def short(self, failed, t_reached):
        """Whether an attempt that did not succeed stopped short of the
        end: it ``failed``, or diverged more than one of the caller's
        longest steps (``max_step``) before t = 1.  A re-track that
        leaves for infinity only in that last window says nothing
        against the success it re-tracked: as t -> 1 a path of a
        deficient system that piled onto a finite root and one that
        runs off to infinity look alike.  Works on arrays too."""
        return failed | (t_reached < 1.0 - self.sets[0].max_step)

    def climb(self, pid: int, succeeded: bool) -> int | None:
        """Move path ``pid`` one rung up; ``None`` when it has none left.
        ``succeeded`` says whether its kept attempt is a success."""
        rung = self.rung.get(pid, 0)
        if rung >= self.rounds:
            return None
        self.rung[pid] = rung + 1
        self.retries += 1
        if succeeded:
            self.collisions += 1
        else:
            self.failures.add(pid)
        return rung + 1

    def front(self, path_ids, dim: int) -> "_LiveFront":
        """The ladder as a running front of ``path_ids`` consults it
        (see :class:`_LiveFront`)."""
        return _LiveFront(self, path_ids, dim)


class _LiveFront:
    """A running front's view of its :class:`Ladder`.

    Rows are the front's input rows.  A row ``arrived`` while its kept
    attempt is a success, at ``point``: where it reached t = 1 (the
    tracker's coordinates, as accurate as the corrector's acceptance)
    or, once ``final``, the endgame's endpoint.  A row is ``busy`` while
    an attempt of it runs.  Pairs of kept points within ``window`` (the
    loosest acceptance a corrector may take, ``corrector_tol ** (1/3)``)
    of which a row may still climb are finished on the spot by the
    tracker's ``finish`` callback, and only finished endpoints are
    compared, within ``tol`` and at ``ladder.endpoint`` when a hook is
    given: for a collision, and for whether a re-track of a kept success
    that collides again reproduced that success's endpoint (its row is
    then stable).  The ladder decides on what
    :func:`retrack_duplicate_clusters` would compare.  What the front
    cannot settle (a collision the window misses, a re-track the
    endgame fails) is left to that function.
    """

    def __init__(self, ladder: Ladder, path_ids, dim: int) -> None:
        self.ladder = ladder
        self.window = max(ladder.tol, ladder.sets[0].corrector_tol ** (1 / 3))
        self.ids = [int(pid) for pid in path_ids]
        n = len(self.ids)
        self.point = np.zeros((n, dim), dtype=complex)
        self.arrived = np.zeros(n, dtype=bool)
        self.final = np.zeros(n, dtype=bool)
        self.busy = np.ones(n, dtype=bool)
        self._hooked: dict = {}
        #: row -> (point, compared point) of the kept success a re-track
        #: of it that is not finished yet stands over
        self._prior: dict = {}
        # kept points binned on their first coordinate, ``window`` wide:
        # max-norm neighbours within ``window`` are in adjacent bins
        self._bins: dict = {}
        self._bin: dict = {}

    def step(self, arrived, x, ended, failed, t_ended, finish):
        """Rows whose running attempt just finished: ``arrived`` reached
        t = 1 at the rows of ``x``; ``ended`` did not, FAILED where
        ``failed`` (diverged elsewhere), at ``t_ended``.  ``finish(rows)
        -> (points, success, failed)`` runs the endgame on rows that
        arrived.  Returns ``(rows, rungs)``: the rows that re-enter, each
        with the option set it climbs to."""
        lad = self.ladder
        arrived = np.asarray(arrived, dtype=np.int64)
        ended = np.asarray(ended, dtype=np.int64)
        failed = np.asarray(failed, dtype=bool)
        short = lad.short(failed, t_ended)
        self.busy[arrived] = False
        self.busy[ended] = False
        # a re-track of a kept success (whose endpoint is finished: it
        # climbed from a collision) remembers that endpoint until it is
        # finished itself, below, if it collides again
        for r in arrived[self.arrived[arrived]].tolist():
            self._prior[r] = (self.point[r].copy(), self._compared(r))
        self._place(arrived, x, final=False)
        # a re-track that stopped short leaves its row's earlier success
        # kept and unresolved, and that success collides still unless
        # its partner moved
        query = np.concatenate([arrived, ended[short & self.arrived[ended]]])
        near = [
            (i, j) for i, j in self._near(query)
            if self._may_climb(i) or self._may_climb(j)
        ]
        dead = [ended[failed & ~self.arrived[ended]]]
        todo = np.array(
            sorted({r for pair in near for r in pair if not self.final[r]}),
            dtype=np.int64,
        )
        if todo.size:
            pts, ok, bad = finish(todo)
            self._place(todo[ok], pts[ok], final=True)
            for i, r in enumerate(todo.tolist()):
                if r not in self._prior:
                    if not ok[i]:
                        self._drop(r)
                    continue
                # a finished re-track of a kept success: one that
                # reproduced its endpoint makes its row stable, as the
                # ladder after the front decides; one the endgame does
                # not pass leaves that success kept (:meth:`Ladder.keep`)
                point, at = self._prior.pop(r)
                bad[i] = False
                if not ok[i]:
                    self._place(np.array([r]), point[None], final=True)
                elif self._close(at, self._compared(r)):
                    lad.stable.add(self.ids[r])
            dead.append(todo[bad])
        up = set()
        for i, j in near:
            if self._collide(i, j):
                up.update((i, j))
        if lad.retry_failed:
            up.update(np.concatenate(dead).tolist())
        rows, rungs = [], []
        for r in sorted(up):
            if not self._may_climb(r):
                continue
            rung = lad.climb(self.ids[r], bool(self.arrived[r]))
            self.busy[r] = True
            rows.append(r)
            rungs.append(rung)
        return np.array(rows, dtype=np.int64), np.array(rungs, dtype=np.int64)

    def _may_climb(self, r: int) -> bool:
        pid = self.ids[r]
        return (
            not self.busy[r]
            and pid not in self.ladder.stable
            and self.ladder.rung.get(pid, 0) < self.ladder.rounds
        )

    def _place(self, rows, points, final: bool) -> None:
        """Rows whose kept attempt is now a success at ``points``."""
        for r in rows.tolist():
            self._drop(r)
        first = points[:, 0] / self.window
        re = np.floor(first.real).astype(np.int64).tolist()
        im = np.floor(first.imag).astype(np.int64).tolist()
        for r, b in zip(rows.tolist(), zip(re, im)):
            self._bins.setdefault(b, set()).add(r)
            self._bin[r] = b
        self.point[rows] = points
        self.arrived[rows] = True
        self.final[rows] = final

    def _drop(self, r: int) -> None:
        """Row ``r`` no longer keeps a success."""
        b = self._bin.pop(r, None)
        if b is not None:
            self._bins[b].discard(r)
        self._hooked.pop(r, None)
        self.arrived[r] = False

    def _near(self, rows) -> List[tuple]:
        """Pairs ``(i, j)``, ``i`` in ``rows``, of kept points within
        ``window`` of each other."""
        out: List[tuple] = []
        for r in rows.tolist():
            b = self._bin.get(r)
            if b is None:
                continue
            near = [
                s for i in (-1, 0, 1) for j in (-1, 0, 1)
                for s in self._bins.get((b[0] + i, b[1] + j), ())
                if s != r
            ]
            if near:
                close = np.max(
                    np.abs(self.point[near] - self.point[r]), axis=1
                ) < self.window
                out.extend((r, s) for s, c in zip(near, close.tolist()) if c)
        return out

    def _collide(self, i: int, j: int) -> bool:
        """Whether two finished kept successes coincide within ``tol``."""
        if not (self.arrived[i] and self.arrived[j]):
            return False
        return self._close(self._compared(i), self._compared(j))

    def _close(self, p, q) -> bool:
        if p is None or q is None:
            return False
        return bool(
            np.max(np.abs(np.asarray(p) - np.asarray(q))) < self.ladder.tol
        )

    def _compared(self, r: int, x=None):
        """Where an endpoint of row ``r`` (its kept one, or ``x``) is
        compared: at ``ladder.endpoint`` when a hook is given (``None``:
        not at all), else as it stands."""
        if self.ladder.endpoint is None:
            return self.point[r] if x is None else x
        if x is not None:
            return self.ladder.endpoint(
                PathResult(PathStatus.SUCCESS, x, x, 0.0, path_id=self.ids[r])
            )
        if r not in self._hooked:
            self._hooked[r] = self._compared(r, self.point[r])
        return self._hooked[r]


def retrack_duplicate_clusters(
    results: List[PathResult],
    retrack,
    ladder: Ladder,
    failed: Sequence[int] = (),
) -> List[PathResult]:
    """The re-track ladder after a front: re-track suspicious paths
    until they separate, finish, or stall.

    The one escalation loop behind the blackbox solver, polyhedral
    phase 1, the Pieri tree and the Pieri parameter continuation, with
    the policy of :class:`Ladder`.  Each pass re-tracks every member of
    a colliding cluster that is not stable, plus the rows of ``failed``
    that have not succeeded and carry no endgame verdict (a
    Cauchy-measured singularity is a classification, not a failure),
    each on the option set one rung above its own, one front per rung;
    a path that has climbed ``rounds`` rungs is left as it stands.  A
    pass in which nothing moved (every re-track reproduced its endpoint
    or ended in a verdict that leaves the success kept) is the
    no-progress bail-out: a genuine multiple root, not a predictor
    jump.  A FAILED re-track is unresolved, not reproduced, so it never
    bails out; a path still in a collision whose latest re-track failed
    is reported FAILED (with all its effort), one cluster member kept.

    Parameters
    ----------
    results:
        Per-path results ordered by path id (mutated in place and also
        returned).
    retrack:
        ``retrack(path_ids, options) -> List[PathResult]`` — re-track
        paths with the given (tightened) options as one front (results
        aligned with ``path_ids``).
    ladder:
        The :class:`Ladder` of these paths, built on the options the
        main tracking pass used: its rounds, ``tol`` and ``endpoint``
        hook, and, when the front ran under it live, the rungs already
        climbed and the stable paths.
    failed:
        Path ids to re-track for as long as they fail, besides the
        colliding ones.
    """
    from ..telemetry import current_telemetry

    endpoint, tol = ladder.endpoint, ladder.tol
    tel = current_telemetry()
    while True:
        seen = _compared(results, endpoint)
        at = {r.path_id: r.solution for r in seen}
        front = sorted(
            {
                pid for pid in duplicate_path_ids(seen, tol=tol)
                if pid not in ladder.stable
            }
            | {
                pid for pid in failed
                if not results[pid].success
                and not results[pid].endgame_classified
            }
        )
        rungs: dict = {}
        for pid in front:
            rung = ladder.climb(pid, results[pid].success)
            if rung is not None:
                rungs.setdefault(rung, []).append(pid)
        if not rungs:
            break
        moved = False
        for rung, pids in sorted(rungs.items()):
            if tel is not None:
                tel.count("tracker.retry_rungs")
                tel.instant("retry_rung", "tracker", rung=rung, paths=len(pids))
            for pid, retracked in zip(pids, retrack(pids, ladder.sets[rung])):
                kept = ladder.keep(pid, results[pid], retracked)
                point = _compared([kept], endpoint) if kept is retracked else []
                if point and pid in at and np.max(
                    np.abs(point[0].solution - at[pid])
                ) < tol:
                    # reproduced at tighter steps: this side of the
                    # collision is a genuine root, so a wandering path
                    # elsewhere cannot keep it re-tracking
                    ladder.stable.add(pid)
                elif kept is retracked or ladder.unresolved.get(pid) is retracked:
                    # moved, or stopped short: unresolved, not reproduced
                    moved = True
                results[pid] = kept
        if not moved:
            # every re-track reproduced its endpoint (or ended in a
            # verdict that leaves the success kept): a genuine multiple
            # root, which tighter steps will never separate
            break
    if ladder.unresolved:
        seen = _compared(results, endpoint)
        for cluster in greedy_cluster_indices([r.solution for r in seen], tol):
            ids = [seen[i].path_id for i in cluster]
            lost = [pid for pid in ids if pid in ladder.unresolved]
            if len(ids) < 2 or not lost:
                continue
            for pid in lost[len(lost) == len(ids):]:
                results[pid] = dataclasses.replace(
                    ladder.unresolved.pop(pid),
                    status=PathStatus.FAILED,
                    stats=results[pid].stats,
                )
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
