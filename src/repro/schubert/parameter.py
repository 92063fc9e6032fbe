"""Coefficient-parameter continuation between Pieri instances (cheater's
homotopy).

The Pieri tree solves one *general* instance from scratch with
``sum(level counts)`` paths (252 for the paper's (3,2,1) cell).  But once
any general instance is solved, every further instance of the same
(m, p, q) costs only ``d(m, p, q)`` paths (55 for that cell): deform the
planes and interpolation points along

    K_i(t) = (1-t) gamma_i K_i^start + t K_i^target
    s_i(t) = (1-t) s_i^start + t s_i^target + t (1-t) delta_i

and track each known solution.  Scaling a plane's basis by ``gamma_i``
does not change the plane, so the start conditions are untouched; the
points take a bent complex detour ``delta_i`` (vanishing at both ends)
because scaling *would* move them.  This is how the paper's framework serves
pole placement in practice — the expensive tree solve happens offline on
general data; placing poles for a *specific* machine is the cheap online
step ("A target root is used as the start root for the next iteration",
Fig 6).

The start solutions must be the full solution set of the start instance
(otherwise endpoints may be missed); with the gamma twists the deformation
avoids the discriminant with probability one and endpoints remain distinct.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

import numpy as np

from ..tracker import (
    BatchHomotopy,
    BatchTracker,
    Ladder,
    PathResult,
    PathStatus,
    TrackerOptions,
    retrack_duplicate_clusters,
)
from ..tracker.interface import _per_path_t
from ..tracker.stacked import StackedHomotopy
from .brackets import (
    BracketChart,
    path_at,
    path_derivative,
    plane_path_brackets,
)
from .homotopy import _BatchSlices, normalize_to_standard_chart
from .patterns import LocalizationPattern
from .poset import PieriPoset
from .solver import PieriInstance

__all__ = [
    "PieriParameterHomotopy",
    "PieriParameterStack",
    "continue_to_instance",
    "continue_to_instances",
]


#: Tracking parameters of the online phase when the caller passes none:
#: the Pieri edges' conservative steps and strict corrector on the seed's
#: Euler guess.  ``predictor="cubic"`` measured identical warm root sets
#: at 0.65x the Jacobian evaluations here (``docs/tracking.md``); which
#: guess Pieri fronts use is decided in one place,
#: :attr:`PieriSolver.DEFAULT_OPTIONS`, whose solver hands its own options
#: to this route.
DEFAULT_OPTIONS = TrackerOptions(
    initial_step=0.02, max_step=0.08, corrector_tol=1e-10
)


class PieriParameterHomotopy(_BatchSlices, BatchHomotopy):
    """H(x, t): root-pattern solutions deformed between two instances.

    Unknowns are the free coefficients of the *root* localization pattern
    in the standard chart (bottom pivots pinned to 1); all N conditions
    move simultaneously.

    A :class:`~repro.tracker.BatchHomotopy`: the online phase tracks all
    ``d(m, p, q)`` known solutions at once, so every method carries a
    leading path axis (each path at its own t); one point is a one-row
    batch.
    """

    def __init__(
        self,
        start: PieriInstance,
        target: PieriInstance,
        rng: np.random.Generator | None = None,
    ) -> None:
        if start.problem != target.problem:
            raise ValueError("instances must share the same (m, p, q)")
        self.problem = start.problem
        self.start = start
        self.target = target
        rng = np.random.default_rng() if rng is None else rng
        n = self.problem.num_conditions
        self.gamma_k = np.exp(2j * np.pi * rng.random(n))
        # complex detour for the points, zero at t = 0 and t = 1
        self.delta_s = 0.5 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )

        self.pattern: LocalizationPattern = PieriPoset.build(
            self.problem
        ).root()
        amb = self.problem.ambient
        # chart: all bottom pivots pinned to 1; the rest of the support free
        pinned = [(b - 1, j) for j, b in enumerate(self.pattern.bottom_pivots)]
        self._free = sorted(
            (r - 1, j - 1)
            for r, j in self.pattern.support()
            if (r - 1, j - 1) not in pinned
        )
        # scatter tables for the chart maps
        self._pinned_rows = np.array([r for r, _ in pinned])
        self._pinned_cols = np.array([j for _, j in pinned])
        self._free_rows = np.array([r for r, _ in self._free])
        self._free_cols = np.array([j for _, j in self._free])
        # bracket evaluator: every condition moves, so what is taped is
        # the map's own Pluecker coordinates (one unit form per subset
        # and power of s); each condition keeps the polynomial-in-t
        # brackets of its plane path (gamma-twisted start plane to target
        # plane) and the coefficients of its point path
        chart = self._chart = BracketChart(amb, self._free, pinned)
        self._s_pow = np.arange(chart.degrees)
        unit = np.eye(len(self._s_pow) * math.comb(amb, self.problem.p))
        self._pluecker = chart.tape(unit.reshape(len(unit), -1, chart.degrees))
        self._brackets = plane_path_brackets(
            self.gamma_k[:, None, None] * np.stack(start.planes),
            np.stack(target.planes),
        )
        s0 = np.array(start.points, dtype=complex)
        s1 = np.array(target.points, dtype=complex)
        self._points = np.stack([s0, s1 - s0 + self.delta_s, -self.delta_s])

    @property
    def dim(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------------
    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.to_matrix_batch(np.asarray(x, dtype=complex)[None, :])[0]

    def to_matrix_batch(self, X: np.ndarray) -> np.ndarray:
        """Scatter a stack of unknown vectors, shape (npaths, nrows, p)."""
        X = np.asarray(X, dtype=complex)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected X of shape (npaths, {self.dim})")
        c = np.zeros(
            (X.shape[0], self.problem.nrows, self.problem.p), dtype=complex
        )
        c[:, self._pinned_rows, self._pinned_cols] = 1.0
        c[:, self._free_rows, self._free_cols] = X
        return c

    def from_matrix(self, c: np.ndarray) -> np.ndarray:
        return np.array([c[row, j] for row, j in self._free], dtype=complex)

    def _paths_at(self, t: float):
        """Scalar deformation snapshot (kept for inspection and tests)."""
        ks, ss = [], []
        for i in range(self.problem.num_conditions):
            ks.append(
                (1.0 - t) * self.gamma_k[i] * self.start.planes[i]
                + t * self.target.planes[i]
            )
            ss.append(
                (1.0 - t) * self.start.points[i]
                + t * self.target.points[i]
                + t * (1.0 - t) * self.delta_s[i]
            )
        return ks, ss

    def _conditions(self, X, tt, brackets, points, with_t=False):
        """Residuals, dH/dx and (when asked) dH/dt of all N conditions.

        Condition i is ``sum_(S, d) kappa_iS(t) s_i(t)**d pi_(S, d)(x)``
        over the Pluecker coordinates ``pi`` of the map: those and their
        gradients are replayed once per point, whatever the conditions;
        the coefficients hold all that moves.  The deformation data comes
        in as arguments — coefficients of the bracket paths
        ``(m+1, ..., N, C)`` and of the point paths ``(3, ..., N)`` — so
        :class:`PieriParameterStack` can pass per-path arrays through the
        same code.
        """
        chart = self._chart
        pi, dpi = chart.replay(chart.extend(X), self._pluecker)
        shape = (X.shape[0], -1, pi.shape[1])
        t = tt[:, None]
        kappa = path_at(brackets, t[:, :, None])[..., None]
        s = path_at(points, t)[..., None]
        s_pow = s**self._s_pow
        coef = (kappa * s_pow[:, :, None, :]).reshape(shape)
        res = np.matmul(coef, pi[:, :, None])[:, :, 0]
        jac = np.matmul(coef, dpi)[:, :, : chart.n]
        if not with_t:
            return res, jac, None
        dkappa = path_at(path_derivative(brackets), t[:, :, None])[..., None]
        ds = path_at(path_derivative(points), t)[..., None]
        ds_pow = np.zeros_like(s_pow)
        ds_pow[..., 1:] = self._s_pow[1:] * s_pow[..., :-1] * ds
        dcoef = dkappa * s_pow[:, :, None, :] + kappa * ds_pow[:, :, None, :]
        dt = np.matmul(dcoef.reshape(shape), pi[:, :, None])[:, :, 0]
        return res, jac, dt

    def _batch(self, X, t, with_t=False):
        X = np.asarray(X, dtype=complex)
        return self._conditions(
            X, _per_path_t(t, X.shape[0]), self._brackets, self._points, with_t
        )


def continue_to_instance(
    start: PieriInstance,
    start_solutions: Sequence[np.ndarray],
    target: PieriInstance,
    options: TrackerOptions | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[List[np.ndarray], List[PathResult]]:
    """Track a solved instance's solutions to a new instance.

    Returns ``(solutions, path_results)``; solutions are renormalized to
    the standard chart.  Only ``d(m, p, q)`` paths are tracked — compare
    with the full tree's job count for the offline/online cost split.

    All paths travel as one structure-of-arrays front (the homotopy's
    native batch protocol).

    An endpoint whose chart normalization hits a zero pivot (the
    solution fits a child pattern — non-generic target data) is recorded
    as a FAILED path result rather than silently dropped, so
    ``len(results)`` always equals the number of start solutions and
    ``sum(r.success) == len(solutions)``.
    """
    homotopy = PieriParameterHomotopy(start, target, rng)
    opts = options or DEFAULT_OPTIONS
    x0s = [
        homotopy.from_matrix(np.asarray(sol, dtype=complex))
        for sol in start_solutions
    ]
    ladder = Ladder(opts, retry_failed=True)
    raw = BatchTracker(opts).track_batch(homotopy, x0s, ladder=ladder)
    return _finish(homotopy, x0s, raw, ladder)


def _finish(homotopy, x0s, raw, ladder):
    """One query's ``(solutions, path_results)``: its paths through the
    re-track ladder, then each endpoint in the standard chart.

    The deformation's endpoints are provably distinct regular roots, so
    a collision (which would silently merge two feedback laws) is a
    predictor jump and a failure a numerical accident: both climb the
    shared :class:`~repro.tracker.Ladder` (the one the paths ran under
    live, or a fresh one after a front that ran without), one front of
    ``homotopy``'s paths a rung.  An endpoint whose chart normalization
    hits a zero pivot is recorded FAILED.
    """
    retrack_duplicate_clusters(
        raw,
        lambda pids, o: BatchTracker(o).track_batch(
            homotopy, [x0s[pid] for pid in pids], path_ids=pids
        ),
        ladder,
        failed=[r.path_id for r in raw if not r.success],
    )
    solutions: List[np.ndarray] = []
    results: List[PathResult] = []
    for result in raw:
        if result.success:
            matrix = homotopy.to_matrix(result.solution)
            try:
                solutions.append(
                    normalize_to_standard_chart(matrix, homotopy.pattern)
                )
            except ZeroDivisionError:
                result = dataclasses.replace(result, status=PathStatus.FAILED)
        results.append(result)
    return solutions, results


class PieriParameterStack(_BatchSlices, StackedHomotopy):
    """Same-structure specialization of :class:`StackedHomotopy`.

    A generic :class:`StackedHomotopy` front dispatches every batched
    call member by member — correct for heterogeneous members, but when
    every member is a :class:`PieriParameterHomotopy` warm-started from
    the *same* solved generic instance (the serving layer's grouped
    queries), all members share one localization pattern and only their
    deformation *endpoints* differ.  This subclass hoists those
    endpoints into per-path arrays indexed by the ownership vector, so
    the whole cross-request front — B queries x d(m, p, q) paths each —
    evaluates in one vectorized chain per tracker sweep instead of B
    separate ones.  Per-path arithmetic is identical to the member's own
    batched methods; only the loop structure changes.
    """

    def __init__(
        self,
        members: Sequence[PieriParameterHomotopy],
        owners: Sequence[int],
    ) -> None:
        if not members:
            raise ValueError("need at least one member homotopy")
        root = members[0]
        for member in members:
            if not isinstance(member, PieriParameterHomotopy):
                raise TypeError(
                    "PieriParameterStack members must be "
                    "PieriParameterHomotopy instances"
                )
            if member.problem != root.problem:
                raise ValueError("members must share one (m, p, q)")
        super().__init__(members, owners)
        # per-path deformation data: row r follows owner owners[r]
        self._brackets = np.stack(
            [members[o]._brackets for o in self.owners], axis=1
        )
        self._points = np.stack(
            [members[o]._points for o in self.owners], axis=1
        )

    def restrict(self, rows) -> "PieriParameterStack":
        # every batched method below evaluates the whole front at once,
        # so the per-member row groups of the base class are not kept
        rows = np.asarray(rows, dtype=np.int64)
        view = object.__new__(PieriParameterStack)
        view.members = self.members
        view._dim = self._dim
        view.owners = self.owners[rows]
        view._brackets = self._brackets[:, rows]
        view._points = self._points[:, rows]
        return view

    # ------------------------------------------------------------------
    def _batch(self, X, t, with_t=False):
        X = self._check(X)
        return self.members[0]._conditions(
            X, _per_path_t(t, X.shape[0]), self._brackets, self._points, with_t
        )

    def __repr__(self) -> str:
        return (
            f"PieriParameterStack({len(self.members)} queries, "
            f"{self.npaths} paths, dim={self.dim})"
        )


def continue_to_instances(
    start: PieriInstance,
    start_solutions: Sequence[np.ndarray],
    targets: Sequence[PieriInstance],
    options: TrackerOptions | None = None,
    rng: np.random.Generator | None = None,
) -> List[tuple[List[np.ndarray], List[PathResult]]]:
    """Track one solved instance to *many* targets as one stacked front.

    The cross-request analogue of :func:`continue_to_instance`: B
    same-shape queries warm-started from one cached generic instance are
    tracked together as a single :class:`PieriParameterStack` —
    ``B * d(m, p, q)`` paths in one structure-of-arrays front, so the
    per-sweep numpy dispatch cost is shared by every query.  Returns one
    ``(solutions, path_results)`` pair per target, each identical in
    content to a sequential :func:`continue_to_instance` call modulo the
    rng draws for the gamma twists.
    """
    if not targets:
        return []
    rng = np.random.default_rng() if rng is None else rng
    opts = options or DEFAULT_OPTIONS
    members = [PieriParameterHomotopy(start, tgt, rng) for tgt in targets]
    x0s_one = [
        members[0].from_matrix(np.asarray(sol, dtype=complex))
        for sol in start_solutions
    ]
    d = len(x0s_one)
    owners: List[int] = []
    x0s: List[np.ndarray] = []
    for k in range(len(targets)):
        owners.extend([k] * d)
        x0s.extend(x0s_one)
    stack = PieriParameterStack(members, owners)
    raw = BatchTracker(opts).track_batch(stack, x0s)
    # the ladder is a per-query question: two paths of different queries
    # may legitimately coincide.  It indexes its result list and the
    # re-track callback by path id, so each query's rows are renumbered
    # 0..d-1 first (also the ids a sequential continue_to_instance call
    # reports).
    return [
        _finish(
            member,
            x0s_one,
            [
                dataclasses.replace(result, path_id=pid)
                for pid, result in enumerate(raw[k * d : (k + 1) * d])
            ],
            Ladder(opts, retry_failed=True),
        )
        for k, member in enumerate(members)
    ]
