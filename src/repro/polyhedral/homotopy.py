"""The polyhedral cell homotopy and the toric start-system driver.

For a mixed cell with inner normal ``gamma``, substituting
``x = t^gamma z`` into the generic system ``G`` (random coefficients on
the lifted supports) and clearing the minimal power of ``t`` from each
equation leaves the *cell homotopy*

    H_i(z, t) = sum_a c_{i,a} t^{eta_{i,a}} z^a

where the lifted slack ``eta_{i,a} >= 0`` vanishes exactly on the
cell's two edge points.  At ``t = 0`` only the edge monomials survive —
the binomial system :mod:`repro.polyhedral.binomial` solves in closed
form — and at ``t = 1`` the homotopy *is* ``G``, so tracking each
cell's ``|det|`` toric roots across ``t in [0, 1]`` reaches exactly
``mixed_volume`` solutions of ``G``.  The slacks are normalized per
cell so the smallest positive exponent is 1, which keeps ``dH/dt``
regular at ``t = 0`` (no fractional-power singularity).

The cells share supports and coefficients and differ only in the
exponents of ``t``, so one :class:`CellHomotopy` serves a whole
subdivision: a :class:`~repro.kernels.TermHomotopy` whose terms carry
per-row time exponents (``Term.eta is None``), read from the
``(ncells, nterms)`` slack matrix by each path's cell.  Its tape
depends on the supports only — every cell, and every cold solve on the
same supports, replays one tape — and phase 1 is one front making one
kernel call a sweep, whatever the cell count; failed or colliding
paths climb the re-track ladder as fronts across cells on the same
homotopy.

:class:`PolyhedralStart` packages the pipeline end to end: subdivision,
generic system, phase-1 tracking, and the start points that
``repro.homotopy.solve(start="polyhedral")`` hands to the coefficient
homotopy ``gamma (1-t) G + t F``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..kernels import KernelUsage, Term, TermHomotopy
from ..polynomials import PolynomialSystem
from ..tracker import (
    BatchTracker,
    Ladder,
    PathResult,
    TrackerOptions,
    retrack_duplicate_clusters,
)
from .binomial import solve_binomial_system
from .cells import MixedCell, MixedSubdivision, mixed_cells
from .supports import random_coefficient_system

__all__ = ["CellHomotopy", "PolyhedralStart"]


class CellHomotopy(TermHomotopy):
    """``H_i(z,t) = sum_a c_{i,a} t^{eta_{c,i,a}} z^a`` for the mixed
    cells ``c`` of one subdivision.

    ``etas`` holds, per equation, the slacks of one cell (``(m_i,)``)
    or of every cell (``(ncells, m_i)``, one row a cell).  They come
    pre-normalized (0 on a cell's edges, >= 1 off them), so ``H(., 0)``
    is the cell's binomial system, ``H(., 1)`` is the generic system,
    and ``dH/dt`` stays finite on all of [0, 1].  Every row of the
    homotopy follows cell 0; :meth:`front` is the view whose rows
    follow given cells.
    """

    def __init__(
        self,
        supports: Sequence[np.ndarray],
        coefficients: Sequence[np.ndarray],
        etas: Sequence[np.ndarray],
        kernel: str | None = None,
    ) -> None:
        nvars = int(supports[0].shape[1])
        if len(supports) != nvars:
            raise ValueError("cell homotopies need a square system")
        slacks = np.concatenate([np.asarray(e, dtype=float) for e in etas], -1)
        # (nterms, ncells): a front's exponent rows are one column take
        self._slacks = np.ascontiguousarray(np.atleast_2d(slacks).T)
        self._cells = None
        terms = [
            Term(i, tuple(int(v) for v in a), complex(c), None)
            for i, (support, coefs) in enumerate(zip(supports, coefficients))
            for a, c in zip(support, coefs)
        ]
        if len(terms) != len(self._slacks):
            raise ValueError("need one slack per term and cell")
        super().__init__(nvars, terms, kernel)

    @property
    def ncells(self) -> int:
        return self._slacks.shape[1]

    def front(self, cells) -> "CellHomotopy":
        """The view whose row ``i`` follows cell ``cells[i]``."""
        view = object.__new__(CellHomotopy)
        view.__dict__.update(self.__dict__)
        view._cells = np.asarray(cells, dtype=np.intp)
        return view

    def restrict(self, rows) -> "CellHomotopy":
        """The view of the given rows (tracker culling support)."""
        if self._cells is None:
            return self
        return self.front(self._cells[np.asarray(rows, dtype=np.intp)])

    def _args(self, X, t):
        X, tt = super()._args(X, t)
        if self._cells is None:
            cells = np.zeros(X.shape[0], dtype=np.intp)
        elif len(self._cells) == X.shape[0]:
            cells = self._cells
        else:
            raise ValueError(
                f"front of {len(self._cells)} rows got {X.shape[0]} points"
            )
        return X, tt, self._slacks.take(cells, 1)

    def __repr__(self) -> str:
        return (
            f"CellHomotopy(dim={self.dim}, nterms={len(self._terms)}, "
            f"ncells={self.ncells})"
        )


def normalized_slacks(subdivision: MixedSubdivision) -> List[np.ndarray]:
    """Per equation, the ``(ncells, m_i)`` slacks of every cell, scaled
    so each cell's smallest positive slack is 1."""
    sizes = [len(s) for s in subdivision.supports]
    S = np.array([np.concatenate(c.etas) for c in subdivision.cells])
    low = np.where(S > 0, S, np.inf).min(axis=1)
    scale = np.where(np.isfinite(low), 1.0 / low, 1.0)[:, None]
    # clamp positive slacks to >= 1 exactly: roundoff in the scaling
    # must not produce an exponent of 1 - eps, whose t-derivative
    # t**(-eps) blows up at t = 0
    S = np.where(S > 0, np.maximum(S * scale, 1.0), 0.0)
    return np.split(S, np.cumsum(sizes)[:-1], axis=1)


class PolyhedralStart:
    """Mixed cells, generic system and tracked toric starts for a target.

    The constructor runs the cheap combinatorial work (subdivision +
    generic system); :meth:`track_starts` runs the per-cell homotopies
    and returns one start point per unit of mixed volume — the inputs
    the coefficient homotopy ``gamma (1-t) G + t F`` needs.

    >>> import numpy as np
    >>> from repro.systems import cyclic_roots_system
    >>> ps = PolyhedralStart(cyclic_roots_system(3), np.random.default_rng(0))
    >>> ps.mixed_volume
    6
    >>> starts, results = ps.track_starts()
    >>> len(starts), all(r.success for r in results)
    (6, True)
    """

    def __init__(
        self,
        target: PolynomialSystem,
        rng: np.random.Generator | None = None,
        affine: bool = True,
        lifting_bound: int = 4096,
        kernel: str | None = None,
    ) -> None:
        if not target.is_square():
            raise ValueError("polyhedral start systems need a square target")
        rng = np.random.default_rng() if rng is None else rng
        self.target = target
        self.kernel = kernel
        self.kernel_usage = KernelUsage([])
        self.subdivision: MixedSubdivision = mixed_cells(
            target, rng=rng, affine=affine, lifting_bound=lifting_bound
        )
        self.generic_system, self.coefficients = random_coefficient_system(
            self.subdivision.supports, rng
        )
        self.phase1_failures = 0

    @property
    def mixed_volume(self) -> int:
        return self.subdivision.mixed_volume

    @property
    def cells(self) -> List[MixedCell]:
        return self.subdivision.cells

    @property
    def lifting_seed(self) -> int | None:
        """Seed of the lifting stream (journaled for reproducibility)."""
        return self.subdivision.lifting_seed

    @property
    def relifts(self) -> int:
        """Degenerate liftings rejected before the subdivision's one."""
        return self.subdivision.relifts

    # ------------------------------------------------------------------
    def cell_starts(self, cell: MixedCell) -> np.ndarray:
        """The closed-form binomial roots seeding the cell's paths."""
        vmat = []
        beta = []
        for support, coefs, (p, q) in zip(
            self.subdivision.supports, self.coefficients, cell.edges
        ):
            vmat.append([int(v) for v in (support[q] - support[p])])
            beta.append(-complex(coefs[p]) / complex(coefs[q]))
        return solve_binomial_system(vmat, beta)

    def track_starts(
        self, options: TrackerOptions | None = None, endgame=None
    ) -> Tuple[np.ndarray, List[PathResult]]:
        """Track every cell's toric roots to the generic system, as one front.

        Returns ``(starts, results)``: a ``(mixed_volume, n)`` array of
        solutions of the generic system (one per path, cells
        concatenated in order) plus the per-path phase-1 results.
        The generic system has ``mixed_volume`` distinct regular roots,
        so a failed path (unless the endgame classified it: a
        Cauchy-measured singular endpoint is a verdict, not a numerical
        accident) and colliding endpoints (a predictor jump between
        close paths, which would silently lose a root) both climb the
        shared :func:`~repro.tracker.retrack_duplicate_clusters` ladder,
        one front across cells a rung.  A path that still fails keeps
        its binomial start (it will be reported failed again downstream
        rather than silently dropped), and is counted in
        :attr:`phase1_failures`.
        """
        opts = options or TrackerOptions()
        all_starts: List[np.ndarray] = []
        path_cell: List[int] = []
        path_seed: List[np.ndarray] = []
        self.phase1_failures = 0
        for c, cell in enumerate(self.subdivision.cells):
            seeds = np.asarray(self.cell_starts(cell), dtype=complex)
            path_cell.extend([c] * len(seeds))
            path_seed.extend(seeds)
        if path_seed:
            homotopy = CellHomotopy(
                self.subdivision.supports,
                self.coefficients,
                normalized_slacks(self.subdivision),
                kernel=self.kernel,
            )
            self.kernel_usage.add(homotopy.kernels)

        def track(pids, o, ladder=None):
            # one front across the cells in play; a row never sees the
            # rest of its front, so this is a per-cell loop row by row
            return BatchTracker(o, endgame=endgame).track_batch(
                homotopy.front([path_cell[pid] for pid in pids]),
                [path_seed[pid] for pid in pids],
                path_ids=pids,
                ladder=ladder,
            )

        ladder = Ladder(opts, retry_failed=True)
        all_results: List[PathResult] = (
            track(list(range(len(path_seed))), opts, ladder)
            if path_seed else []
        )
        # all_results is ordered by path id, so ids index the lists
        retrack_duplicate_clusters(
            all_results,
            track,
            ladder,
            failed=[r.path_id for r in all_results if not r.success],
        )
        for pid, result in enumerate(all_results):
            if result.success and np.all(np.isfinite(result.solution)):
                all_starts.append(result.solution)
            else:
                self.phase1_failures += 1
                all_starts.append(path_seed[pid])
        starts = (
            np.asarray(all_starts, dtype=complex)
            if all_starts
            else np.zeros((0, self.target.nvars), dtype=complex)
        )
        return starts, all_results

    def __repr__(self) -> str:
        return (
            f"PolyhedralStart(mixed_volume={self.mixed_volume}, "
            f"cells={len(self.cells)})"
        )
