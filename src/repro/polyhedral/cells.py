"""Mixed-cell enumeration by the lower-hull test (the BKK machinery).

Lift every support point ``a`` of equation ``i`` to ``(a, w_i(a))`` with
the random integer lifting ``w``.  A *mixed cell* is a choice of one
edge per support such that some vector ``gamma`` makes exactly the two
chosen points of every lifted support minimal under
``<., (gamma, 1)>`` — i.e. the Minkowski sum of the chosen edges is a
lower facet of the lifted Cayley/Minkowski configuration.  The mixed
volume is the sum of ``|det|`` of the edge-direction matrices over all
mixed cells, and each cell seeds a binomial start system with that many
toric roots (:mod:`repro.polyhedral.binomial`).

Enumeration is exhaustive with pruning, which is plenty at this repo's
sizes (supports of a dozen points, dimension <= 10).  Like the Pieri
tree, the search runs as level fronts: the work inside one stage or one
search depth is independent, so each is one stacked call of the LP
kernel (:func:`repro.polyhedral.lp.lp_feasible_stack`) rather than one
call per node:

1. per-support *lower-edge* filter — an edge that is not a lower edge
   of its own lifted support can never enter a cell (one stacked LP
   call per support);
2. a pairwise *relation table* — LP feasibility for every pair of
   surviving edges from different supports (one stacked call per
   support pair); a cell's edges must be pairwise compatible, so the
   table prunes most of the product space before any joint test runs;
3. a level-synchronous search over supports (fewest edges first): the
   frontier holds every partial cell of one depth, and a child survives
   the forward check against the relation table, an incremental rank
   test on the edge directions (dependent directions can never reach a
   nonzero determinant) and, from depth 2, the level's one joint LP
   call.  Children are ordered by (parent, edge), so the cells come out
   in depth-first order;
4. leaf verification: a leaf whose integer edge-direction determinant
   is zero spans no cell and is dropped; the rest are screened as one
   stack in floats, and a leaf whose float slacks are too close to zero
   to trust is verified exactly in integer/rational arithmetic — the
   unique ``gamma`` of a candidate cell solves an integer linear
   system, so every "every other lifted point lies strictly above"
   slack is a rational number that is compared to zero *exactly* — a
   zero slack means the lifting was degenerate and is reported as
   :class:`DegenerateLiftingError` (the caller re-lifts) instead of
   being silently mis-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..polynomials import PolynomialSystem
from .lp import chunk_length, lp_feasible_stack
from .supports import augment_with_origin, random_lifting, supports_of

__all__ = [
    "DegenerateLiftingError",
    "MixedCell",
    "MixedSubdivision",
    "induced_subdivision",
    "mixed_cells",
    "mixed_volume",
]


class DegenerateLiftingError(RuntimeError):
    """The lifting put a support point *on* a cell's supporting hyperplane."""


@dataclass(frozen=True)
class MixedCell:
    """One mixed cell: an edge per equation plus its lower-hull data.

    Attributes
    ----------
    edges:
        Per equation (original order), the pair of row indices into the
        equation's support (see :func:`repro.polyhedral.supports.
        supports_of`) spanning the cell's edge.
    volume:
        ``|det|`` of the edge-direction matrix — the number of toric
        start roots this cell contributes.
    gamma:
        The inner normal certifying the cell (float; the exact value is
        rational and only used internally).
    etas:
        Per equation, the nonnegative lifted slacks of every support
        point relative to the cell (zero exactly on the two edge
        points).  These become the powers of the continuation parameter
        in the cell's polyhedral homotopy.
    """

    edges: Tuple[Tuple[int, int], ...]
    volume: int
    gamma: np.ndarray
    etas: Tuple[np.ndarray, ...]


@dataclass
class MixedSubdivision:
    """The mixed cells induced by one lifting of one support tuple."""

    supports: List[np.ndarray]
    lifting: List[np.ndarray]
    cells: List[MixedCell]
    #: seed of the dedicated lifting stream (:func:`mixed_cells`); with
    #: :attr:`relifts` it makes a degenerate-lifting retry reproducible
    #: from a sweep journal: ``default_rng(lifting_seed)`` drawn
    #: ``relifts + 1`` times lands on exactly this lifting
    lifting_seed: Optional[int] = None
    #: how many degenerate liftings were rejected before this one
    relifts: int = 0
    #: the bound the lifting values were drawn under (replay needs it)
    lifting_bound: int = 4096

    @property
    def mixed_volume(self) -> int:
        return sum(c.volume for c in self.cells)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return (
            f"MixedSubdivision(n={len(self.supports)}, "
            f"cells={self.n_cells}, mixed_volume={self.mixed_volume})"
        )


# ----------------------------------------------------------------------
# exact integer/rational helpers (leaf verification)
# ----------------------------------------------------------------------

def _solve_exact(
    vmat: List[List[int]], rhs: List[int]
) -> Tuple[int, Optional[List[Fraction]]]:
    """Solve ``V gamma = r`` over the rationals; returns ``(det, gamma)``.

    ``det`` is the exact integer determinant of ``V``; ``gamma`` is
    ``None`` when ``det == 0``.
    """
    n = len(vmat)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(vmat)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return 0, None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    assert det.denominator == 1
    return int(det), [aug[r][n] for r in range(n)]


# ----------------------------------------------------------------------
# the enumeration
# ----------------------------------------------------------------------

class _Enumerator:
    """One lower-hull sweep over a fixed (supports, lifting) pair."""

    def __init__(self, supports: Sequence[np.ndarray], lifting: Sequence[np.ndarray]):
        self.n = supports[0].shape[1]
        if len(supports) != self.n:
            raise ValueError(
                f"mixed cells need a square system: {len(supports)} supports "
                f"in {self.n} variables"
            )
        for s, w in zip(supports, lifting):
            if len(s) != len(w):
                raise ValueError("lifting must assign one value per support point")
        # fewest-edges-first ordering shrinks the search tree
        self.order = sorted(range(self.n), key=lambda i: len(supports[i]))
        self.supports = [np.asarray(supports[i], dtype=np.int64) for i in self.order]
        self.lifting = [np.asarray(lifting[i], dtype=np.int64) for i in self.order]

    def run(self) -> List[MixedCell]:
        if any(len(s) < 2 for s in self.supports):
            return []  # a point support has zero mixed volume with anything
        self._build_edge_tables()
        if any(len(e) == 0 for e in self.edges):
            return []
        self._build_relation_table()
        return self._verify_leaves(self._search())

    # -- stage 1: per-support lower edges ------------------------------
    def _build_edge_tables(self) -> None:
        """Per support, one stacked LP over every point pair ``(p, q)``:
        the edge is level under gamma and point ``p`` is minimal over the
        rest of the support, ``<p - c, gamma> <= w_c - w_p``."""
        n = self.n
        self.edges: List[np.ndarray] = []    # per support: (nedges, 2) point pairs
        self.eq_rows: List[np.ndarray] = []  # per support: (nedges, n) directions
        self.eq_rhs: List[np.ndarray] = []   # (nedges,)
        self.ub_rows: List[np.ndarray] = []  # (nedges, npoints - 2, n)
        self.ub_rhs: List[np.ndarray] = []   # (nedges, npoints - 2)
        for d in range(n):
            pts = self.supports[d].astype(float)
            w = self.lifting[d].astype(float)
            m = len(pts)
            p, q = np.array(list(combinations(range(m), 2))).T
            rest = np.arange(m)
            others = np.nonzero((rest != p[:, None]) & (rest != q[:, None]))[1]
            others = others.reshape(len(p), m - 2)
            eqa = pts[q] - pts[p]
            eqb = w[p] - w[q]
            uba = pts[p][:, None, :] - pts[others]
            ubb = w[others] - w[p][:, None]
            keep = lp_feasible_stack(eqa[:, None, :], eqb[:, None], uba, ubb)
            self.edges.append(np.column_stack([p[keep], q[keep]]))
            self.eq_rows.append(eqa[keep])
            self.eq_rhs.append(eqb[keep])
            self.ub_rows.append(uba[keep])
            self.ub_rhs.append(ubb[keep])

    def _joint_feasible(self, supports: Sequence[int], picks: np.ndarray) -> np.ndarray:
        """Joint LP feasibility of each row of ``picks`` (one edge index
        per listed support), gathered and solved one chunk at a time."""
        m = sum(self.ub_rows[d].shape[1] for d in supports)
        step = chunk_length(m, self.n)
        out = np.empty(len(picks), dtype=bool)
        for lo in range(0, len(picks), step):
            rows = picks[lo : lo + step]
            out[lo : lo + step] = lp_feasible_stack(
                np.stack([self.eq_rows[d][rows[:, k]] for k, d in enumerate(supports)], 1),
                np.stack([self.eq_rhs[d][rows[:, k]] for k, d in enumerate(supports)], 1),
                np.concatenate(
                    [self.ub_rows[d][rows[:, k]] for k, d in enumerate(supports)], 1
                ),
                np.concatenate(
                    [self.ub_rhs[d][rows[:, k]] for k, d in enumerate(supports)], 1
                ),
            )
        return out

    # -- stage 2: pairwise relation table ------------------------------
    def _build_relation_table(self) -> None:
        n = self.n
        self.compat: List[List[Optional[np.ndarray]]] = [
            [None] * n for _ in range(n)
        ]
        for d1 in range(n):
            for d2 in range(d1 + 1, n):
                shape = (len(self.edges[d1]), len(self.edges[d2]))
                picks = np.indices(shape).reshape(2, -1).T
                self.compat[d1][d2] = self._joint_feasible((d1, d2), picks).reshape(shape)

    # -- stage 3: level-synchronous search -----------------------------
    def _search(self) -> np.ndarray:
        """Every leaf of the pruned search tree, one row of edge indices
        (internal support order) each, in depth-first order.

        The frontier holds every partial cell of one depth: its chosen
        edges, an orthonormal basis of their directions and, per future
        support, the edges the relation table still allows.  A child
        (parent, edge) survives the incremental rank test (dependent
        directions can never reach det != 0), the forward check against
        the relation table and, from depth 2, the frontier's one joint
        LP call.  Children are ordered by (parent, edge), so the leaves
        come out in depth-first order.
        """
        n = self.n
        chosen = np.zeros((1, 0), dtype=np.int64)
        basis = np.zeros((1, 0, n))
        allowed = [np.ones((1, len(e)), dtype=bool) for e in self.edges]
        for depth in range(n - 1):
            parent, edge = np.nonzero(allowed[depth])
            v = self.eq_rows[depth][edge]
            for k in range(depth):
                b = basis[parent, k]
                v = v - np.sum(v * b, axis=1)[:, None] * b
            norm = np.linalg.norm(v, axis=1)
            keep = norm >= 1e-9
            future = [
                allowed[j][parent] & self.compat[depth][j][edge]
                for j in range(depth + 1, n)
            ]
            for a in future:
                keep &= a.any(axis=1)
            picks = np.column_stack([chosen[parent], edge])
            if depth >= 2:
                live = np.flatnonzero(keep)
                keep[live] = self._joint_feasible(range(depth + 1), picks[live])
            chosen = picks[keep]
            basis = np.concatenate(
                [basis[parent[keep]], (v[keep] / norm[keep, None])[:, None, :]], 1
            )
            allowed = allowed[: depth + 1] + [a[keep] for a in future]
        parent, edge = np.nonzero(allowed[n - 1])
        return np.column_stack([chosen[parent], edge])

    # -- stage 4: leaf verification ------------------------------------
    def _verify_leaves(self, leaves: np.ndarray) -> List[MixedCell]:
        """Screen every leaf in one stack; borderline leaves go exact.

        A leaf whose edge directions are dependent (integer determinant
        zero) spans no cell and is dropped before any arithmetic.  The
        rest get one stacked float solve for gamma and their slacks; a
        slack too close to zero to trust (or a non-finite gamma) sends
        the leaf down the exact rational path.
        """
        n = self.n
        pq = np.stack([self.edges[d][leaves[:, d]] for d in range(n)], 1)
        p, q = pq[:, :, 0], pq[:, :, 1]
        vmats = np.stack(
            [self.supports[d][q[:, d]] - self.supports[d][p[:, d]] for d in range(n)], 1
        )
        dets = [_int_det(vmat) for vmat in vmats.tolist()]
        live = np.flatnonzero(dets)
        pq, vmats = pq[live], vmats[live]
        rhs = np.stack(
            [self.lifting[d][pq[:, d, 0]] - self.lifting[d][pq[:, d, 1]] for d in range(n)],
            1,
        )
        gammas = self._float_gammas(vmats.astype(float), rhs.astype(float))
        finite = np.all(np.isfinite(gammas), axis=1)
        gammas[~finite] = 0.0
        ok, borderline, etas = self._float_slacks(pq, gammas)
        cells: List[MixedCell] = []
        for k, i in enumerate(live):
            pairs = [tuple(e) for e in pq[k].tolist()]
            if not finite[k] or borderline[k]:
                cell = self._verify_exact(pairs, vmats[k].tolist(), rhs[k].tolist())
            elif ok[k]:
                cell = self._make_cell(
                    pairs, abs(dets[i]), gammas[k].copy(), [e[k].copy() for e in etas]
                )
            else:
                cell = None
            if cell is not None:
                cells.append(cell)
        return cells

    def _verify_exact(self, pairs, vmat, rhs) -> Optional[MixedCell]:
        n = self.n
        det, gamma = _solve_exact(vmat, rhs)
        if det == 0:
            return None
        etas = []
        for d, (p, q) in enumerate(pairs):
            pts, w = self.supports[d], self.lifting[d]
            base = sum(int(pts[p][k]) * gamma[k] for k in range(n)) + int(w[p])
            sl = []
            for c in range(len(pts)):
                s = sum(int(pts[c][k]) * gamma[k] for k in range(n)) + int(w[c]) - base
                if s == 0 and c != p and c != q:
                    raise DegenerateLiftingError(
                        f"support point {c} of equation {d} ties the cell "
                        f"hyperplane; re-lift"
                    )
                if s < 0:
                    return None
                sl.append(float(s))
            etas.append(np.array(sl))
        gamma_f = np.array([float(g) for g in gamma])
        return self._make_cell(pairs, abs(det), gamma_f, etas)

    @staticmethod
    def _float_gammas(vmats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Each leaf's float gamma; all NaN (every leaf goes exact) if a
        float pivot vanishes."""
        try:
            return np.linalg.solve(vmats, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return np.full(rhs.shape, np.nan)

    def _float_slacks(self, pq: np.ndarray, gammas: np.ndarray):
        """Per-point slacks of every leaf; flags slacks too close to zero
        to trust (``borderline``) and negative ones (``not ok``)."""
        at = np.arange(len(gammas))
        ok = np.ones(len(gammas), dtype=bool)
        borderline = np.zeros(len(gammas), dtype=bool)
        etas = []
        for d in range(self.n):
            pts = self.supports[d].astype(float)
            w = self.lifting[d].astype(float)
            p, q = pq[:, d, 0], pq[:, d, 1]
            vals = (pts @ gammas[:, :, None])[:, :, 0] + w
            sl = vals - vals[at, p][:, None]
            sl[at, p] = 0.0
            sl[at, q] = 0.0
            others = np.ones(sl.shape, dtype=bool)
            others[at, p] = False
            others[at, q] = False
            scale = 1e-6 * np.maximum(1.0, np.max(np.abs(vals), axis=1))
            borderline |= np.any(others & (np.abs(sl) < scale[:, None]), axis=1)
            ok &= ~np.any(others & (sl < 0), axis=1)
            etas.append(np.maximum(sl, 0.0))
        return ok, borderline, etas

    def _make_cell(self, pairs, volume, gamma, etas) -> MixedCell:
        # map internal (fewest-edges-first) order back to equation order
        edges_orig: List[Tuple[int, int]] = [(-1, -1)] * self.n
        etas_orig: List[np.ndarray] = [np.zeros(0)] * self.n
        for d, orig in enumerate(self.order):
            edges_orig[orig] = pairs[d]
            etas_orig[orig] = etas[d]
        return MixedCell(
            edges=tuple(edges_orig),
            volume=int(volume),
            gamma=np.asarray(gamma, dtype=float),
            etas=tuple(etas_orig),
        )


def _int_det(vmat: List[List[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    n = len(vmat)
    m = [row[:] for row in vmat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def induced_subdivision(
    supports: Sequence[np.ndarray], lifting: Sequence[np.ndarray]
) -> MixedSubdivision:
    """Enumerate the mixed cells induced by one specific lifting.

    Raises :class:`DegenerateLiftingError` when the lifting is not
    generic (a support point lies exactly on a cell's hyperplane).
    """
    supports = [np.asarray(s, dtype=np.int64) for s in supports]
    lifting = [np.asarray(w, dtype=np.int64) for w in lifting]
    cells = _Enumerator(supports, lifting).run()
    return MixedSubdivision(supports=supports, lifting=lifting, cells=cells)


def mixed_cells(
    system_or_supports: PolynomialSystem | Sequence[np.ndarray],
    rng: np.random.Generator | None = None,
    affine: bool = True,
    lifting_bound: int = 4096,
    max_retries: int = 5,
) -> MixedSubdivision:
    """Mixed cells of a system (or raw supports), re-lifting on degeneracy.

    With ``affine=True`` (the default) every support is augmented with
    the origin first (see :func:`repro.polyhedral.supports.
    augment_with_origin`), so the cell count bounds *all* isolated
    affine roots — the bound a blackbox solver wants, and the convention
    under which katsura's mixed volume equals its Bezout number.
    ``affine=False`` gives the plain BKK torus count.

    >>> import numpy as np
    >>> from repro.polynomials import PolynomialSystem, variables
    >>> x, y = variables(2)
    >>> sub = mixed_cells(PolynomialSystem([x * y + x + 1, x + y + 1]),
    ...                   rng=np.random.default_rng(0))
    >>> sub.mixed_volume
    2
    """
    if isinstance(system_or_supports, PolynomialSystem):
        supports = supports_of(system_or_supports)
    else:
        supports = [np.asarray(s, dtype=np.int64) for s in system_or_supports]
    if affine:
        supports = augment_with_origin(supports)
    rng = np.random.default_rng() if rng is None else rng
    # one explicit seed for a dedicated lifting stream: journaling
    # (seed, relifts) makes a DegenerateLiftingError retry reproducible
    # — replaying the stream re-derives the exact lifting that won —
    # and lets cached mixed cells be validated against the journal
    lifting_seed = int(rng.integers(0, 2**63))
    lift_rng = np.random.default_rng(lifting_seed)
    last: DegenerateLiftingError | None = None
    for attempt in range(max_retries):
        lifting = random_lifting(supports, lift_rng, bound=lifting_bound)
        try:
            subdivision = induced_subdivision(supports, lifting)
        except DegenerateLiftingError as exc:  # pragma: no cover - rare
            last = exc
            continue
        subdivision.lifting_seed = lifting_seed
        subdivision.relifts = attempt
        subdivision.lifting_bound = lifting_bound
        return subdivision
    raise DegenerateLiftingError(
        f"no generic lifting found in {max_retries} attempts"
    ) from last  # pragma: no cover


def mixed_volume(
    system_or_supports: PolynomialSystem | Sequence[np.ndarray],
    rng: np.random.Generator | None = None,
    affine: bool = True,
    **kwargs,
) -> int:
    """The mixed volume of a square system (BKK root-count bound).

    ``affine=True`` (default) bounds the isolated roots in ``C^n``;
    ``affine=False`` bounds roots in the torus only.

    >>> import numpy as np
    >>> from repro.systems import cyclic_roots_system
    >>> mixed_volume(cyclic_roots_system(3), rng=np.random.default_rng(0))
    6
    """
    return mixed_cells(
        system_or_supports, rng=rng, affine=affine, **kwargs
    ).mixed_volume
