"""Tests for the polyhedral subsystem: supports, cells, binomials, solve.

Pins the classic mixed volumes (cyclic-5 = 70, cyclic-7 = 924,
noon-3 = 21, katsura-n = Bezout), property-tests the root-count chain
``mixed_volume <= best m-homogeneous <= total degree``, exercises the
Smith-normal-form binomial solver, and runs the parity suite asserting
``solve(start="polyhedral")`` finds the same distinct finite solutions
as the total-degree homotopy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.homotopy import best_partition, solve
from repro.polyhedral import (
    DegenerateLiftingError,
    MixedCell,
    PolyhedralStart,
    augment_with_origin,
    induced_subdivision,
    inequalities_feasible,
    lp_feasible,
    lp_feasible_stack,
    mixed_cells,
    mixed_volume,
    monomial_map,
    smith_normal_form,
    solve_binomial_system,
    supports_of,
)
from repro.polynomials import Polynomial, PolynomialSystem, variables
from repro.systems import (
    cyclic_roots_system,
    katsura_system,
    noon_system,
)


class TestSupports:
    def test_supports_sorted_and_exact(self):
        x, y = variables(2)
        sys_ = PolynomialSystem([x**2 * y + y - 1, x + y])
        s = supports_of(sys_)
        assert s[0].tolist() == [[0, 0], [0, 1], [2, 1]]
        assert s[1].tolist() == [[0, 1], [1, 0]]

    def test_zero_polynomial_rejected(self):
        sys_ = PolynomialSystem([Polynomial({}, 2), Polynomial({}, 2)])
        with pytest.raises(ValueError):
            supports_of(sys_)

    def test_augment_adds_origin_once(self):
        a = augment_with_origin([np.array([[1, 0], [1, 1]])])[0]
        assert a.tolist() == [[0, 0], [1, 0], [1, 1]]
        again = augment_with_origin([a])[0]
        assert again.tolist() == a.tolist()


class TestLpKernel:
    def test_box_feasible(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert inequalities_feasible(A, np.array([1.0, 1.0, 1.0, 1.0]))

    def test_contradiction_infeasible(self):
        A = np.array([[1.0], [-1.0]])
        assert not inequalities_feasible(A, np.array([-2.0, 1.0]))

    def test_equalities_eliminated(self):
        # x + y = 2 with x <= 0 and y <= 0 cannot hold
        assert not lp_feasible(
            np.array([[1.0, 1.0]]), np.array([2.0]),
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]),
        )

    def test_inconsistent_equalities(self):
        assert not lp_feasible(
            np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 3.0]),
            None, None,
        )

    @given(
        st.integers(1, 4), st.integers(0, 5), st.integers(0, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_rows_equal_one_row_calls(self, n, k, m, seed):
        """Every row of a stack answers as its own one-row call, across
        chunk boundaries, and known answers come out right."""
        import repro.polyhedral.lp as lp

        k = min(k, n + 1)  # k >= n covers "no free direction left"
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            # four rows a chunk, so the stack sizes below cross chunks
            mp.setattr(lp, "STACK_BYTES", 4 * 8 * max(m, 1) * (2 * n + m + 1))
            C = lp.chunk_length(m, n)
            assert C == 4
            lps = [_random_lp(rng, n, k, m) for _ in range(3 * C + 5)]
            one_row = [lp_feasible(*row[:4]) for row in lps]
            assert one_row == [row[4] for row in lps]
            for size in (1, C - 1, C, C + 1, 3 * C + 5):
                stack = [np.array([row[i] for row in lps[:size]]) for i in range(4)]
                assert lp_feasible_stack(*stack).tolist() == one_row[:size]

    def test_stack_memory_is_bounded(self):
        """The chunked stacks keep a cyclic-6 enumeration small."""
        import tracemalloc

        # first-call allocations (lazy imports, LAPACK set-up) are not
        # the enumeration's
        mixed_cells(cyclic_roots_system(3), rng=np.random.default_rng(0))
        tracemalloc.start()
        try:
            mixed_cells(cyclic_roots_system(6), rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def _random_lp(rng, n, k, m):
    """``(A_eq, b_eq, A_ub, b_ub, answer)`` of one random small LP.

    The kind is drawn among those the shape admits: feasible around a
    known integer point (with rank-deficient equalities when k >= 2),
    inconsistent equalities, or two inequalities whose sum reads
    ``0 <= -1`` (a certificate).  ``answer`` is the known feasibility.
    """
    kinds = ["feasible"] + ["certificate"] * (m >= 2) + ["dependent", "inconsistent"] * (k >= 2)
    kind = kinds[rng.integers(len(kinds))]
    x = rng.integers(-3, 4, n).astype(float)
    A_eq = rng.integers(-3, 4, (k, n)).astype(float)
    A_ub = rng.integers(-3, 4, (m, n)).astype(float)
    if kind in ("dependent", "inconsistent"):
        A_eq[1] = 2 * A_eq[0]
    b_eq = A_eq @ x
    b_ub = A_ub @ x + rng.integers(0, 3, m)
    if kind == "inconsistent":
        b_eq[1] += 1.0
    if kind == "certificate":
        A_ub[1] = -A_ub[0]
        b_ub[1] = -b_ub[0] - 1.0
    return A_eq, b_eq, A_ub, b_ub, kind in ("feasible", "dependent")


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "mat",
        [
            [[2, 4], [6, 8]],
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
            [[3, 5, 7], [2, 0, -4], [1, 1, 1]],
            [[6, 0], [0, 10]],
        ],
    )
    def test_decomposition_invariants(self, mat):
        U, S, W = smith_normal_form(mat)
        m = np.array(mat)
        assert (U @ m @ W == S).all()
        # unimodular transforms, diagonal S with divisibility chain
        assert abs(round(np.linalg.det(U))) == 1
        assert abs(round(np.linalg.det(W))) == 1
        n = min(S.shape)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert S[i, j] == 0
        diag = [int(S[i, i]) for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0

    def test_binomial_roots_count_and_residual(self):
        vmat = [[2, 1], [0, 3]]
        beta = [1.5 + 0.5j, -2.0]
        sols = solve_binomial_system(vmat, beta)
        assert len(sols) == 6  # |det| = 6
        # each solution satisfies x^{v_i} = beta_i
        for sol in sols:
            lhs = monomial_map(np.array(vmat), sol)
            assert np.max(np.abs(lhs - np.array(beta))) < 1e-9
        # and they are pairwise distinct
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                assert np.max(np.abs(sols[i] - sols[j])) > 1e-8

    def test_singular_exponent_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_binomial_system([[1, 1], [2, 2]], [1.0, 1.0])


class TestMixedVolumePins:
    """The classic counts the subsystem must reproduce exactly."""

    @pytest.mark.parametrize("n,expected", [(3, 6), (5, 70)])
    def test_cyclic_small(self, n, expected):
        assert mixed_volume(
            cyclic_roots_system(n), rng=np.random.default_rng(0)
        ) == expected

    def test_cyclic_7(self):
        # the paper-scale pin: 924 mixed cells' worth of volume vs 5040
        # total-degree paths (a ~2-3 s enumeration as level fronts; the
        # depth-first search took ~13 s)
        assert mixed_volume(
            cyclic_roots_system(7), rng=np.random.default_rng(0)
        ) == 924

    def test_noon_3(self):
        assert mixed_volume(
            noon_system(3), rng=np.random.default_rng(0)
        ) == 21

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_katsura_equals_bezout(self, n):
        sys_ = katsura_system(n)
        assert mixed_volume(
            sys_, rng=np.random.default_rng(0)
        ) == sys_.total_degree_bound()

    def test_lifting_independence(self):
        """The mixed volume is a property of the supports, not the lifting."""
        sys_ = cyclic_roots_system(4)
        vols = {
            mixed_volume(sys_, rng=np.random.default_rng(seed))
            for seed in range(5)
        }
        assert len(vols) == 1

    def test_torus_vs_affine_convention(self):
        # katsura's (1, 0, ..., 0) root is invisible to the torus count
        sys_ = katsura_system(2)
        affine = mixed_volume(sys_, rng=np.random.default_rng(0), affine=True)
        torus = mixed_volume(sys_, rng=np.random.default_rng(0), affine=False)
        assert torus <= affine == sys_.total_degree_bound()

    def test_cell_volumes_sum_and_etas(self):
        sub = mixed_cells(cyclic_roots_system(3), rng=np.random.default_rng(1))
        assert sub.mixed_volume == sum(c.volume for c in sub.cells) == 6
        for cell in sub.cells:
            assert isinstance(cell, MixedCell)
            for (p, q), etas in zip(cell.edges, cell.etas):
                assert etas[p] == 0.0 and etas[q] == 0.0
                others = np.delete(etas, [p, q])
                assert np.all(others > 0)  # strict: the lifting was generic

    def test_degenerate_lifting_detected(self):
        # two identical lifted squares: every point ties the lower hull
        square = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        flat = [np.zeros(4, dtype=np.int64)] * 2
        with pytest.raises(DegenerateLiftingError):
            induced_subdivision([square, square], flat)

    def test_non_square_rejected(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            mixed_volume(PolynomialSystem([x + y]))


#: ordered ``(edges, volume)`` of every cell, as the depth-first search
#: produced them: the level search must emit the same cells in the same
#: order (downstream path ids and cached artifacts follow this order)
_CELL_ORDER = {
    "cyclic-5": (cyclic_roots_system(5), 0, [
        (((1, 2), (0, 1), (0, 2), (0, 3), (0, 1)), 2),
        (((1, 2), (0, 1), (0, 3), (0, 3), (0, 1)), 2),
        (((1, 2), (0, 1), (1, 2), (0, 1), (0, 1)), 2),
        (((1, 2), (0, 1), (1, 3), (0, 2), (0, 1)), 4),
        (((1, 2), (0, 2), (1, 2), (0, 1), (0, 1)), 2),
        (((1, 3), (2, 3), (1, 2), (0, 1), (0, 1)), 4),
        (((1, 4), (0, 1), (0, 2), (1, 3), (0, 1)), 1),
        (((1, 4), (0, 1), (0, 4), (1, 3), (0, 1)), 3),
        (((1, 4), (0, 3), (0, 2), (0, 1), (0, 1)), 1),
        (((1, 4), (0, 3), (0, 4), (0, 1), (0, 1)), 2),
        (((1, 4), (0, 3), (0, 4), (0, 4), (0, 1)), 1),
        (((1, 5), (0, 3), (0, 1), (0, 4), (0, 1)), 2),
        (((1, 5), (0, 4), (0, 1), (2, 4), (0, 1)), 2),
        (((1, 5), (0, 4), (0, 3), (0, 2), (0, 1)), 2),
        (((1, 5), (0, 4), (0, 3), (0, 3), (0, 1)), 2),
        (((1, 5), (0, 4), (0, 4), (0, 3), (0, 1)), 2),
        (((1, 5), (0, 4), (0, 4), (0, 4), (0, 1)), 2),
        (((2, 5), (0, 2), (0, 2), (0, 3), (0, 1)), 1),
        (((2, 5), (0, 2), (0, 3), (0, 3), (0, 1)), 1),
        (((2, 5), (0, 2), (1, 3), (0, 2), (0, 1)), 2),
        (((2, 5), (2, 5), (2, 3), (3, 5), (0, 1)), 5),
        (((3, 5), (2, 3), (0, 1), (0, 4), (0, 1)), 1),
        (((3, 5), (2, 3), (0, 5), (0, 4), (0, 1)), 2),
        (((3, 5), (2, 3), (2, 5), (0, 5), (0, 1)), 4),
        (((3, 5), (2, 4), (1, 5), (2, 4), (0, 1)), 5),
        (((4, 5), (0, 5), (0, 2), (0, 3), (0, 1)), 2),
        (((4, 5), (0, 5), (0, 4), (0, 3), (0, 1)), 2),
        (((4, 5), (0, 5), (0, 4), (0, 4), (0, 1)), 2),
        (((4, 5), (3, 5), (0, 5), (0, 4), (0, 1)), 3),
        (((4, 5), (3, 5), (2, 5), (0, 5), (0, 1)), 4),
    ]),
    "katsura-4": (katsura_system(4), 1, [
        (((1, 5), (1, 3), (0, 4), (0, 1), (0, 3)), 2),
        (((5, 6), (1, 5), (0, 5), (0, 1), (1, 5)), 1),
        (((1, 5), (1, 5), (4, 5), (0, 1), (1, 4)), 2),
        (((1, 5), (1, 5), (4, 5), (0, 1), (3, 4)), 3),
        (((1, 6), (1, 5), (4, 5), (1, 4), (1, 4)), 2),
        (((2, 6), (1, 5), (4, 5), (1, 4), (2, 4)), 2),
        (((1, 2), (1, 5), (4, 5), (1, 4), (3, 4)), 4),
    ]),
}


class TestLevelSearch:
    """The level-synchronous search against the depth-first one."""

    @pytest.mark.parametrize("name", sorted(_CELL_ORDER))
    def test_cells_in_depth_first_order(self, name):
        system, seed, expected = _CELL_ORDER[name]
        sub = mixed_cells(system, rng=np.random.default_rng(seed))
        assert [(c.edges, c.volume) for c in sub.cells] == expected

    def test_zero_volume_leaves_skip_the_exact_path(self, monkeypatch):
        """A leaf with dependent edge directions is dropped on its
        integer determinant; only borderline slacks go rational (47
        rational eliminations here when the gate was missing)."""
        import repro.polyhedral.cells as cells

        calls = []
        exact = cells._solve_exact
        monkeypatch.setattr(
            cells, "_solve_exact", lambda *a: calls.append(a) or exact(*a)
        )
        sub = mixed_cells(cyclic_roots_system(5), rng=np.random.default_rng(0))
        assert sub.mixed_volume == 70
        assert len(calls) == 0


# ---------------------------------------------------------------------------
# property test: the root-count chain
# ---------------------------------------------------------------------------


@st.composite
def small_square_systems(draw):
    """Random square systems with nonzero equations in 2 variables."""
    nvars = 2
    polys = []
    for _ in range(nvars):
        n_terms = draw(st.integers(1, 4))
        coeffs = {}
        for _ in range(n_terms):
            expo = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
            c = draw(
                st.complex_numbers(
                    min_magnitude=0.1, max_magnitude=4.0,
                    allow_nan=False, allow_infinity=False,
                )
            )
            coeffs[expo] = c
        polys.append(Polynomial(coeffs, nvars))
    return PolynomialSystem(polys)


class TestRootCountChain:
    @given(small_square_systems())
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mixed_volume_below_mhom_below_total_degree(self, system):
        assume(all(poly.total_degree() > 0 for poly in system))
        td = system.total_degree_bound()
        _, mhom = best_partition(system)
        mv = mixed_volume(system, rng=np.random.default_rng(0))
        assert mv <= mhom <= td


# ---------------------------------------------------------------------------
# phase 1: cell homotopies to the generic system
# ---------------------------------------------------------------------------


class TestPolyhedralStart:
    def test_tracks_one_start_per_unit_volume(self):
        ps = PolyhedralStart(cyclic_roots_system(3), np.random.default_rng(0))
        starts, results = ps.track_starts()
        assert ps.mixed_volume == 6
        assert starts.shape == (6, 3)
        assert all(r.success for r in results)
        assert ps.phase1_failures == 0
        # the starts really solve the generic system
        res = ps.generic_system.evaluate_many(starts)
        assert np.max(np.abs(res)) < 1e-6

    def test_generic_starts_are_distinct(self):
        # katsura-5 is the case where phase-1 path collisions were seen;
        # the duplicate re-track must separate them for every seed here
        for seed in (1, 7):
            ps = PolyhedralStart(katsura_system(5), np.random.default_rng(seed))
            starts, _ = ps.track_starts()
            for i in range(len(starts)):
                for j in range(i + 1, len(starts)):
                    assert np.max(np.abs(starts[i] - starts[j])) > 1e-6

    @pytest.mark.parametrize("seed", [1, 7])
    def test_one_front_matches_the_per_cell_loop(self, seed):
        """Phase 1 as one front on one tape is the per-cell loop row by
        row: same path ids, statuses and effort, and — one-cell
        homotopies replay the same per-row time rows — bitwise the same
        solutions (seed 7 collides, so the ladder runs too)."""
        from dataclasses import fields

        from repro.polyhedral.homotopy import CellHomotopy, normalized_slacks
        from repro.tracker import (
            BatchTracker,
            Ladder,
            TrackerOptions,
            TrackStats,
            retrack_duplicate_clusters,
        )

        ps = PolyhedralStart(katsura_system(5), np.random.default_rng(seed))
        _, front = ps.track_starts()
        opts = TrackerOptions()
        slacks = normalized_slacks(ps.subdivision)
        homs, owner, seeds, loop = [], [], [], []
        for c, cell in enumerate(ps.cells):
            hom = CellHomotopy(ps.subdivision.supports, ps.coefficients,
                               [block[c] for block in slacks])
            starts = np.asarray(ps.cell_starts(cell), dtype=complex)
            ids = list(range(len(seeds), len(seeds) + len(starts)))
            loop.extend(BatchTracker(opts).track_batch(hom, starts, path_ids=ids))
            owner.extend([c] * len(starts))
            homs.append(hom)
            seeds.extend(starts)

        def retrack(pids, o):  # cell by cell, each on its own homotopy
            done = {}
            for c in sorted({owner[pid] for pid in pids}):
                mine = [pid for pid in pids if owner[pid] == c]
                for r in BatchTracker(o).track_batch(
                        homs[c], [seeds[pid] for pid in mine], path_ids=mine):
                    done[r.path_id] = r
            return [done[pid] for pid in pids]

        retrack_duplicate_clusters(
            loop, retrack, Ladder(opts),
            failed=[r.path_id for r in loop if not r.success],
        )
        effort = [f.name for f in fields(TrackStats) if f.name != "seconds"]
        assert len(front) == len(loop) == ps.mixed_volume
        for a, b in zip(front, loop):
            assert (a.path_id, a.status) == (b.path_id, b.status)
            assert a.solution.tobytes() == b.solution.tobytes()
            assert [getattr(a.stats, f) for f in effort] == [
                getattr(b.stats, f) for f in effort
            ]

    def test_phase1_escalates_with_the_shared_recipe(self):
        """Phase 1 has no retry of its own: its failures and collisions
        climb the one ladder, on the ladder's own recipe."""
        import repro.polyhedral.homotopy as phase1
        from repro.tracker import retrack_duplicate_clusters

        assert phase1.retrack_duplicate_clusters is retrack_duplicate_clusters
        assert not hasattr(phase1, "tighten_options")
        assert not hasattr(phase1, "_tightened")

    def test_non_square_rejected(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            PolyhedralStart(PolynomialSystem([x + y]))


class TestPhase1OneTapeGate:
    """Phase 1 is one term list on one tape — gated on counts that
    repeat exactly for a seed, not on a wall ratio."""

    def test_cold_phase1_binds_one_kernel(self):
        """Counter gate: phase 1 is one term list on one tape, so a cold
        phase 1 binds one kernel and makes one call a sweep whatever the
        cell count (30 cells here: 2 814 calls on one kernel per cell,
        the same 5 475 points); counts that repeat exactly for a seed."""
        from dataclasses import fields

        from repro.kernels import kernel_cache_info
        from repro.tracker import TrackStats

        ps = PolyhedralStart(
            cyclic_roots_system(5), np.random.default_rng(0), kernel="slp"
        )
        _, results = ps.track_starts()
        usage = ps.kernel_usage.report()
        assert len(ps.cells) == 30 and ps.phase1_failures == 0
        assert usage["kernels"] == 1
        assert (usage["calls"], usage["evaluations"]) == (170, 5475)
        totals = {
            f.name: sum(getattr(r.stats, f.name) for r in results)
            for f in fields(TrackStats)
            if f.name not in ("seconds", "t_reached")
        }
        assert totals == {
            "steps_accepted": 1026, "steps_rejected": 40,
            "newton_iterations": 3203, "jacobian_evaluations": 5289,
            "tangents_recycled": 0, "rescues": 0,
        }
        # the tape depends on the supports only: another lifting replays it
        hits = kernel_cache_info()["tape_hits"]
        other = PolyhedralStart(
            cyclic_roots_system(5), np.random.default_rng(1), kernel="slp"
        )
        other.track_starts()
        assert kernel_cache_info()["tape_hits"] == hits + 1
        assert (other.kernel_usage.kernels[0].tape
                is ps.kernel_usage.kernels[0].tape)


# ---------------------------------------------------------------------------
# parity: polyhedral vs total-degree blackbox solve
# ---------------------------------------------------------------------------


class TestPolyhedralSolveParity:
    @pytest.mark.parametrize(
        "system,expected",
        [
            (cyclic_roots_system(5), 70),
            (katsura_system(5), 32),
        ],
        ids=["cyclic-5", "katsura-5"],
    )
    def test_same_distinct_solutions_as_total_degree(self, system, expected):
        poly = solve(
            system, start="polyhedral", mode="batch",
            rng=np.random.default_rng(1),
        )
        td = solve(system, mode="batch", rng=np.random.default_rng(2))
        # tracks exactly the mixed-volume number of paths ...
        assert poly.n_paths == poly.summary["mixed_volume"] == expected
        assert poly.summary["start"] == "polyhedral"
        assert poly.summary["phase1_failures"] == 0
        # ... to that many distinct roots, which hold every root the
        # total-degree solve delivers (equality would pin a seed on
        # which no total-degree path jumps, not a property: cyclic-5
        # euler comes back one or two roots short on 10 of 24 seeds)
        assert len(poly.solutions) == expected
        for x in poly.solutions:
            assert np.max(np.abs(system.evaluate(x))) < 1e-8
        for y in td.solutions:
            assert any(np.max(np.abs(x - y)) < 1e-8 for x in poly.solutions)

    def test_polyhedral_tracks_fewer_paths_on_cyclic(self):
        report = solve(
            cyclic_roots_system(5), start="polyhedral", mode="batch",
            rng=np.random.default_rng(0),
        )
        assert report.n_paths == 70 < 120  # mixed volume vs total degree
        assert report.summary["n_cells"] == len(
            PolyhedralStart(
                cyclic_roots_system(5), np.random.default_rng(0)
            ).cells
        )

