"""Tests for the Pieri poset, root counts (Table IV) and tree (Table III)."""

import pytest

from repro.schubert import (
    PieriPoset,
    PieriProblem,
    PieriTree,
    PieriTreeNode,
    level_job_counts,
    memory_profile,
    pieri_root_count,
)


class TestRootCounts:
    """The paper's Table IV, column by column."""

    def test_q0_grassmannian_degrees(self):
        assert pieri_root_count(2, 2, 0) == 2
        assert pieri_root_count(3, 2, 0) == 5
        assert pieri_root_count(3, 3, 0) == 42
        assert pieri_root_count(4, 3, 0) == 462
        assert pieri_root_count(4, 4, 0) == 24024

    def test_q1(self):
        assert pieri_root_count(2, 2, 1) == 8
        assert pieri_root_count(3, 2, 1) == 55
        assert pieri_root_count(3, 3, 1) == 2730
        assert pieri_root_count(4, 3, 1) == 135660

    def test_q2(self):
        assert pieri_root_count(2, 2, 2) == 32
        assert pieri_root_count(3, 2, 2) == 610
        # the paper prints 17462 here; the DP (and the closed-form q-analogue
        # growth) give 174762 — a dropped digit in the paper's table
        assert pieri_root_count(3, 3, 2) == 174762

    def test_q3(self):
        assert pieri_root_count(2, 2, 3) == 128
        assert pieri_root_count(3, 2, 3) == 6765

    def test_symmetry_m_p(self):
        # d(m, p, 0) is symmetric in m and p (Grassmann duality)
        assert pieri_root_count(2, 3, 0) == pieri_root_count(3, 2, 0)
        assert pieri_root_count(2, 4, 0) == pieri_root_count(4, 2, 0)

    def test_q22_powers_of_four(self):
        # d(2,2,q) = 2 * 4^q
        for q in range(4):
            assert pieri_root_count(2, 2, q) == 2 * 4**q

    def test_fibonacci_for_32(self):
        # d(3,2,q) = Fibonacci(5q + 5): 5, 55, 610, 6765
        fibs = [1, 1]
        while len(fibs) < 25:
            fibs.append(fibs[-1] + fibs[-2])
        for q in range(4):
            assert pieri_root_count(3, 2, q) == fibs[5 * q + 4]

    def test_p1_single_solution_count(self):
        # p=1, q=0: one column, chain is forced: exactly one solution
        assert pieri_root_count(4, 1, 0) == 1


class TestPoset:
    def test_table3_level_counts(self):
        """Table III: jobs per level for m=3, p=2, q=1."""
        counts = level_job_counts(3, 2, 1)
        assert counts == [1, 2, 3, 5, 8, 13, 21, 34, 55, 55, 55]
        assert sum(counts) == 252

    def test_fig4_poset(self):
        """Fig 4: the (2,2,1) poset counts 8 solutions at root [4 7]."""
        poset = PieriPoset.build(PieriProblem(2, 2, 1))
        root = poset.root()
        assert root.bottom_pivots == (4, 7)
        assert poset.root_count() == 8
        assert poset.depth == 9  # levels 0..8

    def test_unique_root(self):
        for m, p, q in [(2, 2, 0), (3, 2, 1), (2, 3, 1), (4, 2, 0)]:
            poset = PieriPoset.build(PieriProblem(m, p, q))
            assert poset.root().is_root

    def test_job_counts_monotone_then_flat(self):
        # counts grow towards the leaves (the paper: "jobs closest to the
        # root are the smallest") and the last levels repeat the root count
        counts = level_job_counts(3, 2, 1)
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == pieri_root_count(3, 2, 1)

    def test_total_paths(self):
        """Table III's bottom row: 7 / 37 / 252 jobs in the whole tree."""
        for (m, p, q), total in [
            ((2, 2, 0), 7), ((2, 2, 1), 37), ((3, 2, 1), 252)
        ]:
            assert sum(level_job_counts(m, p, q)) == total

    def test_patterns_at(self):
        poset = PieriPoset.build(PieriProblem(2, 2, 1))
        assert len(poset.patterns_at(0)) == 1
        assert all(p.level == 3 for p in poset.patterns_at(3))

    def test_ascii_art(self):
        art = PieriPoset.build(PieriProblem(2, 2, 1)).ascii_art()
        assert "[1 2]:1" in art
        assert "[4 7]:8" in art


class TestTree:
    def test_fig5_tree_shape(self):
        """Fig 5: the (2,2,1) Pieri tree has 8 leaves, all at [4 7]."""
        tree = PieriTree(PieriProblem(2, 2, 1))
        leaves = [n for n in tree.walk_dfs() if n.is_leaf()]
        assert len(leaves) == 8
        assert all(n.pattern().bottom_pivots == (4, 7) for n in leaves)

    def test_leaf_count_equals_root_count(self):
        for m, p, q in [(2, 2, 0), (3, 2, 0), (2, 2, 1)]:
            tree = PieriTree(PieriProblem(m, p, q))
            explicit = sum(1 for n in tree.walk_dfs() if n.is_leaf())
            assert explicit == pieri_root_count(m, p, q)

    def test_edge_count_equals_total_jobs(self):
        for m, p, q in [(2, 2, 0), (2, 2, 1), (3, 2, 1)]:
            tree = PieriTree(PieriProblem(m, p, q))
            explicit = sum(1 for _ in tree.walk_dfs()) - 1  # edges = nodes - root
            assert explicit == sum(level_job_counts(m, p, q))

    def test_bfs_levels_match_poset(self):
        tree = PieriTree(PieriProblem(2, 2, 1))
        from collections import Counter

        per_level = Counter(n.level for n in tree.walk_bfs())
        expected = [1] + level_job_counts(2, 2, 1)  # the root, then each level
        assert [per_level[i] for i in range(len(per_level))] == expected

    def test_node_navigation(self):
        prob = PieriProblem(2, 2, 1)
        root = PieriTreeNode(prob)
        child = next(root.children())
        assert child.parent() == root
        assert root.parent() is None
        assert child.level == 1
        assert str(child).startswith("[1 3]")

    def test_pattern_memo_leaves_nodes_alone(self):
        """Patterns are memoized beside the nodes, not on them: equality,
        hashing and the pickled state do not depend on pattern() having
        been called, and an invalid chain still fails at its first
        invalid increment."""
        import pickle

        prob = PieriProblem(2, 2, 1)
        node = PieriTreeNode(prob, (1, 0, 1, 1))
        pat = node.pattern()
        replay = prob.trivial_pattern()
        for c in node.columns:
            replay = replay.child_via(c)
        assert pat == replay and node.pattern() is pat
        assert set(vars(node)) == {"problem", "columns"}
        fresh = PieriTreeNode(prob, (1, 0, 1, 1))
        assert fresh == node and hash(fresh) == hash(node)
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node and clone.pattern() == pat
        with pytest.raises(ValueError):
            PieriTreeNode(prob, (0, 1)).pattern()  # [2 2] is not a pattern

    def test_ascii_art_truncates(self):
        tree = PieriTree(PieriProblem(2, 2, 1))
        art = tree.ascii_art(max_depth=2)
        assert "[1 2]" in art
        assert "..." in art


class TestMemoryProfile:
    def test_tree_beats_poset(self):
        """§III-C: tree releases nodes quickly, poset keeps levels alive."""
        prof = memory_profile(PieriProblem(3, 2, 1))
        assert prof["tree_high_water"] < prof["poset_high_water"]
        assert prof["total_solutions"] == 55
        assert prof["total_jobs"] == 252

    def test_tree_high_water_near_depth(self):
        prob = PieriProblem(2, 2, 1)
        prof = memory_profile(prob)
        # DFS keeps at most one chain plus branching alive
        assert prof["tree_high_water"] <= prob.num_conditions + 1
