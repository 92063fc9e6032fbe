"""The Pieri tree (paper §III-C, Fig 5) and the poset-vs-tree memory model.

The poset counts solutions; the *tree* organizes the path-tracking jobs so
they can run in parallel.  A tree node is a full increment-chain from the
trivial pattern; two jobs become independent as soon as their common
ancestor's solution is known, and a node's storage can be released after
its at-most ``p + 1`` incident jobs finish — the memory argument of §III-C,
quantified here by :func:`memory_profile`.

The tree is *virtual*: children are generated on demand from the pattern's
increment rule, so building jobs never materializes the (exponentially
many) leaves ahead of time — mirroring the paper's master that generates at
most ``p`` new jobs per returned result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .patterns import LocalizationPattern, PieriProblem
from .poset import PieriPoset

__all__ = ["PieriTreeNode", "PieriTree", "memory_profile"]


@lru_cache(maxsize=1 << 14)
def _chain_pattern(
    problem: PieriProblem, columns: Tuple[int, ...]
) -> LocalizationPattern:
    """The pattern a chain of increments ends at, one validated increment
    past its parent's.  Solvers ask every node for its pattern several
    times and walk the tree parent-first, so the memo (bounded; patterns
    are immutable) turns a replay of the whole chain into a lookup
    without storing anything on the nodes themselves."""
    if not columns:
        return problem.trivial_pattern()
    return _chain_pattern(problem, columns[:-1]).child_via(columns[-1])


@dataclass(frozen=True)
class PieriTreeNode:
    """A node of the Pieri tree: the chain of pivot increments taken.

    ``columns`` records which column's bottom pivot was incremented at each
    step, which identifies the chain uniquely; the pattern is derived on
    demand.  The root node is the empty chain at the trivial pattern.
    """

    problem: PieriProblem
    columns: Tuple[int, ...] = ()

    @property
    def level(self) -> int:
        return len(self.columns)

    def pattern(self) -> LocalizationPattern:
        return _chain_pattern(self.problem, self.columns)

    def children(self) -> Iterator["PieriTreeNode"]:
        for col, _child in self.pattern().children():
            yield PieriTreeNode(self.problem, self.columns + (col,))

    def parent(self) -> Optional["PieriTreeNode"]:
        if not self.columns:
            return None
        return PieriTreeNode(self.problem, self.columns[:-1])

    def is_leaf(self) -> bool:
        """A leaf carries a final solution: its pattern is the poset root."""
        return self.pattern().is_root

    def __str__(self) -> str:
        return f"{self.pattern().shorthand()}@{self.level}"


class PieriTree:
    """Virtual Pieri tree with lazy traversal; the counts live on the poset."""

    def __init__(self, problem: PieriProblem) -> None:
        self.problem = problem
        self.root = PieriTreeNode(problem)

    def walk_dfs(self) -> Iterator[PieriTreeNode]:
        """Depth-first traversal of the whole tree (root included)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children())))

    def walk_bfs(self) -> Iterator[PieriTreeNode]:
        from collections import deque

        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children())

    def ascii_art(self, max_depth: int = 4) -> str:
        """Indented rendering of the top of the tree (Fig 5 for small cases)."""
        lines: List[str] = []

        def rec(node: PieriTreeNode, depth: int) -> None:
            lines.append("  " * depth + node.pattern().shorthand())
            if depth >= max_depth:
                if any(True for _ in node.children()):
                    lines.append("  " * (depth + 1) + "...")
                return
            for child in node.children():
                rec(child, depth + 1)

        rec(self.root, 0)
        return "\n".join(lines)


@dataclass
class _MemoryCounters:
    active: int = 0
    high_water: int = 0

    def alloc(self, k: int = 1) -> None:
        self.active += k
        self.high_water = max(self.high_water, self.active)

    def release(self, k: int = 1) -> None:
        self.active -= k


def memory_profile(problem: PieriProblem) -> Dict[str, int]:
    """High-water active-node counts: tree traversal vs poset schedule.

    Models §III-C's memory argument.

    - **tree**: depth-first execution of the Pieri tree; a node stays live
      while any of its children still needs it as a start solution, so the
      high-water mark is about (depth x branching), small.
    - **poset**: level-synchronous execution over the poset; every node of
      the current and next level stays live simultaneously, so the peak is
      the sum of the two widest consecutive level *path counts* — the
      "carry information of many more paths" effect that exhausts memory.
    """
    poset = PieriPoset.build(problem)

    # poset model: nodes carry all chains into them; two consecutive levels
    # of *solutions* (chain counts) are live at once during the sweep.
    per_level_solutions = [sum(lv.values()) for lv in poset.levels]
    poset_peak = max(
        per_level_solutions[n] + per_level_solutions[n + 1]
        for n in range(len(per_level_solutions) - 1)
    )

    # tree model: DFS with release when a node's last child finishes.
    counters = _MemoryCounters()

    def rec(node: PieriTreeNode) -> None:
        counters.alloc()
        for child in node.children():
            rec(child)
        counters.release()

    rec(PieriTreeNode(problem))
    return {
        "tree_high_water": counters.high_water,
        "poset_high_water": poset_peak,
        "total_solutions": poset.root_count(),
        "total_jobs": sum(per_level_solutions[1:]),
    }
