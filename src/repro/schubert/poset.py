"""The Pieri poset and the combinatorial root count (paper §III-C, Fig 4).

Nodes are localization patterns; edges increment one bottom pivot.  The
number of solution maps fitting a pattern and meeting ``level`` general
planes equals the number of increment-chains from the trivial pattern —
computed here by dynamic programming over levels.  ``d(m, p, q)`` is that
count at the unique maximal ("root") pattern; for q = 0 it reduces to the
degree of the Grassmannian Gr(p, m+p) (2, 5, 42, 462, 24024, ... for the
paper's Table IV cells).

The DP also yields the paper's Table III directly: the number of
path-tracking jobs at tree level ``n`` equals the sum over level-``n``
patterns of their chain counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .patterns import LocalizationPattern, PieriProblem

__all__ = ["PieriPoset", "pieri_root_count", "level_job_counts"]


@dataclass
class PieriPoset:
    """The full poset of valid patterns for one (m, p, q) problem.

    ``levels[n]`` maps each level-``n`` pattern to the number of increment
    chains from the trivial pattern (= solution maps fitting it that meet
    ``n`` general planes, by the Pieri homotopy induction).
    """

    problem: PieriProblem
    levels: List[Dict[LocalizationPattern, int]] = field(default_factory=list)

    @classmethod
    def build(cls, problem: PieriProblem) -> "PieriPoset":
        trivial = problem.trivial_pattern()
        levels: List[Dict[LocalizationPattern, int]] = [{trivial: 1}]
        for n in range(problem.num_conditions):
            nxt: Dict[LocalizationPattern, int] = {}
            for pattern, count in levels[n].items():
                for _, child in pattern.children():
                    nxt[child] = nxt.get(child, 0) + count
            if not nxt:
                break
            levels.append(nxt)
        return cls(problem, levels)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of levels with nodes (== num_conditions + 1 generically)."""
        return len(self.levels)

    def root(self) -> LocalizationPattern:
        """The unique maximal pattern (level N)."""
        top = self.levels[-1]
        if len(top) != 1:
            raise RuntimeError(
                f"expected a unique maximal pattern, found {len(top)}"
            )
        (pattern,) = top.keys()
        return pattern

    def root_count(self) -> int:
        """d(m, p, q): the generic number of solution maps."""
        if len(self.levels) != self.problem.num_conditions + 1:
            raise RuntimeError("poset does not reach the expected depth")
        return self.levels[-1][self.root()]

    def job_counts(self) -> List[int]:
        """Paths tracked per level (Table III): job_counts()[n-1] for level n.

        Every chain into a level-``n`` node is one Pieri-homotopy path, so
        the count at level ``n`` is the sum of chain counts over the nodes.
        """
        return [sum(lv.values()) for lv in self.levels[1:]]

    def patterns_at(self, n: int) -> List[LocalizationPattern]:
        return list(self.levels[n].keys())

    # ------------------------------------------------------------------
    def ascii_art(self, max_width: int = 78) -> str:
        """Render the poset level by level as in Fig 4."""
        lines = []
        for n, lv in enumerate(self.levels):
            entries = " ".join(
                f"{pat.shorthand()}:{cnt}" for pat, cnt in sorted(
                    lv.items(), key=lambda kv: kv[0].bottom_pivots
                )
            )
            if len(entries) > max_width:
                entries = entries[: max_width - 3] + "..."
            lines.append(f"level {n:2d} | {entries}")
        return "\n".join(lines)


def pieri_root_count(m: int, p: int, q: int = 0) -> int:
    """The number d(m, p, q) of feedback laws (paper's Table IV counts)."""
    return PieriPoset.build(PieriProblem(m, p, q)).root_count()


def level_job_counts(m: int, p: int, q: int = 0) -> List[int]:
    """Jobs per tree level, the '#paths' column of the paper's Table III."""
    return PieriPoset.build(PieriProblem(m, p, q)).job_counts()
