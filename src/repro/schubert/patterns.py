"""Localization patterns for maps of p-planes (paper §III-B, Fig 3).

A degree-q polynomial map ``X(s)`` of p-planes in C^{m+p} is stored in
*concatenated form*: the coefficient vectors of each column are stacked, so
row ``r`` (1-based) of the concatenated matrix holds the coefficient of
``s**((r-1) // (m+p))`` for ambient coordinate ``((r-1) % (m+p)) + 1``.

A **localization pattern** fixes which concatenated entries may be nonzero:
with the top pivots frozen to ``[1..p]`` (as in the paper's parallel
implementation), the pattern is determined by its bottom pivots
``b_1 < b_2 < ... < b_p``; column ``j`` is supported on rows ``j..b_j``.

Validity (paper's three conditions, §III-B):

1. writing ``q = q_hat * p + rho``, the first ``p - rho`` columns have
   dimension (cap) ``(q_hat + 1)(m + p)`` and the remaining ``rho`` columns
   ``(q_hat + 2)(m + p)``;
2. stars are contiguous within a column and both pivot sequences strictly
   increase — automatic here because ``b`` strictly increases and the top
   pivots are ``[1..p]``;
3. no two bottom pivots differ by ``m + p`` or more.

The trivial pattern ``[1..p]`` (level 0) pins a unique constant map; each
*increment* of one bottom pivot frees one more coefficient and lets the map
satisfy one more intersection condition.  The chain structure of these
increments is the Pieri poset/tree of :mod:`repro.schubert.poset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Tuple

__all__ = ["PieriProblem", "LocalizationPattern"]


@dataclass(frozen=True)
class PieriProblem:
    """The (m, p, q) instance: m inputs, p outputs, q internal states.

    ``m`` is the dimension of the given general planes, ``p`` the dimension
    of the solution planes, and ``q`` the degree of the solution maps.  The
    number of intersection conditions (= problem dimension) is
    ``N = m*p + q*(m+p)`` and the generic number of solution maps is the
    combinatorial root count ``d(m, p, q)`` of :mod:`repro.schubert.poset`.
    """

    m: int
    p: int
    q: int = 0

    def __post_init__(self) -> None:
        if self.m < 1 or self.p < 1 or self.q < 0:
            raise ValueError("need m >= 1, p >= 1, q >= 0")

    @property
    def ambient(self) -> int:
        """Dimension of the ambient space, m + p."""
        return self.m + self.p

    @property
    def num_conditions(self) -> int:
        """N = m*p + q*(m+p): intersection conditions = free coefficients."""
        return self.m * self.p + self.q * self.ambient

    @cached_property
    def column_caps(self) -> Tuple[int, ...]:
        """Maximal bottom pivot per column (paper validity condition 1)."""
        q_hat, rho = divmod(self.q, self.p)
        caps = []
        for j in range(1, self.p + 1):
            blocks = (q_hat + 1) if j <= self.p - rho else (q_hat + 2)
            caps.append(blocks * self.ambient)
        return tuple(caps)

    @property
    def nrows(self) -> int:
        """Rows of the concatenated coefficient matrix (the largest cap)."""
        return max(self.column_caps)

    def trivial_pattern(self) -> "LocalizationPattern":
        return LocalizationPattern(self, tuple(range(1, self.p + 1)))

    def __str__(self) -> str:
        return f"(m={self.m}, p={self.p}, q={self.q})"


@dataclass(frozen=True)
class LocalizationPattern:
    """A valid bottom-pivot localization pattern for a Pieri problem."""

    problem: PieriProblem
    bottom_pivots: Tuple[int, ...]

    def __post_init__(self) -> None:
        b = tuple(int(x) for x in self.bottom_pivots)
        object.__setattr__(self, "bottom_pivots", b)
        ok, why = self._check(self.problem, b)
        if not ok:
            raise ValueError(f"invalid pattern {list(b)}: {why}")

    # ------------------------------------------------------------------
    @staticmethod
    def _check(problem: PieriProblem, b: Tuple[int, ...]) -> Tuple[bool, str]:
        p = problem.p
        if len(b) != p:
            return False, f"need {p} bottom pivots"
        caps = problem.column_caps
        for j in range(p):
            if b[j] < j + 1:
                return False, f"pivot {b[j]} above its top pivot {j + 1}"
            if b[j] > caps[j]:
                return False, f"pivot {b[j]} exceeds column cap {caps[j]}"
            if j and b[j] <= b[j - 1]:
                return False, "bottom pivots must strictly increase"
        if b[-1] - b[0] >= problem.ambient:
            return False, f"pivots differ by {problem.ambient} or more"
        return True, ""

    @classmethod
    def is_valid(cls, problem: PieriProblem, pivots) -> bool:
        return cls._check(problem, tuple(int(x) for x in pivots))[0]

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of intersection conditions this pattern can satisfy.

        Equals the number of free coefficients once the p pivot entries are
        normalized to 1: ``sum_j (b_j - j)``.
        """
        return sum(b - (j + 1) for j, b in enumerate(self.bottom_pivots))

    @property
    def is_trivial(self) -> bool:
        return self.level == 0

    @property
    def is_root(self) -> bool:
        """True when no pivot can be incremented (the unique maximal pattern)."""
        return not any(True for _ in self.children())

    def column_degree(self, j: int) -> int:
        """Degree (in s) of column ``j`` (0-based): floor((b_j - 1)/(m+p))."""
        return (self.bottom_pivots[j] - 1) // self.problem.ambient

    def column_degrees(self) -> Tuple[int, ...]:
        return tuple(self.column_degree(j) for j in range(self.problem.p))

    def corner_rows(self) -> Tuple[int, ...]:
        """Ambient row (1-based) of each bottom pivot: ((b_j-1) mod (m+p)) + 1.

        These residues are pairwise distinct for a valid pattern — the fact
        behind the special-plane construction (see :func:`special_plane` in
        :mod:`repro.schubert.homotopy`).
        """
        amb = self.problem.ambient
        rows = tuple((b - 1) % amb + 1 for b in self.bottom_pivots)
        assert len(set(rows)) == len(rows), "corner rows must be distinct"
        return rows

    def support(self) -> List[Tuple[int, int]]:
        """All (row, column) star positions, 1-based, concatenated rows."""
        out = []
        for j, b in enumerate(self.bottom_pivots, start=1):
            out.extend((r, j) for r in range(j, b + 1))
        return out

    def star_count(self) -> int:
        """Number of stars: level + p (p pivots are normalized away)."""
        return self.level + self.problem.p

    # ------------------------------------------------------------------
    def children(self) -> Iterator[Tuple[int, "LocalizationPattern"]]:
        """All valid single-pivot increments ``(column, new pattern)``.

        In the Pieri tree these are the children of this node; each child
        satisfies one more intersection condition.  Columns are 0-based.
        """
        b = self.bottom_pivots
        for j in range(self.problem.p):
            cand = list(b)
            cand[j] += 1
            cand_t = tuple(cand)
            if self._check(self.problem, cand_t)[0]:
                yield j, LocalizationPattern(self.problem, cand_t)

    def parents(self) -> Iterator[Tuple[int, "LocalizationPattern"]]:
        """All valid single-pivot decrements (poset edges pointing down)."""
        b = self.bottom_pivots
        for j in range(self.problem.p):
            cand = list(b)
            cand[j] -= 1
            cand_t = tuple(cand)
            if self._check(self.problem, cand_t)[0]:
                yield j, LocalizationPattern(self.problem, cand_t)

    def child_via(self, column: int) -> "LocalizationPattern":
        """Increment pivot of ``column`` (0-based), validating the result."""
        cand = list(self.bottom_pivots)
        cand[column] += 1
        return LocalizationPattern(self.problem, tuple(cand))

    # ------------------------------------------------------------------
    def shorthand(self) -> str:
        """The paper's bracket notation, e.g. ``[4 7]``."""
        return "[" + " ".join(str(b) for b in self.bottom_pivots) + "]"

    def ascii_art(self) -> str:
        """Render the concatenated pattern as in Fig 3 (stars and dots)."""
        amb = self.problem.ambient
        rows = self.problem.nrows
        grid = [["." for _ in range(self.problem.p)] for _ in range(rows)]
        for r, j in self.support():
            grid[r - 1][j - 1] = "*"
        lines = []
        for r in range(rows):
            if r and r % amb == 0:
                lines.append("-" * (2 * self.problem.p - 1))
            lines.append(" ".join(grid[r]))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.shorthand()
