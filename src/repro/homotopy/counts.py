"""Unified root-count reports: the paper's "why parallelism" table.

The paper's core argument is that the *true* root count — Pieri's
d(m, p, q) for pole placement, the BKK/mixed-volume bound for sparse
benchmark systems — sits far below the naive Bezout bounds, and that
this true count is what sizes the parallel workload (one tracked path
per root).  This module puts all four counts side by side for any
square system:

==================  ====================================================
total degree        product of the equations' degrees (classic Bezout)
m-homogeneous       best multi-homogeneous Bezout number over variable
                    partitions (:func:`repro.homotopy.bezout.
                    best_partition`, branch-and-bound)
mixed volume        the BKK bound from the polyhedral subsystem
                    (:func:`repro.polyhedral.mixed_volume`; affine
                    convention, so it counts roots in all of C^n)
d(m, p, q)          the Pieri root count, pole-placement systems only
==================  ====================================================

Run it from the command line on named systems::

    python -m repro.homotopy.counts cyclic-7 noon-5 pieri-2-2-1
    python -m repro.homotopy.counts            # the default paper table

>>> import numpy as np
>>> from repro.systems import cyclic_roots_system
>>> r = root_counts(cyclic_roots_system(5), name="cyclic-5",
...                 rng=np.random.default_rng(0))
>>> r.total_degree, r.mixed_volume
(120, 70)
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..polynomials import PolynomialSystem
from .bezout import best_partition

__all__ = [
    "RootCountReport",
    "root_counts",
    "pieri_counts",
    "named_report",
    "format_table",
    "main",
]


@dataclass
class RootCountReport:
    """Every root count we can attach to one system, side by side.

    ``None`` marks a count that does not apply (``pieri`` for benchmark
    systems) or was skipped (``m_homogeneous`` beyond the partition
    search's variable budget, ``mixed_volume`` when disabled).  ``known``
    is an independently known true finite-root count, when the
    literature provides one (cyclic's table, rps's 2^g, d(m, p, q)
    itself for pole placement).
    """

    name: str
    nvars: int
    total_degree: Optional[int] = None
    m_homogeneous: Optional[int] = None
    partition: Optional[List[List[int]]] = None
    mixed_volume: Optional[int] = None
    pieri: Optional[int] = None
    known: Optional[int] = None
    seconds: Dict[str, float] = field(default_factory=dict)


def root_counts(
    system: PolynomialSystem,
    name: str = "system",
    rng: np.random.Generator | None = None,
    known: Optional[int] = None,
    with_m_homogeneous: bool = True,
    with_mixed_volume: bool = True,
    max_mhom_vars: int = 10,
) -> RootCountReport:
    """Compute every applicable root count for a square system.

    The m-homogeneous search is skipped (count left ``None``) when the
    system has more than ``max_mhom_vars`` variables — the partition
    space grows like the Bell numbers and the branch-and-bound budget
    runs out around 10.
    """
    if not system.is_square():
        raise ValueError("root counts are defined for square systems")
    rng = np.random.default_rng() if rng is None else rng
    report = RootCountReport(name=name, nvars=system.nvars, known=known)
    t0 = time.perf_counter()
    td = 1
    for d in system.degrees():
        td *= d
    report.total_degree = td
    report.seconds["total_degree"] = time.perf_counter() - t0
    if with_m_homogeneous and system.nvars <= max_mhom_vars:
        t0 = time.perf_counter()
        report.partition, report.m_homogeneous = best_partition(
            system, max_vars=max_mhom_vars
        )
        report.seconds["m_homogeneous"] = time.perf_counter() - t0
    if with_mixed_volume:
        from ..polyhedral import mixed_volume

        t0 = time.perf_counter()
        report.mixed_volume = mixed_volume(system, rng=rng)
        report.seconds["mixed_volume"] = time.perf_counter() - t0
    return report


def _static_feedback_system(
    m: int, p: int, rng: np.random.Generator
) -> PolynomialSystem:
    """The q = 0 pole-placement coefficient system in the entries of F.

    ``det(sI - A - BFC) - prod (s - pole_k)``, coefficients per power of
    ``s``, for a random generic plant — ``m p`` polynomial equations in
    the ``m p`` entries of the static feedback matrix.  The determinant
    is expanded by memoized minors (O(n 2^n) polynomial products), and
    terms of F-degree above ``min(m, p)`` — which cancel exactly because
    ``rank(BFC) <= min(m, p)`` — are pruned as float roundoff.
    """
    from ..control import random_plant
    from ..polynomials import Polynomial, constant

    plant = random_plant(m, p, 0, rng)
    n = plant.n_states
    nv = m * p + 1  # F entries then s
    s_var = m * p
    fmat = [
        [
            Polynomial({tuple(int(v == p * i + j) for v in range(nv)): 1.0}, nv)
            for j in range(p)
        ]
        for i in range(m)
    ]
    entries: List[List[Polynomial]] = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = constant(-plant.a[i, j], nv)
            if i == j:
                acc = acc + Polynomial(
                    {tuple(int(v == s_var) for v in range(nv)): 1.0}, nv
                )
            for k in range(m):
                for l in range(p):
                    coef = complex(plant.b[i, k] * plant.c[l, j])
                    if coef != 0:
                        acc = acc - coef * fmat[k][l]
            row.append(acc)
        entries.append(row)

    minors: Dict[int, Polynomial] = {}

    def minor(r: int, colmask: int) -> Polynomial:
        # det of rows r..n-1 against the columns still in colmask
        if r == n:
            return constant(1.0, nv)
        cached = minors.get((r << n) | colmask)
        if cached is not None:
            return cached
        acc = constant(0.0, nv)
        sign = 1.0
        for j in range(n):
            if not colmask >> j & 1:
                continue
            acc = acc + sign * (entries[r][j] * minor(r + 1, colmask & ~(1 << j)))
            sign = -sign
        minors[(r << n) | colmask] = acc
        return acc

    det = minor(0, (1 << n) - 1)
    poles = np.exp(2j * np.pi * rng.random(n))  # generic prescribed poles
    target = np.poly(poles)[::-1]  # coefficient of s^k at index k
    eqs = []
    for k in range(n):
        coeffs = {
            e[: m * p]: c
            for e, c in det.terms()
            if e[s_var] == k and abs(c) > 1e-9  # rank-truncation roundoff
        }
        eqs.append(Polynomial(coeffs, m * p) - complex(target[k]))
    return PolynomialSystem(eqs)


def pieri_counts(
    m: int,
    p: int,
    q: int = 0,
    rng: np.random.Generator | None = None,
    max_states: int = 8,
    **kwargs,
) -> RootCountReport:
    """Root counts for the (m, p, q) pole-placement problem.

    The Pieri count d(m, p, q) always applies.  For static feedback
    (``q = 0``) with at most ``max_states`` closed-loop states the
    polynomial coefficient formulation is built explicitly, so the
    Bezout-style bounds land in the same row and the gap the paper
    leads with — d(m, p, q) far below every product bound — is measured
    rather than asserted.  Dynamic compensators (``q > 0``) keep only
    the Pieri count: their coefficient systems outgrow the symbolic
    determinant expansion.
    """
    from ..schubert import pieri_root_count

    rng = np.random.default_rng() if rng is None else rng
    name = f"pieri-{m}-{p}-{q}"
    nvars = m * p + q * (m + p)
    t0 = time.perf_counter()
    d = pieri_root_count(m, p, q)
    if q == 0 and m * p <= max_states:
        report = root_counts(
            _static_feedback_system(m, p, rng), name=name, rng=rng, **kwargs
        )
    else:
        report = RootCountReport(name=name, nvars=nvars)
    report.pieri = d
    report.known = d
    report.seconds["pieri"] = time.perf_counter() - t0
    return report


def named_report(
    spec: str, rng: np.random.Generator | None = None, **kwargs
) -> RootCountReport:
    """Root counts for a named system: ``kind-param[-param...]``.

    Known kinds: ``cyclic-N``, ``katsura-N``, ``noon-N``, ``rps-N`` and
    ``pieri-M-P[-Q]``.

    >>> import numpy as np
    >>> named_report("noon-3", rng=np.random.default_rng(0)).mixed_volume
    21
    """
    rng = np.random.default_rng() if rng is None else rng
    parts = spec.strip().lower().split("-")
    kind, args = parts[0], parts[1:]
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise ValueError(f"malformed system spec {spec!r}") from None
    if kind == "pieri":
        if len(nums) == 2:
            nums.append(0)
        if len(nums) != 3:
            raise ValueError(f"pieri specs are pieri-M-P[-Q], got {spec!r}")
        return pieri_counts(*nums, rng=rng, **kwargs)
    if len(nums) != 1:
        raise ValueError(f"{kind} specs take one parameter, got {spec!r}")
    n = nums[0]
    known: Optional[int] = None
    if kind == "cyclic":
        from ..systems import CYCLIC_FINITE_ROOTS, cyclic_roots_system

        system = cyclic_roots_system(n)
        known = CYCLIC_FINITE_ROOTS.get(n)
    elif kind == "katsura":
        from ..systems import katsura_system

        system = katsura_system(n)
    elif kind == "noon":
        from ..systems import noon_system

        system = noon_system(n)
    elif kind == "rps":
        from ..systems import rps_surrogate_system
        from ..systems.rps import rps_finite_root_count

        system = rps_surrogate_system(n, rng=rng)
        known = rps_finite_root_count(n)
    else:
        raise ValueError(
            f"unknown system kind {kind!r}; expected cyclic/katsura/noon/"
            f"rps/pieri"
        )
    return root_counts(system, name=spec, rng=rng, known=known, **kwargs)


#: Default rows for the paper-style table: the sparse benchmark family
#: (mixed volume is the sharp bound) plus pole placement (Pieri is).
PAPER_TABLE = (
    "cyclic-5",
    "cyclic-6",
    "cyclic-7",
    "noon-4",
    "noon-5",
    "katsura-5",
    "rps-5",
    "pieri-2-2-0",
    "pieri-2-3-0",
    "pieri-2-2-1",
    "pieri-2-3-1",
)


def format_table(reports: Sequence[RootCountReport]) -> str:
    """Render reports as the aligned root-count comparison table."""
    headers = (
        "system", "vars", "total degree", "m-homogeneous",
        "mixed volume", "d(m,p,q)", "known roots",
    )
    rows = [headers]
    for r in reports:
        rows.append(
            (
                r.name,
                str(r.nvars),
                "—" if r.total_degree is None else str(r.total_degree),
                "—" if r.m_homogeneous is None else str(r.m_homogeneous),
                "—" if r.mixed_volume is None else str(r.mixed_volume),
                "—" if r.pieri is None else str(r.pieri),
                "—" if r.known is None else str(r.known),
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells += [row[c].rjust(widths[c]) for c in range(1, len(headers))]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.homotopy.counts",
        description="Root-count comparison table: total degree vs best "
        "m-homogeneous Bezout vs mixed volume vs Pieri d(m,p,q).",
    )
    parser.add_argument(
        "systems", nargs="*", metavar="SYSTEM",
        help="named systems like cyclic-7, noon-5, pieri-2-2-1 "
        "(default: the paper-style table)",
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    parser.add_argument(
        "--skip-mixed-volume", action="store_true",
        help="leave the mixed-volume column out (cheapest run)",
    )
    parser.add_argument(
        "--skip-m-homogeneous", action="store_true",
        help="leave the m-homogeneous column out",
    )
    parser.add_argument(
        "--partitions", action="store_true",
        help="also print the best partition behind each m-homogeneous count",
    )
    args = parser.parse_args(argv)
    names = list(args.systems) if args.systems else list(PAPER_TABLE)
    rng = np.random.default_rng(args.seed)
    reports = []
    for name in names:
        try:
            reports.append(
                named_report(
                    name,
                    rng=rng,
                    with_mixed_volume=not args.skip_mixed_volume,
                    with_m_homogeneous=not args.skip_m_homogeneous,
                )
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(format_table(reports))
    if args.partitions:
        for r in reports:
            if r.partition is not None:
                blocks = " | ".join(
                    "{" + ",".join(str(v) for v in b) + "}" for b in r.partition
                )
                print(f"{r.name}: best partition {blocks}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CLI tests
    sys.exit(main())
