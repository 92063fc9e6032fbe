"""Workload cost models for the cluster simulator.

A workload is simply the list of per-path compute costs (in CPU-seconds at
a reference 1 GHz clock).  Three sources:

- :func:`cyclic10_workload` — the paper's Table I run: 35,940 paths of
  which about one thousand diverge and cost several times more, with heavy
  spread; calibrated so one 1 GHz CPU needs 480 user-CPU-minutes.
- :func:`rps_workload` — the paper's Table II run: 9,216 paths with more
  than eight thousand divergent ones that *dominate* the total time and
  cost *almost the same* each (low variance — the reason dynamic balancing
  barely beats static there); calibrated to 3,111.2 CPU-minutes.
- :func:`workload_from_results` — an *empirical* model built from real
  :class:`~repro.tracker.PathResult` timings, which is how the simulator is
  calibrated against this repository's own tracker (see benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "Workload",
    "cyclic10_workload",
    "rps_workload",
    "workload_from_results",
    "uniform_workload",
]


@dataclass(frozen=True)
class Workload:
    """Per-path compute costs in CPU-seconds at a 1 GHz reference clock."""

    name: str
    costs: np.ndarray

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 1 or costs.size == 0:
            raise ValueError("costs must be a non-empty 1-D array")
        if np.any(costs <= 0):
            raise ValueError("all path costs must be positive")
        object.__setattr__(self, "costs", costs)

    @property
    def n_paths(self) -> int:
        return int(self.costs.size)

    @property
    def total_seconds(self) -> float:
        return float(self.costs.sum())

    @property
    def total_cpu_minutes(self) -> float:
        return self.total_seconds / 60.0

    @property
    def variance_ratio(self) -> float:
        """Coefficient of variation: std / mean of the path costs."""
        return float(self.costs.std() / self.costs.mean())

    def scaled_to_total_minutes(self, minutes: float) -> "Workload":
        factor = (minutes * 60.0) / self.total_seconds
        return Workload(self.name, self.costs * factor)


def cyclic10_workload(
    rng: np.random.Generator | None = None,
    n_paths: int = 35_940,
    n_divergent: int = 1_000,
    total_cpu_minutes: float = 480.0,
    n_clusters: int = 40,
) -> Workload:
    """The cyclic 10-roots path-cost distribution (Table I shape).

    Converging paths follow a lognormal body; the divergent thousand are a
    heavy tail several times the body mean with large spread.  Divergent
    paths are *clustered* in path order (start roots are enumerated
    lexicographically, so nearby start roots share their fate), which is
    what makes the static contiguous chunks unbalanced in Table I.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if not 0 <= n_divergent < n_paths:
        raise ValueError("need 0 <= n_divergent < n_paths")
    n_conv = n_paths - n_divergent
    costs = rng.lognormal(mean=0.0, sigma=0.6, size=n_paths)
    # overwrite n_clusters contiguous runs with heavy divergent costs
    if n_divergent:
        per = n_divergent // n_clusters
        starts = rng.choice(
            n_paths - per, size=n_clusters, replace=False
        )
        placed = 0
        for k, s in enumerate(sorted(starts)):
            size = per if k < n_clusters - 1 else n_divergent - placed
            costs[s : s + size] = 5.0 * rng.lognormal(
                mean=0.0, sigma=0.8, size=size
            )
            placed += size
    return Workload("cyclic10", costs).scaled_to_total_minutes(
        total_cpu_minutes
    )


def rps_workload(
    rng: np.random.Generator | None = None,
    n_paths: int = 9_216,
    n_divergent: int = 8_192,
    total_cpu_minutes: float = 3_111.2,
) -> Workload:
    """The RPS mechanism path costs (Table II shape).

    Divergent paths dominate the total and "each of the diverging paths
    spend almost the same time" (paper §II-B2): a tight 5% spread around a
    large mean, so the static chunks are already nearly balanced.
    """
    rng = np.random.default_rng(1) if rng is None else rng
    n_conv = n_paths - n_divergent
    conv = 0.4 * rng.lognormal(mean=0.0, sigma=0.5, size=n_conv)
    div = rng.normal(loc=1.0, scale=0.05, size=n_divergent).clip(min=0.5)
    costs = np.concatenate([conv, div])
    costs = rng.permutation(costs)
    return Workload("rps", costs).scaled_to_total_minutes(total_cpu_minutes)


def uniform_workload(n_paths: int, seconds_each: float = 1.0) -> Workload:
    """Identical path costs (zero variance): static == dynamic baseline."""
    return Workload("uniform", np.full(n_paths, float(seconds_each)))


def workload_from_results(results: Iterable, name: str = "measured") -> Workload:
    """Empirical workload from real tracker results (simulator calibration)."""
    costs = [r.stats.seconds for r in results if r.stats.seconds > 0]
    if not costs:
        raise ValueError("no timed results to build a workload from")
    return Workload(name, np.asarray(costs, dtype=float))
