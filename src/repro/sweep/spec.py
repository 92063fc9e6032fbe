"""Declarative sweep specifications: which solve jobs to run.

A *sweep* is a family of independent solve jobs — Pieri pole-placement
instances across ``(m, p, q)``, cyclic/katsura/noon benchmark systems
across dimension, RPS surrogates — described declaratively so the engine
(:mod:`repro.sweep.engine`) can shard them over workers, journal them,
and resume an interrupted run.

A spec is JSON, with explicit jobs and/or cartesian grids::

    {
      "name": "demo",
      "jobs":  [{"kind": "cyclic", "params": {"n": 5}, "seed": 0,
                 "start": "polyhedral"}],
      "grids": [{"kind": "pieri", "m": [2, 3], "p": [2], "q": [0, 1],
                 "seeds": [0, 1]},
                {"kind": "cyclic", "n": [5, 6],
                 "start": ["total_degree", "polyhedral"]}]
    }

Besides its kind, parameters and seed a job (and a grid, as an axis)
takes four optional settings, each described once in :data:`AXES`:
``start``, ``endgame``, ``kernel`` and ``predictor``.  Leaving one out
means its default, which leaves the job id — and hence old journals —
untouched.  Unknown keys are rejected: a misspelt axis would otherwise
run the default sweep silently.

Every job has a deterministic, human-readable :attr:`JobSpec.job_id`
(e.g. ``pieri-m2-p2-q1-s0``) that keys the checkpoint journal, and a
``seed`` that makes the job's result reproducible bit-for-bit — the
property the kill/resume identity test relies on.  A job is its spec:
no setting reads state another job left behind (an artifact store, a
warm cache), so which job ran first never changes a journaled result.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = [
    "JOB_KINDS",
    "AXES",
    "START_KINDS",
    "JobSpec",
    "SweepSpec",
    "mixed_demo_spec",
]

#: Supported job kinds and the integer parameters each requires.
JOB_KINDS: Dict[str, tuple] = {
    "cyclic": ("n",),
    "katsura": ("n",),
    "noon": ("n",),
    "rps": ("n",),
    "pieri": ("m", "p", "q"),
}

#: The optional settings of a job, in ``job_id`` order: ``name ->
#: (choices, default first; why a Pieri job takes only the default)``.
#: Polynomial-system jobs pass each to :func:`repro.homotopy.solve`
#: under the same name.
AXES: Dict[str, tuple] = {
    # start system: one path per Bezout path, per product-structure
    # root, or (polyhedral) per unit of mixed volume — the sharp BKK count
    "start": (
        ("total_degree", "linear_product", "polyhedral"),
        "pieri jobs run the tree solver and take no start strategy",
    ),
    # refine is the plain Newton sharpen; cauchy recovers singular
    # endpoints with winding-number loops and journals each job's
    # multiplicity histogram
    "endgame": (
        ("refine", "cauchy"),
        "pieri jobs keep the default refine endgame (their retry ladder "
        "owns failure handling)",
    ),
    # naive is the seed power-table arithmetic with effort accounting,
    # slp the compiled straight-line-program backend of repro.kernels;
    # each job journals its kernel's deterministic effort counters
    "kernel": (
        ("naive", "slp"),
        "pieri jobs run the tree solver and take no kernel backend",
    ),
    # euler is the seed tangent prediction, hermite the error-model
    # pipeline of repro.tracker.predictor; each job journals its
    # tracker's tangent-recycle counters
    "predictor": (
        ("euler", "hermite"),
        "pieri jobs run the tree solver and take no predictor",
    ),
}

#: Start-system strategies (re-exported by :mod:`repro.sweep`).
START_KINDS = AXES["start"][0]


@dataclass(frozen=True)
class JobSpec:
    """One solve job: a kind, its parameters, a seed, and the :data:`AXES`.

    ``params`` is given as a mapping and stored as a sorted tuple of
    ``(name, value)`` pairs so the spec is hashable and its canonical
    form (and hence ``job_id``) does not depend on insertion order.
    """

    kind: str
    params: tuple
    seed: int = 0
    start: str = "total_degree"
    endgame: str = "refine"
    kernel: str = "naive"
    predictor: str = "euler"

    def __post_init__(self) -> None:
        kind = self.kind
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; expected one of {sorted(JOB_KINDS)}"
            )
        for name, (choices, pieri_reason) in AXES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"unknown {name} {value!r}; expected one of {sorted(choices)}"
                )
            if kind == "pieri" and value != choices[0]:
                raise ValueError(pieri_reason)
        given = dict(self.params)
        if sorted(given) != sorted(JOB_KINDS[kind]):
            raise ValueError(
                f"{kind} jobs need exactly the parameters "
                f"{sorted(JOB_KINDS[kind])}, got {sorted(given)}"
            )
        clean = tuple(sorted((k, int(v)) for k, v in given.items()))
        object.__setattr__(self, "params", clean)
        object.__setattr__(self, "seed", int(self.seed))

    def _off_default(self) -> Dict[str, str]:
        """The axes this job sets to something other than the default."""
        return {
            name: getattr(self, name)
            for name, (choices, _) in AXES.items()
            if getattr(self, name) != choices[0]
        }

    @property
    def param_dict(self) -> Dict[str, int]:
        return dict(self.params)

    @property
    def job_id(self) -> str:
        """Deterministic human-readable identity, e.g. ``pieri-m2-p2-q1-s0``.

        Every axis off its default joins the id in :data:`AXES` order
        (e.g. ``cyclic-n7-polyhedral-s0``, ``katsura-n5-slp-hermite-s7``),
        so the same system solved two ways makes two distinct journal
        entries; default ids match pre-existing journals exactly.
        """
        parts = [self.kind]
        parts += [f"{k}{v}" for k, v in self.params]
        parts += self._off_default().values()
        parts.append(f"s{self.seed}")
        return "-".join(parts)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "params": self.param_dict, "seed": self.seed}
        d.update(self._off_default())
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "JobSpec":
        unknown = set(d) - {"kind", "params", "seed", *AXES}
        if unknown:
            raise ValueError(f"unknown job keys: {sorted(unknown)}")
        return cls(
            d["kind"],
            d.get("params", {}),
            d.get("seed", 0),
            **{name: d[name] for name in AXES if name in d},
        )


def _expand_grid(grid: Mapping) -> List[JobSpec]:
    """One grid entry -> the cartesian product of its parameter axes."""
    grid = dict(grid)
    kind = grid.pop("kind")
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r} in grid")
    seeds = grid.pop("seeds", [0])
    if isinstance(seeds, int):
        seeds = [seeds]
    options = []
    for name, (choices, _) in AXES.items():
        vals = grid.pop(name, choices[:1])
        options.append([vals] if isinstance(vals, str) else list(vals))
    axes = {}
    for name in JOB_KINDS[kind]:
        if name not in grid:
            raise ValueError(f"grid for {kind!r} is missing axis {name!r}")
        vals = grid.pop(name)
        axes[name] = [vals] if isinstance(vals, int) else list(vals)
    if grid:
        raise ValueError(f"unknown grid keys for {kind!r}: {sorted(grid)}")
    return [
        JobSpec(kind, dict(zip(axes, combo)), seed, **dict(zip(AXES, opts)))
        for combo in itertools.product(*axes.values())
        for *opts, seed in itertools.product(*options, seeds)
    ]


@dataclass
class SweepSpec:
    """A named, ordered family of jobs (duplicate job ids are rejected)."""

    name: str
    jobs: List[JobSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError("sweep name must be a non-empty path-safe string")
        seen = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job {job.job_id!r} in sweep")
            seen.add(job.job_id)

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    def job_ids(self) -> List[str]:
        return [job.job_id for job in self.jobs]

    def to_dict(self) -> dict:
        return {"name": self.name, "jobs": [j.to_dict() for j in self.jobs]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "SweepSpec":
        unknown = set(d) - {"name", "jobs", "grids"}
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {sorted(unknown)}")
        jobs = [JobSpec.from_dict(j) for j in d.get("jobs", [])]
        for grid in d.get("grids", []):
            jobs.extend(_expand_grid(grid))
        return cls(name=d.get("name", "sweep"), jobs=jobs)

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )


def mixed_demo_spec(
    n_fast: int = 12, n_medium: int = 6, n_heavy: int = 2, name: str = "mixed-demo"
) -> SweepSpec:
    """A skewed job mix for demos, tests and the sweep benchmark.

    Fast katsura jobs (tens of milliseconds) padded out with medium
    cyclic/noon/rps solves and a few heavy Pieri ``q > 0`` instances
    (around a second each): the cost spread that separates dynamic from
    static sharding, in miniature.
    """
    jobs: List[JobSpec] = []
    for s in range(n_fast):
        jobs.append(JobSpec("katsura", {"n": 3}, seed=s))
    medium_cycle = [
        JobSpec("cyclic", {"n": 5}, seed=0),
        JobSpec("noon", {"n": 3}, seed=0),
        JobSpec("rps", {"n": 5}, seed=0),
        JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=0),
    ]
    for s in range(n_medium):
        base = medium_cycle[s % len(medium_cycle)]
        jobs.append(JobSpec(base.kind, base.param_dict, seed=s))
    for s in range(n_heavy):
        jobs.append(JobSpec("pieri", {"m": 2, "p": 2, "q": 1}, seed=s))
    return SweepSpec(name=name, jobs=jobs)
