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

Polynomial-system jobs take an optional ``start`` strategy (and grids an
optional ``start`` axis) choosing the start system ``repro.homotopy.
solve`` builds: ``total_degree`` (default), ``linear_product``, or
``polyhedral`` — the last tracks one path per unit of mixed volume, the
sharp BKK count, instead of one per Bezout path.  They also take an
optional ``endgame`` (and grid axis): ``refine`` (default) or
``cauchy``, which recovers singular endpoints with winding-number loops
and journals each job's multiplicity histogram.  An optional ``kernel``
(and grid axis) picks the evaluation backend — ``naive`` (default, the
seed arithmetic) or ``slp`` (the compiled straight-line-program kernels
of :mod:`repro.kernels`) — and each job journals its kernel's
deterministic effort counters.  An optional ``cache`` (and grid axis)
— ``off`` (default) or ``on`` — routes Pieri and ``polyhedral``-start
jobs through the structure-keyed artifact store
(:mod:`repro.artifacts`), so a family of same-structure jobs pays the
ab-initio solve once and continues the rest.  An optional ``predictor``
(and grid axis) — ``euler`` (default, the seed tangent prediction) or
``hermite`` (the error-model pipeline of :mod:`repro.tracker.predictor`)
— picks the prediction strategy, and each job journals its tracker's
tangent-recycle counters.

Every job has a deterministic, human-readable :attr:`JobSpec.job_id`
(e.g. ``pieri-m2-p2-q1-s0``) that keys the checkpoint journal, and a
``seed`` that makes the job's result reproducible bit-for-bit — the
property the kill/resume identity test relies on.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = [
    "JOB_KINDS",
    "START_KINDS",
    "PIERI_MODES",
    "ENDGAME_KINDS",
    "SOLVE_KERNELS",
    "CACHE_MODES",
    "SOLVE_PREDICTORS",
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

#: Start-system strategies for the polynomial-system job kinds (the
#: choices :func:`repro.homotopy.solve` accepts); ``total_degree`` is the
#: default and the only strategy Pieri jobs take (their tree solver has
#: its own start mechanism).
START_KINDS = ("total_degree", "linear_product", "polyhedral")

#: Tracking modes for Pieri jobs — how many edges a front gets:
#: ``per_path`` one (depth first, the paper's unit of work), ``batch``
#: a whole tree level as one stacked SoA front
#: (:meth:`repro.schubert.solver.PieriSolver.solve`).  Polynomial jobs
#: always track one wide front and take no mode.
PIERI_MODES = ("per_path", "batch")

#: Endgame strategies for polynomial-system jobs (the choices
#: :func:`repro.homotopy.solve` accepts): ``refine`` is the plain
#: Newton sharpen, ``cauchy`` recovers singular endpoints with
#: winding-number loops and journals a multiplicity histogram.
ENDGAME_KINDS = ("refine", "cauchy")

#: Evaluation-kernel backends for polynomial-system jobs (the choices
#: :func:`repro.homotopy.solve` accepts as ``kernel=``): ``naive`` is
#: the seed power-table arithmetic with effort accounting, ``slp`` the
#: compiled straight-line-program backend of :mod:`repro.kernels`.
#: The default ``naive`` leaves job ids (and hence old journals)
#: untouched.
SOLVE_KERNELS = ("naive", "slp")

#: Artifact-cache modes (and grid axis): ``off`` (default) solves
#: ab-initio; ``on`` consults the process-shared
#: :class:`~repro.artifacts.ArtifactStore` (``$REPRO_ARTIFACT_STORE``,
#: which the engine points at ``<checkpoint>/artifacts`` when unset) so
#: same-structure jobs amortize mixed cells / solved generic instances
#: into coefficient-parameter continuation.  Only Pieri jobs and
#: ``polyhedral``-start polynomial jobs have a structure to key on.
CACHE_MODES = ("off", "on")

#: Predictor strategies for polynomial-system jobs (the choices
#: :func:`repro.homotopy.solve` accepts as ``predictor=``, mirroring
#: ``repro.tracker.PREDICTORS``): ``euler`` is the seed tangent
#: prediction, ``hermite`` the error-model pipeline (cubic Hermite
#: prediction, update-size acceptance, Jacobian-recycled tangents).
#: The default ``euler`` leaves job ids (and old journals) untouched.
SOLVE_PREDICTORS = ("euler", "hermite")


@dataclass(frozen=True)
class JobSpec:
    """One solve job: a kind, its parameters, a start strategy, a seed.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    the spec is hashable and its canonical form (and hence ``job_id``)
    does not depend on insertion order.  ``start`` picks the start
    system :func:`repro.homotopy.solve` builds for polynomial jobs
    (``"polyhedral"`` tracks one path per unit of mixed volume instead
    of per Bezout path); ``mode`` picks per-path vs level-batched
    tracking for Pieri jobs.  The defaults leave job ids — and hence
    old journals — untouched.
    """

    kind: str
    params: tuple
    seed: int = 0
    start: str = "total_degree"
    mode: str = "per_path"
    endgame: str = "refine"
    kernel: str = "naive"
    cache: str = "off"
    predictor: str = "euler"

    def __init__(
        self,
        kind: str,
        params: Mapping[str, int],
        seed: int = 0,
        start: str = "total_degree",
        mode: str = "per_path",
        endgame: str = "refine",
        kernel: str = "naive",
        cache: str = "off",
        predictor: str = "euler",
    ):
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; expected one of {sorted(JOB_KINDS)}"
            )
        if start not in START_KINDS:
            raise ValueError(
                f"unknown start strategy {start!r}; expected one of "
                f"{sorted(START_KINDS)}"
            )
        if kind == "pieri" and start != "total_degree":
            raise ValueError(
                "pieri jobs run the tree solver and take no start strategy"
            )
        if mode not in PIERI_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {sorted(PIERI_MODES)}"
            )
        if kind != "pieri" and mode != "per_path":
            raise ValueError(
                "only pieri jobs take a tracking mode (polynomial jobs "
                "always run the batch tracker)"
            )
        if endgame not in ENDGAME_KINDS:
            raise ValueError(
                f"unknown endgame {endgame!r}; expected one of "
                f"{sorted(ENDGAME_KINDS)}"
            )
        if kind == "pieri" and endgame != "refine":
            raise ValueError(
                "pieri jobs keep the default refine endgame (their retry "
                "ladder owns failure handling)"
            )
        if kernel not in SOLVE_KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of "
                f"{sorted(SOLVE_KERNELS)}"
            )
        if kind == "pieri" and kernel != "naive":
            raise ValueError(
                "pieri jobs run the tree solver and take no kernel backend"
            )
        if cache not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {cache!r}; expected one of "
                f"{sorted(CACHE_MODES)}"
            )
        if cache == "on" and kind != "pieri" and start != "polyhedral":
            raise ValueError(
                "cache='on' needs a structure to key on: pieri jobs or "
                "polynomial jobs with start='polyhedral'"
            )
        if predictor not in SOLVE_PREDICTORS:
            raise ValueError(
                f"unknown predictor {predictor!r}; expected one of "
                f"{sorted(SOLVE_PREDICTORS)}"
            )
        if kind == "pieri" and predictor != "euler":
            raise ValueError(
                "pieri jobs run the tree solver and take no predictor"
            )
        required = JOB_KINDS[kind]
        given = dict(params)
        if sorted(given) != sorted(required):
            raise ValueError(
                f"{kind} jobs need exactly the parameters {sorted(required)}, "
                f"got {sorted(given)}"
            )
        clean = tuple(sorted((k, int(v)) for k, v in given.items()))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", clean)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "endgame", endgame)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "cache", cache)
        object.__setattr__(self, "predictor", predictor)

    @property
    def param_dict(self) -> Dict[str, int]:
        return dict(self.params)

    @property
    def job_id(self) -> str:
        """Deterministic human-readable identity, e.g. ``pieri-m2-p2-q1-s0``.

        Non-default start strategies and Pieri tracking modes join the
        id (e.g. ``cyclic-n7-polyhedral-s0``, ``pieri-m2-p2-q1-batch-s0``),
        so the same system solved two ways makes two distinct journal
        entries; default ids match pre-existing journals exactly.
        """
        parts = [self.kind]
        parts += [f"{k}{v}" for k, v in self.params]
        if self.start != "total_degree":
            parts.append(self.start)
        if self.mode != "per_path":
            parts.append(self.mode)
        if self.endgame != "refine":
            parts.append(self.endgame)
        if self.kernel != "naive":
            parts.append(self.kernel)
        if self.cache != "off":
            parts.append("cache")
        if self.predictor != "euler":
            parts.append(self.predictor)
        parts.append(f"s{self.seed}")
        return "-".join(parts)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "params": self.param_dict, "seed": self.seed}
        if self.start != "total_degree":
            d["start"] = self.start
        if self.mode != "per_path":
            d["mode"] = self.mode
        if self.endgame != "refine":
            d["endgame"] = self.endgame
        if self.kernel != "naive":
            d["kernel"] = self.kernel
        if self.cache != "off":
            d["cache"] = self.cache
        if self.predictor != "euler":
            d["predictor"] = self.predictor
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "JobSpec":
        return cls(
            d["kind"],
            d.get("params", {}),
            d.get("seed", 0),
            d.get("start", "total_degree"),
            d.get("mode", "per_path"),
            d.get("endgame", "refine"),
            d.get("kernel", "naive"),
            d.get("cache", "off"),
            d.get("predictor", "euler"),
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
    starts = grid.pop("start", ["total_degree"])
    if isinstance(starts, str):
        starts = [starts]
    modes = grid.pop("mode", ["per_path"])
    if isinstance(modes, str):
        modes = [modes]
    endgames = grid.pop("endgame", ["refine"])
    if isinstance(endgames, str):
        endgames = [endgames]
    kernels = grid.pop("kernel", ["naive"])
    if isinstance(kernels, str):
        kernels = [kernels]
    caches = grid.pop("cache", ["off"])
    if isinstance(caches, str):
        caches = [caches]
    predictors = grid.pop("predictor", ["euler"])
    if isinstance(predictors, str):
        predictors = [predictors]
    axes = {}
    for name in JOB_KINDS[kind]:
        if name not in grid:
            raise ValueError(f"grid for {kind!r} is missing axis {name!r}")
        vals = grid.pop(name)
        axes[name] = [vals] if isinstance(vals, int) else list(vals)
    if grid:
        raise ValueError(f"unknown grid keys for {kind!r}: {sorted(grid)}")
    names = list(axes)
    jobs = []
    for combo in itertools.product(*(axes[n] for n in names)):
        for combo_opts in itertools.product(
            starts, modes, endgames, kernels, caches, predictors, seeds
        ):
            start, mode, endgame, kernel, cache, predictor, seed = combo_opts
            jobs.append(
                JobSpec(
                    kind,
                    dict(zip(names, combo)),
                    seed=seed,
                    start=start,
                    mode=mode,
                    endgame=endgame,
                    kernel=kernel,
                    cache=cache,
                    predictor=predictor,
                )
            )
    return jobs


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
