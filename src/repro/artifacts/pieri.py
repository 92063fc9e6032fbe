"""Pieri artifacts: one solved generic instance per shape ``(m, p, q)``.

The paper's offline/online split, made durable: the expensive tree
solve over a general-position instance happens once per shape and is
stored here; every later query of the same shape warm-starts a
``d(m, p, q)``-path coefficient-parameter continuation from the cached
instance (:func:`repro.schubert.continue_to_instance`) instead of
re-running the ``sum(level counts)``-path tree.

An artifact holds the generic instance (planes + interpolation points),
its full solution set in the standard chart, the root count it must
have, and the tree's per-level job counts (the memoized poset/tree
summary).  Loading re-validates the counts — a cached instance with a
missing solution would silently lose endpoints of every warm query, so
an incomplete artifact reads as a miss, never as an answer, and one
whose solutions coincide (a path jump the tree solve did not notice)
as ``corrupt``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .fingerprints import pieri_fingerprint
from .store import ArtifactStore, collide

__all__ = ["store_pieri_generic", "load_pieri_generic"]


def store_pieri_generic(
    store: ArtifactStore,
    instance,
    solutions: List[np.ndarray],
    jobs_per_level: Optional[dict] = None,
) -> str:
    """Persist a *fully* solved generic instance; returns the key.

    The caller must only store complete solves (every expected root
    found once, zero failures) — :meth:`~repro.schubert.PieriSolver.solve`
    enforces this before calling in.
    """
    problem = instance.problem
    key = pieri_fingerprint(problem.m, problem.p, problem.q)
    meta = {
        "kind": "pieri",
        "m": int(problem.m),
        "p": int(problem.p),
        "q": int(problem.q),
        "d": len(solutions),
        "jobs_per_level": {
            str(k): int(v) for k, v in (jobs_per_level or {}).items()
        },
    }
    arrays = {
        "planes": np.stack(instance.planes).astype(complex),
        "points": np.asarray(instance.points, dtype=complex),
        "solutions": np.stack(solutions).astype(complex),
    }
    store.put(key, meta, arrays)
    return key


def load_pieri_generic(
    store: ArtifactStore, m: int, p: int, q: int
) -> Optional[Tuple[object, List[np.ndarray], dict]]:
    """``(generic_instance, solutions, meta)`` for a shape, or ``None``.

    Validates shape and completeness: the solution count must equal the
    Pieri root count ``d(m, p, q)`` and the plane/point arrays must
    match the problem dimensions, else the artifact reads as a miss;
    solutions that coincide count as ``corrupt`` on top.
    """
    from ..schubert.poset import pieri_root_count
    from ..schubert.solver import PieriInstance, PieriProblem

    loaded = store.get(pieri_fingerprint(m, p, q))
    if loaded is None:
        return None
    meta, arrays = loaded
    try:
        if meta.get("kind") != "pieri" or (
            (meta["m"], meta["p"], meta["q"]) != (m, p, q)
        ):
            return None
        problem = PieriProblem(m, p, q)
        n = problem.num_conditions
        planes = arrays["planes"]
        points = arrays["points"]
        solutions = arrays["solutions"]
        expected = pieri_root_count(m, p, q)
        if planes.shape != (n, problem.ambient, m):
            return None
        if points.shape != (n,):
            return None
        if solutions.shape[0] != expected or int(meta["d"]) != expected:
            return None
        instance = PieriInstance(
            problem,
            [planes[i] for i in range(n)],
            [complex(s) for s in points],
        )
    except (KeyError, ValueError, TypeError):
        return None
    if collide(solutions):
        store.note_corrupt()
        return None
    return instance, list(solutions), meta
