"""Polyhedral artifacts: supports -> cells, generic system, endpoints.

One artifact per Newton-polytope structure covers the ISSUE's kinds (a)
and (c) together, because they are one pipeline in this repo:

- the **subdivision** (lifting seed + values, cell edges/volumes) — the
  memoized mixed cells; binomial start data is derived from cell edges
  and the stored generic coefficients, exactly as
  :meth:`~repro.polyhedral.PolyhedralStart.cell_starts` does;
- the **generic coefficient system** drawn on the (augmented) supports;
- the **solved endpoints** of phase 1 — one start point per unit of
  mixed volume, already tracked to the generic system.

A warm query with the same supports skips cell enumeration *and* the
per-cell phase-1 tracking: it builds a
:class:`~repro.homotopy.coefficient.CoefficientHomotopy` from the
stored generic coefficients to its own coefficients and tracks the
stored endpoints — mixed-volume-many paths, nothing else.

Only *clean* phase-1 results are stored (``phase1_failures == 0``, one
endpoint per unit of mixed volume, no two of them coinciding): a missing
or doubled endpoint would silently lose a root of every warm query.
:func:`store_polyhedral_start` owns that policy — it declines and says
so — and :func:`load_polyhedral_start` applies the same test to what
it reads back.  Loading also re-validates shapes and, optionally, the
lifting against its journaled seed (:func:`validate_lifting_seed`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .fingerprints import supports_fingerprint
from .store import ArtifactStore, collide

__all__ = [
    "polyhedral_key",
    "store_polyhedral_start",
    "load_polyhedral_start",
    "load_subdivision",
    "validate_lifting_seed",
]


def polyhedral_key(target, affine: bool = True) -> str:
    """Store key of a system's Newton-polytope structure."""
    from ..polyhedral.supports import supports_of

    key = supports_fingerprint(supports_of(target))
    return key if affine else key + "-torus"


def store_polyhedral_start(
    store: ArtifactStore, target, poly_start, starts
) -> Optional[str]:
    """Persist a clean phase-1 result for the target's supports.

    ``starts`` are the tracked toric endpoints (solutions of the
    generic system); ``poly_start`` is the
    :class:`~repro.polyhedral.PolyhedralStart` that produced them.
    Returns the key — or ``None``, with nothing written, when phase 1
    lost a path, ``starts`` is not one point per unit of mixed volume,
    or two of them coincide.
    """
    sub = poly_start.subdivision
    if (
        poly_start.phase1_failures
        or len(starts) != sub.mixed_volume
        or collide(starts)
    ):
        return None
    key = polyhedral_key(target)
    starts = np.asarray(starts, dtype=complex)
    meta = {
        "kind": "polyhedral",
        "neqs": len(sub.supports),
        "nvars": int(sub.supports[0].shape[1]),
        "mixed_volume": int(sub.mixed_volume),
        "n_cells": int(sub.n_cells),
        "lifting_seed": (
            None if sub.lifting_seed is None else int(sub.lifting_seed)
        ),
        "relifts": int(sub.relifts),
        "lifting_bound": int(sub.lifting_bound),
        "cells": [
            {
                "edges": [[int(a), int(b)] for a, b in cell.edges],
                "volume": int(cell.volume),
            }
            for cell in sub.cells
        ],
    }
    arrays = {"starts": starts}
    for i, support in enumerate(sub.supports):
        arrays[f"support_{i}"] = np.asarray(support, dtype=np.int64)
        arrays[f"lifting_{i}"] = np.asarray(sub.lifting[i], dtype=np.int64)
        arrays[f"coeff_{i}"] = np.asarray(
            poly_start.coefficients[i], dtype=complex
        )
    store.put(key, meta, arrays)
    return key


def load_polyhedral_start(store: ArtifactStore, target) -> Optional[dict]:
    """The warm-start bundle for a target's supports, or ``None``.

    Returns ``{"supports", "coefficients", "generic_system", "starts",
    "meta"}`` after shape validation; any inconsistency reads as a miss,
    and a bundle whose starts coincide (see :func:`store_polyhedral_start`)
    also counts as ``corrupt``.
    """
    from ..polyhedral.supports import coefficient_system

    loaded = store.get(polyhedral_key(target))
    if loaded is None:
        return None
    meta, arrays = loaded
    try:
        if meta.get("kind") != "polyhedral":
            return None
        neqs = int(meta["neqs"])
        nvars = int(meta["nvars"])
        if neqs != target.neqs or nvars != target.nvars:
            return None
        supports: List[np.ndarray] = []
        coefficients: List[np.ndarray] = []
        for i in range(neqs):
            support = arrays[f"support_{i}"]
            coeffs = arrays[f"coeff_{i}"]
            if support.ndim != 2 or support.shape[1] != nvars:
                return None
            if coeffs.shape != (support.shape[0],):
                return None
            supports.append(support)
            coefficients.append(coeffs)
        starts = arrays["starts"]
        if starts.shape != (int(meta["mixed_volume"]), nvars):
            return None
    except (KeyError, ValueError, TypeError):
        return None
    if collide(starts):
        store.note_corrupt()
        return None
    return {
        "supports": supports,
        "coefficients": coefficients,
        "generic_system": coefficient_system(supports, coefficients),
        "starts": starts,
        "meta": meta,
    }


def load_subdivision(store: ArtifactStore, target):
    """Rebuild the memoized :class:`~repro.polyhedral.cells.
    MixedSubdivision` (cells with exact gamma/etas) for a target.

    Re-runs :func:`~repro.polyhedral.cells.induced_subdivision` on the
    stored supports + lifting — exact integer work, no retries — and
    cross-checks cell count and mixed volume against the stored summary.
    Returns ``None`` on any mismatch.
    """
    from ..polyhedral.cells import DegenerateLiftingError, induced_subdivision

    loaded = store.get(polyhedral_key(target))
    if loaded is None:
        return None
    meta, arrays = loaded
    try:
        neqs = int(meta["neqs"])
        supports = [arrays[f"support_{i}"] for i in range(neqs)]
        lifting = [arrays[f"lifting_{i}"] for i in range(neqs)]
        subdivision = induced_subdivision(supports, lifting)
    except (KeyError, ValueError, DegenerateLiftingError):
        return None
    if subdivision.n_cells != int(meta["n_cells"]):
        return None
    if subdivision.mixed_volume != int(meta["mixed_volume"]):
        return None
    subdivision.lifting_seed = meta.get("lifting_seed")
    subdivision.relifts = int(meta.get("relifts", 0))
    return subdivision


def validate_lifting_seed(store: ArtifactStore, target) -> Optional[bool]:
    """Does the stored lifting match its journaled seed?

    Replays the dedicated lifting stream — ``default_rng(seed)`` drawn
    ``relifts + 1`` times, as :func:`~repro.polyhedral.cells.
    mixed_cells` does — and compares the final draw against the stored
    lifting arrays.  ``None`` when the artifact is absent or carries no
    seed; otherwise the verdict.
    """
    from ..polyhedral.supports import random_lifting

    loaded = store.get(polyhedral_key(target))
    if loaded is None:
        return None
    meta, arrays = loaded
    seed = meta.get("lifting_seed")
    if seed is None:
        return None
    neqs = int(meta["neqs"])
    supports = [arrays[f"support_{i}"] for i in range(neqs)]
    stored = [arrays[f"lifting_{i}"] for i in range(neqs)]
    rng = np.random.default_rng(int(seed))
    bound = int(meta.get("lifting_bound", 4096))
    for _ in range(int(meta.get("relifts", 0)) + 1):
        lifting = random_lifting(supports, rng, bound=bound)
    return all(
        np.array_equal(a, b) for a, b in zip(lifting, stored)
    )
