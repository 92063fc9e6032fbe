"""Structure-keyed artifact cache: solve ab-initio once, continue ever after.

The source paper's application — pole placement via Pieri homotopies —
solves the *same* generic instance for every query; only the target
poles change.  Polyhedral solves likewise re-enumerate mixed cells and
re-track phase 1 for every system sharing one Newton-polytope
structure.  This package makes that offline/online split durable and
process-shared:

- :class:`ArtifactStore` (:mod:`repro.artifacts.store`) — a disk-backed
  JSON + NPZ store with atomic-rename commits; torn or corrupted
  entries read as misses, never as answers.
- :mod:`repro.artifacts.fingerprints` — structure keys, extending the
  :mod:`repro.kernels.cache` idiom to Newton-polytope support tuples
  and Pieri shapes.
- :mod:`repro.artifacts.pieri` / :mod:`repro.artifacts.polyhedral` —
  the codecs: a solved generic Pieri instance per shape, and mixed
  cells + generic coefficients + solved phase-1 endpoints per support
  structure.

Consumers: ``repro.homotopy.solve(..., cache=...)`` and
``PieriSolver.solve(cache=...)`` consult the store and route warm
queries through coefficient-parameter continuation; ``repro.serve``
batches concurrent warm queries into stacked fronts.  The sweep engine
takes no store: a warm route tracks other paths than a cold one, so a
journaled result would depend on which job filled the store first.

>>> import numpy as np, tempfile
>>> from repro.schubert import PieriInstance, PieriSolver
>>> store = ArtifactStore(tempfile.mkdtemp())
>>> inst = PieriInstance.random(2, 2, 0, np.random.default_rng(0))
>>> cold = PieriSolver(inst, seed=1).solve(mode="batch", cache=store)
>>> cold.cache["status"]
'cold'
>>> query = PieriInstance.random(2, 2, 0, np.random.default_rng(7))
>>> warm = PieriSolver(query, seed=1).solve(mode="batch", cache=store)
>>> warm.cache["status"], warm.cache["n_paths"]   # d(2,2,0) == 2 paths
('warm', 2)
"""

from .fingerprints import (
    pieri_fingerprint,
    supports_fingerprint,
    system_fingerprint,
)
from .pieri import load_pieri_generic, store_pieri_generic
from .polyhedral import (
    load_polyhedral_start,
    load_subdivision,
    polyhedral_key,
    store_polyhedral_start,
    validate_lifting_seed,
)
from .store import STORE_ENV, ArtifactStore, default_store, resolve_store

__all__ = [
    "ArtifactStore",
    "STORE_ENV",
    "default_store",
    "resolve_store",
    "supports_fingerprint",
    "system_fingerprint",
    "pieri_fingerprint",
    "store_pieri_generic",
    "load_pieri_generic",
    "polyhedral_key",
    "store_polyhedral_start",
    "load_polyhedral_start",
    "load_subdivision",
    "validate_lifting_seed",
]
