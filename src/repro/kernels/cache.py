"""Tape and kernel memoization keyed by structure fingerprints.

Taping a system is a one-time cost, but the sweep engine's common case
is *families*: hundreds of jobs solving systems with identical supports
and (often) identical coefficients inside one worker process.  Two
cache levels make repeated solves pay taping once:

- the **tape cache** keys on the *structure fingerprint* (equation
  count, variable count, and the ordered ``(row, exponent, eta)``
  support triplets) — systems from the same family share one tape and
  hence one set of replay schedules;
- the **kernel cache** keys on structure fingerprint *plus* the
  coefficient hash — the fully bound kernel (constants folded into the
  per-program constant columns) is reused verbatim when the exact same
  system comes back.

Both caches are process-local and softly capped at :data:`CAPACITY`
entries each: inserting beyond the cap evicts the oldest entry, so a
sweep over thousands of random-coefficient systems cannot grow them
without bound; eviction counts are surfaced by
:func:`kernel_cache_info`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence, Tuple

import numpy as np

from .slp import SLPKernel, SLPTape, Term, build_tape

__all__ = [
    "structure_fingerprint",
    "coefficient_fingerprint",
    "cached_tape",
    "bound_slp_kernel",
    "cached_slp_kernel",
    "kernel_cache_info",
    "clear_kernel_cache",
]

#: entries each cache keeps before it evicts its oldest
CAPACITY = 256

_TAPES: Dict[str, SLPTape] = {}
_KERNELS: Dict[Tuple[str, str], SLPKernel] = {}
_HITS = {"tape": 0, "kernel": 0}
_MISSES = {"tape": 0, "kernel": 0}
_EVICTIONS = {"tape": 0, "kernel": 0}


def _evict(cache: dict, kind: str) -> None:
    while len(cache) > CAPACITY:
        cache.pop(next(iter(cache)))
        _EVICTIONS[kind] += 1


def structure_fingerprint(
    neqs: int, nvars: int, terms: Sequence[Term], has_t: bool
) -> str:
    """Hash of the support structure (coefficients excluded)."""
    h = hashlib.sha1(f"{neqs}|{nvars}|{int(has_t)}".encode())
    for t in terms:
        h.update(f"{t.row};{t.expo};{t.eta!r}".encode())
    return h.hexdigest()


def coefficient_fingerprint(coefficients: Sequence[complex]) -> str:
    """Hash of the exact coefficient values, in term order."""
    return hashlib.sha1(
        np.asarray(coefficients, dtype=complex).tobytes()
    ).hexdigest()


def cached_tape(
    neqs: int, nvars: int, terms: Sequence[Term], has_t: bool
) -> Tuple[SLPTape, bool]:
    """The structure's tape, built at most once; returns (tape, hit)."""
    key = structure_fingerprint(neqs, nvars, terms, has_t)
    tape = _TAPES.get(key)
    if tape is not None:
        _HITS["tape"] += 1
        return tape, True
    _MISSES["tape"] += 1
    tape = build_tape(neqs, nvars, terms, has_t=has_t)
    _TAPES[key] = tape
    _evict(_TAPES, "tape")
    return tape, False


def bound_slp_kernel(
    neqs: int, nvars: int, terms: Sequence[Term], has_t: bool = False
) -> SLPKernel:
    """A fresh kernel on the structure's memoized tape: the tape and its
    schedules are shared, the binding is the caller's to keep or drop
    (a warm query's coefficients never come back, so memoizing its
    binding would only hold memory until the cap evicts it)."""
    tape, hit = cached_tape(neqs, nvars, terms, has_t)
    return SLPKernel(
        tape,
        [t.coeff for t in terms],
        taping_seconds=0.0 if hit else tape.build_seconds,
        cache_hit=hit,
    )


def cached_slp_kernel(
    neqs: int, nvars: int, terms: Sequence[Term], has_t: bool = False
) -> SLPKernel:
    """The fully bound SLP kernel, memoized by (structure, coefficients)."""
    key = (
        structure_fingerprint(neqs, nvars, terms, has_t),
        coefficient_fingerprint([t.coeff for t in terms]),
    )
    kernel = _KERNELS.get(key)
    if kernel is not None:
        _HITS["kernel"] += 1
        return kernel
    _MISSES["kernel"] += 1
    kernel = _KERNELS[key] = bound_slp_kernel(neqs, nvars, terms, has_t)
    _evict(_KERNELS, "kernel")
    return kernel


def kernel_cache_info() -> dict:
    """Sizes and hit/miss counters of the process-local kernel caches."""
    return {
        "tapes": len(_TAPES),
        "kernels": len(_KERNELS),
        "capacity": CAPACITY,
        "tape_hits": _HITS["tape"],
        "kernel_hits": _HITS["kernel"],
        "tape_misses": _MISSES["tape"],
        "kernel_misses": _MISSES["kernel"],
        "tape_evictions": _EVICTIONS["tape"],
        "kernel_evictions": _EVICTIONS["kernel"],
    }


def clear_kernel_cache() -> None:
    """Drop every memoized tape and kernel (mostly for tests)."""
    _TAPES.clear()
    _KERNELS.clear()
    _HITS["tape"] = 0
    _HITS["kernel"] = 0
    _MISSES["tape"] = 0
    _MISSES["kernel"] = 0
    _EVICTIONS["tape"] = 0
    _EVICTIONS["kernel"] = 0
