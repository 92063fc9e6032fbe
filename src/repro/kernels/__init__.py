"""Pluggable compiled-kernel backends for system evaluation.

Every path tracker in this codebase bottoms out in "evaluate the
residual and Jacobian of a polynomial system for a batch of points".
This package makes that hot path pluggable:

- the ``"naive"`` backend is the seed implementation — shared monomial
  power-tables plus ``np.add.at`` scatter — wrapped with effort
  accounting (arithmetic bit-identical to the default path);
- the ``"slp"`` backend *tapes* the system once into a straight-line
  program with common-subexpression sharing, derives the Jacobian tape
  by forward-mode AD over the SLP, and replays both fused per batch by
  dependency level — O(depth) array operations a call, whatever the
  instruction count (:mod:`repro.kernels.slp`).

Tapes and bound kernels are memoized by structure fingerprint plus
coefficient hash (:mod:`repro.kernels.cache`), so repeated solves of
the same family — the sweep engine's common case — pay taping cost
once.  Backend selection is threaded through the homotopy layer as a
``kernel=`` option on :func:`repro.homotopy.solve` and on the four
polynomial homotopies, all term lists built on :class:`TermHomotopy`
(the polyhedral :class:`~repro.polyhedral.CellHomotopy` and the three
faces of the paper's eq. (1): :class:`~repro.homotopy.convex.
ConvexHomotopy`, the warm route's :class:`~repro.homotopy.coefficient.
CoefficientHomotopy` and the rescue chart :class:`~repro.homotopy.
projective.ProjectivePatchHomotopy`).

Every replay is elementwise along the point axis, so scalar
(one-row) and batched evaluation are bit-identical — the invariant the
scalar/batch parity suites pin.

>>> import numpy as np
>>> from repro.systems import katsura_system
>>> system = katsura_system(2)
>>> kernel = compile_system_kernel(system, "slp")
>>> X = np.array([[0.3 + 0.1j, -0.2j, 0.5 + 0j],
...               [1.0 + 0j, 0.25j, -0.75 + 0j]])
>>> res, jac = kernel.evaluate_and_jacobian(X)
>>> res_naive, jac_naive = system.evaluate_and_jacobian_many(X)
>>> bool(np.allclose(res, res_naive) and np.allclose(jac, jac_naive))
True

One row of a batch is bit-identical to the one-row batch (the
scalar/batch parity invariant):

>>> row = kernel.evaluate_and_jacobian(X[1:2])[0][0]
>>> bool(np.array_equal(row, res[1]))
True

Kernels are memoized by structure + coefficients, so compiling the
same system again is free:

>>> compile_system_kernel(system, "slp") is kernel
True
>>> kernel.stats.tape_ops > 0
True
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional

import numpy as np

from .cache import (
    bound_slp_kernel,
    cached_slp_kernel,
    cached_tape,
    clear_kernel_cache,
    coefficient_fingerprint,
    kernel_cache_info,
    structure_fingerprint,
)
from .slp import KernelStats, SLPKernel, SLPTape, Term, build_tape
from .terms import NaiveTermKernel, TermHomotopy

__all__ = [
    "KERNEL_BACKENDS",
    "KernelStats",
    "KernelUsage",
    "NaiveSystemKernel",
    "NaiveTermKernel",
    "SLPKernel",
    "SLPTape",
    "Term",
    "TermHomotopy",
    "build_tape",
    "clear_kernel_cache",
    "compile_system_kernel",
    "compile_term_kernel",
    "kernel_cache_info",
    "normalize_kernel",
    "system_terms",
]

#: Backends accepted wherever a ``kernel=`` option is threaded through.
KERNEL_BACKENDS = ("naive", "slp")


def normalize_kernel(kernel: Optional[str]) -> Optional[str]:
    """Validate a ``kernel=`` option; ``None`` means the uninstrumented
    default path (same arithmetic as ``"naive"``, no accounting)."""
    if kernel is None:
        return None
    if kernel not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {kernel!r}; "
            f"expected one of {sorted(KERNEL_BACKENDS)} or None"
        )
    return kernel


def system_terms(system) -> List[Term]:
    """The ordered term list of a :class:`~repro.polynomials.
    PolynomialSystem` (``eta = 0`` throughout)."""
    terms: List[Term] = []
    for i, poly in enumerate(system):
        for expo, c in poly.terms():
            terms.append(Term(row=i, expo=tuple(expo), coeff=complex(c)))
    return terms


class NaiveSystemKernel:
    """The seed power-table + scatter evaluator, with effort accounting.

    Delegates to the system's own compiled tables, so results are
    bit-identical to calling the system directly; this wrapper exists
    to give the default path the same stats surface as the SLP backend
    (and to anchor benchmark comparisons).
    """

    backend = "naive"

    def __init__(self, system) -> None:
        self.system = system
        t0 = time.perf_counter()
        tables = system._compiled()
        taping = time.perf_counter() - t0
        self.stats = KernelStats(
            backend=self.backend,
            tape_ops=len(tables.res_rows) + len(tables.jac_rows),
            n_terms=len(tables.res_rows),
            taping_seconds=taping,
            cache_hit=taping == 0.0,
        )

    def evaluate(self, X: np.ndarray, tt=None) -> np.ndarray:
        self.stats.record(X.shape[0])
        return self.system.evaluate_many(X)

    def evaluate_and_jacobian(self, X: np.ndarray, tt=None):
        self.stats.record(X.shape[0])
        return self.system.evaluate_and_jacobian_many(X)

    def __repr__(self) -> str:
        return f"NaiveSystemKernel(ops={self.stats.tape_ops})"


def compile_system_kernel(system, backend: str = "slp"):
    """Compile a :class:`~repro.polynomials.PolynomialSystem` for a
    backend; SLP kernels are memoized by structure + coefficients."""
    backend = normalize_kernel(backend)
    if backend is None or backend == "naive":
        return NaiveSystemKernel(system)
    return cached_slp_kernel(
        system.neqs, system.nvars, system_terms(system), has_t=False
    )


def compile_term_kernel(
    neqs: int, nvars: int, terms: Iterable[Term], backend: str | None = "slp"
):
    """Compile a parametric term list ``c * t^eta * x^a`` (the
    :class:`TermHomotopy` shape) for a backend: an SLP kernel with
    t-derivative programs on the structure's memoized tape, or for
    ``None`` / ``"naive"`` the reference :class:`NaiveTermKernel`."""
    terms = list(terms)
    if normalize_kernel(backend) == "slp":
        return bound_slp_kernel(neqs, nvars, terms, has_t=True)
    return NaiveTermKernel(neqs, nvars, terms)


class KernelUsage:
    """Delta accounting over a set of (possibly shared) kernels.

    Memoized kernels carry cumulative counters; a solve wants to report
    only its own share.  Snapshot at construction, then
    :meth:`report` yields the per-run backend summary —
    ``backend`` / ``tape_ops`` / ``taping_seconds`` / ``calls`` /
    ``evaluations`` / ``points_per_call`` (mean front width a call saw)
    — with duplicate kernel objects counted once.
    """

    def __init__(self, kernels: Iterable) -> None:
        seen = {}
        for k in kernels:
            if k is not None and id(k) not in seen:
                seen[id(k)] = k
        self.kernels = list(seen.values())
        self._base = [
            (k.stats.calls, k.stats.evaluations) for k in self.kernels
        ]

    def add(self, kernels: Iterable) -> None:
        known = {id(k) for k in self.kernels}
        for k in kernels:
            if k is not None and id(k) not in known:
                known.add(id(k))
                self.kernels.append(k)
                self._base.append((k.stats.calls, k.stats.evaluations))

    def merge(self, other: "KernelUsage") -> None:
        """Adopt another usage's kernels *with their baselines* (the
        earlier snapshot wins for kernels tracked by both)."""
        known = {id(k): i for i, k in enumerate(self.kernels)}
        for k, base in zip(other.kernels, other._base):
            i = known.get(id(k))
            if i is None:
                self.kernels.append(k)
                self._base.append(base)
            else:
                self._base[i] = min(self._base[i], base)

    def report(self) -> Optional[dict]:
        if not self.kernels:
            return None
        calls = evaluations = 0
        for k, (c0, e0) in zip(self.kernels, self._base):
            calls += k.stats.calls - c0
            evaluations += k.stats.evaluations - e0
        return {
            "backend": self.kernels[0].backend,
            "kernels": len(self.kernels),
            "tape_ops": int(sum(k.stats.tape_ops for k in self.kernels)),
            "taping_seconds": float(
                sum(k.stats.taping_seconds for k in self.kernels)
            ),
            "calls": int(calls),
            "evaluations": int(evaluations),
            "points_per_call": evaluations / calls if calls else 0.0,
        }
