"""Start systems with known solutions.

Two classical constructions:

- **total degree** — ``x_i^{d_i} - c_i = 0`` with random nonzero ``c_i``;
  the Bezout number ``prod d_i`` of start solutions is the full product of
  roots of unity (scaled), enumerated lazily.
- **linear product** — each degree-``d`` equation is replaced by a product
  of ``d`` random affine linear forms; start solutions solve one linear
  system per choice of a factor from every equation.  This is the start
  system used for the paper's RPS mechanism benchmark (after [17]), where
  grouping variables gives far fewer paths than total degree; our generic
  variant keeps the same Bezout count but exercises the same code path.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..polynomials import Polynomial, PolynomialSystem, constant, variables

__all__ = [
    "total_degree_start_system",
    "total_degree_start_solutions",
    "LinearProductStart",
    "linear_product_start_system",
]


def total_degree_start_system(
    target: PolynomialSystem, rng: np.random.Generator | None = None
) -> Tuple[PolynomialSystem, List[complex]]:
    """Return the start system ``x_i^{d_i} - c_i`` for ``target``.

    The constants ``c_i`` are random points on the unit circle, so start
    solutions are well scaled.  Returns ``(system, constants)``; enumerate
    the start solutions with :func:`total_degree_start_solutions`.
    """
    if not target.is_square():
        raise ValueError("total-degree start systems need a square target")
    rng = np.random.default_rng() if rng is None else rng
    n = target.nvars
    xs = variables(n)
    degrees = target.degrees()
    if any(d <= 0 for d in degrees):
        raise ValueError("every equation must have positive degree")
    consts = [np.exp(2j * np.pi * rng.random()) for _ in range(n)]
    polys = [xs[i] ** degrees[i] - constant(consts[i], n) for i in range(n)]
    return PolynomialSystem(polys), consts


def total_degree_start_solutions(
    degrees: Sequence[int], constants: Sequence[complex]
) -> Iterator[np.ndarray]:
    """Lazily enumerate all ``prod d_i`` solutions of ``x_i^{d_i} = c_i``."""
    roots_per_var = []
    for d, c in zip(degrees, constants):
        radius = abs(c) ** (1.0 / d)
        phase = np.angle(c)
        # k-th root: radius * exp(i (phase + 2 pi k)/d)
        roots = [radius * np.exp(1j * (phase + 2 * np.pi * k) / d) for k in range(d)]
        roots_per_var.append(roots)
    for combo in itertools.product(*roots_per_var):
        yield np.array(combo, dtype=complex)


class LinearProductStart:
    """A linear-product start system and its start-solution enumerator."""

    def __init__(
        self,
        target: PolynomialSystem,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not target.is_square():
            raise ValueError("linear-product start systems need a square target")
        rng = np.random.default_rng() if rng is None else rng
        self.nvars = n = target.nvars
        self.degrees = target.degrees()
        if any(d <= 0 for d in self.degrees):
            raise ValueError("every equation must have positive degree")
        # factors[i][k] = (a, b): the linear form a . x + b
        self.factors: List[List[Tuple[np.ndarray, complex]]] = []
        for d in self.degrees:
            eq_factors = []
            for _ in range(d):
                a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                b = complex(rng.standard_normal() + 1j * rng.standard_normal())
                eq_factors.append((a, b))
            self.factors.append(eq_factors)

    def system(self) -> PolynomialSystem:
        """The start system: one product of linear forms per equation."""
        xs = variables(self.nvars)
        polys = []
        for eq_factors in self.factors:
            prod: Polynomial = constant(1, self.nvars)
            for a, b in eq_factors:
                form = constant(b, self.nvars)
                for v, coef in enumerate(a):
                    form = form + complex(coef) * xs[v]
                prod = prod * form
            polys.append(prod)
        return PolynomialSystem(polys)

    def solutions(self) -> Iterator[np.ndarray]:
        """All start solutions: solve one n x n linear system per factor combo."""
        index_ranges = [range(d) for d in self.degrees]
        n = self.nvars
        for combo in itertools.product(*index_ranges):
            amat = np.empty((n, n), dtype=complex)
            bvec = np.empty(n, dtype=complex)
            for i, k in enumerate(combo):
                a, b = self.factors[i][k]
                amat[i] = a
                bvec[i] = -b
            try:
                yield np.linalg.solve(amat, bvec)
            except np.linalg.LinAlgError:  # pragma: no cover - measure zero
                continue


def linear_product_start_system(
    target: PolynomialSystem, rng: np.random.Generator | None = None
) -> LinearProductStart:
    """Convenience constructor mirroring :func:`total_degree_start_system`."""
    return LinearProductStart(target, rng)
