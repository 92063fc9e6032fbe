"""Coefficient-parameter continuation over *shared* supports.

    H_i(x, t) = sum_a ((1 - t) gamma c^G_{i,a} + t c^F_{i,a}) x^a

Mathematically this is exactly the convex homotopy
``gamma (1-t) G + t F`` (:class:`~repro.homotopy.convex.ConvexHomotopy`)
— same gamma trick, same probability-one path regularity — specialized
to the case the artifact store serves: the start ``G`` is a *cached
generic system with the target's supports*, so ``G`` and ``F`` differ
only in coefficients.  That structural identity buys the warm path its
speed: instead of evaluating two full polynomial systems per tracker
step, ``(1 - t) gamma g + t f = gamma g t^0 + (f - gamma g) t^1`` makes
``H`` one parametric term list — two :class:`~repro.kernels.Term` per
support row — evaluated by one kernel call
(:class:`~repro.kernels.TermHomotopy`: the SLP tape under
``kernel="slp"``, the reference term kernel otherwise), with
``dH/dt = F - gamma G`` falling out of the same list analytically.

>>> import numpy as np
>>> from repro.polyhedral.supports import (
...     augment_with_origin, random_coefficient_system, supports_of)
>>> from repro.systems import katsura_system
>>> target = katsura_system(2)
>>> supports = augment_with_origin(supports_of(target))
>>> generic, coeffs = random_coefficient_system(
...     supports, np.random.default_rng(0))
>>> hom = CoefficientHomotopy(supports, coeffs, target, gamma=0.6 + 0.8j)
>>> x = np.array([0.3 + 0.1j, -0.2j, 0.5])
>>> np.allclose(hom.evaluate(x, 1.0), target.evaluate(x))   # H(., 1) == F
True
>>> np.allclose(hom.evaluate(x, 0.0),
...             (0.6 + 0.8j) * generic.evaluate(x))         # H(., 0) == gG
True
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import Term, TermHomotopy
from ..polyhedral.supports import coefficient_system
from ..polynomials import PolynomialSystem
from .convex import random_gamma
from .projective import repatch

__all__ = ["CoefficientHomotopy"]


class CoefficientHomotopy(TermHomotopy):
    """Convex coefficient blend between a cached generic system and a
    target sharing its supports.

    Parameters
    ----------
    supports:
        One ``(m_i, nvars)`` exponent array per equation — the cached
        (usually origin-augmented) supports the generic system was
        drawn on.
    generic_coefficients:
        Row-aligned coefficients of the cached generic system
        (``coefficients[i][k]`` belongs to ``supports[i][k]``).
    target:
        The query system.  Every target monomial must appear in the
        supports (a :class:`ValueError` otherwise — the caller should
        treat that as a structure mismatch and fall back to the cold
        ab-initio route); support rows the target lacks get a zero
        target coefficient, so ``H(., 1)`` *is* the target.
    gamma, rng:
        The gamma twist (drawn from ``rng`` when not given).
    kernel:
        Evaluation backend (see :mod:`repro.kernels`).
    """

    def __init__(
        self,
        supports: Sequence[np.ndarray],
        generic_coefficients: Sequence[np.ndarray],
        target: PolynomialSystem,
        gamma: complex | None = None,
        rng: np.random.Generator | None = None,
        kernel: str | None = None,
    ) -> None:
        if not target.is_square():
            raise ValueError("homotopy continuation needs a square system")
        if len(supports) != target.neqs:
            raise ValueError("supports/target equation count mismatch")
        self.target = target
        self.gamma = random_gamma(rng) if gamma is None else complex(gamma)
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")
        supports = [np.asarray(s, dtype=np.int64) for s in supports]
        self.generic_coefficients = [
            np.asarray(c, dtype=complex) for c in generic_coefficients
        ]
        terms = []
        for i, (support, gcoefs, poly) in enumerate(
            zip(supports, self.generic_coefficients, target)
        ):
            if len(support) != len(gcoefs):
                raise ValueError("support/coefficient row mismatch")
            fmap = {
                tuple(int(e) for e in expo): complex(c)
                for expo, c in poly.terms()
            }
            for a, g in zip(support, gcoefs):
                expo = tuple(int(v) for v in a)
                g = self.gamma * complex(g)
                terms.append(Term(i, expo, g, 0.0))
                terms.append(Term(i, expo, fmap.pop(expo, 0.0j) - g, 1.0))
            if fmap:
                raise ValueError(
                    f"equation {i}: target monomials {sorted(fmap)} are "
                    "outside the cached supports (structure mismatch)"
                )
        super().__init__(target.nvars, terms, kernel)
        # G as a system: what the rescue re-patch homogenizes (~0.2 ms)
        self.start = coefficient_system(supports, self.generic_coefficients)

    # The benchmark's tracer wraps the methods it finds in this class's
    # own namespace, so the inherited ones are listed here by name.
    evaluate_batch = TermHomotopy.evaluate_batch
    jacobian_x_batch = TermHomotopy.jacobian_x_batch
    jacobian_t_batch = TermHomotopy.jacobian_t_batch
    evaluate_and_jacobian_batch = TermHomotopy.evaluate_and_jacobian_batch
    jacobians_batch = TermHomotopy.jacobians_batch
    evaluate = TermHomotopy.evaluate
    jacobian_x = TermHomotopy.jacobian_x
    jacobian_t = TermHomotopy.jacobian_t
    evaluate_and_jacobian_x = TermHomotopy.evaluate_and_jacobian_x

    # tracker-level rescue hook: H is gamma (1-t) G + t F, so the convex
    # homotopy's projective re-patch carries over verbatim
    def rescale_patch(self, x: np.ndarray, t: float):
        return repatch(self, x, t)

    def __repr__(self) -> str:
        return (
            f"CoefficientHomotopy(dim={self.dim}, "
            f"nterms={len(self._terms) // 2}, gamma={self.gamma:.4f})"
        )
