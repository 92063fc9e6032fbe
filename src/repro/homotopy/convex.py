"""The convex-combination homotopy with the gamma trick (paper eq. (1)).

    H(x, t) = gamma * (1 - t) * G(x) + t * F(x)

For all but finitely many complex ``gamma`` on the unit circle, every
solution path of ``H`` is regular and bounded for t in [0, 1) — the
probability-one guarantee that makes homotopy continuation reliable.

Eq. (1) is written once, in :func:`blend_terms`: a parametric term list
over the union of the two supports, which makes :class:`ConvexHomotopy`
(and through it the warm route's :class:`~repro.homotopy.coefficient.
CoefficientHomotopy` and the rescue chart :class:`~repro.homotopy.
projective.ProjectivePatchHomotopy`) a :class:`~repro.kernels.
TermHomotopy` — one kernel call per evaluation, the SLP tape under
``kernel="slp"`` and the reference term kernel otherwise, the tracker's
one homotopy protocol (:class:`~repro.tracker.BatchHomotopy`) inherited.
"""

from __future__ import annotations

import cmath
from typing import List

import numpy as np

from ..kernels import Term, TermHomotopy
from ..polynomials import PolynomialSystem

__all__ = ["ConvexHomotopy", "blend_terms", "random_gamma"]


def random_gamma(rng: np.random.Generator | None = None) -> complex:
    """A uniformly random point on the unit circle (the gamma trick)."""
    rng = np.random.default_rng() if rng is None else rng
    return cmath.exp(2j * cmath.pi * rng.random())


def blend_terms(
    start: PolynomialSystem, target: PolynomialSystem, gamma: complex
) -> List[Term]:
    """Eq. (1) as a term list in the *reversed* time ``s = 1 - t``:

        gamma (1 - t) G + t F  =  F + s (gamma G - F)

    Per equation, over the sorted union of the two supports, every
    monomial gets the pair ``(c_F, eta=0)`` and ``(gamma c_G - c_F,
    eta=1)`` — zero coefficients included, so the structure (and with it
    the memoized tape) depends on the supports alone and systems that
    differ only in coefficients share one.  Why ``s`` and not ``t``: see
    :class:`_BlendHomotopy`.
    """
    terms: List[Term] = []
    for i, (g, f) in enumerate(zip(start, target)):
        cg, cf = g.coefficients(), f.coefficients()
        for expo in sorted(cg.keys() | cf.keys()):
            c = cf.get(expo, 0j)
            terms.append(Term(i, expo, c, 0.0))
            terms.append(Term(i, expo, gamma * cg.get(expo, 0j) - c, 1.0))
    return terms


class _BlendHomotopy(TermHomotopy):
    """A term list holding :func:`blend_terms`: the kernel's time is
    ``s = 1 - t``, and that is arithmetic, not style.

    A diverging path has ``|x| -> inf`` as ``t -> 1``; in the forward
    form ``gamma G t^0 + (F - gamma G) t^1`` the start system's share
    ``gamma c x^d - gamma c x^d t`` then cancels to a relative error of
    ``1e-16 / (1 - t)`` (cyclic-5 total degree: the ~28 paths that
    otherwise end DIVERGED all end FAILED, and rescue has nothing to
    re-patch).  In
    ``s`` the share that must stay accurate, ``gamma s G``, is one
    product with the exactly computed ``1 - t``.  Complex ``t`` (the
    Cauchy endgame's circles) passes through.
    """

    def _args(self, X, t):
        X, tt = super()._args(X, t)
        return X, 1.0 - tt

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        return -super().jacobian_t_batch(X, t)  # d/dt = -d/ds

    def jacobians_batch(self, X, t):
        jac_x, jac_s = super().jacobians_batch(X, t)
        return jac_x, -jac_s


class ConvexHomotopy(_BlendHomotopy):
    """H(x,t) = gamma (1-t) G(x) + t F(x) between polynomial systems."""

    def __init__(
        self,
        start: PolynomialSystem,
        target: PolynomialSystem,
        gamma: complex | None = None,
        rng: np.random.Generator | None = None,
        kernel: str | None = None,
    ) -> None:
        if start.nvars != target.nvars or start.neqs != target.neqs:
            raise ValueError("start and target systems must have equal shape")
        if not target.is_square():
            raise ValueError("homotopy continuation needs a square system")
        self.start = start
        self.target = target
        self.gamma = random_gamma(rng) if gamma is None else complex(gamma)
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")
        super().__init__(
            target.nvars, blend_terms(start, target, self.gamma), kernel
        )

    # The benchmark's tracer wraps the methods it finds in this class's
    # own namespace, so the inherited ones are listed here by name.
    evaluate_batch = _BlendHomotopy.evaluate_batch
    jacobian_x_batch = _BlendHomotopy.jacobian_x_batch
    jacobian_t_batch = _BlendHomotopy.jacobian_t_batch
    evaluate_and_jacobian_batch = _BlendHomotopy.evaluate_and_jacobian_batch
    jacobians_batch = _BlendHomotopy.jacobians_batch
    evaluate = _BlendHomotopy.evaluate
    jacobian_x = _BlendHomotopy.jacobian_x
    jacobian_t = _BlendHomotopy.jacobian_t
    evaluate_and_jacobian_x = _BlendHomotopy.evaluate_and_jacobian_x

    # tracker-level rescue hook (see repro.tracker.rescue)
    def rescale_patch(self, x: np.ndarray, t: float):
        from .projective import repatch  # imported late: it imports this module

        return repatch(self, x, t)

    def __repr__(self) -> str:
        return f"ConvexHomotopy(dim={self.dim}, gamma={self.gamma:.4f})"
