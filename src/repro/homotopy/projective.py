"""Projective re-patching: the rescue hook for plain polynomial systems.

A diverging path of an affine polynomial homotopy is (generically) a
path converging to a root *at infinity* of the target system.  In
projective space nothing diverges: homogenize both systems with one
extra coordinate ``y_h``, cut projective space with an affine patch
hyperplane ``c . y = 1``, and the escaping path becomes a bounded path
whose endpoint has ``y_h -> 0``.  That is exactly the shape of the
tracker-level rescue protocol (:mod:`repro.tracker.rescue`):

- :func:`repatch` (the ``rescale_patch`` of
  :class:`~repro.homotopy.convex.ConvexHomotopy` and
  :class:`~repro.homotopy.coefficient.CoefficientHomotopy`) builds a
  :class:`ProjectivePatchHomotopy` whose patch vector is the conjugate
  of the current (normalized) point — so the re-patched start satisfies
  the patch equation exactly and is perfectly scaled (unit norm);
- the tracker resumes the same path in patch coordinates from the
  reached ``t``;
- :meth:`ProjectivePatchHomotopy.finalize_rescued` maps the finished
  endpoint back: ``y_h`` comfortably away from zero dehomogenizes to an
  ordinary affine solution, ``y_h ~ 0`` classifies the path
  AT_INFINITY with the (normalized) projective representative as its
  solution.

The patched homotopy is a term list like the affine one (the blend of
the homogenized pair plus the patch row), so rescued fronts run through
the same kernels, and the Cauchy endgame can loop it in complex time
like any other homotopy.
"""

from __future__ import annotations

import numpy as np

from ..kernels import Term
from ..polynomials import PolynomialSystem
from ..tracker import PathStatus
from .convex import _BlendHomotopy, blend_terms

__all__ = ["homogenized_pair", "repatch", "ProjectivePatchHomotopy"]


def homogenized_pair(start: PolynomialSystem, target: PolynomialSystem):
    """Homogenize a start/target pair with one shared extra variable.

    The extra coordinate is appended *last* (the convention of
    :meth:`repro.polynomials.Polynomial.homogenize`), so an affine point
    ``x`` lifts to ``[x, 1]`` and a patch point ``y`` with ``y_h != 0``
    drops back to ``y[:-1] / y_h``.
    """
    start_h = PolynomialSystem([p.homogenize() for p in start])
    target_h = PolynomialSystem([p.homogenize() for p in target])
    return start_h, target_h


def repatch(homotopy, x: np.ndarray, t: float):
    """Re-express an escaping path of ``gamma (1-t) G + t F`` in
    projective patch coordinates.

    ``homotopy`` names its systems ``start`` and ``target`` and carries
    ``gamma``, ``kernel`` and ``kernel_usage``.  The path of the affine
    homotopy with coordinates blowing up is, in projective space, a
    perfectly ordinary path heading for the hyperplane at infinity.
    Lift the current point to ``[x, 1]``, normalize it, and choose the
    patch hyperplane ``c = conj(y0)`` so that ``c . y0 = |y0|^2 = 1``
    exactly: the re-patched start is unit-normalized and satisfies the
    patch equation to machine precision.  Returns
    ``(ProjectivePatchHomotopy, y0)``; the homogenized systems are built
    once and cached on ``homotopy``.
    """
    if t <= 0.0 or t >= 1.0:
        return None
    x = np.asarray(x, dtype=complex)
    if not np.all(np.isfinite(x)):
        return None
    cached = getattr(homotopy, "_homogenized", None)
    if cached is None:
        cached = homogenized_pair(homotopy.start, homotopy.target)
        homotopy._homogenized = cached
    start_h, target_h = cached
    y0 = np.concatenate([x, [1.0 + 0j]])
    y0 = y0 / np.linalg.norm(y0)
    patched = ProjectivePatchHomotopy(
        start_h,
        target_h,
        homotopy.gamma,
        np.conj(y0),
        affine_target=homotopy.target,
        kernel=homotopy.kernel,
    )
    homotopy.kernel_usage.add(patched.kernels)
    return patched, y0


class ProjectivePatchHomotopy(_BlendHomotopy):
    """``H(y, t) = [gamma (1-t) G_h(y) + t F_h(y);  c . y - 1]``.

    ``G_h`` and ``F_h`` are the homogenizations of an affine convex
    homotopy's start and target systems (``n`` equations, ``n + 1``
    variables) and ``c`` is the affine patch vector; the last row pins
    the patch, making the system square again.  The same gamma as the
    affine homotopy keeps the tracked path the *same geometric path* —
    only the chart changes.  As a term list: the blend of the
    homogenized pair plus ``n + 2`` time-free terms in equation ``n``
    (``c_j y_j`` and ``-1``), whose ``d/dt`` row is zero by construction.
    """

    # thresholds of finalize_rescued's three-way classification
    infinity_tol = 1e-8
    residual_tol = 1e-6
    affine_bound = 1e3

    def __init__(
        self,
        start_h: PolynomialSystem,
        target_h: PolynomialSystem,
        gamma: complex,
        patch: np.ndarray,
        affine_target: PolynomialSystem | None = None,
        kernel: str | None = None,
    ) -> None:
        if start_h.nvars != target_h.nvars:
            raise ValueError("homogenized systems must share variables")
        if start_h.neqs != target_h.neqs or start_h.neqs + 1 != start_h.nvars:
            raise ValueError(
                "need n homogeneous equations in n + 1 variables"
            )
        patch = np.asarray(patch, dtype=complex)
        if patch.shape != (start_h.nvars,):
            raise ValueError(f"patch must have shape ({start_h.nvars},)")
        self.start_h = start_h
        self.target_h = target_h
        self.gamma = complex(gamma)
        self.patch = patch
        self.affine_target = affine_target
        n, nvars = start_h.neqs, start_h.nvars
        terms = blend_terms(start_h, target_h, self.gamma)
        for j, c in enumerate(patch):
            unit = tuple(int(k == j) for k in range(nvars))
            terms.append(Term(n, unit, complex(c)))
        terms.append(Term(n, (0,) * nvars, -1.0 + 0j))
        super().__init__(nvars, terms, kernel)

    # ------------------------------------------------------------------
    # rescue protocol
    # ------------------------------------------------------------------
    def finalize_rescued(self, result):
        """Dehomogenize a finished patch endpoint, or flag infinity.

        Three-way, scale-invariant classification.  ``|y_h| <=
        infinity_tol * max|y|`` is a clean point at infinity.
        Otherwise the point dehomogenizes; an affine residual within
        ``residual_tol`` is an honest finite solution, while a *bad*
        affine residual at a large dehomogenized norm (``>=
        affine_bound``) is the signature of a singular root at infinity
        that the patch endgame could not fully pin down — still
        AT_INFINITY, reported with the unit-normalized projective
        representative.  (Roots at infinity of deficient systems are
        typically singular points of the homogenization, which is
        exactly why their affine paths were the slow diverging ones.)
        Anything else is FAILED, which makes the rescue pipeline keep
        the original diverged result.  Endgame annotations (a root at
        infinity can carry a winding number too) survive untouched.
        """
        if result.status not in (PathStatus.SUCCESS, PathStatus.SINGULAR):
            return result  # rescue failed; the pipeline keeps the original
        y = np.asarray(result.solution, dtype=complex)
        scale = float(np.max(np.abs(y)))
        if scale == 0.0 or not np.all(np.isfinite(y)):
            result.status = PathStatus.FAILED
            return result
        if abs(y[-1]) <= self.infinity_tol * scale:
            result.status = PathStatus.AT_INFINITY
            result.solution = y / np.linalg.norm(y)
            return result
        x = y[:-1] / y[-1]
        residual = result.residual
        if self.affine_target is not None:
            residual = float(np.max(np.abs(self.affine_target.evaluate(x))))
        if residual <= self.residual_tol:
            result.solution = x
            result.residual = residual
            return result
        if float(np.max(np.abs(x))) >= self.affine_bound:
            result.status = PathStatus.AT_INFINITY
            result.solution = y / np.linalg.norm(y)
            return result
        result.status = PathStatus.FAILED
        return result

    def __repr__(self) -> str:
        return (
            f"ProjectivePatchHomotopy(dim={self.dim}, "
            f"gamma={self.gamma:.4f})"
        )
