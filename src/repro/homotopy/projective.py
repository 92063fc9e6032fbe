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

The patched homotopy implements both tracker protocols, so rescued
fronts can run scalar or batched, and the Cauchy endgame can loop it in
complex time like any other homotopy.
"""

from __future__ import annotations

import numpy as np

from ..polynomials import PolynomialSystem
from ..tracker import BatchHomotopy, HomotopyFunction, PathStatus
from ..tracker.interface import _per_path_t

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


class ProjectivePatchHomotopy(BatchHomotopy, HomotopyFunction):
    """``H(y, t) = [gamma (1-t) G_h(y) + t F_h(y);  c . y - 1]``.

    ``G_h`` and ``F_h`` are the homogenizations of an affine convex
    homotopy's start and target systems (``n`` equations, ``n + 1``
    variables) and ``c`` is the affine patch vector; the last row pins
    the patch, making the system square again.  The same gamma as the
    affine homotopy keeps the tracked path the *same geometric path* —
    only the chart changes.
    """

    def __init__(
        self,
        start_h: PolynomialSystem,
        target_h: PolynomialSystem,
        gamma: complex,
        patch: np.ndarray,
        affine_target: PolynomialSystem | None = None,
        infinity_tol: float = 1e-8,
        residual_tol: float = 1e-6,
        affine_bound: float = 1e3,
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
        self.infinity_tol = float(infinity_tol)
        self.residual_tol = float(residual_tol)
        self.affine_bound = float(affine_bound)
        self._bind_kernel(kernel)

    def _bind_kernel(self, kernel: str | None) -> None:
        from ..kernels import compile_system_kernel, normalize_kernel

        self.kernel = normalize_kernel(kernel)
        if self.kernel is None:
            self._kg = self._kf = None
        else:
            self._kg = compile_system_kernel(self.start_h, self.kernel)
            self._kf = compile_system_kernel(self.target_h, self.kernel)

    @property
    def kernels(self) -> tuple:
        """Bound kernel objects (for stats accounting); may be empty."""
        return tuple(k for k in (self._kg, self._kf) if k is not None)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_kg"] = state["_kf"] = None  # rebound on arrival, not shipped
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_kernel(self.kernel)

    def _pair_eval(self, X: np.ndarray):
        if self._kg is not None:
            return self._kg.evaluate(X), self._kf.evaluate(X)
        return self.start_h.evaluate_many(X), self.target_h.evaluate_many(X)

    def _pair_eval_jac(self, X: np.ndarray):
        if self._kg is not None:
            g, jg = self._kg.evaluate_and_jacobian(X)
            f, jf = self._kf.evaluate_and_jacobian(X)
        else:
            g, jg = self.start_h.evaluate_and_jacobian_many(X)
            f, jf = self.target_h.evaluate_and_jacobian_many(X)
        return g, jg, f, jf

    @property
    def dim(self) -> int:
        return self.start_h.nvars

    # ------------------------------------------------------------------
    # BatchHomotopy protocol (the scalar one is its one-row default)
    # ------------------------------------------------------------------
    def evaluate_batch(self, X: np.ndarray, t) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        tt = _per_path_t(t, X.shape[0])
        g, f = self._pair_eval(X)
        w = self.gamma * (1.0 - tt)
        out = np.empty((X.shape[0], self.dim), dtype=complex)
        out[:, :-1] = w[:, None] * g + tt[:, None] * f
        out[:, -1] = X @ self.patch - 1.0
        return out

    def jacobian_x_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self.evaluate_and_jacobian_batch(X, t)[1]

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        _per_path_t(t, X.shape[0])  # shape check only; dH/dt is t-free
        g, f = self._pair_eval(X)
        out = np.zeros((X.shape[0], self.dim), dtype=complex)
        out[:, :-1] = f - self.gamma * g
        return out

    def evaluate_and_jacobian_batch(self, X, t):
        X = np.asarray(X, dtype=complex)
        tt = _per_path_t(t, X.shape[0])
        g, jg, f, jf = self._pair_eval_jac(X)
        w = self.gamma * (1.0 - tt)
        res = np.empty((X.shape[0], self.dim), dtype=complex)
        res[:, :-1] = w[:, None] * g + tt[:, None] * f
        res[:, -1] = X @ self.patch - 1.0
        jac = np.empty((X.shape[0], self.dim, self.dim), dtype=complex)
        jac[:, :-1] = w[:, None, None] * jg + tt[:, None, None] * jf
        jac[:, -1] = self.patch
        return res, jac

    def jacobians_batch(self, X, t):
        X = np.asarray(X, dtype=complex)
        tt = _per_path_t(t, X.shape[0])
        g, jg, f, jf = self._pair_eval_jac(X)
        w = self.gamma * (1.0 - tt)
        jac_x = np.empty((X.shape[0], self.dim, self.dim), dtype=complex)
        jac_x[:, :-1] = w[:, None, None] * jg + tt[:, None, None] * jf
        jac_x[:, -1] = self.patch
        jac_t = np.zeros((X.shape[0], self.dim), dtype=complex)
        jac_t[:, :-1] = f - self.gamma * g
        return jac_x, jac_t

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
