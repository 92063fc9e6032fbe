"""The convex-combination homotopy with the gamma trick (paper eq. (1)).

    H(x, t) = gamma * (1 - t) * G(x) + t * F(x)

For all but finitely many complex ``gamma`` on the unit circle, every
solution path of ``H`` is regular and bounded for t in [0, 1) — the
probability-one guarantee that makes homotopy continuation reliable.

The class implements both tracker protocols: the scalar
:class:`HomotopyFunction` (one point, one t) and the structure-of-arrays
:class:`BatchHomotopy` (N points, each at its own t), where residuals and
Jacobians of both polynomial systems come from one shared monomial-table
evaluation per batch via
:meth:`~repro.polynomials.PolynomialSystem.evaluate_and_jacobian_many`.
"""

from __future__ import annotations

import cmath

import numpy as np

from ..polynomials import PolynomialSystem
from ..telemetry import active_tracer, maybe_span
from ..tracker import BatchHomotopy, HomotopyFunction
from ..tracker.interface import _per_path_t
from .projective import repatch

__all__ = ["ConvexHomotopy", "random_gamma"]


def random_gamma(rng: np.random.Generator | None = None) -> complex:
    """A uniformly random point on the unit circle (the gamma trick)."""
    rng = np.random.default_rng() if rng is None else rng
    return cmath.exp(2j * cmath.pi * rng.random())


class ConvexHomotopy(BatchHomotopy, HomotopyFunction):
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
        self._bind_kernel(kernel)

    def _bind_kernel(self, kernel: str | None) -> None:
        from ..kernels import KernelUsage, compile_system_kernel, normalize_kernel

        self.kernel = normalize_kernel(kernel)
        if self.kernel is None:
            self._kg = self._kf = None
        else:
            self._kg = compile_system_kernel(self.start, self.kernel)
            self._kf = compile_system_kernel(self.target, self.kernel)
        # delta accounting from this moment on: memoized kernels carry
        # cumulative counters from earlier solves in the same process
        self.kernel_usage = KernelUsage(self.kernels)

    @property
    def kernels(self) -> tuple:
        """Bound kernel objects (for stats accounting); may be empty."""
        return tuple(k for k in (self._kg, self._kf) if k is not None)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_kg"] = state["_kf"] = None  # rebound on arrival, not shipped
        state.pop("kernel_usage", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_kernel(self.kernel)

    # ------------------------------------------------------------------
    # backend seam: every evaluation of G and F funnels through these
    # ------------------------------------------------------------------
    def _pair_eval(self, X: np.ndarray):
        with maybe_span(active_tracer(), "evaluate", "kernel"):
            if self._kg is not None:
                return self._kg.evaluate(X), self._kf.evaluate(X)
            return self.start.evaluate_many(X), self.target.evaluate_many(X)

    def _pair_eval_jac(self, X: np.ndarray):
        with maybe_span(active_tracer(), "evaluate_and_jacobian", "kernel"):
            if self._kg is not None:
                g, jg = self._kg.evaluate_and_jacobian(X)
                f, jf = self._kf.evaluate_and_jacobian(X)
            else:
                g, jg = self.start.evaluate_and_jacobian_many(X)
                f, jf = self.target.evaluate_and_jacobian_many(X)
        return g, jg, f, jf

    @property
    def dim(self) -> int:
        return self.target.nvars

    # The scalar protocol is BatchHomotopy's one-row default.  The
    # benchmark's tracer wraps the methods it finds in this class's own
    # namespace, so the inherited ones are listed here by name.
    evaluate = BatchHomotopy.evaluate
    jacobian_x = BatchHomotopy.jacobian_x
    jacobian_t = BatchHomotopy.jacobian_t
    evaluate_and_jacobian_x = BatchHomotopy.evaluate_and_jacobian_x

    # ------------------------------------------------------------------
    # BatchHomotopy: N paths, each at its own t, in one vectorized call
    # ------------------------------------------------------------------
    def _batch_parts(self, X: np.ndarray, t):
        """Shared per-batch intermediates: (tt, w, g, f, jg, jf).

        Both Jacobian-producing methods assemble their outputs from this
        single evaluation pass, which keeps their arithmetic (and hence
        the row-of-front identity) in one place.
        """
        tt = _per_path_t(t, X.shape[0])
        g, jg, f, jf = self._pair_eval_jac(X)
        w = self.gamma * (1.0 - tt)
        return tt, w, g, f, jg, jf

    def evaluate_batch(self, X: np.ndarray, t) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        tt = _per_path_t(t, X.shape[0])
        g, f = self._pair_eval(X)
        w = self.gamma * (1.0 - tt)
        return w[:, None] * g + tt[:, None] * f

    def jacobian_x_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self.evaluate_and_jacobian_batch(X, t)[1]

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        _per_path_t(t, X.shape[0])  # shape check only; dH/dt is t-free
        g, f = self._pair_eval(X)
        return f - self.gamma * g

    def evaluate_and_jacobian_batch(self, X, t):
        X = np.asarray(X, dtype=complex)
        tt, w, g, f, jg, jf = self._batch_parts(X, t)
        res = w[:, None] * g + tt[:, None] * f
        jac = w[:, None, None] * jg + tt[:, None, None] * jf
        return res, jac

    def jacobians_batch(self, X, t):
        """dH/dx and dH/dt from a single pass over each system."""
        X = np.asarray(X, dtype=complex)
        tt, w, g, f, jg, jf = self._batch_parts(X, t)
        jac_x = w[:, None, None] * jg + tt[:, None, None] * jf
        jac_t = f - self.gamma * g
        return jac_x, jac_t

    # ------------------------------------------------------------------
    # tracker-level rescue hook (see repro.tracker.rescue)
    # ------------------------------------------------------------------
    def rescale_patch(self, x: np.ndarray, t: float):
        return repatch(self, x, t)

    def __repr__(self) -> str:
        return f"ConvexHomotopy(dim={self.dim}, gamma={self.gamma:.4f})"
