"""The homotopy interface consumed by the path trackers.

A homotopy is any object H(x, t) with x in C^n and t in [0, 1] that can
produce its residual and both partial Jacobians.  Keeping this as a tiny
structural interface (rather than importing concrete homotopy classes) lets
the tracker serve three very different clients without modification:

- polynomial convex-combination homotopies (:mod:`repro.homotopy`),
- determinant-based Pieri homotopies (:mod:`repro.schubert.homotopy`),
- synthetic test homotopies used by the unit tests.

There is one protocol, :class:`BatchHomotopy`: the structure-of-arrays
interface consumed by :class:`~repro.tracker.batch.BatchTracker`, with
``npaths`` points evaluated in one call, each at its own ``t`` (paths in
a batch advance with independent adaptive step sizes, so ``t`` is a
per-path vector).  Its one-point methods (``evaluate``, ``jacobian_x``,
...) are one-row batches, and a path tracked alone is a one-row front.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["BatchHomotopy"]

_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)


def _per_path_t(t, npaths: int) -> np.ndarray:
    """Broadcast a scalar or (npaths,) ``t`` to a float (or complex) vector.

    Real ``t`` — the tracking regime — is kept as float64 exactly as
    before.  Complex ``t`` is passed through: the Cauchy endgame tracks
    paths around small circles ``t = 1 - r e^{i theta}`` in the complex
    time plane, and every vectorized homotopy kernel in this codebase is
    elementwise in ``t``, so complex times flow through unchanged.  A
    float64 or complex128 ``(npaths,)`` array — what every front hands
    down — is returned as it is.
    """
    if (
        type(t) is np.ndarray
        and (t.dtype is _FLOAT or t.dtype is _COMPLEX)
        and t.shape == (npaths,)
    ):
        return t
    tt = np.asarray(t)
    dtype = complex if np.iscomplexobj(tt) else float
    tt = tt.astype(dtype, copy=False)
    if tt.ndim == 0:
        return np.full(npaths, tt[()])
    if tt.shape != (npaths,):
        raise ValueError(f"expected t scalar or shape ({npaths},), got {tt.shape}")
    return tt


class BatchHomotopy(abc.ABC):
    """Structure-of-arrays H : C^(N x n) x [0,1]^N -> C^(N x n).

    ``X`` has shape ``(npaths, dim)`` — one row per path — and ``t`` is a
    scalar or a ``(npaths,)`` vector (each path at its own time).  All
    methods return arrays whose leading axis is the path axis, so one call
    advances the whole active front of a batched tracker.
    """

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Number of variables (and equations); the system is square."""

    @abc.abstractmethod
    def evaluate_batch(self, X: np.ndarray, t) -> np.ndarray:
        """Residuals H(X_i, t_i), shape ``(npaths, dim)``."""

    @abc.abstractmethod
    def jacobian_x_batch(self, X: np.ndarray, t) -> np.ndarray:
        """Jacobians dH/dx per path, shape ``(npaths, dim, dim)``."""

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        """dH/dt per path, shape ``(npaths, dim)``.

        Default: central finite difference clipped to [0, 1]; override
        with the analytic derivative when it is cheap.
        """
        tt = _per_path_t(t, X.shape[0])
        h = 1e-7
        lo = np.maximum(0.0, tt - h)
        hi = np.minimum(1.0, tt + h)
        num = self.evaluate_batch(X, hi) - self.evaluate_batch(X, lo)
        return num / (hi - lo)[:, None]

    def evaluate_and_jacobian_batch(
        self, X: np.ndarray, t
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residuals and dH/dx together (override to share work)."""
        return self.evaluate_batch(X, t), self.jacobian_x_batch(X, t)

    def jacobians_batch(self, X: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        """dH/dx and dH/dt together — the tangent predictor's inputs.

        Override when both Jacobians share underlying evaluations (the
        convex homotopy computes them from one pass over each system).
        """
        return self.jacobian_x_batch(X, t), self.jacobian_t_batch(X, t)

    # -- one point, as a one-row batch ---------------------------------
    # Elementwise batching does not change rounding, so a point sees the
    # same arithmetic however many rows it is evaluated with.
    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.evaluate_batch(np.asarray(x, dtype=complex)[None, :], t)[0]

    def jacobian_x(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.evaluate_and_jacobian_x(x, t)[1]

    def evaluate_and_jacobian_x(self, x, t):
        res, jac = self.evaluate_and_jacobian_batch(
            np.asarray(x, dtype=complex)[None, :], t
        )
        return res[0], jac[0]

    def jacobian_t(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.jacobian_t_batch(np.asarray(x, dtype=complex)[None, :], t)[0]

    # -- rescue hooks (see repro.tracker.rescue) -----------------------
    def rescale_patch(self, x: np.ndarray, t: float):
        """Offer better coordinates for a path escaping at time ``t``.

        Called by the tracker-level rescue pipeline when a path is about
        to be classified DIVERGED mid-way (``0 < t < 1``).  A homotopy
        whose coordinates are a *chart* of some larger space — the
        Pieri determinant homotopies (column-scaling charts) and the
        projective patch of polynomial homotopies — returns
        ``(new_homotopy, new_x)``: the *same geometric path* re-expressed
        in well-scaled coordinates, ready to resume from ``t``.  The
        default returns ``None``: no re-patching available.
        """
        del x, t
        return None

    def finalize_rescued(self, result):
        """Map a rescued path's result back to the caller's coordinates.

        After a rescued path finishes in re-patched coordinates, the
        rescue pipeline passes its :class:`~repro.tracker.result.
        PathResult` through this hook.  The default is the identity;
        the projective patch overrides it to dehomogenize endpoints and
        classify points at infinity.
        """
        return result

    def restrict(self, rows) -> "BatchHomotopy":
        """The batch homotopy seen by the given subset of path rows.

        The trackers cull finished paths from their active front, so a
        batch call may cover any subset of the original rows.  For a
        homogeneous batch (every row tracks the same homotopy) the rows
        are interchangeable and the default returns ``self``; a batch
        whose rows belong to *distinct* member homotopies — the
        :class:`~repro.tracker.stacked.StackedHomotopy` combinator —
        overrides this to slice its ownership vector along.  ``rows``
        index into this object's rows, so restrictions compose.
        """
        del rows
        return self


def require_batch_homotopy(homotopy) -> BatchHomotopy:
    """``homotopy`` itself; anything but a :class:`BatchHomotopy` raises
    ``TypeError`` naming its type, before any sweep runs."""
    if not isinstance(homotopy, BatchHomotopy):
        raise TypeError(f"expected a BatchHomotopy, got {type(homotopy)!r}")
    return homotopy
