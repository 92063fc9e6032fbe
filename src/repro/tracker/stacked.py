"""Stacking distinct same-shape homotopies into one SoA batch.

PR 1's :class:`~repro.tracker.batch.BatchTracker` assumed every row of a
batch tracks the *same* homotopy from a different start point.  The Pieri
tree breaks that assumption: one tree level holds many edges, each with
its own determinant homotopy (its own localization pattern, gamma twists
and moving plane), but all of the *same shape* — level-``n`` edges all
have ``dim == n``.  :class:`StackedHomotopy` glues such a family into a
single :class:`~repro.tracker.interface.BatchHomotopy`: every path row is
*owned* by one member homotopy, and each batched call partitions the rows
by owner, delegates to the members, and scatters the answers back.

Every member is a :class:`~repro.tracker.interface.BatchHomotopy` (the
vectorized :class:`~repro.schubert.homotopy.PieriEdgeHomotopy`, say),
handed the rows it owns as one batch.

Because the tracker culls finished paths from its active front, a batch
homotopy must be able to follow: :meth:`StackedHomotopy.restrict` returns
a view whose ownership vector is sliced to the surviving rows (the
default :meth:`~repro.tracker.interface.BatchHomotopy.restrict` is a
no-op because homogeneous batches are row-independent).

Track three paths of two different 1-dim homotopies in one front:

>>> import numpy as np
>>> from repro.tracker import BatchHomotopy, BatchTracker, StackedHomotopy
>>> class Line(BatchHomotopy):
...     '''H(x, t) = x - a t - 1: the single path is x(t) = 1 + a t.'''
...     def __init__(self, a): self.a = a
...     @property
...     def dim(self): return 1
...     def evaluate_batch(self, X, t):
...         return X - self.a * np.reshape(t, (-1, 1)) - 1.0
...     def jacobian_x_batch(self, X, t):
...         return np.ones((len(X), 1, 1), dtype=complex)
...     def jacobian_t_batch(self, X, t):
...         return np.full((len(X), 1), -self.a, dtype=complex)
>>> stack = StackedHomotopy([Line(2.0), Line(-1.0)], [0, 1, 1])
>>> stack.npaths, stack.dim, stack.restrict([2]).npaths
(3, 1, 1)
>>> results = BatchTracker().track_batch(stack, [[1.0], [1.0], [1.0]])
>>> all(r.success for r in results)
True
>>> np.allclose([r.solution[0] for r in results], [3.0, 0.0, 0.0])
True
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .interface import BatchHomotopy, _per_path_t, require_batch_homotopy

__all__ = ["StackedHomotopy"]


class StackedHomotopy(BatchHomotopy):
    """A batch whose rows belong to distinct same-dimension homotopies.

    Parameters
    ----------
    members:
        The distinct homotopies, each a :class:`BatchHomotopy` (anything
        else raises ``TypeError``).  All must share one ``dim``.
    owners:
        For each path row, the index of the member that owns it.  Rows
        owned by the same member are evaluated in one delegated batch
        call, so grouping same-homotopy paths contiguously is natural
        but not required.
    """

    def __init__(self, members: Sequence, owners: Sequence[int]) -> None:
        if not members:
            raise ValueError("need at least one member homotopy")
        self.members: List[BatchHomotopy] = list(members)
        for h in self.members:
            require_batch_homotopy(h)
        dims = {h.dim for h in self.members}
        if len(dims) != 1:
            raise ValueError(
                f"stacked members must share one dim, got {sorted(dims)}"
            )
        owners = np.asarray(owners, dtype=np.int64)
        if owners.ndim != 1:
            raise ValueError("owners must be a 1-d sequence of member indices")
        if owners.size and (
            owners.min() < 0 or owners.max() >= len(self.members)
        ):
            raise ValueError("owner index out of range")
        self.owners = owners
        # rows grouped per member, computed once: the delegation pattern
        # of every batched call below
        self._groups: List[Tuple[int, np.ndarray]] = [
            (k, np.flatnonzero(owners == k)) for k in range(len(self.members))
        ]
        self._groups = [(k, rows) for k, rows in self._groups if rows.size]

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def npaths(self) -> int:
        """Rows this stack expects (a fixed-width batch, unlike members)."""
        return int(self.owners.size)

    def restrict(self, rows) -> "StackedHomotopy":
        """The sub-stack owning the given rows (tracker culling support)."""
        view = object.__new__(StackedHomotopy)
        view.members = self.members
        owners = self.owners[np.asarray(rows, dtype=np.int64)]
        view.owners = owners
        groups = [
            (k, np.flatnonzero(owners == k)) for k in range(len(self.members))
        ]
        view._groups = [(k, r) for k, r in groups if r.size]
        return view

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        if X.ndim != 2 or X.shape != (self.npaths, self.dim):
            raise ValueError(
                f"expected X of shape ({self.npaths}, {self.dim}), "
                f"got {X.shape}"
            )
        return X

    # ------------------------------------------------------------------
    def evaluate_batch(self, X: np.ndarray, t) -> np.ndarray:
        X = self._check(X)
        tt = _per_path_t(t, X.shape[0])
        out = np.empty_like(X)
        for k, rows in self._groups:
            out[rows] = self.members[k].evaluate_batch(X[rows], tt[rows])
        return out

    def jacobian_x_batch(self, X: np.ndarray, t) -> np.ndarray:
        X = self._check(X)
        tt = _per_path_t(t, X.shape[0])
        out = np.empty((X.shape[0], self.dim, self.dim), dtype=complex)
        for k, rows in self._groups:
            out[rows] = self.members[k].jacobian_x_batch(X[rows], tt[rows])
        return out

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        X = self._check(X)
        tt = _per_path_t(t, X.shape[0])
        out = np.empty_like(X)
        for k, rows in self._groups:
            out[rows] = self.members[k].jacobian_t_batch(X[rows], tt[rows])
        return out

    def evaluate_and_jacobian_batch(self, X, t):
        X = self._check(X)
        tt = _per_path_t(t, X.shape[0])
        res = np.empty_like(X)
        jac = np.empty((X.shape[0], self.dim, self.dim), dtype=complex)
        for k, rows in self._groups:
            res[rows], jac[rows] = self.members[k].evaluate_and_jacobian_batch(
                X[rows], tt[rows]
            )
        return res, jac

    def jacobians_batch(self, X, t):
        X = self._check(X)
        tt = _per_path_t(t, X.shape[0])
        jx = np.empty((X.shape[0], self.dim, self.dim), dtype=complex)
        jt = np.empty_like(X)
        for k, rows in self._groups:
            jx[rows], jt[rows] = self.members[k].jacobians_batch(
                X[rows], tt[rows]
            )
        return jx, jt

    def __repr__(self) -> str:
        return (
            f"StackedHomotopy({len(self.members)} members, "
            f"{self.npaths} paths, dim={self.dim})"
        )
