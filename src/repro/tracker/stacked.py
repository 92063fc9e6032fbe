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


def _row_groups(owners: np.ndarray, members) -> List[Tuple[int, object]]:
    """``(member, rows it owns)`` for each of ``members`` owning a row:
    the delegation pattern of every batched call of a stack.  Evenly
    spaced rows — one member's, or each of the alternating owners of a
    Pieri level — are a slice, so a call gathers and scatters views."""
    if len(members) == 1:
        return [(members[0], slice(None))] if owners.size else []
    groups = []
    for k in members:
        rows = (owners == k).nonzero()[0]
        if rows.size == 0:
            continue
        first, last = int(rows[0]), int(rows[-1])
        step = (last - first) // max(rows.size - 1, 1) or 1
        if first + step * (rows.size - 1) == last and (
            rows.size < 3 or (rows[1:] - rows[:-1] == step).all()
        ):
            rows = slice(first, last + 1, step)
        groups.append((k, rows))
    return groups


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
        self._dim = self.members[0].dim
        self._groups = _row_groups(owners, range(len(self.members)))

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def npaths(self) -> int:
        """Rows this stack expects (a fixed-width batch, unlike members)."""
        return int(self.owners.size)

    def restrict(self, rows) -> "StackedHomotopy":
        """The sub-stack owning the given rows (tracker culling support)."""
        view = object.__new__(StackedHomotopy)
        view.members = self.members
        view._dim = self._dim
        view.owners = self.owners[np.asarray(rows, dtype=np.int64)]
        # restriction composes: only this stack's owners can own a row
        view._groups = _row_groups(view.owners, [k for k, _ in self._groups])
        return view

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        if X.shape != (self.owners.size, self._dim):
            raise ValueError(
                f"expected X of shape ({self.npaths}, {self.dim}), "
                f"got {X.shape}"
            )
        return X

    def _delegate(self, method: str, X, t):
        """Each member's ``method`` on the rows it owns, scattered back
        into full-width outputs (one array, or a tuple as the member
        returns).  A member that owns every row is handed ``X`` and the
        times as they are, and its answer is the stack's."""
        X = self._check(X)
        tt = _per_path_t(t, X.shape[0])
        if len(self._groups) < 2:
            k = self._groups[0][0] if self._groups else 0
            return getattr(self.members[k], method)(X, tt)
        outs = None
        for k, rows in self._groups:
            part = getattr(self.members[k], method)(X[rows], tt[rows])
            parts = part if isinstance(part, tuple) else (part,)
            if outs is None:
                outs = [
                    np.empty((X.shape[0],) + a.shape[1:], dtype=complex)
                    for a in parts
                ]
            for out, a in zip(outs, parts):
                out[rows] = a
        return tuple(outs) if isinstance(part, tuple) else outs[0]

    # ------------------------------------------------------------------
    def evaluate_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._delegate("evaluate_batch", X, t)

    def jacobian_x_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._delegate("jacobian_x_batch", X, t)

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._delegate("jacobian_t_batch", X, t)

    def evaluate_and_jacobian_batch(self, X, t):
        return self._delegate("evaluate_and_jacobian_batch", X, t)

    def jacobians_batch(self, X, t):
        return self._delegate("jacobians_batch", X, t)

    def __repr__(self) -> str:
        return (
            f"StackedHomotopy({len(self.members)} members, "
            f"{self.npaths} paths, dim={self.dim})"
        )
