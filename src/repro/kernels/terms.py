"""Parametric term lists ``sum c * t^eta * x^a``: the reference
evaluator and the homotopy base class that evaluates through a kernel.

Every polynomial homotopy in this codebase is nothing but such a list
— the polyhedral :class:`~repro.polyhedral.CellHomotopy` (``eta`` =
the lifted slack of each path's cell, per-row data) and the three
faces of paper eq. (1), ``eta`` in {0, 1}
(:class:`~repro.homotopy.convex.ConvexHomotopy`, the warm route's
:class:`~repro.homotopy.coefficient.CoefficientHomotopy` and the rescue
chart :class:`~repro.homotopy.projective.ProjectivePatchHomotopy`, all
on :func:`~repro.homotopy.convex.blend_terms`) — so all four are a
:class:`TermHomotopy`: a constructor that builds
:class:`~repro.kernels.Term` objects, bound through
:func:`~repro.kernels.compile_term_kernel` to either the SLP tape or
:class:`NaiveTermKernel`, the one place the triplet-scatter reference
arithmetic for term lists lives.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from ..polynomials.system import _CompiledTables
from ..telemetry import active_tracer, maybe_span
from ..tracker.interface import BatchHomotopy, _per_path_t
from .slp import KernelStats, Term, time_derivative_rows

__all__ = ["NaiveTermKernel", "TermHomotopy"]


class NaiveTermKernel:
    """Power-table + ``np.add.at`` evaluation of a parametric term list,
    with :class:`~repro.kernels.SLPKernel`'s four-method signature.

    Monomials come from the shape-stable power table of
    :class:`~repro.polynomials.PolynomialSystem`; fixed time powers are
    one scalar-exponent ``tt ** eta`` per distinct exponent, and the
    ``eta=None`` terms read their exponents ``E`` per call, filling
    their time rows the way the SLP tape does (one array-exponent
    ``tt ** E`` and one :func:`~repro.kernels.slp.time_derivative_rows`).
    Every other operation is elementwise along the point axis, so a row
    of a batch is bit-identical to that row evaluated alone.  This is
    the oracle the SLP tape is cross-checked against.
    """

    backend = "naive"

    def __init__(self, neqs: int, nvars: int, terms: Sequence[Term]) -> None:
        t0 = time.perf_counter()
        tb = self._tables = _CompiledTables(
            ((t.row, t.expo, t.coeff) for t in terms), nvars
        )
        per_row = np.array([t.eta is None for t in terms], dtype=bool)
        eta = np.array([t.eta or 0.0 for t in terms], dtype=float)
        scalar = np.flatnonzero(~per_row & (eta > 0.0))  # dH/dt keeps these
        self._etas, power = np.unique(
            np.concatenate([eta[~per_row], eta[scalar] - 1.0]),
            return_inverse=True,
        )
        # time-power rows: the distinct fixed exponents, then t^E and
        # E t^(E-1), one each per eta=None term
        nfix, nrow = len(self._etas), int(per_row.sum())
        self._n_rows = nrow
        own, dpower = np.empty((2, len(eta)), dtype=np.intp)
        own[~per_row], dpower[scalar] = np.split(power, [len(eta) - nrow])
        own[per_row] = nfix + np.arange(nrow)
        dpower[per_row] = nfix + nrow + np.arange(nrow)
        moving = np.flatnonzero(per_row | (eta > 0.0))
        eta[per_row] = 1.0  # their E sits in the time row, not here
        # per output: (scatter index, coefficients, time-power row,
        # monomial column, trailing shape)
        self._res = (tb.res_rows, tb.res_coefs, own, tb.res_cols, (neqs,))
        self._jac = (
            (tb.jac_rows, tb.jac_vars),
            tb.jac_coefs,
            own[tb.jac_term],
            tb.jac_cols,
            (neqs, nvars),
        )
        self._dt = (
            tb.res_rows[moving],
            tb.res_coefs[moving] * eta[moving],
            dpower[moving],
            tb.res_cols[moving],
            (neqs,),
        )
        self.stats = KernelStats(
            backend=self.backend,
            tape_ops=len(tb.res_rows) + len(tb.jac_rows),
            n_terms=len(eta),
            taping_seconds=time.perf_counter() - t0,
        )

    def _run(self, X: np.ndarray, tt: np.ndarray, E, *outputs):
        self.stats.record(X.shape[0])
        outs = []
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            mono = self._tables.monomial_values_many(X)
            nfix, nrow = len(self._etas), self._n_rows
            tpow = np.empty((nfix + 2 * nrow, len(tt)), dtype=tt.dtype)
            for k, eta in enumerate(self._etas):
                tpow[k] = tt ** eta
            if nrow:
                tpow[nfix : nfix + nrow] = tt ** E
                tpow[nfix + nrow :] = time_derivative_rows(tt, E)
            for where, coefs, power, cols, shape in outputs:
                out = np.zeros(shape + (X.shape[0],), dtype=complex)
                np.add.at(
                    out, where, coefs[:, None] * tpow[power] * mono[:, cols].T
                )
                # point axis first (np.moveaxis costs 3 us a thin call)
                outs.append(out.transpose(out.ndim - 1, *range(out.ndim - 1)))
        return outs[0] if len(outs) == 1 else tuple(outs)

    def evaluate(self, X: np.ndarray, tt: np.ndarray, E=None) -> np.ndarray:
        """Residuals, shape ``(npts, neqs)``."""
        return self._run(X, tt, E, self._res)

    def evaluate_and_jacobian(self, X: np.ndarray, tt: np.ndarray, E=None):
        """Residuals and x-Jacobians from one monomial table."""
        return self._run(X, tt, E, self._res, self._jac)

    def jacobian_t(self, X: np.ndarray, tt: np.ndarray, E=None) -> np.ndarray:
        """t-derivatives, shape ``(npts, neqs)``."""
        return self._run(X, tt, E, self._dt)

    def jacobians(self, X: np.ndarray, tt: np.ndarray, E=None):
        """x-Jacobians and t-derivatives from one monomial table."""
        return self._run(X, tt, E, self._jac, self._dt)


class TermHomotopy(BatchHomotopy):
    """A square homotopy given as a term list, evaluated by one kernel.

    ``kernel`` is ``None`` (the reference arithmetic, not accounted),
    ``"naive"`` (the same, reported in solve summaries) or ``"slp"``.
    Kernels do not pickle: a shipped homotopy carries its term list and
    backend name and rebinds on arrival.
    """

    def __init__(
        self, nvars: int, terms: Iterable[Term], kernel: str | None = None
    ) -> None:
        self._nvars = int(nvars)
        self._terms = list(terms)
        self._bind_kernel(kernel)

    def _bind_kernel(self, kernel: str | None) -> None:
        # imported late: the package imports this module
        from . import KernelUsage, compile_term_kernel, normalize_kernel

        self.kernel = normalize_kernel(kernel)
        self._kernel = compile_term_kernel(
            self._nvars, self._nvars, self._terms, self.kernel
        )
        self.kernel_usage = KernelUsage(self.kernels)

    @property
    def kernels(self) -> tuple:
        """Bound kernel objects (for stats accounting); may be empty."""
        return () if self.kernel is None else (self._kernel,)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_kernel"], state["kernel_usage"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_kernel(self.kernel)

    @property
    def dim(self) -> int:
        return self._nvars

    def _args(self, X, t):
        X = np.asarray(X, dtype=complex)
        return X, _per_path_t(t, X.shape[0])

    def _call(self, method: str, X, t):
        """One kernel call; inside a trace, one ``kernel/<method>`` span
        (the per-layer breakdown the report CLI prints)."""
        with maybe_span(active_tracer(), method, "kernel"):
            return getattr(self._kernel, method)(*self._args(X, t))

    def evaluate_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._call("evaluate", X, t)

    def jacobian_x_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._call("evaluate_and_jacobian", X, t)[1]

    def jacobian_t_batch(self, X: np.ndarray, t) -> np.ndarray:
        return self._call("jacobian_t", X, t)

    def evaluate_and_jacobian_batch(self, X, t):
        return self._call("evaluate_and_jacobian", X, t)

    def jacobians_batch(self, X, t):
        return self._call("jacobians", X, t)
