"""Straight-line-program taping with forward-mode AD Jacobians.

This module is the heart of the SLP kernel backend.  A *tape* is
built once per system structure, in three passes:

1. **Taping with hash-consing.**  Every monomial ``x^a`` (and, for
   parametric homotopies, every time power ``t^eta``) is decomposed into
   a chain of binary multiplications.  A term whose time exponent is
   per-row data (``eta=None``: one exponent per point, supplied at each
   call) reads two input rows of its own instead, ``t^eta`` and
   ``eta t^(eta-1)``.  Each multiplication is *interned*
   — ``(mul, a, b)`` with commutatively sorted operands maps to exactly
   one tape node — so shared monomial prefixes and repeated power
   products across all equations collapse into common subexpressions
   automatically.

2. **Forward-mode AD over the tape.**  The derivative of every tape
   node with respect to each input variable is propagated through the
   product rule ``d(u*v) = du*v + u*dv`` as a sparse *linear
   combination* of tape nodes.  Because the product nodes created by
   the AD pass are interned against the same table, derivative
   subexpressions are shared with the primal tape (``d(x^k)/dx``
   collapses to ``k * x^(k-1)``, reusing the power chain), which is how
   the Jacobian tape comes out with no redundant work — the CppAD
   idiom, specialized to polynomial straight-line programs.

3. **Level scheduling.**  Each requested program ("eval", "eval_jac",
   "jac_t", "jac_both") is an output subset of the one tape, replayed
   by a :class:`_Schedule` that numbers the live nodes by
   ``(depth, id)`` into the rows of a ``(nslots, npts)`` work array: one
   ``multiply`` of two row gathers per product *depth*, then one gather,
   one multiply by the constant column and ``max_terms - 1`` prefix
   adds for all linear combinations at once.  A call costs O(depth)
   array operations, not O(instructions) — what a front of a few points
   can afford.  Products and sums are the tape's own, in its
   left-to-right order, and everything is elementwise in the point
   axis, so one row of a batch is bit-identical to that row evaluated
   alone, whichever :data:`BLOCK` of a wide front it falls in.  That
   property is what lets the scalar tracker paths route through the
   same kernels as the batch fronts without perturbing a decision.

Coefficients are *not* part of a schedule: it depends only on the
system's structure (supports and fixed t-exponents), and each term's
coefficient is folded into a constant column at kernel-bind time.
Per-row exponents are not part of it either, so the homotopies of
every mixed cell of a subdivision share one tape.  Two
systems from the same family — the sweep engine's common case —
therefore share one tape and its schedules and differ only in their
constant columns (see :mod:`repro.kernels.cache`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Term", "SLPTape", "SLPKernel", "KernelStats", "build_tape"]


@dataclass(frozen=True)
class Term:
    """One term ``coeff * t^eta * x^expo`` of equation ``row``.

    ``eta == 0`` makes the term a plain polynomial term (the
    :class:`~repro.polynomials.PolynomialSystem` case) and the blends of
    eq. (1) carry ``eta`` in {0, 1}.  ``eta=None`` makes the exponent
    per-row data: each call passes it for every point, as one row of
    ``E`` per such term in term order — the polyhedral cell homotopy,
    whose lifted slacks differ from cell to cell.
    """

    row: int
    expo: Tuple[int, ...]
    coeff: complex
    eta: Optional[float] = 0.0


@dataclass
class KernelStats:
    """Effort accounting for one compiled kernel.

    ``tape_ops`` counts the straight-line operations of the fused
    evaluate+Jacobian program (shared-subexpression multiplies plus
    term accumulations); ``evaluations`` counts *points* evaluated (the
    sum of batch sizes over all calls), ``calls`` the number of kernel
    invocations.  ``taping_seconds`` is zero when the tape came out of
    the structure cache.
    """

    backend: str
    tape_ops: int = 0
    n_terms: int = 0
    taping_seconds: float = 0.0
    cache_hit: bool = False
    calls: int = 0
    evaluations: int = 0

    def record(self, npts: int) -> None:
        self.calls += 1
        self.evaluations += int(npts)

    def snapshot(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# tape construction
# ----------------------------------------------------------------------

_LinComb = Dict[Optional[int], float]  # node id (None == constant 1) -> scale


class _TapeBuilder:
    """Hash-consed straight-line program builder with forward-mode AD."""

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self._intern: Dict[tuple, int] = {}
        self._deriv: Dict[int, Dict[int, _LinComb]] = {}

    def _node(self, key: tuple) -> int:
        idx = self._intern.get(key)
        if idx is None:
            idx = len(self.ops)
            self.ops.append(key)
            self._intern[key] = idx
        return idx

    def var(self, v: int) -> int:
        return self._node(("var", int(v)))

    def tpow(self, e: float) -> Optional[int]:
        e = float(e)
        if e == 0.0:
            return None
        return self._node(("tpow", e))

    def trow(self, kind: str, j: int) -> int:
        """Per-row time input ``j``: ``"tvar"`` is ``t^eta``, ``"dtvar"``
        is ``eta t^(eta-1)``."""
        return self._node((kind, int(j)))

    def mul(self, a: Optional[int], b: Optional[int]) -> Optional[int]:
        if a is None:
            return b
        if b is None:
            return a
        if a > b:
            a, b = b, a  # commutative: canonical operand order
        return self._node(("mul", a, b))

    def monomial(self, expo: Sequence[int]) -> Optional[int]:
        node: Optional[int] = None
        for v, e in enumerate(expo):
            for _ in range(int(e)):
                node = self.mul(node, self.var(v))
        return node

    def deriv(self, node: Optional[int]) -> Dict[int, _LinComb]:
        """Forward-mode derivative of a node w.r.t. every variable.

        Returns ``{var: {node_or_None: scale}}`` — each entry a sparse
        linear combination of (interned) tape nodes.  Time powers have
        zero x-derivative, variables derivative one, and products
        propagate through ``d(u*v) = du*v + u*dv`` with every created
        product interned, so shared structure collapses (e.g. the two
        product-rule branches of ``x * x^(k-1)`` merge into one
        ``k * x^(k-1)`` entry).
        """
        if node is None:
            return {}
        memo = self._deriv.get(node)
        if memo is not None:
            return memo
        op = self.ops[node]
        if op[0] == "var":
            out: Dict[int, _LinComb] = {op[1]: {None: 1.0}}
        elif op[0] != "mul":  # time rows: no x-dependence
            out = {}
        else:
            _, a, b = op
            out = {}
            for other, branch in ((b, self.deriv(a)), (a, self.deriv(b))):
                for v, lin in branch.items():
                    acc = out.setdefault(v, {})
                    for n, s in lin.items():
                        m = self.mul(n, other)
                        acc[m] = acc.get(m, 0.0) + s
        self._deriv[node] = out
        return out


#: one accumulation entry: (term index into the coefficient vector,
#: structural scale factor, tape node or None for the constant 1)
_Entry = Tuple[int, float, Optional[int]]


#: points replayed per pass over a schedule, so that the work arrays of
#: a wide front stay in cache (128 measured best on katsura-9/cyclic-7)
BLOCK = 128


class _Schedule:
    """One program's replay plan: index tables only, no constants.

    Work row 0 is the constant 1, rows ``1..nvars`` the variables, then
    one row ``T ** eta`` per ``(row, eta)`` of ``tpows``, then the
    per-row time rows: ``t^E`` for the ``E`` rows ``trows`` from work
    row ``tlo``, ``E t^(E-1)`` for ``dtrows`` after them; ``levels`` holds
    ``(a, b, lo, hi)`` per product depth — rows ``lo:hi`` are rows ``a``
    times rows ``b``.  ``gather`` names the work row of every
    linear-combination term, j-th terms of all outputs contiguous and
    outputs sorted by falling term count, so ``adds`` — ``(m, off)`` per
    ``j >= 1`` — accumulate prefixes in the tape's left-to-right order.
    ``gather`` rows ``rows`` carry ``coefficients[term] * scale`` (the
    others pad empty outputs with ``0 * 1``); ``sections`` holds, per
    result (``res``/``jac``/``dt``), the accumulator rows of its outputs
    in output order and its trailing shape.
    """

    def __init__(self, tape: "SLPTape", name: str) -> None:
        if name not in ("eval", "eval_jac", "jac_t", "jac_both"):
            raise ValueError(f"unknown SLP program {name!r}")
        neqs, nvars, ops = tape.neqs, tape.nvars, tape.ops
        outputs: List[List[_Entry]] = []
        shapes: List[tuple] = []
        if name in ("eval", "eval_jac"):
            shapes.append((neqs,))
            outputs += tape.res_terms
        if name in ("eval_jac", "jac_both"):
            shapes.append((neqs, nvars))
            cells = np.ndindex(neqs, nvars)
            outputs += [tape.jac_terms.get(iv, []) for iv in cells]
        if name in ("jac_t", "jac_both"):
            shapes.append((neqs,))
            outputs += tape.dt_terms

        # live nodes get work rows; creation order is topological, so
        # one backward sweep closes the set and one forward sweep
        # numbers the products by (depth, id): each depth is one slice
        live = {n for out in outputs for _, _, n in out if n is not None}
        for nid in range(len(ops) - 1, -1, -1):
            if nid in live and ops[nid][0] == "mul":
                live.update(ops[nid][1:])
        slot: Dict[Optional[int], int] = {None: 0}
        self.tpows: List[Tuple[int, float]] = []
        rows_of: Dict[str, List[int]] = {"tvar": [], "dtvar": []}
        depth: Dict[int, int] = {}
        by_depth: Dict[int, List[int]] = {}
        for nid in sorted(live):
            op = ops[nid]
            if op[0] == "var":
                slot[nid] = 1 + op[1]
            elif op[0] == "tpow":
                slot[nid] = 1 + nvars + len(self.tpows)
                self.tpows.append((slot[nid], op[1]))
            elif op[0] in rows_of:
                rows_of[op[0]].append(nid)
            else:
                d = 1 + max(depth.get(op[1], 0), depth.get(op[2], 0))
                depth[nid] = d
                by_depth.setdefault(d, []).append(nid)
        self.nvars = nvars
        self.nslots = self.tlo = 1 + nvars + len(self.tpows)
        for ids in rows_of.values():  # t^E rows, then E t^(E-1) rows,
            # each in E-row order (the order build_tape created them)
            slot.update(zip(ids, range(self.nslots, self.nslots + len(ids))))
            self.nslots += len(ids)
        self.trows, self.dtrows = (
            np.array([ops[n][1] for n in ids], dtype=np.intp)
            for ids in rows_of.values()
        )
        self.levels = []
        for _, ids in sorted(by_depth.items()):
            a = np.array([slot[ops[n][1]] for n in ids], dtype=np.intp)
            b = np.array([slot[ops[n][2]] for n in ids], dtype=np.intp)
            lo, self.nslots = self.nslots, self.nslots + len(ids)
            slot.update(zip(ids, range(lo, self.nslots)))
            self.levels.append((a, b, lo, self.nslots))

        order = sorted(range(len(outputs)), key=lambda p: -len(outputs[p]))
        gather: List[int] = []
        rows, term, scale = [], [], []
        self.adds: List[Tuple[int, int]] = []
        for j in range(max(map(len, outputs), default=0) or 1):
            off = len(gather)
            for p in order:
                if j < len(outputs[p]):
                    k, s, node = outputs[p][j]
                    rows.append(len(gather))
                    term.append(k)
                    scale.append(s)
                    gather.append(slot[node])
                elif j == 0:
                    gather.append(0)
            if j:
                self.adds.append((len(gather) - off, off))
        self.gather = np.array(gather, dtype=np.intp)
        self.rows, self.term = np.array([rows, term], dtype=np.intp)
        self.scale = np.array(scale, dtype=float)
        scatter = np.empty(len(outputs), dtype=np.intp)
        scatter[order] = np.arange(len(outputs))
        cuts = np.cumsum([int(np.prod(shape)) for shape in shapes])[:-1]
        self.sections = list(zip(np.split(scatter, cuts), shapes))
        self.n_ops = len(live) + len(rows)

    def replay(self, X, T, K, E=None):
        """Run the program on ``X`` (``npts, nvars``, complex) and times
        ``T`` with constant column ``K`` and per-row exponents ``E``.

        The work array ``V`` of each block is a reshaped prefix of the
        calling thread's arena (:func:`_work`): row 0 is reset per
        block, every other row is written before it is read, and the
        outputs are fresh arrays, so nothing in the arena outlives the
        call and one row's bits do not depend on what the arena held.
        """
        npts, secs = X.shape[0], self.sections
        outs = [np.empty((npts, len(r)), dtype=complex) for r, _ in secs]
        nrows, width = self.nslots + len(self.gather), 0
        ntr, ndt = self.trows.size, self.dtrows.size
        for lo in range(0, npts, BLOCK):
            hi = min(lo + BLOCK, npts)
            if hi - lo != width:
                width = hi - lo
                V = _work(nrows * width).reshape(nrows, width)
                V[0] = 1.0
                G = V[self.nslots :]
            V[1 : 1 + self.nvars] = X[lo:hi].T
            Tb = None if T is None else T[lo:hi]
            for row, eta in self.tpows:  # scalar exponents: see docs/kernels.md
                V[row] = Tb ** eta
            if ntr or ndt:  # the per-row time rows, t^E then E t^(E-1)
                Eb = E[:, lo:hi]
                V[self.tlo : self.tlo + ntr] = Tb ** Eb.take(self.trows, 0)
                V[self.tlo + ntr : self.tlo + ntr + ndt] = (
                    time_derivative_rows(Tb, Eb.take(self.dtrows, 0)))
            for a, b, s, e in self.levels:
                np.multiply(V.take(a, 0), V.take(b, 0), out=V[s:e])
            # into V's tail rows, not over the gathered operand: numpy
            # rounds a 1x1 product written in place unlike any other shape
            np.multiply(K, V.take(self.gather, 0), out=G)
            for m, off in self.adds:
                acc = G[:m]
                np.add(acc, G[off : off + m], out=acc)
            for out, (r, _) in zip(outs, secs):
                out[lo:hi] = G.take(r, 0).T
        outs = [o.reshape((npts,) + s) for o, (_, s) in zip(outs, secs)]
        return outs[0] if len(outs) == 1 else tuple(outs)


#: each thread's replay work arena: one flat complex buffer, grown to
#: the largest block the thread has replayed and never shrunk (threads
#: of one process replay shared kernels at once, so it is per thread)
_arena = threading.local()


def _work(n):
    """The first ``n`` entries of the calling thread's arena.

    A fresh work array per call is 0.3-1.3 MB, which glibc maps and
    trims again on every call: a page fault per 4 KiB touched."""
    buf = getattr(_arena, "buf", None)
    if buf is None or buf.size < n:
        buf = _arena.buf = np.empty(n, dtype=complex)
    return buf[:n]


def time_derivative_rows(T, E):
    """``E t^(E-1)`` for per-row exponents ``E`` (``nrows, npts``),
    exactly 0 where ``E == 0`` (no NaN at ``t = 0``).

    The exponent is always an array, even when every entry is equal:
    numpy's scalar-exponent ``power`` swaps in ``square``, ``sqrt`` or a
    reciprocal for some values, which round unlike ``pow``, so a row's
    bits would depend on its neighbours' exponents.  The array-exponent
    loop is one elementwise ``pow`` whatever the operand shapes.
    """
    return np.where(E > 0, E * T ** (E - 1), 0.0)


@dataclass
class SLPTape:
    """The structure-only tape: ops, per-output term lists, schedules.

    A tape is shared by every system with the same structure; binding
    concrete coefficients happens in :class:`SLPKernel`.
    """

    neqs: int
    nvars: int
    has_t: bool
    ops: List[tuple]
    res_terms: List[List[_Entry]]
    jac_terms: Dict[Tuple[int, int], List[_Entry]]
    dt_terms: List[List[_Entry]]
    n_terms: int
    build_seconds: float
    _programs: Dict[str, _Schedule] = field(default_factory=dict)

    def program(self, name: str) -> _Schedule:
        prog = self._programs.get(name)
        if prog is None:
            prog = self._programs[name] = _Schedule(self, name)
        return prog

    @property
    def tape_ops(self) -> int:
        """Operation count of the fused eval+Jacobian program."""
        return self.program("eval_jac").n_ops


def build_tape(
    neqs: int, nvars: int, terms: Sequence[Term], has_t: bool = False
) -> SLPTape:
    """Tape a term list into a shared-subexpression SLP with AD Jacobians."""
    t0 = time.perf_counter()
    builder = _TapeBuilder()
    res_terms: List[List[_Entry]] = [[] for _ in range(neqs)]
    jac_terms: Dict[Tuple[int, int], List[_Entry]] = {}
    dt_terms: List[List[_Entry]] = [[] for _ in range(neqs)]
    n_rows = 0
    for k, term in enumerate(terms):
        mono = builder.monomial(term.expo)
        # tnode: t^eta; dt: (scale, node) of the term's dH/dt entry
        if term.eta is None:  # per-row exponent: its time rows are data
            tnode = builder.trow("tvar", n_rows)
            dt = (1.0, builder.trow("dtvar", n_rows))
            n_rows += 1
        elif has_t:
            tnode = builder.tpow(term.eta)
            dt = None
            if term.eta > 0.0:
                dt = (term.eta, builder.tpow(term.eta - 1.0))
        else:
            tnode = dt = None
        value = builder.mul(tnode, mono)
        res_terms[term.row].append((k, 1.0, value))
        for v, lin in builder.deriv(mono).items():
            entries = jac_terms.setdefault((term.row, v), [])
            for n, s in lin.items():
                entries.append((k, s, builder.mul(tnode, n)))
        if dt is not None:
            dt_terms[term.row].append((k, dt[0], builder.mul(dt[1], mono)))
    return SLPTape(
        neqs=neqs,
        nvars=nvars,
        has_t=has_t,
        ops=builder.ops,
        res_terms=res_terms,
        jac_terms=jac_terms,
        dt_terms=dt_terms,
        n_terms=len(terms),
        build_seconds=time.perf_counter() - t0,
    )


# ----------------------------------------------------------------------
# bound kernels
# ----------------------------------------------------------------------


class SLPKernel:
    """A tape bound to concrete coefficients.

    All methods take ``X`` of shape ``(npts, nvars)`` (complex) and, for
    parametric tapes, the per-point time vector ``tt`` and — when the
    term list has ``eta=None`` terms — their exponents ``E``, one row a
    term, shape ``(nrows, npts)``.  Arithmetic is
    elementwise along the point axis, so row ``i`` of any batched call
    is bit-identical to the same call on the one-row batch ``X[i:i+1]``.
    """

    backend = "slp"

    def __init__(
        self,
        tape: SLPTape,
        coefficients: Sequence[complex],
        taping_seconds: float = 0.0,
        cache_hit: bool = False,
    ) -> None:
        if len(coefficients) != tape.n_terms:
            raise ValueError(
                f"tape has {tape.n_terms} terms, got "
                f"{len(coefficients)} coefficients"
            )
        self.tape = tape
        self.coefficients = np.asarray(coefficients, dtype=complex)
        self._bound: Dict[str, tuple] = {}
        self.stats = KernelStats(
            backend=self.backend,
            tape_ops=tape.tape_ops,
            n_terms=tape.n_terms,
            taping_seconds=taping_seconds,
            cache_hit=cache_hit,
        )

    def _run(self, name: str, X: np.ndarray, tt, E):
        bound = self._bound.get(name)
        if bound is None:  # fold the coefficients into the constant column
            prog = self.tape.program(name)
            K = np.zeros((len(prog.gather), 1), dtype=complex)
            K[prog.rows, 0] = self.coefficients[prog.term] * prog.scale
            bound = self._bound[name] = (prog, K)
        X = np.asarray(X, dtype=complex)  # real points evaluate too
        self.stats.record(X.shape[0])
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return bound[0].replay(X, tt, bound[1], E)

    # ------------------------------------------------------------------
    def evaluate(self, X: np.ndarray, tt=None, E=None) -> np.ndarray:
        """Residuals, shape ``(npts, neqs)``."""
        return self._run("eval", X, tt, E)

    def evaluate_and_jacobian(self, X: np.ndarray, tt=None, E=None):
        """Residuals and x-Jacobians, shapes ``(npts, neqs)`` and
        ``(npts, neqs, nvars)``, fused over one shared tape replay."""
        return self._run("eval_jac", X, tt, E)

    def jacobian_t(self, X: np.ndarray, tt, E=None) -> np.ndarray:
        """t-derivatives, shape ``(npts, neqs)`` (parametric tapes)."""
        return self._run("jac_t", X, tt, E)

    def jacobians(self, X: np.ndarray, tt, E=None):
        """x-Jacobians and t-derivatives from one fused replay."""
        return self._run("jac_both", X, tt, E)

    def __repr__(self) -> str:
        return (
            f"SLPKernel(neqs={self.tape.neqs}, nvars={self.tape.nvars}, "
            f"ops={self.stats.tape_ops})"
        )
