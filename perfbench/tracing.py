"""Span tracing from outside the program, and the per-layer metrics.

The program under ``src/repro`` is not edited.  A :class:`Tracer`
rebinds public entry points of each layer to wrappers that open an
in-memory span ``{name, layer, op, start, end, parent}``; after the
traced pass the wrappers are removed again.  A layer's *self time* is
its spans' duration minus the part their direct children cover, so
self times of all spans under one root sum to that root exactly.

Spans live in the master process only: the forked workers of
``pieri_edges_2w`` inherit the wrappers but their spans stay in their
own memory, so worker-side layers show up through the scheduler's own
report (``parallel.busy_s``, ``tracker.scalar_ms_per_path``), not as
spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# span record layout (lists, not dicts: one is appended per kernel call)
NAME, LAYER, OP, START, END, PARENT, COUNTS = range(7)
SPAN_FIELDS = ("name", "layer", "op", "start", "end", "parent", "counts")


def _points(out, args):
    """Batch size of a kernel call ``kernel.method(X, ...)``."""
    return {"points": int(args[1].shape[0])}


def _path_effort(out, args):
    """Effort counters of the PathResult(s) a tracker call returned."""
    results = out if isinstance(out, list) else [out]
    stats = [r.stats for r in results]
    return {
        "paths": len(stats),
        "newton_iters": sum(s.newton_iterations for s in stats),
        "jacobian_evals": sum(s.jacobian_evaluations for s in stats),
        "tangents_recycled": sum(s.tangents_recycled for s in stats),
        "steps_accepted": sum(s.steps_accepted for s in stats),
        "steps_rejected": sum(s.steps_rejected for s in stats),
    }


def _hit(out, args):
    return {"hit": int(out is not None)}


def _store_bytes(out, args):
    """Bytes on disk of the store a ``put`` just committed into."""
    root = args[0].root
    return {"bytes": sum(p.stat().st_size for p in root.iterdir() if p.is_file())}


def _methods(cls_path, names):
    return [f"{cls_path}.{n}" for n in names]


_BATCH_EVAL = (
    "evaluate_batch", "jacobian_x_batch", "jacobian_t_batch",
    "evaluate_and_jacobian_batch", "jacobians_batch",
    "evaluate", "jacobian_x", "jacobian_t", "evaluate_and_jacobian_x",
)

#: span group -> (layer, targets, count hook).  A target is
#: ``"module:function"`` or ``"module:Class.method"``.
TARGETS = {
    "kernels.eval": ("kernels", _methods(
        "repro.kernels.slp:SLPKernel",
        ("evaluate", "evaluate_and_jacobian", "jacobian_t", "jacobians"),
    ), _points),
    "kernels.compile": ("kernels", [
        "repro.kernels:compile_system_kernel",
        "repro.kernels:compile_term_kernel",
    ], None),
    "tracker.track": ("tracker", [
        "repro.tracker.batch:BatchTracker.track_batch",
        "repro.tracker.tracker:PathTracker.track",
    ], _path_effort),
    "tracker.corrector": ("tracker", [
        "repro.tracker.newton:batch_newton_correct",
        "repro.tracker.newton:newton_correct",
    ], None),
    "tracker.predict": ("tracker", [
        "repro.tracker.predictor:EulerPredictor.predict",
        "repro.tracker.predictor:HermitePredictor.predict",
    ], None),
    "tracker.retrack": ("tracker", [
        "repro.tracker.result:retrack_duplicate_clusters",
    ], None),
    "tracker.refine": ("tracker", [
        "repro.tracker.newton:newton_refine_system",
    ], None),
    "linalg.solve": ("linalg", ["numpy.linalg:solve"], None),
    "linalg.det": ("linalg", [
        "repro.linalg.dets:batched_det",
        "repro.linalg.dets:det_and_cofactors",
    ], None),
    "schubert.eval": ("schubert", _methods(
        "repro.schubert.homotopy:PieriEdgeHomotopy", _BATCH_EVAL
    ), None),
    "schubert.solve": ("schubert", [
        "repro.schubert.solver:PieriSolver.solve",
        "repro.schubert.solver:PieriSolver.run_jobs_batched",
    ], None),
    "homotopy.solve": ("homotopy", ["repro.homotopy.solve:solve"], None),
    "homotopy.eval": ("homotopy", _methods(
        "repro.homotopy.convex:ConvexHomotopy", _BATCH_EVAL
    ) + _methods(
        "repro.homotopy.coefficient:CoefficientHomotopy", _BATCH_EVAL
    ), None),
    "polyhedral.cells": ("polyhedral", [
        "repro.polyhedral.cells:mixed_cells",
    ], None),
    "polyhedral.phase1": ("polyhedral", [
        "repro.polyhedral.homotopy:PolyhedralStart.track_starts",
    ], None),
    "artifacts.get": ("artifacts", [
        "repro.artifacts.store:ArtifactStore.get",
    ], _hit),
    "artifacts.put": ("artifacts", [
        "repro.artifacts.store:ArtifactStore.put",
    ], _store_bytes),
    "endgame.finish": ("endgame", _methods(
        "repro.endgame.strategy:RefineEndgame", ("finish", "finish_batch")
    ) + _methods(
        "repro.endgame.cauchy:CauchyEndgame", ("finish", "finish_batch")
    ), None),
    "parallel.dispatch": ("parallel", [
        "repro.parallel.pieri_scheduler:solve_pieri_parallel",
        "repro.parallel.dispatcher:dispatch_with_pool",
    ], None),
}


class Tracer:
    """Installs span wrappers on entry points and collects the spans."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.installed = {}   # group -> targets wrapped
        self.missing = []     # targets that no longer resolve
        self.op = None        # label stamped on spans opened from now on
        self._clock = clock
        self._stack = []
        self._undo = []       # (owner, attribute, original)

    # -- spans ----------------------------------------------------------
    def _open(self, name, layer):
        self.spans.append([
            name, layer, self.op, self._clock(), None,
            self._stack[-1] if self._stack else -1, None,
        ])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, record):
        record[END] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name, layer="harness"):
        record = self._open(name, layer)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, func, name, layer, counts=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = self._open(name, layer)
            try:
                out = func(*args, **kwargs)
            finally:
                self._close(record)
            if counts is not None:
                record[COUNTS] = counts(out, args)
            return out

        return traced

    # -- installing and removing wrappers --------------------------------
    def install(self, targets=TARGETS):
        if self._undo:
            # wrapping a wrapper would open two spans a call and double
            # every count read from them
            raise RuntimeError("wrappers are already installed")
        self.installed, self.missing = {}, []
        for group, (layer, paths, counts) in targets.items():
            self.installed[group] = []
            for path in paths:
                if self._install_one(path, group, layer, counts):
                    self.installed[group].append(path)
                else:
                    self.missing.append(path)

    def _install_one(self, path, group, layer, counts):
        modname, _, qualname = path.partition(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return False
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            return False
        wrapped = self.wrap(original, group, layer, counts)
        if parents:
            # a method: instances look it up on the class at call time
            self._rebind(owner, attr, original, wrapped)
            return True
        # a function: callers hold it by name (`from .x import f`), so
        # rebind every module of the same package that holds the object
        package = modname.split(".")[0]
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != package:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, original, wrapped)
        return True

    def _rebind(self, owner, attr, original, wrapped):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def export(self):
        """The trace as JSON-able data (see README, 'Reading a trace')."""
        return {
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "installed": self.installed,
            "missing": self.missing,
        }


def self_times(spans):
    """Self time per span: duration minus what direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_shares(spans, ops):
    """Self seconds per layer over the spans of the given op labels."""
    selfs = self_times(spans)
    shares = {}
    for s, own in zip(spans, selfs):
        if s[OP] in ops:
            shares[s[LAYER]] = shares.get(s[LAYER], 0.0) + own
    return shares


class _Missing(Exception):
    """A metric needs a span group none of whose targets was wrapped."""


class _View:
    """Sums over one trace, by span group and phase."""

    def __init__(self, spans, installed, ops):
        self.spans = spans
        self.selfs = self_times(spans)
        self.installed = installed
        self.ops = set(ops)

    def _rows(self, group, phase, outermost=False):
        """``(index, span)`` of the group's spans in the phase; with
        ``outermost``, not those opened directly by the same group."""
        if not self.installed.get(group):
            raise _Missing(group)
        for i, s in enumerate(self.spans):
            if s[NAME] != group or not (phase == "all" or s[OP] in self.ops):
                continue
            if outermost and s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == group:
                continue
            yield i, s

    def calls(self, group, phase="ops", outermost=False):
        return sum(1 for _ in self._rows(group, phase, outermost))

    def total(self, group, phase="ops"):
        """Seconds inside the group's outermost spans."""
        return sum(s[END] - s[START] for _, s in self._rows(group, phase, True))

    def self_s(self, group, phase="ops"):
        return sum(self.selfs[i] for i, _ in self._rows(group, phase))

    def count(self, group, key, phase="ops"):
        return sum(
            s[COUNTS][key] for _, s in self._rows(group, phase) if s[COUNTS]
        )


def _ratio(num, den):
    return num / den if den else 0.0


def _kernel_cache_hit_frac():
    """Hits over lookups of the process-wide bound-kernel cache."""
    try:
        from repro.kernels import kernel_cache_info
    except ImportError:
        raise _Missing("repro.kernels:kernel_cache_info") from None
    info = kernel_cache_info()
    return _ratio(
        info["kernel_hits"], info["kernel_hits"] + info["kernel_misses"])


#: (name, unit, better) of every per-layer metric, in reporting order.
#: Time and count metrics are totals over the traced ops unless the
#: README says setup ("all" phase below); 0 means the layer did no work
#: on this workload, ``None`` (JSON null) that a wrap target is gone.
LAYER_METRICS = [
    ("kernels.calls", "count", "lower"),
    ("kernels.evaluations", "count", "lower"),
    ("kernels.points_per_call", "count", "higher"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.us_per_call", "us", "lower"),
    ("kernels.compile_s", "s", "lower"),
    ("kernels.cache_hit_frac", "frac", "higher"),
    ("tracker.track_self_s", "s", "lower"),
    ("tracker.corrector_self_s", "s", "lower"),
    ("tracker.predict_self_s", "s", "lower"),
    ("tracker.newton_iters", "count", "lower"),
    ("tracker.jacobian_evals", "count", "lower"),
    ("tracker.tangents_recycled", "count", "higher"),
    ("tracker.step_accept_frac", "frac", "higher"),
    ("tracker.retrack_s", "s", "lower"),
    ("tracker.fallback_retracked", "count", "lower"),
    ("tracker.refine_s", "s", "lower"),
    ("tracker.scalar_ms_per_path", "ms", "lower"),
    ("linalg.solve_calls", "count", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.det_calls", "count", "lower"),
    ("linalg.det_s", "s", "lower"),
    ("schubert.eval_calls", "count", "lower"),
    ("schubert.eval_self_s", "s", "lower"),
    ("schubert.tree_paths", "count", "lower"),
    ("schubert.widest_level_s", "s", "lower"),
    ("schubert.chart_switches", "count", "lower"),
    ("schubert.retries", "count", "lower"),
    ("schubert.solve_self_s", "s", "lower"),
    ("homotopy.solve_self_s", "s", "lower"),
    ("homotopy.eval_self_s", "s", "lower"),
    ("homotopy.paths", "count", "lower"),
    ("homotopy.diverged", "count", "lower"),
    ("polyhedral.cells_s", "s", "lower"),
    ("polyhedral.phase1_s", "s", "lower"),
    ("polyhedral.n_cells", "count", "lower"),
    ("polyhedral.relifts", "count", "lower"),
    ("polyhedral.phase1_failures", "count", "lower"),
    ("polyhedral.cold_solves", "count", "lower"),
    ("artifacts.put_s", "s", "lower"),
    ("artifacts.put_bytes", "bytes", "lower"),
    ("artifacts.get_s", "s", "lower"),
    ("artifacts.hit_frac", "frac", "higher"),
    ("artifacts.corrupt", "count", "lower"),
    ("endgame.finish_calls", "count", "lower"),
    ("endgame.finish_s", "s", "lower"),
    ("parallel.busy_s", "s", "lower"),
    ("parallel.efficiency", "frac", "higher"),
    ("parallel.master_overhead_s", "s", "lower"),
    ("parallel.jobs", "count", "lower"),
    ("parallel.max_queue_len", "count", "lower"),
    ("parallel.worker_crashes", "count", "lower"),
    ("parallel.pool_rebuilds", "count", "lower"),
    ("trace.op_wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def layer_metrics(trace, ops, reports, extra):
    """Every per-layer metric of one traced pass, ``{name: value|None}``.

    ``trace`` is :meth:`Tracer.export`'s dict, ``ops`` the labels of the
    traced timed ops, ``reports`` what those ops returned (``None`` for
    one that raised), ``extra`` the workload's own report-derived
    counts plus ``trace.overhead_frac``.
    """
    v = _View(trace["spans"], trace["installed"], ops)
    reports = [r for r in reports if r is not None]
    summaries = [r.summary for r in reports if hasattr(r, "summary")]
    batches = [b for r in reports for b in getattr(r, "level_batches", [])]
    pieri = [r for r in reports if hasattr(r, "jobs_per_level")]
    par = [r for r in pieri if hasattr(r, "n_workers")]
    busy = sum(sum(r.seconds_per_level.values()) for r in par)
    par_jobs = sum(sum(r.jobs_per_level.values()) for r in par)
    capacity = sum(r.n_workers * r.wall_seconds for r in par)
    steps = lambda key: v.count("tracker.track", key)  # noqa: E731
    roots = [s for s in v.spans if s[PARENT] < 0 and s[OP] in v.ops]

    formulas = {
        "kernels.calls": lambda: v.calls("kernels.eval"),
        "kernels.evaluations": lambda: v.count("kernels.eval", "points"),
        "kernels.points_per_call": lambda: _ratio(
            v.count("kernels.eval", "points"), v.calls("kernels.eval")),
        "kernels.self_s": lambda: v.self_s("kernels.eval"),
        "kernels.us_per_call": lambda: 1e6 * _ratio(
            v.self_s("kernels.eval"), v.calls("kernels.eval")),
        "kernels.compile_s": lambda: v.total("kernels.compile", "all"),
        "kernels.cache_hit_frac": _kernel_cache_hit_frac,
        "tracker.track_self_s": lambda: v.self_s("tracker.track"),
        "tracker.corrector_self_s": lambda: v.self_s("tracker.corrector"),
        "tracker.predict_self_s": lambda: v.self_s("tracker.predict"),
        "tracker.newton_iters": lambda: steps("newton_iters"),
        "tracker.jacobian_evals": lambda: steps("jacobian_evals"),
        "tracker.tangents_recycled": lambda: steps("tangents_recycled"),
        "tracker.step_accept_frac": lambda: _ratio(
            steps("steps_accepted"),
            steps("steps_accepted") + steps("steps_rejected")),
        "tracker.retrack_s": lambda: v.total("tracker.retrack"),
        "tracker.fallback_retracked": lambda: sum(
            s.get("fallback_retracked", 0) for s in summaries),
        "tracker.refine_s": lambda: v.total("tracker.refine"),
        "tracker.scalar_ms_per_path": lambda: 1e3 * _ratio(busy, par_jobs),
        "linalg.solve_calls": lambda: v.calls("linalg.solve"),
        "linalg.solve_s": lambda: v.total("linalg.solve"),
        "linalg.det_calls": lambda: v.calls("linalg.det", outermost=True),
        "linalg.det_s": lambda: v.total("linalg.det"),
        "schubert.eval_calls": lambda: v.calls(
            "schubert.eval", outermost=True),
        "schubert.eval_self_s": lambda: v.self_s("schubert.eval"),
        "schubert.tree_paths": lambda: sum(
            sum(r.jobs_per_level.values()) for r in pieri),
        "schubert.widest_level_s": lambda: sum(
            max((b["seconds"] for b in r.level_batches), default=0.0)
            for r in pieri),
        "schubert.chart_switches": lambda: sum(
            b["chart_switches"] for b in batches),
        "schubert.retries": lambda: sum(b["retries"] for b in batches),
        "schubert.solve_self_s": lambda: v.self_s("schubert.solve"),
        "homotopy.solve_self_s": lambda: v.self_s("homotopy.solve"),
        "homotopy.eval_self_s": lambda: v.self_s("homotopy.eval"),
        "homotopy.paths": lambda: sum(s["total"] for s in summaries),
        "homotopy.diverged": lambda: sum(s["diverged"] for s in summaries),
        "polyhedral.cells_s": lambda: v.total("polyhedral.cells", "all"),
        "polyhedral.phase1_s": lambda: v.total("polyhedral.phase1", "all"),
        "polyhedral.n_cells": lambda: 0,
        "polyhedral.relifts": lambda: 0,
        "polyhedral.phase1_failures": lambda: 0,
        "polyhedral.cold_solves": lambda: 0,
        "artifacts.put_s": lambda: v.total("artifacts.put", "all"),
        "artifacts.put_bytes": lambda: v.count(
            "artifacts.put", "bytes", "all"),
        "artifacts.get_s": lambda: v.total("artifacts.get"),
        "artifacts.hit_frac": lambda: _ratio(
            v.count("artifacts.get", "hit"), v.calls("artifacts.get")),
        "artifacts.corrupt": lambda: 0,
        "endgame.finish_calls": lambda: v.calls("endgame.finish"),
        "endgame.finish_s": lambda: v.total("endgame.finish"),
        "parallel.busy_s": lambda: busy,
        "parallel.efficiency": lambda: _ratio(busy, capacity),
        "parallel.master_overhead_s": lambda: sum(
            r.wall_seconds - sum(r.seconds_per_level.values()) / r.n_workers
            for r in par),
        "parallel.jobs": lambda: par_jobs,
        "parallel.max_queue_len": lambda: max(
            (r.max_queue_length for r in par), default=0),
        "parallel.worker_crashes": lambda: sum(r.worker_crashes for r in par),
        "parallel.pool_rebuilds": lambda: sum(r.pool_rebuilds for r in par),
        "trace.op_wall_s": lambda: sum(s[END] - s[START] for s in roots),
        "trace.unattributed_s": lambda: sum(
            v.selfs[i] for i, s in enumerate(v.spans)
            if s[LAYER] == "harness" and s[OP] in v.ops),
        "trace.overhead_frac": lambda: 0.0,
    }
    out = {}
    for name, _unit, _better in LAYER_METRICS:
        if name in extra:
            out[name] = extra[name]
            continue
        try:
            out[name] = formulas[name]()
        except _Missing:
            out[name] = None
    return out
