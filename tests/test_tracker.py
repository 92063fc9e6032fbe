"""Unit tests for the predictor-corrector path tracker and Newton correctors."""

import dataclasses
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.tracker
from repro.homotopy import solve
from repro.parallel import dispatch_with_pool, track_paths_parallel
from repro.polynomials import PolynomialSystem, variables
from repro.sweep import run_sweep
from repro.tracker import (
    BatchHomotopy,
    PathStatus,
    PathTracker,
    TrackerOptions,
    newton_correct,
    newton_refine_system,
    summarize_results,
)
from repro.tracker.interface import _per_path_t


def _column(t, X):
    """A scalar or per-row ``t`` as one column, a row per point of ``X``."""
    return _per_path_t(t, len(X))[:, None]


class LinearHomotopy(BatchHomotopy):
    """H(x, t) = x - (a + t*(b - a)): single path from a to b."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)

    @property
    def dim(self):
        return len(self.a)

    def evaluate_batch(self, X, t):
        return X - (self.a + _column(t, X) * (self.b - self.a))

    def jacobian_x_batch(self, X, t):
        return np.repeat(np.eye(self.dim, dtype=complex)[None], len(X), 0)

    def jacobian_t_batch(self, X, t):
        return np.repeat(-(self.b - self.a)[None], len(X), 0)


class SqrtHomotopy(BatchHomotopy):
    """H(x, t) = x^2 - (1 + 3t): path x(t) = sqrt(1 + 3t), from 1 to 2."""

    @property
    def dim(self):
        return 1

    def evaluate_batch(self, X, t):
        return X ** 2 - (1 + 3 * _column(t, X))

    def jacobian_x_batch(self, X, t):
        return 2 * X[:, :, None]

    def jacobian_t_batch(self, X, t):
        return np.full((len(X), 1), -3.0 + 0j)


class DivergingHomotopy(BatchHomotopy):
    """H(x, t) = (1 - t) * x - t: the path x = t/(1-t) blows up at t=1."""

    @property
    def dim(self):
        return 1

    def evaluate_batch(self, X, t):
        t = _column(t, X)
        return (1 - t) * X - t

    def jacobian_x_batch(self, X, t):
        return (1 - _column(t, X) + 0j)[:, :, None]

    def jacobian_t_batch(self, X, t):
        return -X - 1.0


class TestNewton:
    def test_converges_quadratically(self):
        h = SqrtHomotopy()
        res = newton_correct(h, np.array([1.9 + 0j]), 1.0, tol=1e-12)
        assert res.converged
        assert abs(res.x[0] - 2.0) < 1e-10

    def test_reports_singular(self):
        h = SqrtHomotopy()
        # x=0 has singular Jacobian for this homotopy
        res = newton_correct(h, np.array([0.0 + 0j]), 1.0)
        assert not res.converged
        assert res.singular

    def test_refine_system(self):
        x, y = variables(2)
        sys = PolynomialSystem([x**2 - 2, y - x])
        res = newton_refine_system(sys, np.array([1.4, 1.4], dtype=complex))
        assert res.converged
        assert abs(res.x[0] - np.sqrt(2)) < 1e-12

    def test_refine_requires_square(self):
        x, y = variables(2)
        sys = PolynomialSystem([x + y])
        with pytest.raises(ValueError):
            newton_refine_system(sys, np.array([0, 0], dtype=complex))


class TestTrackerBasic:
    def test_linear_path(self):
        h = LinearHomotopy([0, 0], [1, 2j])
        result = PathTracker().track(h, [0, 0])
        assert result.status is PathStatus.SUCCESS
        assert np.allclose(result.solution, [1, 2j], atol=1e-9)

    def test_sqrt_path(self):
        result = PathTracker().track(SqrtHomotopy(), [1.0])
        assert result.success
        assert abs(result.solution[0] - 2.0) < 1e-9

    def test_negative_branch_tracked_separately(self):
        result = PathTracker().track(SqrtHomotopy(), [-1.0])
        assert result.success
        assert abs(result.solution[0] + 2.0) < 1e-9

    def test_divergence_detected(self, monkeypatch):
        monkeypatch.setattr("repro.tracker.batch.DIVERGENCE_BOUND", 1e6)
        result = PathTracker().track(DivergingHomotopy(), [0.0])
        assert result.status is PathStatus.DIVERGED
        assert result.stats.t_reached > 0.5

    def test_bad_start_fails(self):
        h = SqrtHomotopy()
        result = PathTracker().track(h, [25.0])  # nowhere near a root at t=0
        assert result.status in (PathStatus.FAILED, PathStatus.SUCCESS)
        # Newton from 25 on x^2-1 actually converges; use a singular start
        result2 = PathTracker().track(h, [0.0])
        assert result2.status is PathStatus.FAILED

    def test_stats_populated(self):
        result = PathTracker().track(SqrtHomotopy(), [1.0])
        assert result.stats.steps_accepted > 0
        assert result.stats.newton_iterations > 0
        assert result.stats.seconds >= 0
        assert result.stats.t_reached == pytest.approx(1.0)

    def test_track_many_ids(self):
        h = SqrtHomotopy()
        results = PathTracker().track_many(h, [[1.0], [-1.0]])
        assert [r.path_id for r in results] == [0, 1]
        assert all(r.success for r in results)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            TrackerOptions(min_step=1.0, initial_step=0.1).validated()
        with pytest.raises(ValueError):
            TrackerOptions(initial_step=0.5, max_step=0.2).validated()


REPO = Path(__file__).resolve().parent.parent


def _tracing():
    """perfbench's tracer module, imported the way
    ``perfbench/test_harness.py`` does."""
    perfbench = str(REPO / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import tracing

    return tracing


@pytest.fixture
def tracer():
    """perfbench's tracer with its default targets installed."""
    tracer = _tracing().Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


class TestOneSpanPerCall:
    """The tracer wraps both names of each delegate pair; a delegate
    calls the shared private body, never the other public name, so a
    call opens one span and its effort is counted once.  A span record
    is ``[name, layer, op, start, end, parent, counts]``."""

    def test_track_opens_one_span_carrying_the_results_counts(self, tracer):
        result = PathTracker().track(SqrtHomotopy(), [1.0])
        (span,) = [s for s in tracer.spans if s[0] == "tracker.track"]
        stats = result.stats
        assert span[-1] == {
            "paths": 1,
            "newton_iters": stats.newton_iterations,
            "jacobian_evals": stats.jacobian_evaluations,
            "tangents_recycled": stats.tangents_recycled,
            "steps_accepted": stats.steps_accepted,
            "steps_rejected": stats.steps_rejected,
        }

    def test_newton_correct_opens_one_corrector_span(self, tracer):
        # through the module: the tracer rebinds functions by name
        out = repro.tracker.newton_correct(SqrtHomotopy(), np.array([1.9]), 1.0)
        assert out.converged
        names = [s[0] for s in tracer.spans]
        assert names.count("tracker.corrector") == 1


def test_knob_budget():
    """The next knob shows up in review as a changed number."""
    from repro.endgame import CauchyEndgame
    from repro.homotopy.projective import ProjectivePatchHomotopy
    from repro.kernels import SLPKernel
    from repro.sweep.spec import AXES

    assert len(dataclasses.fields(TrackerOptions)) == 8
    assert len(inspect.signature(solve).parameters) == 11
    # constructors, counted without ``self``
    assert {
        cls.__name__: len(inspect.signature(cls).parameters)
        for cls in (CauchyEndgame, ProjectivePatchHomotopy, SLPKernel)
    } == {"CauchyEndgame": 3, "ProjectivePatchHomotopy": 6, "SLPKernel": 4}
    assert len(AXES) == 4
    # the local masters: one dispatcher call each
    n_parameters = {
        fn.__name__: len(inspect.signature(fn).parameters)
        for fn in (dispatch_with_pool, track_paths_parallel, run_sweep)
    }
    assert n_parameters == {
        "dispatch_with_pool": 10,
        "track_paths_parallel": 6,
        "run_sweep": 7,
    }


def test_pool_vocabulary(tmp_path, capsys):
    """Every local master knows two pools, worker processes and one
    worker inline: the next one shows up in review as a failed test.
    A pool outside them is rejected before anything is built."""
    import typing

    from repro.parallel import solve_pieri_parallel
    from repro.parallel.dispatcher import make_pool
    from repro.sweep import JobSpec, SweepSpec
    from repro.sweep.cli import main as sweep_cli

    masters = (make_pool, track_paths_parallel, run_sweep, solve_pieri_parallel)
    for master in masters:
        mode = inspect.signature(master, eval_str=True).parameters["mode"]
        assert set(typing.get_args(mode.annotation)) == {"process", "serial"}
    rejected = (
        lambda: make_pool("thread", 2),
        lambda: track_paths_parallel(None, [], n_workers=2, mode="thread"),
        lambda: run_sweep(None, tmp_path / "ck", n_workers=2, mode="thread"),
        lambda: solve_pieri_parallel(None, n_workers=2, mode="thread"),
    )
    for call in rejected:
        with pytest.raises(ValueError, match="unknown mode 'thread'"):
            call()
    assert not (tmp_path / "ck").exists()

    spec = tmp_path / "spec.json"
    SweepSpec("modes", [JobSpec("katsura", {"n": 2})]).save(spec)
    run = ["run", str(spec), "--checkpoint", str(tmp_path / "dry"), "--dry-run"]
    for mode in ("process", "serial"):
        assert sweep_cli(run + ["--mode", mode]) == 0
    with pytest.raises(SystemExit) as info:
        sweep_cli(run + ["--mode", "thread"])
    assert info.value.code == 2
    assert "invalid choice: 'thread'" in capsys.readouterr().err


def test_front_width_vocabulary(tmp_path, monkeypatch):
    """Every solver tracks one front width, its widest: a tree level, or
    every path of a solve.  A second width shows up in review as a
    failed test, and the old one is rejected before anything is built."""
    import importlib
    import typing

    from repro.schubert import PieriInstance, PieriSolver, continue_to_instance
    from repro.sweep import JobSpec

    for fn in (solve, PieriSolver.solve):
        mode = inspect.signature(fn, eval_str=True).parameters["mode"]
        assert typing.get_args(mode.annotation) == ("batch",)

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the mode was checked")

    # the module, which ``repro.homotopy.solve`` the function shadows
    solve_mod = importlib.import_module("repro.homotopy.solve")
    monkeypatch.setattr(solve_mod, "make_homotopy_and_starts", no_work)
    monkeypatch.setattr(solve_mod, "_polyhedral_start", no_work)
    monkeypatch.setattr(PieriSolver, "initial_jobs", no_work)
    monkeypatch.setattr(PieriSolver, "_solve_warm", no_work)
    target = PolynomialSystem([variables(1)[0] ** 2 - 1])
    instance = PieriInstance.random(2, 2, 0, np.random.default_rng(0))
    store = tmp_path / "store"
    rejected = (
        lambda: solve(target, mode="per_path"),
        lambda: solve(target, start="polyhedral", mode="per_path"),
        lambda: PieriSolver(instance).solve(mode="per_path", cache=store),
    )
    for call in rejected:
        with pytest.raises(ValueError, match="unknown .*mode 'per_path'"):
            call()
    assert not store.exists()

    assert "mode" not in inspect.signature(continue_to_instance).parameters
    assert "mode" not in {f.name for f in dataclasses.fields(JobSpec)}
    job = {"kind": "pieri", "params": {"m": 2, "p": 2, "q": 0}}
    assert JobSpec.from_dict(job).job_id == "pieri-m2-p2-q0-s0"
    with pytest.raises(ValueError, match="'mode'"):
        JobSpec.from_dict({**job, "mode": "batch"})


def test_sweep_axes_vocabulary(tmp_path):
    """A sweep job is its spec: no axis points it at state another job
    left behind.  The ``cache`` axis made a journaled result depend on
    whether the artifact store served the job warm or cold; a spec that
    names it is rejected like any unknown key, and a sweep run leaves
    the environment as it found it."""
    import os

    from repro.sweep import JobSpec, SweepSpec
    from repro.sweep.spec import AXES

    assert list(AXES) == ["start", "endgame", "kernel", "predictor"]
    assert "cache" not in {f.name for f in dataclasses.fields(JobSpec)}
    job = {"kind": "pieri", "params": {"m": 2, "p": 2, "q": 0}}
    with pytest.raises(ValueError, match="'cache'"):
        JobSpec.from_dict({**job, "cache": "off"})
    grid = {"kind": "cyclic", "n": 5, "start": "polyhedral",
            "cache": ["off", "on"]}
    with pytest.raises(ValueError, match="'cache'"):
        SweepSpec.from_dict({"name": "cached", "grids": [grid]})

    before = dict(os.environ)
    spec = SweepSpec("one", [JobSpec.from_dict(job)])
    report = run_sweep(spec, tmp_path / "ck", mode="serial")
    assert dict(os.environ) == before
    assert report.complete
    (record,) = report.records.values()
    assert "artifacts" not in record
    assert not (tmp_path / "ck" / "artifacts").exists()


#: Public names that only tests call, each kept as the reference a test
#: checks something else against.
TEST_ONLY_NAMES = {
    "jacobian_at": "numeric reference the AD Jacobian is checked against",
    "jacobian_system": "symbolic reference the AD Jacobian is checked against",
    "substitute": "reference that homogenize is checked against",
    "walk_bfs": "the Pieri tree's shape, level by level",
    "walk_dfs": "the Pieri tree's shape, depth first",
    "pending_ids": "the fleet master's lease table in protocol tests",
    "is_valid": "which pivot tuples make a localization pattern",
    "is_trivial": "the root pattern of the poset",
    "star_count": "a pattern's dimension against its poset level",
    "patterns_at": "the poset's levels against the pattern counts",
    "variance_ratio": "the simulator workloads' cost spread",
    "total_degree_bound": "the Bezout number the root counts are bounded by",
    "is_zero": "polynomial algebra identities",
    "almost_equal": "polynomial algebra identities up to rounding",
}


def test_every_public_name_has_a_caller():
    """The next uncalled name shows up in review as a failed test: every
    public ``def``/``class`` under ``src/repro`` is named somewhere in the
    program (``src/``, ``examples/``, ``benchmarks/``, ``perfbench/``,
    ``tools/``) besides its own definition.  Tracer targets and names
    with a ``>>>`` example are public API by construction."""
    import ast
    import re
    from collections import Counter

    targets = {
        target
        for _, names, _ in _tracing().TARGETS.values()
        for target in names
    }
    text = "\n".join(
        path.read_text()
        for folder in ("src", "examples", "benchmarks", "perfbench", "tools")
        for path in sorted((REPO / folder).rglob("*.py"))
    )
    uses = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\b(?:def|class) (\w+)", text))

    def public(body, module, prefix=""):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
                not node.name.startswith("_")
            ):
                yield f"{module}:{prefix}{node.name}", node
                if isinstance(node, ast.ClassDef):
                    yield from public(node.body, module, f"{prefix}{node.name}.")

    uncalled = set()
    src = REPO / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for target, node in public(ast.parse(path.read_text()).body, module):
            if target in targets or ">>>" in (ast.get_docstring(node) or ""):
                continue
            if uses[node.name] <= defs[node.name]:
                uncalled.add(node.name)
    assert uncalled == set(TEST_ONLY_NAMES)


def test_one_polynomial_evaluator():
    """A second evaluator shows up in review as a failed test: every
    polynomial homotopy class the two packages export (and the warm
    route's, which ``repro.homotopy`` imports late) is a term list on
    the kernel seam, with no kernel plumbing of its own."""
    import repro.homotopy
    import repro.polyhedral
    from repro.homotopy.coefficient import CoefficientHomotopy
    from repro.kernels import TermHomotopy
    from repro.tracker import BatchHomotopy

    classes = {CoefficientHomotopy}
    for package in (repro.homotopy, repro.polyhedral):
        exported = (getattr(package, name) for name in package.__all__)
        classes |= {
            c for c in exported
            if inspect.isclass(c) and issubclass(c, BatchHomotopy)
        }
    assert {c.__name__ for c in classes} == {
        "CellHomotopy", "CoefficientHomotopy", "ConvexHomotopy",
        "ProjectivePatchHomotopy",
    }
    for cls in classes:
        assert issubclass(cls, TermHomotopy), cls
        plumbing = {"_pair_eval", "_pair_eval_jac", "_bind_kernel"}
        assert not plumbing & set(vars(cls)), cls


def test_one_homotopy_protocol():
    """A second homotopy protocol shows up in review as a failed test.

    The interface module's exports, which were the scalar one-point
    protocol, its looping adapter and the coercion between the two, are
    one name; and every homotopy class the solver packages export is a
    ``BatchHomotopy`` with no other abstract protocol in its MRO."""
    import repro.homotopy
    import repro.polyhedral
    import repro.schubert
    from repro.homotopy.coefficient import CoefficientHomotopy
    from repro.tracker import BatchHomotopy, interface

    assert interface.__all__ == ["BatchHomotopy"]
    assert {
        name for name in repro.tracker.__all__
        if getattr(getattr(repro.tracker, name), "__module__", None)
        == interface.__name__
    } == {"BatchHomotopy"}

    classes = {CoefficientHomotopy}
    packages = (repro.homotopy, repro.polyhedral, repro.schubert, repro.tracker)
    for package in packages:
        exported = (getattr(package, name) for name in package.__all__)
        classes |= {
            c for c in exported
            if inspect.isclass(c)
            and (hasattr(c, "evaluate") or hasattr(c, "evaluate_batch"))
        }
    assert {c.__name__ for c in classes} == {
        "BatchHomotopy", "StackedHomotopy", "CoefficientHomotopy",
        "ConvexHomotopy", "ProjectivePatchHomotopy", "CellHomotopy",
        "PieriEdgeHomotopy", "PieriParameterHomotopy", "PieriParameterStack",
    }
    for cls in classes:
        assert issubclass(cls, BatchHomotopy), cls
        protocols = [
            k for k in cls.__mro__
            if any(getattr(v, "__isabstractmethod__", False)
                   for v in vars(k).values())
        ]
        assert protocols == [BatchHomotopy], cls


def test_one_escalation_recipe():
    """A second retry recipe shows up in review as a failed test: the
    only module that sets ``min_step`` / ``max_step`` to a computed
    value is the re-track ladder's (``tighten_options``)."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    rescaling = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.keyword)
        and node.arg in ("min_step", "max_step")
        and not isinstance(node.value, ast.Constant)
    }
    assert rescaling == {"tracker/result.py"}


class TestSummarize:
    def test_summary_counts(self):
        h = SqrtHomotopy()
        results = PathTracker().track_many(h, [[1.0], [-1.0]])
        s = summarize_results(results)
        assert s["total"] == 2
        assert s["success"] == 2
        assert s["diverged"] == 0
        assert s["seconds_total"] >= 0

    def test_summary_empty(self):
        s = summarize_results([])
        assert s["total"] == 0
        assert s["seconds_mean"] == 0.0
