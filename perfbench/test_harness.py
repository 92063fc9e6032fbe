"""Unit tests of the benchmark harness itself (tiny systems, no real
workload is run).  Collected by the repo's tier-1 pytest command."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.polynomials import parse_system  # noqa: E402


class ToyWorkload(workloads.Workload):
    """x^2 = c: two roots per op; op 1 raises, op 2 returns a bad root."""

    name = "toy"
    expected_roots = 2

    def make_input(self, rng):
        return float(rng.uniform(1.0, 2.0))

    def op(self, c):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == 2:
            raise RuntimeError("solver blew up")
        root = np.sqrt(c)
        if self.calls == 3:
            return [np.array([root]), np.array([-root + 1e-6])]
        return [np.array([root]), np.array([-root])]

    def check(self, c, roots):
        system = parse_system([f"x^2 - {c!r}"], ["x"])
        return workloads.check_polynomial_roots(system, roots)


def test_raising_op_counts_as_missing_and_run_continues():
    toy = ToyWorkload()
    samples = [harness.run_op(toy, seed=5, i=i) for i in range(2)]
    verdict, roots = harness.check_ops(toy, samples)
    assert "solver blew up" in samples[1]["error"]
    assert verdict["attempted"] == 2 and verdict["failed"] == 1
    assert roots == {"roots_expected": 4, "roots_missing": 2}
    assert verdict["correct"] is False  # half the roots are gone
    for s in samples:
        s["slowdown"] = 2.0
    metrics = harness.end_to_end_metrics(samples, 0.6)
    assert metrics["setup_s"] == 0.6
    assert metrics["solve_s"] == sum(s["wall"] for s in samples) / 2 / 2.0
    assert metrics["roots_per_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_root_with_large_residual_fails_the_correctness_check():
    toy = ToyWorkload()
    samples = [harness.run_op(toy, seed=5, i=i) for i in range(3)]
    verdict, _ = harness.check_ops(toy, samples)
    assert samples[2]["bad"] == 1 and samples[2]["delivered"] == 1
    assert verdict["correct"] is False


def test_duplicate_root_is_not_delivered_twice():
    system = parse_system(["x^2 - 4"], ["x"])
    twice = [np.array([2.0]), np.array([2.0 + 1e-9]), np.array([-2.0])]
    assert workloads.check_polynomial_roots(system, twice) == (2, 0)


def test_timed_ops_runs_the_minimum_ops_and_measures_the_host():
    samples = harness.timed_ops(
        ToyWorkload(), seed=1, seconds=0.0, before=harness.sample_host_speed(0))
    assert len(samples) == harness.MIN_OPS
    assert all(s["slowdown"] > 0 for s in samples)


def test_one_lost_root_is_reported_but_not_incorrect_while_many_are():
    toy = ToyWorkload()
    sample = harness.run_op(toy, 5, 0)
    sample["report"] = sample["report"][:1]  # the program lost one root of two
    verdict, roots = harness.check_ops(toy, [sample])
    assert roots["roots_missing"] == 1 and verdict["correct"] is True
    toy.expected_roots = 300                 # ... or 299 of 300
    verdict, roots = harness.check_ops(toy, [sample])
    assert roots["roots_missing"] == 299 and verdict["correct"] is False


def test_same_seed_same_inputs():
    toy = ToyWorkload()
    a = [harness.run_op(toy, 9, i)["input"] for i in range(3)]
    b = [harness.run_op(ToyWorkload(), 9, i)["input"] for i in range(3)]
    assert a == b and len(set(a)) == 3


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_self_times_sum_to_the_root_span():
    # root [0, 10] > a [1, 7] > b [2, 3], c [4, 6]; then d [8, 9] under root
    tracer = tracing.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 6, 7, 8, 9, 10]))
    tracer.op = 0
    with tracer.span("op"):
        with tracer.span("a", "L1"):
            with tracer.span("b", "L2"):
                pass
            with tracer.span("c", "L2"):
                pass
        with tracer.span("d", "L1"):
            pass
    selfs = tracing.self_times(tracer.spans)
    assert selfs == [3, 3, 1, 2, 1]
    assert sum(selfs) == 10
    assert tracing.layer_shares(tracer.spans, [0]) == {
        "harness": 3, "L1": 4, "L2": 3,
    }


def test_wrappers_are_removed_and_a_missing_target_yields_null():
    from repro.linalg import dets
    from repro.schubert import homotopy as schubert_homotopy

    original = dets.batched_det
    held_by_name = schubert_homotopy.batched_det
    targets = {
        "linalg.det": ("linalg", [
            "repro.linalg.dets:batched_det",
            "repro.linalg.dets:no_such_function",
        ], None),
        "tracker.track": ("tracker", [
            "repro.tracker.batch:BatchTracker.no_such_method",
            "repro.no_such_module:f",
        ], None),
    }
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        assert dets.batched_det is not original
        # a caller that imported the function by name sees the wrapper too
        assert schubert_homotopy.batched_det is dets.batched_det
        tracer.op = 0
        with tracer.span("op"):
            dets.batched_det(np.eye(3, dtype=complex)[None])
    finally:
        tracer.uninstall()
    assert dets.batched_det is original
    assert schubert_homotopy.batched_det is held_by_name
    assert len(tracer.missing) == 3

    metrics = tracing.layer_metrics(tracer.export(), [0], [], {})
    assert metrics["linalg.det_calls"] == 1
    assert metrics["tracker.newton_iters"] is None  # no target was wrapped
    assert metrics["kernels.calls"] is None         # group never installed
    assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}
    json.dumps(metrics)  # null, not NaN


class DetWorkload(workloads.Workload):
    """One traced entry point per op, and one in set-up."""

    name = "det"
    expected_roots = 1

    def setup(self, rng, scratch):
        self.op(None)

    def make_input(self, rng):
        return None

    def op(self, inp):
        from repro.linalg import dets

        dets.batched_det(np.eye(3, dtype=complex)[None])
        return [np.array([2.0])]

    def check(self, inp, roots):
        system = parse_system(["x - 2"], ["x"])
        return workloads.check_polynomial_roots(system, roots)


def test_traced_pass_opens_one_span_per_call(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "det", DetWorkload)
    monkeypatch.setattr(harness, "RESULTS", tmp_path)
    verdict, metrics, _ = harness.run_traced("det", seed=3)
    assert verdict["correct"] and verdict["attempted"] == harness.TRACE_OPS
    assert metrics["linalg.det_calls"] == harness.TRACE_OPS
    trace = json.loads((tmp_path / "trace_det.json").read_text())
    spans = trace["spans"]
    for op in ("setup", *range(harness.TRACE_OPS)):
        mine = [s for s in spans if s[tracing.OP] == op]
        root = "setup" if op == "setup" else "op"
        assert [s[tracing.NAME] for s in mine] == [root, "linalg.det"]
        # a wrapper wrapped twice would show as a span under its own group
        assert all(spans[s[tracing.PARENT]][tracing.NAME] != s[tracing.NAME]
                   for s in mine if s[tracing.PARENT] >= 0)


def test_install_refuses_to_wrap_twice():
    import pytest

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    tracer.install()  # fine again once removed
    tracer.uninstall()


def test_default_targets_all_resolve_on_this_commit():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.LAYER_METRICS
    assert spec["paths"] == [HERE.name]


def test_compare_reports_wide_spread_as_unresolved():
    steady = [1.00, 1.01, 0.99, 1.02, 0.98]
    row = harness.compare_row(steady, [v * 1.3 for v in steady], "lower", 0.1)
    assert row["verdict"] == "REGRESSED" and round(row["ratio"], 2) == 1.3
    row = harness.compare_row(steady, [v * 0.7 for v in steady], "lower", 0.1)
    assert row["verdict"] == "improved"
    row = harness.compare_row(steady, steady, "higher", 0.1)
    assert row["verdict"] == "unchanged"
    noisy = [0.7, 1.0, 1.3, 0.8, 1.25]
    row = harness.compare_row(steady, noisy, "lower", 0.1)
    assert row["verdict"] == "unresolved"
    row = harness.compare_row(steady[:2], steady[:2], "lower", 0.1)
    assert row["verdict"] == "unresolved"


def test_pieri_check_accepts_solver_output_and_rejects_a_perturbed_root():
    from repro import schubert

    instance = schubert.PieriInstance.random(2, 2, 0, np.random.default_rng(3))
    solutions = schubert.PieriSolver(instance, seed=3).solve(mode="batch").solutions
    assert workloads.check_pieri_roots(instance, solutions) == (2, 0)
    assert workloads.check_pieri_roots(instance, [solutions[0]] * 2) == (1, 0)
    bent = [solutions[0] + 1e-4, solutions[1]]
    assert workloads.check_pieri_roots(instance, bent) == (0, 2)
