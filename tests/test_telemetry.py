"""Telemetry layer: spans, traces, determinism segregation, zero-cost off.

Three contracts under test:

1. **Mechanics** — counters/histograms/spans aggregate correctly, trace
   events nest, exported files round-trip through the tolerant loader,
   and the B/E replay in :func:`layer_report` attributes self vs total
   time the way a flame graph would.
2. **Determinism** — ``deterministic_summary()`` carries no wall-clock
   field anywhere, and ``trace_paths=True`` changes *zero* tracking
   decisions: statuses, endpoints, and effort counters are bitwise
   identical with and without instrumentation (the whole point of
   keeping telemetry out of the numerics).
3. **Cost** — with no ambient context the hooks are one contextvar read;
   an ambient context without ``trace_paths`` records a fixed handful of
   spans a solve, however many paths and steps it tracks (a count, not
   a wall-clock ratio: :class:`TestAmbientCost`).
"""

import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts import ArtifactStore
from repro.homotopy import make_homotopy_and_starts, solve
from repro.systems import cyclic_roots_system, katsura_system
from repro.telemetry import (
    Telemetry,
    active_tracer,
    current_telemetry,
    format_report,
    layer_report,
    load_trace,
    maybe_span,
    merge_summaries,
    use_telemetry,
)
from repro.telemetry.__main__ import main as telemetry_main
from repro.tracker import BatchTracker, PathTracker, TrackerOptions


class TestTelemetryCore:
    def test_counters_accumulate(self):
        tel = Telemetry(name="t")
        tel.count("paths")
        tel.count("paths", 4)
        assert tel.counters == {"paths": 5}

    def test_histograms_decade_bucketed(self):
        tel = Telemetry()
        for v in (0.05, 0.07, 0.005, 3.0, 0.0, -1.0):
            tel.observe("dt", v)
        assert tel.histograms["dt"] == {
            "1e-02": 2, "1e-03": 1, "1e+00": 1, "<=0": 2,
        }

    def test_span_aggregates_without_events(self):
        tel = Telemetry()
        with tel.span("newton", layer="corrector"):
            pass
        with tel.span("newton", layer="corrector"):
            pass
        assert tel.events == []  # not tracing: no per-event cost
        summ = tel.summary()
        assert summ["spans"]["corrector/newton"]["calls"] == 2
        assert summ["spans"]["corrector/newton"]["seconds"] >= 0.0

    def test_trace_records_nested_b_e_events(self):
        tel = Telemetry()
        with tel.trace():
            with tel.span("outer", layer="solve"):
                with tel.span("inner", layer="kernel"):
                    tel.instant("hit", "kernel", path=3)
        phases = [(e["ph"], e["name"]) for e in tel.events]
        assert phases == [
            ("B", "outer"), ("B", "inner"), ("i", "hit"),
            ("E", "inner"), ("E", "outer"),
        ]
        ts = [e["ts"] for e in tel.events]
        assert ts == sorted(ts)

    def test_trace_toggle_is_nest_safe(self):
        tel = Telemetry()
        with tel.trace():
            with tel.trace():
                assert tel.tracing
            assert tel.tracing  # inner exit must not switch it off
        assert not tel.tracing

    def test_instant_is_noop_outside_trace(self):
        tel = Telemetry()
        tel.instant("step_accept", "tracker", path=0)
        assert tel.events == [] and tel.counters == {}
        with tel.trace():
            tel.instant("step_accept", "tracker", path=0)
        assert tel.counters == {"tracker.step_accept": 1}

    def test_deterministic_summary_has_no_wallclock(self):
        tel = Telemetry()
        with tel.trace(), tel.span("track", layer="tracker"):
            tel.count("paths", 2)
            tel.observe("dt", 0.1)
            tel.instant("step_accept", "tracker")
        det = tel.deterministic_summary()
        assert det["spans"] == {"tracker/track": 1}

        def no_floats(obj):
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            return not isinstance(obj, float)

        assert no_floats(det)  # nothing wall-clock-shaped anywhere
        assert "seconds" not in json.dumps(det)

    def test_wall_summary_is_the_other_half(self):
        tel = Telemetry()
        with tel.span("track", layer="tracker"):
            time.sleep(0.002)
        wall = tel.wall_summary()
        assert set(wall) == {"tracker/track"}
        assert wall["tracker/track"] > 0.0

    def test_contextvar_plumbing(self):
        assert current_telemetry() is None
        assert active_tracer() is None
        tel = Telemetry()
        with use_telemetry(tel):
            assert current_telemetry() is tel
            assert active_tracer() is None  # not tracing yet
            with tel.trace():
                assert active_tracer() is tel
        assert current_telemetry() is None

    def test_maybe_span_accepts_none(self):
        with maybe_span(None, "x", "y"):
            pass
        tel = Telemetry()
        with maybe_span(tel, "x", layer="y"):
            pass
        assert tel.summary()["spans"]["y/x"]["calls"] == 1


class TestTraceRoundTrip:
    def test_write_trace_is_valid_json_and_loads(self, tmp_path):
        tel = Telemetry(name="rt")
        with tel.trace():
            with tel.span("a", layer="solve"):
                tel.instant("mark", "solve")
        path = tmp_path / "trace.json"
        n = tel.write_trace(path)
        assert n == 3
        # the whole file must parse as one JSON array (Perfetto/
        # about:tracing compatibility), not just line-by-line
        payload = json.loads(path.read_text())
        assert isinstance(payload, list) and len(payload) == 4
        assert payload[0]["ph"] == "M"
        events = load_trace(path)  # loader drops metadata
        assert [e["ph"] for e in events] == ["B", "i", "E"]

    def test_load_trace_skips_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"ph": "B", "name": "a", "cat": "l", "ts": 0}\n'
            '{"ph": "E", "name": "a", "cat": "l", "ts"\n'  # torn mid-write
            '{"ph": "E", "name": "a", "cat": "l", "ts": 5}\n'
        )
        events = load_trace(path)
        assert [e["ph"] for e in events] == ["B", "E"]

    def test_layer_report_self_vs_total(self):
        # solve [0, 100us] wraps kernel [20, 60us]: solve self = 60us
        events = [
            {"ph": "B", "name": "solve", "cat": "solve", "ts": 0.0},
            {"ph": "B", "name": "eval", "cat": "kernel", "ts": 20.0},
            {"ph": "E", "name": "eval", "cat": "kernel", "ts": 60.0},
            {"ph": "i", "name": "hit", "cat": "kernel", "ts": 61.0},
            {"ph": "E", "name": "solve", "cat": "solve", "ts": 100.0},
        ]
        report = layer_report(events)
        assert report["n_events"] == 5
        assert report["wall_seconds"] == pytest.approx(100e-6)
        solve_layer = report["layers"]["solve"]
        assert solve_layer["total_seconds"] == pytest.approx(100e-6)
        assert solve_layer["self_seconds"] == pytest.approx(60e-6)
        kernel = report["layers"]["kernel"]
        assert kernel["self_seconds"] == pytest.approx(40e-6)
        assert kernel["names"]["eval"]["calls"] == 1
        assert report["instants"] == {"kernel.hit": 1}

    def test_format_report_renders_shares(self):
        events = [
            {"ph": "B", "name": "a", "cat": "solve", "ts": 0.0},
            {"ph": "E", "name": "a", "cat": "solve", "ts": 100.0},
        ]
        text = format_report(layer_report(events))
        assert "solve" in text and "100.0%" in text

    def test_unbalanced_end_is_ignored(self):
        report = layer_report(
            [{"ph": "E", "name": "x", "cat": "l", "ts": 1.0}]
        )
        assert report["layers"] == {}


class TestMergeSummaries:
    def test_merges_deterministic_and_full_shapes(self):
        det = {"counters": {"paths": 2}, "spans": {"solve/track": 1}}
        full = {
            "counters": {"paths": 3},
            "histograms": {"dt": {"1e-02": 4}},
            "spans": {"solve/track": {"calls": 2, "seconds": 0.5}},
        }
        merged = merge_summaries([det, None, full])
        assert merged["n_sources"] == 2
        assert merged["counters"] == {"paths": 5}
        assert merged["histograms"] == {"dt": {"1e-02": 4}}
        assert merged["spans"]["solve/track"] == {
            "calls": 3, "seconds": 0.5,
        }

    def test_empty_returns_none(self):
        assert merge_summaries([]) is None
        assert merge_summaries([None, {}]) is None


class TestReportCLI:
    def _trace_file(self, tmp_path):
        tel = Telemetry(name="cli")
        with tel.trace(), tel.span("track", layer="tracker"):
            tel.instant("step_accept", "tracker")
        path = tmp_path / "t.json"
        tel.write_trace(path)
        return path

    def test_text_report(self, tmp_path, capsys):
        assert telemetry_main(["report", str(self._trace_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "tracker" in out and "events" in out

    def test_json_report(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert telemetry_main(["report", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instants"] == {"tracker.step_accept": 1}

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]\n")
        assert telemetry_main(["report", str(path)]) == 1
        assert "no trace events" in capsys.readouterr().err


class TestTracedSolve:
    def test_trace_paths_exports_layer_breakdown(self, tmp_path, capsys):
        system = katsura_system(3)
        store = ArtifactStore(tmp_path / "store")
        solve(system, start="polyhedral", rng=np.random.default_rng(6),
              kernel="slp", cache=store)
        # the default route, and a solve served warm from the store
        for route in ({}, dict(start="polyhedral", cache=store)):
            report = solve(system, rng=np.random.default_rng(7), mode="batch",
                           kernel="slp", trace_paths=True, **route)
            if route:
                assert report.summary["cache"]["status"] == "warm"
            assert report.trace is not None
            assert report.telemetry is not None
            spans = report.telemetry["spans"]
            # every layer of the stack shows up in one trace
            for key in ("solve/track", "predictor/tangent",
                        "corrector/newton", "kernel/evaluate_and_jacobian"):
                assert key in spans, f"missing span {key}"
            assert report.telemetry["counters"]["solve.paths"] == len(
                report.results
            )
            assert report.summary["kernel"]["cache"]["tapes"] >= 1

            path = tmp_path / "solve.trace.json"
            n = report.trace.write_trace(path)
            assert n == len(report.trace.events) > 0
            assert telemetry_main(["report", str(path)]) == 0
            out = capsys.readouterr().out
            for layer in ("predictor", "corrector", "kernel"):
                assert layer in out

    def test_default_solve_records_nothing(self):
        system = katsura_system(2)
        report = solve(system, rng=np.random.default_rng(3), mode="batch")
        assert report.trace is None
        assert report.telemetry is None

    def test_ambient_context_aggregates_without_tracing(self):
        tel = Telemetry(name="job")
        with use_telemetry(tel):
            solve(katsura_system(2), rng=np.random.default_rng(3), mode="batch")
        det = tel.deterministic_summary()
        assert det["spans"]["solve/track"] == 1
        assert tel.events == []  # no trace_paths: aggregates only


def _solve_fingerprint(report):
    """Everything decision-shaped about a solve, bitwise."""
    return [
        (
            r.path_id,
            r.status.name,
            r.solution.tobytes(),
            r.stats.steps_accepted,
            r.stats.steps_rejected,
            r.stats.newton_iterations,
            r.stats.t_reached,
            r.winding_number,
        )
        for r in sorted(report.results, key=lambda r: r.path_id)
    ]


class TestDecisionParity:
    """trace_paths must never change what the tracker *does*."""

    @pytest.mark.parametrize("mode", ["batch"])
    def test_solve_parity(self, mode):
        system = cyclic_roots_system(4)
        plain = solve(system, rng=np.random.default_rng(11), mode=mode)
        traced = solve(system, rng=np.random.default_rng(11), mode=mode,
                       trace_paths=True)
        assert _solve_fingerprint(plain) == _solve_fingerprint(traced)

    @settings(deadline=None, max_examples=8,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_batch_tracker_parity_over_seeds(self, seed):
        system = katsura_system(2)
        homotopy, starts = make_homotopy_and_starts(
            system, rng=np.random.default_rng(seed)
        )
        plain = BatchTracker().track_batch(homotopy, starts)
        tel = Telemetry()
        with use_telemetry(tel), tel.trace():
            traced = BatchTracker().track_batch(homotopy, starts)
        assert tel.counters.get("tracker.step_accept", 0) > 0
        for a, b in zip(plain, traced):
            assert a.status == b.status
            assert np.array_equal(a.solution, b.solution)
            assert a.stats.steps_accepted == b.stats.steps_accepted
            assert a.stats.steps_rejected == b.stats.steps_rejected
            assert a.stats.newton_iterations == b.stats.newton_iterations

    def test_per_path_tracker_parity(self):
        system = katsura_system(2)
        homotopy, starts = make_homotopy_and_starts(
            system, rng=np.random.default_rng(5)
        )
        plain = [
            PathTracker(TrackerOptions()).track(homotopy, s, path_id=i)
            for i, s in enumerate(starts)
        ]
        tel = Telemetry()
        with use_telemetry(tel), tel.trace():
            traced = [
                PathTracker(TrackerOptions()).track(homotopy, s, path_id=i)
                for i, s in enumerate(starts)
            ]
        for a, b in zip(plain, traced):
            assert a.status == b.status
            assert np.array_equal(a.solution, b.solution)
            assert a.stats.newton_iterations == b.stats.newton_iterations


def test_tracker_traces_only_inside_a_trace_region():
    """Tracing is the context's own switch: one tracker, one ambient
    context, per-path step events inside ``tel.trace()`` and none
    outside it."""
    homotopy, starts = make_homotopy_and_starts(
        katsura_system(2), rng=np.random.default_rng(5)
    )
    tracker = BatchTracker()
    tel = Telemetry()
    with use_telemetry(tel):
        tracker.track_batch(homotopy, starts)
        assert tel.events == []
        with tel.trace():
            tracker.track_batch(homotopy, starts)
        n_traced = len(tel.events)
        tracker.track_batch(homotopy, starts)
    assert len(tel.events) == n_traced
    steps = [e for e in tel.events if e["name"] == "step_accept"]
    assert {e["args"]["path"] for e in steps} == set(range(len(starts)))


class TestAmbientCost:
    """An ambient context without ``trace_paths`` costs a fixed number
    of spans a solve: one per stage of ``solve()``, none per path, step
    or kernel call, and no trace events."""

    STAGES = {"solve/solve": 1, "solve/start_system": 1, "solve/track": 1,
              "solve/retrack_duplicates": 1, "solve/refine": 1}

    @pytest.mark.parametrize("n, paths", [(4, 24), (5, 120)])
    def test_spans_do_not_grow_with_the_paths(self, n, paths):
        tel = Telemetry(name="ambient")
        with use_telemetry(tel):
            report = solve(cyclic_roots_system(n), mode="batch", kernel="slp",
                           rng=np.random.default_rng(0))
        assert report.n_paths == paths
        assert tel.deterministic_summary()["spans"] == self.STAGES
        assert tel.events == []


class TestBatchSecondsAmortization:
    """Satellite: per-path ``stats.seconds`` must sum to the batch wall."""

    def test_seconds_partition_batch_wall(self):
        system = katsura_system(3)
        homotopy, starts = make_homotopy_and_starts(
            system, rng=np.random.default_rng(2)
        )
        t0 = time.perf_counter()
        results = BatchTracker(TrackerOptions()).track_batch(homotopy, starts)
        wall = time.perf_counter() - t0
        seconds = [r.stats.seconds for r in results]
        assert all(s > 0.0 for s in seconds)  # every path carries a charge
        total = sum(seconds)
        # charges are slices of measured wall time: they can never exceed
        # it, and the loop body dominates so they cover most of it
        assert total <= wall * 1.01
        assert total >= wall * 0.5

    def test_one_path_batch_comparable_to_amortized_share(self):
        system = katsura_system(3)
        homotopy, starts = make_homotopy_and_starts(
            system, rng=np.random.default_rng(9)
        )
        tracker = BatchTracker(TrackerOptions())
        full = tracker.track_batch(homotopy, starts)
        single = tracker.track_batch(homotopy, starts[:1])
        mean_full = sum(r.stats.seconds for r in full) / len(full)
        s1 = single[0].stats.seconds
        # the old accounting charged every path the *whole batch's* wall
        # clock, so an 8-path batch reported ~8x a 1-path batch per path;
        # amortized, both figures are one path's share of its front
        assert s1 > 0 and mean_full > 0
        assert mean_full < s1 * 25
        assert s1 < mean_full * 25

    def test_seconds_comparable_to_per_path_tracker(self):
        system = katsura_system(2)
        homotopy, starts = make_homotopy_and_starts(
            system, rng=np.random.default_rng(2)
        )
        batch = BatchTracker(TrackerOptions()).track_batch(homotopy, starts)
        scalar = [
            PathTracker(TrackerOptions()).track(homotopy, s, path_id=i)
            for i, s in enumerate(starts)
        ]
        total_batch = sum(r.stats.seconds for r in batch)
        total_scalar = sum(r.stats.seconds for r in scalar)
        # both now measure "wall time spent on this front" — same order
        # of magnitude, not the old per-batch-total-in-every-path bug
        # where each path reported the whole batch wall
        assert total_batch > 0 and total_scalar > 0
        n = len(batch)
        assert max(r.stats.seconds for r in batch) < total_batch
        assert total_batch < n * max(r.stats.seconds for r in batch) * 1.01


class TestSweepTelemetryJournal:
    def test_records_segregate_deterministic_and_wall(self, tmp_path):
        from repro.sweep.engine import run_sweep
        from repro.sweep.spec import JobSpec, SweepSpec

        spec = SweepSpec(name="tj", jobs=(
            JobSpec(kind="katsura", params=(("n", 2),), seed=1),
        ))
        report = run_sweep(spec, tmp_path, mode="serial")
        rec = next(iter(report.records.values()))
        det = rec["result"]["telemetry"]
        assert det["spans"]["solve/track"] == 1
        assert "seconds" not in json.dumps(det)
        assert rec["telemetry_seconds"]["solve/track"] >= 0.0
        assert rec["kernel_cache"]["kernels"] >= 0
        assert "cache" not in rec["result"]["kernel"]
        assert report.telemetry["spans"]["solve/track"]["calls"] == 1

    def test_rerun_telemetry_is_identical(self, tmp_path):
        from repro.sweep.engine import run_sweep
        from repro.sweep.spec import JobSpec, SweepSpec

        spec = SweepSpec(name="tj", jobs=(
            JobSpec(kind="katsura", params=(("n", 2),), seed=4),
        ))
        a = run_sweep(spec, tmp_path / "a", mode="serial")
        b = run_sweep(spec, tmp_path / "b", mode="serial")
        rec_a = next(iter(a.records.values()))
        rec_b = next(iter(b.records.values()))
        assert rec_a["result"]["telemetry"] == rec_b["result"]["telemetry"]


class TestFleetStatus:
    def _drain_worker(self, port):
        """Minimal protocol worker: lease, report results, exit on drain."""
        import asyncio

        from repro.parallel.fleet.messages import decode_line, encode_frame

        async def work():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_frame(
                {"type": "hello", "worker": "w0", "held": []}
            ))
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    break
                msg = decode_line(line)
                if msg is None:
                    continue
                if msg["type"] == "lease":
                    for item in msg["jobs"]:
                        writer.write(encode_frame({
                            "type": "result", "worker": "w0",
                            "job_id": item["job_id"],
                            "record": {"job_id": item["job_id"]},
                            "seconds": 0.01,
                        }))
                    await writer.drain()
                elif msg["type"] == "drain":
                    writer.write(encode_frame(
                        {"type": "goodbye", "worker": "w0"}
                    ))
                    await writer.drain()
                    break
            writer.close()

        return work

    def test_status_snapshot_unit(self):
        from repro.parallel.fleet import FleetMaster

        jobs = [{"job_id": f"j{i}", "job": {}} for i in range(3)]
        master = FleetMaster(jobs, lambda jid, rec: None)
        snap = master.status_snapshot(0.0)
        assert snap["n_jobs"] == 3 and snap["backlog"] == 3
        assert snap["workers"] == {}
        master.handle({"type": "hello", "worker": "w0", "held": []}, 1.0)
        snap = master.status_snapshot(2.5)
        view = snap["workers"]["w0"]
        assert view["leased"] >= 1
        assert view["silent_seconds"] == pytest.approx(1.5)
        assert snap["stats"]["registrations"] == 1

    def test_status_frame_round_trip(self):
        import asyncio
        import json as json_module

        from repro.parallel.fleet import fetch_fleet_status, serve_fleet

        committed = {}
        holder = {}

        async def scenario():
            loop = asyncio.get_running_loop()
            port_fut = loop.create_future()

            async def observe_then_drain():
                port = await port_fut
                holder["status"] = await asyncio.to_thread(
                    fetch_fleet_status, "127.0.0.1", port
                )
                await self._drain_worker(port)()

            side = asyncio.create_task(observe_then_drain())
            master = await serve_fleet(
                [{"job_id": f"j{i}", "job": {}} for i in range(4)],
                lambda jid, rec: committed.__setitem__(jid, rec),
                on_listening=lambda h, p: port_fut.set_result(p),
                linger_seconds=0.05,
            )
            await side
            return master

        master = asyncio.run(scenario())
        status = holder["status"]
        assert status["type"] == "status_reply"
        assert status["n_jobs"] == 4
        assert status["backlog"] == 4  # queried before the worker joined
        json_module.dumps(status)  # wire-safe
        assert master.done and len(committed) == 4

    def test_report_json_surfaces_fleet_stats(self, tmp_path, capsys):
        from repro.sweep.cli import main as sweep_main
        from repro.sweep.journal import SweepJournal
        from repro.sweep.spec import JobSpec, SweepSpec

        spec = SweepSpec(name="fs", jobs=(
            JobSpec(kind="katsura", params=(("n", 2),), seed=1),
        ))
        from repro.sweep.engine import run_job

        journal = SweepJournal(tmp_path)
        journal.initialize(spec.to_dict())
        with journal:
            journal.append(run_job(spec.jobs[0]))
        fleet_stats = {
            "workers_seen": ["w0"],
            "busy_by_worker": {"w0": 1.25},
            "steals": 2, "requeues": 1, "duplicates": 0,
        }
        journal.write_manifest(1, 1, "complete",
                               {"name": "fs", "fleet": fleet_stats})
        assert sweep_main(["report", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["busy_by_worker"] == {"w0": 1.25}
        assert payload["fleet"]["steals"] == 2
        # text mode prints the same stats plus per-worker busy lines
        assert sweep_main(["report", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "steals 2" in text and "w0: busy 1.25s" in text

    def test_report_telemetry_flag(self, tmp_path, capsys):
        from repro.sweep.cli import main as sweep_main
        from repro.sweep.engine import run_sweep
        from repro.sweep.spec import JobSpec, SweepSpec

        spec = SweepSpec(name="tf", jobs=(
            JobSpec(kind="katsura", params=(("n", 2),), seed=1),
        ))
        run_sweep(spec, tmp_path, mode="serial")
        assert sweep_main(["report", str(tmp_path), "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "solve/track" in out and "solve.paths" in out
