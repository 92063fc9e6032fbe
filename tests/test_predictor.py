"""Predictor pipeline: Hermite prediction, error-model step control,
Jacobian recycling, and the acceptance/rejection ladder around them.

The contracts under test:

- ``make_predictor`` resolves names/instances; Euler stays the default.
- Hermite reproduces a cubic path exactly and degrades to the Euler
  arithmetic whenever history is missing (first step, resumed paths,
  failed tangent solves) — the chart-switch resume guarantee.
- A one-row front makes the same decisions as its row of a wide front
  under the Hermite predictor (statuses, step/Newton counters,
  endpoints, bit for bit).
- Jacobian recycling, update-size acceptance, the contraction-gated
  loose exit, fail-fast rejection, and jump rejection are one pipeline,
  on exactly when the predictor declares ``error_model``; its constants
  are ``Predictor`` class attributes, overridden by subclass.
- The solve layer hands Hermite failures to the re-track ladder, which
  re-tracks them on the pinned Euler baseline, so the root set never
  shrinks.
- On whole solves (katsura-6, warm polyhedral cyclic-5) Hermite finds
  the same roots with at least 1.35x less Newton + Jacobian effort.
"""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import ArtifactStore
from repro.homotopy import make_homotopy_and_starts
from repro.schubert import PieriInstance, PieriSolver
from repro.systems import cyclic_roots_system, katsura_system
from repro.telemetry import Telemetry, use_telemetry
from repro.tracker import (
    BatchTracker,
    CubicPredictor,
    EulerPredictor,
    HermitePredictor,
    Ladder,
    PathStatus,
    PathTracker,
    PREDICTORS,
    TrackerOptions,
    batch_newton_correct,
    greedy_cluster_indices,
    make_predictor,
    newton_correct,
    retrack_duplicate_clusters,
)
from repro.tracker.interface import BatchHomotopy, _per_path_t
from repro.tracker.predictor import _euler_predict

solve_module = importlib.import_module("repro.homotopy.solve")


def _tuned(base=HermitePredictor, **constants):
    """A ``base`` predictor with pipeline constants overridden — they are
    class attributes, so the override is a subclass."""
    return type(f"Tuned{base.__name__}", (base,), constants)()


class CubicHomotopy(BatchHomotopy):
    """H(x, t) = x - c(t) with cubic c(t): the path *is* a cubic."""

    COEFFS = (0.3 + 0.1j, -1.2 + 0.4j, 0.7 - 0.2j, 1.1 + 0.05j)

    @property
    def dim(self):
        return 1

    def c(self, t):
        a0, a1, a2, a3 = self.COEFFS
        return a0 + a1 * t + a2 * t * t + a3 * t**3

    def dc(self, t):
        _, a1, a2, a3 = self.COEFFS
        return a1 + 2 * a2 * t + 3 * a3 * t * t

    def evaluate_batch(self, X, t):
        return X - self.c(_per_path_t(t, len(X))[:, None])

    def jacobian_x_batch(self, X, t):
        return np.ones((len(X), 1, 1), dtype=complex)

    def jacobian_t_batch(self, X, t):
        return -self.dc(_per_path_t(t, len(X))[:, None])


class TestPredictorResolution:
    def test_registry_names(self):
        assert PREDICTORS == ("euler", "hermite", "cubic")
        assert isinstance(make_predictor("euler"), EulerPredictor)
        assert isinstance(make_predictor("hermite"), HermitePredictor)
        cubic = make_predictor("cubic")
        assert isinstance(cubic, HermitePredictor)
        assert (cubic.name, cubic.order, cubic.error_model) == ("cubic", 4, False)
        # one predict body: the tracer wraps HermitePredictor's by name
        assert "predict" not in vars(type(cubic))

    def test_default_is_euler(self):
        assert make_predictor(None).name == "euler"
        assert TrackerOptions().predictor == "euler"
        assert make_predictor(TrackerOptions().predictor).name == "euler"

    def test_instance_passthrough(self):
        pred = HermitePredictor()
        assert make_predictor(pred) is pred

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            make_predictor("rk4")
        with pytest.raises(ValueError):
            TrackerOptions(predictor="rk4").validated()

    def test_orders_and_error_model(self):
        assert EulerPredictor.order == 2 and not EulerPredictor.error_model
        assert HermitePredictor.order == 4 and HermitePredictor.error_model


class TestKnobResolution:
    """The error-model pipeline is on exactly when the predictor says so."""

    @staticmethod
    def _front(predictor):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(4), rng=np.random.default_rng(9)
        )
        tel = Telemetry()
        with use_telemetry(tel), tel.trace():
            res = BatchTracker(
                TrackerOptions(predictor=predictor)
            ).track_batch(homotopy, starts)
        assert all(r.success for r in res)
        return res, tel

    def test_euler_resolves_everything_off(self):
        # a jump factor this tight rejects under hermite (TestJumpRejection)
        res, tel = self._front(_tuned(EulerPredictor, jump_factor=1.2))
        assert sum(r.stats.tangents_recycled for r in res) == 0
        assert tel.counters.get("tracker.jump_rejections", 0) == 0

    def test_hermite_resolves_error_model_defaults(self):
        euler, _ = self._front("euler")
        hermite, tel = self._front("hermite")
        assert sum(r.stats.tangents_recycled for r in hermite) > 0
        assert tel.counters.get("tracker.tangents_recycled", 0) > 0

        def effort(res):
            return sum(
                r.stats.jacobian_evaluations + r.stats.newton_iterations
                for r in res
            )

        assert effort(hermite) < effort(euler)


class TestHermiteArithmetic:
    def _state_rows(self, pred, n=1):
        X0 = np.zeros((n, 1), dtype=complex)
        return pred.make_state(X0, np.zeros(n)), np.arange(n)

    def test_exact_on_cubic_path(self):
        """The cubic-Hermite prediction of a cubic path is the path."""
        h = CubicHomotopy()
        pred = HermitePredictor()
        t0, t1, dt = 0.2, 0.5, 0.25
        state = pred.make_state(np.array([[h.c(t0)]]), np.array([t0]))
        # record the accepted step t0 -> t1 with the exact tangent at t0
        pred.accepted(
            state,
            np.array([0]),
            np.array([[h.c(t0)]]),
            np.array([t0]),
            np.array([[h.dc(t0)]]),
            np.array([True]),
        )
        x_pred = pred.predict(
            state,
            np.array([0]),
            np.array([[h.c(t1)]]),
            np.array([t1]),
            np.array([dt]),
            np.array([[h.dc(t1)]]),
            np.array([True]),
        )
        assert abs(x_pred[0, 0] - h.c(t1 + dt)) < 1e-12

    def test_no_history_matches_euler(self):
        """First step (or a resumed path) must be the Euler arithmetic."""
        pred = HermitePredictor()
        state, rows = self._state_rows(pred)
        X = np.array([[1.0 + 0.5j]])
        T, dt = np.array([0.3]), np.array([0.1])
        tangent = np.array([[2.0 - 1.0j]])
        ok = np.array([True])
        got = pred.predict(state, rows, X, T, dt, tangent, ok)
        want = _euler_predict(state, rows, X, T, dt, tangent, ok)
        np.testing.assert_array_equal(got, want)

    def test_failed_tangent_matches_euler_fallback(self):
        """ok=False rows fall back even when history exists."""
        pred = HermitePredictor()
        state, rows = self._state_rows(pred)
        pred.accepted(
            state,
            rows,
            np.array([[0.5 + 0j]]),
            np.array([0.1]),
            np.array([[1.0 + 0j]]),
            np.array([True]),
        )
        X, T, dt = np.array([[1.0 + 0j]]), np.array([0.4]), np.array([0.1])
        tangent, ok = np.array([[0.0 + 0j]]), np.array([False])
        got = pred.predict(state, rows, X, T, dt, tangent, ok)
        want = _euler_predict(state, rows, X, T, dt, tangent, ok)
        np.testing.assert_array_equal(got, want)


class TestHistoryResetOnResume:
    """Satellite: a resumed track must not extrapolate stale history."""

    class _Recording(HermitePredictor):
        def __init__(self):
            self.first_call_had_history = None

        def predict(self, state, rows, X, T, dt, tangent, ok):
            if self.first_call_had_history is None:
                self.first_call_had_history = bool(
                    np.any(state.has_tangent[rows])
                )
            return super().predict(state, rows, X, T, dt, tangent, ok)

    def test_scalar_t_start_resume_starts_euler(self):
        h = CubicHomotopy()
        rec = self._Recording()
        opts = TrackerOptions(predictor=rec)
        res = PathTracker(opts).track(
            h, np.array([CubicHomotopy().c(0.5)]), t_start=0.5
        )
        assert res.success
        assert rec.first_call_had_history is False

    def test_batch_per_path_t_start_resume_starts_euler(self):
        h = CubicHomotopy()
        rec = self._Recording()
        opts = TrackerOptions(predictor=rec)
        t0 = np.array([0.0, 0.25, 0.5])
        starts = np.array([[h.c(t)] for t in t0])
        res = BatchTracker(opts).track_batch(h, starts, t_start=t0)
        assert all(r.success for r in res)
        assert rec.first_call_had_history is False

    def test_two_tracks_share_no_state(self):
        """A second track on the same tracker starts with fresh history."""
        h = CubicHomotopy()
        rec = self._Recording()
        tracker = PathTracker(TrackerOptions(predictor=rec))
        tracker.track(h, np.array([h.c(0.0)]))
        rec.first_call_had_history = None
        tracker.track(h, np.array([h.c(0.5)]), t_start=0.5)
        assert rec.first_call_had_history is False

    class _RecordingCubic(CubicPredictor):
        """Per track call: did its first prediction see any history?"""

        def __init__(self):
            self.calls = []

        def make_state(self, X, T):
            self.calls.append(None)
            return super().make_state(X, T)

        def predict(self, state, rows, X, T, dt, tangent, ok):
            if self.calls[-1] is None:
                self.calls[-1] = bool(np.any(state.has_tangent[rows]))
            return super().predict(state, rows, X, T, dt, tangent, ok)

    def test_cubic_resumed_front_starts_without_history(self):
        h = CubicHomotopy()
        t0 = np.array([0.0, 0.25, 0.5])
        starts = np.array([[h.c(t)] for t in t0])
        rec = self._RecordingCubic()
        assert rec.name == "cubic" and not rec.error_model
        tracker = BatchTracker(TrackerOptions(predictor=rec))
        for _ in range(2):
            res = tracker.track_batch(h, starts, t_start=t0)
            assert all(r.success for r in res)
        assert rec.calls == [False, False]

    @pytest.mark.parametrize(
        "rung, stress",
        [
            ("chart_switches", {}),
            (
                "retries",
                dict(initial_step=0.4, max_step=0.4, min_step=0.1,
                     corrector_iterations=3, expand_after=2),
            ),
        ],
    )
    def test_pieri_requeued_fronts_start_without_history(
        self, monkeypatch, rung, stress
    ):
        """A chart-switch resume tracks other coordinates: it is a track
        call of its own, so the cubic cannot extrapolate across the
        seam.  A ladder rung re-tracks on the seed Euler guess
        (``tighten_options``), so the cubic never sees one."""
        if rung == "chart_switches":
            # a tight divergence bound forces chart switches
            monkeypatch.setattr("repro.tracker.batch.DIVERGENCE_BOUND", 20.0)
        rec = self._RecordingCubic()
        options = dataclasses.replace(
            PieriSolver.DEFAULT_OPTIONS, predictor=rec, **stress
        )
        instance = PieriInstance.random(2, 2, 1, np.random.default_rng(0))
        report = PieriSolver(instance, options=options, seed=0).solve()
        assert report.options["predictor"] == "cubic"
        assert sum(r[rung] for r in report.level_batches) > 0
        # track calls beyond one a tree level: the chart-switch resumes
        extra = len(rec.calls) - instance.problem.num_conditions
        assert (extra > 0) == (rung == "chart_switches")
        assert not any(rec.calls)


class TestScalarBatchParity:
    def test_hermite_parity_under_tight_jump_factor(self):
        """Jump rejection fires in a one-row front exactly as in its row
        of the wide one (the plain hermite case is pinned on katsura-5
        and cyclic-5 in ``test_batch_tracker.py``)."""
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(4), rng=np.random.default_rng(3)
        )
        opts = TrackerOptions(predictor=_tuned(jump_factor=1.5))
        batch = BatchTracker(opts).track_batch(homotopy, starts)
        assert sum(r.stats.steps_rejected for r in batch) > 0
        for i, b in enumerate(batch):
            a = PathTracker(opts).track(homotopy, starts[i], path_id=i)
            assert a.status == b.status
            assert a.stats == dataclasses.replace(b.stats, seconds=a.stats.seconds)
            assert np.array_equal(a.solution, b.solution)


class TestRootParityAndEffort:
    def test_hermite_finds_the_same_roots_cheaper(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(5), rng=np.random.default_rng(5)
        )
        by_pred = {}
        for name in PREDICTORS:
            res = BatchTracker(TrackerOptions(predictor=name)).track_batch(
                homotopy, starts
            )
            assert all(r.success for r in res)
            by_pred[name] = res
        for a, b in zip(by_pred["euler"], by_pred["hermite"]):
            assert np.max(np.abs(a.solution - b.solution)) < 1e-8
        effort = {
            name: sum(
                r.stats.newton_iterations + r.stats.jacobian_evaluations
                for r in res
            )
            for name, res in by_pred.items()
        }
        assert effort["hermite"] < effort["euler"]

    def test_recycling_counts_and_opt_out(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(4), rng=np.random.default_rng(9)
        )
        on = BatchTracker(TrackerOptions(predictor="hermite")).track_batch(
            homotopy, starts
        )
        assert sum(r.stats.tangents_recycled for r in on) > 0
        # the front that does not recycle is the default euler one
        off = BatchTracker(TrackerOptions()).track_batch(homotopy, starts)
        assert all(r.success for r in off)
        assert sum(r.stats.tangents_recycled for r in off) == 0
        # recycling replaces fused tangent evaluations with jac_t-only
        # ones, so the recycled run charges strictly fewer Jacobians
        assert sum(r.stats.jacobian_evaluations for r in on) < sum(
            r.stats.jacobian_evaluations for r in off
        )

    def test_euler_decisions_bit_identical_to_seed(self):
        """The default predictor leaves the seed arithmetic untouched:
        no recycling, no error model, streak step control."""
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(4), rng=np.random.default_rng(2)
        )
        res = BatchTracker(TrackerOptions()).track_batch(homotopy, starts)
        assert sum(r.stats.tangents_recycled for r in res) == 0


class TestEffortGate:
    """Hermite's counted work against Euler's on whole solves: Newton
    iterations plus Jacobian evaluations, counters that repeat exactly
    for a seed, so the floor is a count and not a wall-clock ratio."""

    # regression floor under the measured 1.673x (katsura-6) and
    # 1.556x (cyclic-5 warm)
    EFFORT_FLOOR = 1.35

    @pytest.mark.parametrize(
        "system, start",
        [
            (katsura_system(6), "total_degree"),
            (cyclic_roots_system(5), "polyhedral"),
        ],
        ids=["katsura-6", "cyclic-5-warm"],
    )
    def test_hermite_cuts_effort_with_the_same_roots(
        self, system, start, tmp_path
    ):
        store = ArtifactStore(tmp_path) if start == "polyhedral" else None

        def run(predictor):
            return solve_module.solve(
                system, start=start, rng=np.random.default_rng(0),
                mode="batch", kernel="slp", predictor=predictor, cache=store,
            )

        if store is not None:
            run("euler")  # the cold solve fills the store
        euler, hermite = run("euler"), run("hermite")
        if store is not None:
            for rep in (euler, hermite):
                assert rep.summary["cache"]["status"] == "warm"
        assert len(euler.solutions) == len(hermite.solutions) > 0
        pool = list(hermite.solutions)
        for x in euler.solutions:  # greedy nearest-neighbour pairing
            dists = [np.max(np.abs(x - y)) for y in pool]
            k = int(np.argmin(dists))
            assert dists[k] < 1e-8
            pool.pop(k)
        effort = [
            rep.summary["newton_total"] + rep.summary["jacobian_evaluations"]
            for rep in (euler, hermite)
        ]
        assert effort[0] >= self.EFFORT_FLOOR * effort[1]


class TestLiveLadderGate:
    """The re-track ladder's rungs ride the live front: kernel calls of
    a whole solve, a count that repeats exactly for a seed."""

    def test_rungs_ride_the_front(self):
        # katsura-7 seed 0 re-tracks five colliding pairs.  As a 10-row
        # front after the 128-row one: 1 235 kernel calls at 18.6
        # points a call.  Live, a re-track that collides again is
        # finished by the endgame on the spot, to be compared finished
        # with the success it re-tracked
        report = solve_module.solve(
            katsura_system(7), kernel="slp", mode="batch",
            predictor="hermite", rng=np.random.default_rng(0),
        )
        kernel = report.summary["kernel"]
        assert len(report.solutions) == report.summary["success"] == 128
        assert kernel["calls"] == 1195
        assert kernel["points_per_call"] > 18.6


class TestCorrectorAcceptance:
    def _homotopy(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(3), rng=np.random.default_rng(1)
        )
        return homotopy, starts

    def test_update_tol_accepts_earlier(self):
        homotopy, starts = self._homotopy()
        x = starts[0] + 1e-4
        strict = newton_correct(homotopy, x, 0.0, tol=1e-14)
        loose = newton_correct(homotopy, x, 0.0, tol=1e-14, update_tol=1e-6)
        assert loose.converged
        assert loose.iterations <= strict.iterations

    def test_loose_exit_needs_contraction_evidence(self):
        """A first-sweep update below loose_tol must NOT exit loose:
        dx_prev is infinite, so there is no contraction evidence yet."""
        homotopy, starts = self._homotopy()
        x = starts[0] + 1e-5
        res = newton_correct(
            homotopy, x, 0.0, tol=1e-14, update_tol=1e-12, loose_tol=1e2
        )
        assert res.converged
        assert res.iterations >= 2

    def test_fail_fast_rejects_growing_updates(self):
        homotopy, starts = self._homotopy()
        x = starts[0] + 10.0  # far outside the basin
        patient = newton_correct(homotopy, x, 0.0, tol=1e-14, max_iterations=8)
        hasty = newton_correct(
            homotopy, x, 0.0, tol=1e-14, max_iterations=8, fail_fast=True
        )
        if not patient.converged:
            assert not hasty.converged
            assert hasty.iterations <= patient.iterations

    def test_batch_matches_scalar_acceptance(self):
        homotopy, starts = self._homotopy()
        X = np.asarray(starts) + 1e-4
        kw = dict(tol=1e-14, update_tol=1e-6, loose_tol=1e-4, fail_fast=True)
        out = batch_newton_correct(homotopy, X, 0.0, **kw)
        for i, x0 in enumerate(X):
            scalar = newton_correct(homotopy, x0, 0.0, **kw)
            assert out.converged[i] == scalar.converged
            assert out.iterations[i] == scalar.iterations
            np.testing.assert_array_equal(out.x[i], scalar.x)


class _RestrictRecorder:
    """Wraps a batch homotopy, recording every restrict() index set."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    @property
    def dim(self):
        return self._inner.dim

    def restrict(self, rows):
        rows = np.asarray(rows)
        self._log.append(rows.size)
        return _RestrictRecorder(self._inner.restrict(rows), self._log)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestRestrictNeverEmpty:
    """Satellite: the corrector's mid-sweep re-checks and final
    residual verification never restrict to an empty index set."""

    def test_mixed_batch(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(3), rng=np.random.default_rng(6)
        )
        X = np.asarray(starts, dtype=complex).copy()
        X[0] += 1e-13   # converges via update underflow
        X[1] += 1e-3    # ordinary quadratic convergence
        X[2] += 50.0    # hopeless: burns every sweep
        log = []
        wrapped = _RestrictRecorder(homotopy, log)
        batch_newton_correct(
            wrapped, X, 0.0, tol=1e-14, max_iterations=4, update_tol=1e-7
        )
        assert log, "restrict was never exercised"
        assert min(log) >= 1

    def test_all_converge_immediately(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(3), rng=np.random.default_rng(6)
        )
        log = []
        wrapped = _RestrictRecorder(homotopy, log)
        out = batch_newton_correct(wrapped, np.asarray(starts), 0.0, tol=1e-8)
        assert out.converged.all()
        assert not log or min(log) >= 1


class _DtRecorder(HermitePredictor):
    """Hermite predictor that logs every attempted step size."""

    def __init__(self):
        self.dts = []

    def predict(self, state, rows, X, T, dt, tangent, ok):
        self.dts.extend(float(d) for d in dt)
        return super().predict(state, rows, X, T, dt, tangent, ok)


class TestErrorModelStepControl:
    def test_growth_is_capped(self):
        """Consecutive step attempts never grow faster than max_growth."""
        h = CubicHomotopy()
        rec = _tuned(_DtRecorder, max_growth=1.7)
        opts = TrackerOptions(predictor=rec, initial_step=1e-3)
        res = PathTracker(opts).track(h, np.array([h.c(0.0)]))
        assert res.success
        assert len(rec.dts) >= 3
        for prev, cur in zip(rec.dts, rec.dts[1:]):
            assert cur <= prev * rec.max_growth * (1 + 1e-12)

    def test_steps_respect_max_step(self):
        h = CubicHomotopy()
        rec = _DtRecorder()
        opts = TrackerOptions(predictor=rec, max_step=0.05)
        res = PathTracker(opts).track(h, np.array([h.c(0.0)]))
        assert res.success
        assert max(rec.dts) <= opts.max_step + 1e-15

    def test_predictor_error_histogram_recorded(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(3), rng=np.random.default_rng(8)
        )
        tel = Telemetry()
        with use_telemetry(tel), tel.trace():
            BatchTracker(
                TrackerOptions(predictor="hermite")
            ).track_batch(homotopy, starts)
        assert "predictor_error" in tel.histograms
        assert tel.counters.get("tracker.tangents_recycled", 0) > 0


class TestJumpRejection:
    def test_tight_factor_rejects_and_still_tracks(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(4), rng=np.random.default_rng(3)
        )
        tel = Telemetry()
        opts = TrackerOptions(predictor=_tuned(jump_factor=1.2))
        with use_telemetry(tel), tel.trace():
            res = BatchTracker(opts).track_batch(homotopy, starts)
        assert tel.counters.get("tracker.jump_rejections", 0) > 0
        assert sum(r.success for r in res) == len(starts)

    def test_rejections_count_as_rejected_steps(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(4), rng=np.random.default_rng(3)
        )
        loose = BatchTracker(
            TrackerOptions(predictor=_tuned(jump_factor=1e9))
        ).track_batch(homotopy, starts)
        tight = BatchTracker(
            TrackerOptions(predictor=_tuned(jump_factor=1.2))
        ).track_batch(homotopy, starts)
        assert sum(r.stats.steps_rejected for r in tight) > sum(
            r.stats.steps_rejected for r in loose
        )

    def test_euler_never_jump_rejects(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(4), rng=np.random.default_rng(3)
        )
        tel = Telemetry()
        with use_telemetry(tel), tel.trace():
            BatchTracker(
                TrackerOptions(
                    predictor=_tuned(EulerPredictor, jump_factor=1.2)
                )
            ).track_batch(homotopy, starts)
        assert tel.counters.get("tracker.jump_rejections", 0) == 0


class TestFallbackRetrack:
    """Under an error-model predictor ``solve()`` hands its FAILED rows
    to the re-track ladder, which re-tracks them on the seed Euler
    settings with the first collision rung."""

    @staticmethod
    def _retrack(homotopy, starts, rungs):
        def retrack(pids, opts):
            rungs.append((list(pids), make_predictor(opts.predictor).name))
            return BatchTracker(opts).track_batch(
                homotopy, np.asarray(starts)[pids], path_ids=pids
            )

        return retrack

    def test_failed_hermite_path_is_rescued_by_euler(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(3), rng=np.random.default_rng(1)
        )
        opts = TrackerOptions(predictor="hermite")
        results = BatchTracker(opts).track_batch(homotopy, starts)
        assert all(r.success for r in results)
        good = results[2]
        spent = dataclasses.replace(good.stats)
        # fabricate a mid-path failure for path 2
        results[2] = dataclasses.replace(
            good, status=PathStatus.FAILED, solution=good.start.copy()
        )
        rungs = []
        retrack_duplicate_clusters(
            results, self._retrack(homotopy, starts, rungs), Ladder(opts),
            failed=[2],
        )
        assert rungs == [([2], "euler")]
        redone = results[2]
        assert redone.success
        assert np.max(np.abs(redone.solution - good.solution)) < 1e-8
        # honest accounting: the failed attempt's effort is not dropped
        assert redone.stats.newton_iterations > spent.newton_iterations

    def test_no_failures_is_a_no_op(self):
        homotopy, starts = make_homotopy_and_starts(
            katsura_system(3), rng=np.random.default_rng(1)
        )
        opts = TrackerOptions(predictor="hermite")
        results = BatchTracker(opts).track_batch(homotopy, starts)
        before = [r.solution.copy() for r in results]
        rungs = []
        retrack_duplicate_clusters(
            results, self._retrack(homotopy, starts, rungs), Ladder(opts),
            failed=[r.path_id for r in results if not r.success],
        )
        assert rungs == []
        for r, b in zip(results, before):
            np.testing.assert_array_equal(r.solution, b)


class TestGreedyClustering:
    @staticmethod
    def _naive(points, tol):
        clusters = []
        reps = []
        for i, x in enumerate(points):
            x = np.asarray(x, dtype=complex)
            for c, rep in zip(clusters, reps):
                if np.max(np.abs(rep - x)) < tol:
                    c.append(i)
                    break
            else:
                clusters.append([i])
                reps.append(x)
        return clusters

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4))
        pts[17] = pts[3] + 1e-9   # planted duplicates
        pts[41] = pts[3] - 1e-9
        pts[55] = pts[20]
        got = greedy_cluster_indices(list(pts), 1e-6)
        assert got == self._naive(list(pts), 1e-6)

    def test_empty_and_single(self):
        assert greedy_cluster_indices([], 1e-6) == []
        assert greedy_cluster_indices([np.array([1 + 0j])], 1e-6) == [[0]]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 100),  # same_key: the scan fallback from n = 66
        dim=st.integers(1, 3),
        planted=st.integers(0, 12),
        same_key=st.booleans(),
    )
    def test_property_first_seen_greedy(self, seed, n, dim, planted, same_key):
        """The sorted-window form is the double loop, on point sets
        built to stress it: planted near-duplicates at offsets inside,
        at and beyond ``tol``, in a random arrival order, and keys that
        separate nothing (every point with the same first real part)."""
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        for _ in range(planted):
            i, j = rng.integers(0, n, 2)
            offset = (rng.random(dim) - 0.5) * rng.choice([1e-8, 1.6e-6, 3e-6])
            pts[j] = pts[i] + offset * rng.choice([1.0, 1j])
        if same_key:
            pts[:, 0] = pts[0, 0].real + 1j * pts[:, 0].imag
        pts = list(pts[rng.permutation(n)])
        assert greedy_cluster_indices(pts, 1e-6) == self._naive(pts, 1e-6)

    @pytest.mark.parametrize("order", [
        (0, 1, 2, 3), (1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1), (1, 3, 0, 2),
    ])
    def test_chain_only_adjacent_within_tol(self, order):
        """a-b-c-d with only neighbours within ``tol``: who represents
        whom depends on arrival order alone, never on the sort."""
        chain = [np.array([k * 0.8e-6 + 0.5j, 2.0]) for k in range(4)]
        pts = [chain[k] for k in order]
        got = greedy_cluster_indices(pts, 1e-6)
        assert got == self._naive(pts, 1e-6)
        assert sorted(i for c in got for i in c) == [0, 1, 2, 3]

    def test_all_identical_points_and_keys(self):
        # identical keys on either side of the fallback to the scan
        # (more than 32 candidate pairs a point: from 66 points on)
        for n in (50, 90):
            pts = [np.array([0.25 - 1j, 3.0])] * n
            assert greedy_cluster_indices(pts, 1e-6) == [list(range(n))]
            pts = [np.array([0.25 + k * 1j, 3.0]) for k in range(n)]
            assert greedy_cluster_indices(pts, 1e-6) == [[k] for k in range(n)]


class TestSolveIntegration:
    def test_solve_predictor_kwarg(self):
        rep = solve_module.solve(
            katsura_system(3),
            rng=np.random.default_rng(0),
            mode="batch",
            predictor="hermite",
        )
        assert rep.summary["predictor"] == "hermite"
        # the report echoes the main pass's options, nothing left to resolve
        assert rep.summary["options"] == {
            **dataclasses.asdict(TrackerOptions()), "predictor": "hermite"
        }
        base = solve_module.solve(
            katsura_system(3), rng=np.random.default_rng(0), mode="batch"
        )
        assert base.summary["predictor"] == "euler"
        assert len(rep.solutions) == len(base.solutions)
        sols = sorted(
            (tuple(np.round(s, 6)) for s in rep.solutions), key=str
        )
        ref = sorted(
            (tuple(np.round(s, 6)) for s in base.solutions), key=str
        )
        assert sols == ref
