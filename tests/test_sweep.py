"""The sweep engine: specs, journals, checkpoint/resume, failure injection.

The centerpiece is the ISSUE-2 acceptance property: a sweep of >= 20
mixed jobs killed mid-run (both a simulated kill via ``abort_after`` and
a real ``SIGKILL`` of the CLI process) resumes from the checkpoint
journal, re-runs only unfinished jobs, and produces a result set
identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.sweep.engine as engine_mod
from repro.sweep.cli import main as cli_main
from repro.sweep import (
    JobSpec,
    SweepJournal,
    SweepSpec,
    mixed_demo_spec,
    run_job,
    run_sweep,
    solutions_fingerprint,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _group_members(pgid):
    """Live (not zombie) processes of process group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # after the command: state, ppid, pgrp
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def _reap_group(pgid, timeout=30.0):
    """SIGKILL what is left of a killed master's process group (its pool
    workers) and wait until none of it runs."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + timeout
    while _group_members(pgid):
        assert time.time() < deadline, "orphaned workers survived SIGKILL"
        time.sleep(0.05)


def small_mixed_spec(name="mixed-small"):
    """20 mixed jobs, fast ones first and the heavy ones last (so a kill
    early in the run always leaves work for the resume to do)."""
    jobs = [JobSpec("katsura", {"n": 2}, seed=s) for s in range(8)]
    jobs += [JobSpec("katsura", {"n": 3}, seed=s) for s in range(4)]
    jobs += [JobSpec("noon", {"n": 3}, seed=s) for s in range(2)]
    jobs += [JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=s) for s in range(2)]
    jobs += [JobSpec("cyclic", {"n": 4}, seed=s) for s in range(2)]
    jobs += [JobSpec("cyclic", {"n": 5}, seed=0), JobSpec("rps", {"n": 5}, seed=0)]
    return SweepSpec(name=name, jobs=jobs)


def results_only(records):
    """The deterministic part of a record set (drops timing/worker info)."""
    return {jid: rec["result"] for jid, rec in records.items()}


class TestJobSpec:
    def test_job_id_is_canonical(self):
        a = JobSpec("pieri", {"q": 1, "m": 2, "p": 2}, seed=3)
        b = JobSpec("pieri", {"m": 2, "p": 2, "q": 1}, seed=3)
        assert a.job_id == b.job_id == "pieri-m2-p2-q1-s3"
        assert JobSpec("cyclic", {"n": 5}).job_id == "cyclic-n5-s0"

    def test_golden_job_ids(self):
        """Ids key the journals: written out, so old journals resume."""
        pieri = {"m": 2, "p": 2, "q": 1}
        golden = {
            "katsura-n4-s0": JobSpec("katsura", {"n": 4}),
            "rps-n5-s9": JobSpec("rps", {"n": 5}, 9),
            "cyclic-n5-linear_product-s0":
                JobSpec("cyclic", {"n": 5}, start="linear_product"),
            "cyclic-n7-polyhedral-s2":
                JobSpec("cyclic", {"n": 7}, 2, "polyhedral"),
            "noon-n3-cauchy-s1": JobSpec("noon", {"n": 3}, 1, endgame="cauchy"),
            "katsura-n6-slp-s0": JobSpec("katsura", {"n": 6}, kernel="slp"),
            "katsura-n6-hermite-s3":
                JobSpec("katsura", {"n": 6}, 3, predictor="hermite"),
            "cyclic-n5-polyhedral-cauchy-slp-hermite-s0": JobSpec(
                "cyclic", {"n": 5}, 0, "polyhedral", "cauchy", "slp",
                "hermite",
            ),
            "katsura-n5-slp-hermite-s7":
                JobSpec("katsura", {"n": 5}, 7, kernel="slp", predictor="hermite"),
            "pieri-m2-p2-q1-s0": JobSpec("pieri", pieri),
        }
        assert {j.job_id for j in golden.values()} == set(golden)
        for job_id, job in golden.items():
            assert job.job_id == job_id

    def test_rejects_unknown_kind_and_bad_params(self):
        with pytest.raises(ValueError):
            JobSpec("bogus", {"n": 3})
        with pytest.raises(ValueError):
            JobSpec("cyclic", {"m": 3})
        with pytest.raises(ValueError):
            JobSpec("pieri", {"m": 2, "p": 2})
        # spec JSON comes from outside: a misspelt axis is not the default
        with pytest.raises(ValueError, match="predicter"):
            JobSpec.from_dict(
                {"kind": "cyclic", "params": {"n": 4}, "predicter": "hermite"}
            )

    def test_roundtrip(self):
        job = JobSpec("katsura", {"n": 4}, seed=7)
        assert JobSpec.from_dict(job.to_dict()) == job
        every_axis = {
            "start": ["total_degree", "linear_product", "polyhedral"],
            "endgame": ["refine", "cauchy"],
            "kernel": ["naive", "slp"],
            "predictor": ["euler", "hermite"],
            "seeds": [0, 3],
        }
        spec = SweepSpec.from_dict({"name": "axes", "grids": [
            {"kind": "katsura", "n": [3, 4], **every_axis},
            {"kind": "cyclic", "n": 5, **every_axis, "start": "polyhedral"},
            {"kind": "pieri", "m": 2, "p": 2, "q": [0, 1]},
        ]})
        assert spec.n_jobs == 2 * 48 + 16 + 2
        for job in spec.jobs:
            assert JobSpec.from_dict(job.to_dict()) == job
        assert SweepSpec.from_dict(spec.to_dict()).jobs == spec.jobs


class TestSweepSpec:
    def test_grid_expansion(self):
        spec = SweepSpec.from_dict(
            {
                "name": "grid",
                "grids": [
                    {"kind": "pieri", "m": [2, 3], "p": [2], "q": [0, 1],
                     "seeds": [0, 1]},
                    {"kind": "cyclic", "n": [4, 5]},
                ],
            }
        )
        assert spec.n_jobs == 2 * 1 * 2 * 2 + 2
        assert "pieri-m3-p2-q1-s1" in spec.job_ids()
        assert "cyclic-n4-s0" in spec.job_ids()

    def test_duplicate_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("dup", [JobSpec("cyclic", {"n": 4})] * 2)
        # "grid" for "grids" used to load as a sweep of no jobs
        with pytest.raises(ValueError, match="grid"):
            SweepSpec.from_dict(
                {"name": "x", "grid": [{"kind": "cyclic", "n": [4]}]}
            )

    def test_save_load_roundtrip(self, tmp_path):
        spec = small_mixed_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = SweepSpec.load(path)
        assert loaded.name == spec.name
        assert loaded.job_ids() == spec.job_ids()

    def test_demo_spec_has_twenty_mixed_jobs(self):
        spec = mixed_demo_spec()
        assert spec.n_jobs >= 20
        assert len({j.kind for j in spec.jobs}) >= 3


class TestStartStrategies:
    def test_default_leaves_job_id_and_dict_unchanged(self):
        job = JobSpec("cyclic", {"n": 5})
        assert job.start == "total_degree"
        assert job.job_id == "cyclic-n5-s0"  # pre-start journals still match
        assert "start" not in job.to_dict()

    def test_start_joins_job_id_and_roundtrips(self):
        job = JobSpec("cyclic", {"n": 7}, seed=2, start="polyhedral")
        assert job.job_id == "cyclic-n7-polyhedral-s2"
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_unknown_start_and_pieri_start_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("cyclic", {"n": 5}, start="bogus")
        with pytest.raises(ValueError):
            JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, start="polyhedral")

    def test_grid_start_axis(self):
        spec = SweepSpec.from_dict(
            {
                "name": "starts",
                "grids": [
                    {"kind": "cyclic", "n": [5, 6],
                     "start": ["total_degree", "polyhedral"]},
                ],
            }
        )
        assert spec.n_jobs == 4
        assert "cyclic-n5-s0" in spec.job_ids()
        assert "cyclic-n5-polyhedral-s0" in spec.job_ids()

    def test_polyhedral_job_tracks_mixed_volume_paths(self):
        record = run_job(JobSpec("katsura", {"n": 3}, start="polyhedral"))
        result = record["result"]
        assert result["start"] == "polyhedral"
        assert result["n_paths"] == result["mixed_volume"] == 8
        assert result["n_solutions"] == 8
        # the same root set as the default strategy: the fingerprint
        # rounds at 1e-6 and ignores the sign of a zero, which the two
        # starts' refinements leave differently
        default = run_job(JobSpec("katsura", {"n": 3}))["result"]
        assert default["start"] == "total_degree"
        assert default["n_solutions"] == result["n_solutions"]
        assert default["fingerprint"] == result["fingerprint"]


class TestEndgameStrategies:
    def test_default_leaves_job_id_and_dict_unchanged(self):
        job = JobSpec("cyclic", {"n": 5})
        assert job.endgame == "refine"
        assert job.job_id == "cyclic-n5-s0"  # pre-endgame journals match
        assert "endgame" not in job.to_dict()

    def test_endgame_joins_job_id_and_roundtrips(self):
        job = JobSpec("katsura", {"n": 3}, seed=1, endgame="cauchy")
        assert job.job_id == "katsura-n3-cauchy-s1"
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_unknown_endgame_and_pieri_endgame_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("cyclic", {"n": 5}, endgame="bogus")
        with pytest.raises(ValueError):
            JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, endgame="cauchy")

    def test_grid_endgame_axis(self):
        spec = SweepSpec.from_dict(
            {
                "name": "endgames",
                "grids": [
                    {"kind": "katsura", "n": [2, 3],
                     "endgame": ["refine", "cauchy"]},
                ],
            }
        )
        assert spec.n_jobs == 4
        assert "katsura-n2-s0" in spec.job_ids()
        assert "katsura-n2-cauchy-s0" in spec.job_ids()

    def test_cauchy_job_journals_multiplicity_columns(self):
        record = run_job(JobSpec("katsura", {"n": 2}, endgame="cauchy"))
        result = record["result"]
        assert result["endgame"] == "cauchy"
        assert result["multiplicity_histogram"] == {"1": 4}
        # regular system: same solution set as the refine run
        default = run_job(JobSpec("katsura", {"n": 2}))["result"]
        assert default["endgame"] == "refine"
        assert default["fingerprint"] == result["fingerprint"]


class TestJournal:
    def test_append_and_load(self, tmp_path):
        journal = SweepJournal(tmp_path / "ck")
        journal.initialize({"name": "j", "jobs": []})
        with journal:
            journal.append({"job_id": "a", "x": 1})
            journal.append({"job_id": "b", "x": 2})
        records = journal.load_records()
        assert set(records) == {"a", "b"}
        assert records["a"]["x"] == 1

    def test_torn_tail_is_ignored_with_warning(self, tmp_path):
        journal = SweepJournal(tmp_path / "ck")
        journal.initialize({"name": "j", "jobs": []})
        with journal:
            journal.append({"job_id": "a", "x": 1})
        # simulate a SIGKILL mid-append: a truncated trailing line
        with open(journal.journal_path, "a") as fh:
            fh.write('{"job_id": "b", "x"')
        with pytest.warns(RuntimeWarning, match="torn or corrupt"):
            records = journal.load_records()
        assert set(records) == {"a"}

    def test_torn_tail_does_not_block_resume_appends(self, tmp_path):
        """After a torn line the journal must still accept appends and a
        re-load must see old + new records (the resume path)."""
        journal = SweepJournal(tmp_path / "ck")
        journal.initialize({"name": "j", "jobs": []})
        with journal:
            journal.append({"job_id": "a", "x": 1})
        with open(journal.journal_path, "a") as fh:
            fh.write('{"job_id": "b", "x"')  # no trailing newline either
        with SweepJournal(tmp_path / "ck") as again:
            again.append({"job_id": "b", "x": 2})
        with pytest.warns(RuntimeWarning):
            records = SweepJournal(tmp_path / "ck").load_records()
        assert records["a"]["x"] == 1 and records["b"]["x"] == 2

    def test_clean_journal_loads_without_warning(self, tmp_path):
        journal = SweepJournal(tmp_path / "ck")
        journal.initialize({"name": "j", "jobs": []})
        with journal:
            journal.append({"job_id": "a", "x": 1})
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            records = journal.load_records()
        assert set(records) == {"a"}

    def test_spec_mismatch_rejected(self, tmp_path):
        journal = SweepJournal(tmp_path / "ck")
        journal.initialize({"name": "one", "jobs": []})
        with pytest.raises(ValueError):
            SweepJournal(tmp_path / "ck").initialize({"name": "two", "jobs": []})

    def test_manifest_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path / "ck")
        journal.initialize({"name": "j", "jobs": []})
        journal.write_manifest(10, 3, "running", {"name": "j"})
        manifest = journal.read_manifest()
        assert manifest["n_jobs"] == 10
        assert manifest["n_done"] == 3
        assert manifest["status"] == "running"
        assert not journal.manifest_path.with_suffix(".json.tmp").exists()


class TestRunJob:
    def test_results_are_deterministic(self):
        job = JobSpec("cyclic", {"n": 4}, seed=5)
        assert run_job(job)["result"] == run_job(job)["result"]

    def test_pieri_job_finds_expected_solutions(self):
        record = run_job(JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=0))
        assert record["result"]["n_solutions"] == record["result"]["expected"] == 2
        assert record["result"]["failures"] == 0

    def test_fingerprint_order_independent(self):
        a = np.array([1.0 + 1e-9j, 2.0])
        b = np.array([3.0, 4.0])
        assert solutions_fingerprint([a, b]) == solutions_fingerprint([b, a])
        assert solutions_fingerprint([a]) != solutions_fingerprint([b])

    def test_fingerprint_reordering_stability(self):
        # invariant under any permutation of the solution *set*; three
        # orders of a three-solution set must all agree
        rng = np.random.default_rng(7)
        sols = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for _ in range(3)]
        ref = solutions_fingerprint(sols)
        assert solutions_fingerprint(sols[::-1]) == ref
        assert solutions_fingerprint([sols[1], sols[2], sols[0]]) == ref
        # ...but NOT invariant to shuffling coordinates within a solution
        swapped = sols[0][[1, 0, 2]]
        assert solutions_fingerprint([swapped, *sols[1:]]) != ref

    def test_fingerprint_digits_sensitivity(self):
        # tracking noise below the rounding threshold hashes identically;
        # tightening `digits` re-exposes it
        a = np.array([1.0 + 2.0j])
        jittered = np.array([1.0 + 4e-7 + 2.0j])
        assert solutions_fingerprint([a]) == solutions_fingerprint([jittered])
        assert solutions_fingerprint([a], digits=8) != solutions_fingerprint(
            [jittered], digits=8
        )

    def test_fingerprint_ignores_the_sign_of_zero(self):
        # exact zeros come back as 0.0 from one route and -0.0 from
        # another, and JSON writes the sign: equal sets must hash alike
        assert solutions_fingerprint(
            [np.array([complex(1.0, -0.0), complex(-0.0, -0.0)])]
        ) == solutions_fingerprint([np.array([1 + 0j, 0j])])
        # rounding to zero from below and from above is one value too
        assert solutions_fingerprint(
            [np.array([complex(-4e-7, 1.0)])]
        ) == solutions_fingerprint([np.array([complex(4e-7, 1.0)])])

    def test_fingerprint_near_collision_distinct(self):
        # values that differ just above the rounding threshold stay
        # distinct — rounding coarsens, it does not merge neighbours
        a = np.array([1.0 + 0.5j, -2.0])
        above = np.array([1.0 + 2e-6 + 0.5j, -2.0])
        assert solutions_fingerprint([a]) != solutions_fingerprint([above])
        # real and imaginary parts hash independently: moving the same
        # perturbation between them changes the key
        imag_shift = np.array([1.0 + (0.5 + 2e-6) * 1j, -2.0])
        assert solutions_fingerprint([above]) != solutions_fingerprint(
            [imag_shift]
        )


class TestEngine:
    def test_serial_run_and_resume(self, tmp_path):
        spec = SweepSpec(
            "tiny",
            [JobSpec("katsura", {"n": 2}, seed=s) for s in range(3)],
        )
        report = run_sweep(spec, tmp_path / "ck", mode="serial")
        assert report.complete
        assert len(report.ran_job_ids) == 3
        again = run_sweep(spec, tmp_path / "ck", mode="serial")
        assert again.complete
        assert again.skipped == 3
        assert again.ran_job_ids == []
        manifest = SweepJournal(tmp_path / "ck").read_manifest()
        assert manifest["status"] == "complete"

    def test_schedules_and_modes_agree(self, tmp_path):
        """Same deterministic results no matter how the sweep is sharded."""
        spec = SweepSpec(
            "agree",
            [
                JobSpec("katsura", {"n": 2}, seed=0),
                JobSpec("katsura", {"n": 3}, seed=1),
                JobSpec("cyclic", {"n": 4}, seed=0),
                JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=0),
            ],
        )
        reference = run_sweep(spec, tmp_path / "serial", mode="serial")
        dynamic = run_sweep(
            spec, tmp_path / "dyn", mode="process", n_workers=2
        )
        static = run_sweep(
            spec, tmp_path / "st", mode="process", n_workers=2,
            schedule="static",
        )
        assert results_only(dynamic.records) == results_only(reference.records)
        assert results_only(static.records) == results_only(reference.records)
        assert len(dynamic.worker_busy_seconds) == 2
        assert dynamic.total_cpu_seconds > 0

    def test_invalid_arguments(self, tmp_path):
        spec = SweepSpec("bad", [JobSpec("katsura", {"n": 2})])
        with pytest.raises(ValueError):
            run_sweep(spec, tmp_path / "ck", n_workers=0)
        with pytest.raises(ValueError):
            run_sweep(spec, tmp_path / "ck", schedule="bogus")
        with pytest.raises(ValueError):
            run_sweep(spec, tmp_path / "ck", mode="bogus")
        with pytest.raises(ValueError):
            run_sweep(spec, tmp_path / "ck", abort_after=0)


class TestKillResumeIdentity:
    """The acceptance property, staged two ways."""

    def test_aborted_dynamic_sweep_resumes_identically(self, tmp_path):
        spec = small_mixed_spec()
        assert spec.n_jobs >= 20
        reference = run_sweep(spec, tmp_path / "ref", mode="serial")
        assert reference.complete

        # "kill" the run after 5 journaled jobs: in-flight work is dropped
        killed = run_sweep(
            spec, tmp_path / "ck", mode="process", n_workers=2, abort_after=5
        )
        assert killed.aborted
        assert len(killed.ran_job_ids) == 5
        assert SweepJournal(tmp_path / "ck").read_manifest()["status"] == "aborted"

        resumed = run_sweep(spec, tmp_path / "ck", mode="process", n_workers=2)
        assert resumed.complete
        assert resumed.skipped == 5
        # only unfinished jobs were re-run ...
        assert set(resumed.ran_job_ids).isdisjoint(killed.ran_job_ids)
        assert len(resumed.ran_job_ids) == spec.n_jobs - 5
        # ... and the merged result set is identical to the clean run
        assert results_only(resumed.records) == results_only(reference.records)

    def test_sigkilled_cli_sweep_resumes_identically(self, tmp_path):
        """Real SIGKILL of a running CLI sweep; resume completes it."""
        spec = small_mixed_spec(name="sigkill")
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        checkpoint = tmp_path / "ck"
        journal_path = checkpoint / "journal.jsonl"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.sweep", "run", str(spec_path),
                "--checkpoint", str(checkpoint), "--workers", "2",
                "--mode", "process",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # its own process group: the pool workers the SIGKILL
            # orphans stay findable, and are reaped below
            start_new_session=True,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if journal_path.exists() and len(
                    journal_path.read_text().splitlines()
                ) >= 3:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert proc.poll() is None, "sweep finished before it was killed"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=60)
            _reap_group(proc.pid)

        killed_records = SweepJournal(checkpoint).load_records()
        assert 0 < len(killed_records) < spec.n_jobs, (
            "the kill should land mid-sweep"
        )
        resumed = run_sweep(spec, checkpoint, mode="serial")
        assert resumed.complete
        assert resumed.skipped == len(killed_records)
        assert set(resumed.ran_job_ids).isdisjoint(killed_records)

        reference = run_sweep(spec, tmp_path / "ref", mode="serial")
        assert results_only(resumed.records) == results_only(reference.records)


class TestWorkerFailureInjection:
    def test_dead_worker_process_is_survived(self, tmp_path, monkeypatch):
        """A worker that dies mid-job (os._exit) kills the process pool;
        the engine rebuilds it, retries the job, and loses nothing."""
        spec = SweepSpec(
            "death",
            [JobSpec("katsura", {"n": 2}, seed=s) for s in range(6)],
        )
        victim = spec.jobs[3].job_id
        marker = tmp_path / "crashed.marker"
        monkeypatch.setenv("REPRO_SWEEP_KILL_JOB", victim)
        monkeypatch.setenv("REPRO_SWEEP_KILL_MARKER", str(marker))
        report = run_sweep(
            spec, tmp_path / "ck", mode="process", n_workers=2
        )
        assert marker.exists(), "the injected death must have fired"
        assert report.complete
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds >= 1
        reference = run_sweep(spec, tmp_path / "ref", mode="serial")
        assert results_only(report.records) == results_only(reference.records)

    def test_crashing_job_is_retried_in_processes(self, tmp_path, monkeypatch):
        spec = SweepSpec(
            "flaky",
            [JobSpec("katsura", {"n": 2}, seed=s) for s in range(4)],
        )
        marker = tmp_path / "raised.marker"
        monkeypatch.setenv("REPRO_SWEEP_FAIL_JOB", spec.jobs[1].job_id)
        monkeypatch.setenv("REPRO_SWEEP_KILL_MARKER", str(marker))
        report = run_sweep(spec, tmp_path / "ck", mode="process", n_workers=2)
        assert marker.exists()
        assert report.complete
        assert report.worker_crashes == 1

    def test_crashing_job_is_retried_in_a_static_block(
        self, tmp_path, monkeypatch
    ):
        """Retry is the dispatcher's, not the dynamic schedule's: the
        crashed block comes back as single jobs and nothing is lost."""
        spec = SweepSpec(
            "flaky-static",
            [JobSpec("katsura", {"n": 2}, seed=s) for s in range(6)],
        )
        marker = tmp_path / "raised.marker"
        monkeypatch.setenv("REPRO_SWEEP_FAIL_JOB", spec.jobs[1].job_id)
        monkeypatch.setenv("REPRO_SWEEP_KILL_MARKER", str(marker))
        report = run_sweep(
            spec, tmp_path / "ck", mode="process", n_workers=2,
            schedule="static",
        )
        assert marker.exists()
        assert report.complete
        assert report.worker_crashes == 1
        assert report.jobs_abandoned == 0 and report.abandoned == {}
        monkeypatch.delenv("REPRO_SWEEP_FAIL_JOB")
        reference = run_sweep(spec, tmp_path / "ref", mode="serial")
        assert results_only(report.records) == results_only(reference.records)

    @pytest.mark.parametrize(
        "mode, schedule", [("serial", "dynamic"), ("process", "static")]
    )
    def test_abandoned_job_keeps_its_reason(
        self, tmp_path, monkeypatch, capsys, mode, schedule
    ):
        spec = SweepSpec(
            "poison",
            [JobSpec("katsura", {"n": 2}, seed=s) for s in range(4)],
        )
        victim = spec.jobs[2].job_id
        real = engine_mod.run_job

        def poisoned(job):
            if job.job_id == victim:
                raise ArithmeticError("poisoned job")
            return real(job)

        # the pool's workers fork from this process: they run the patch
        monkeypatch.setattr(engine_mod, "run_job", poisoned)
        report = run_sweep(
            spec, tmp_path / "ck", mode=mode, n_workers=2,
            schedule=schedule, max_retries=1,
        )
        assert not report.complete and not report.aborted
        assert report.jobs_abandoned == 1
        assert sorted(report.records) == sorted(
            job.job_id for job in spec.jobs if job.job_id != victim
        )
        assert list(report.abandoned) == [victim]
        assert "ArithmeticError('poisoned job')" in report.abandoned[victim]
        manifest = SweepJournal(tmp_path / "ck").read_manifest()
        assert manifest["status"] == "incomplete"
        assert manifest["abandoned"] == report.abandoned
        assert cli_main(["report", str(tmp_path / "ck")]) == 0
        assert (
            f"{victim}: ArithmeticError('poisoned job')"
            in capsys.readouterr().out
        )


class TestCLI:
    def run_cli(self, *args):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.sweep", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_help(self):
        proc = self.run_cli("--help")
        assert proc.returncode == 0
        assert "run" in proc.stdout and "report" in proc.stdout

    def test_two_job_dry_run_and_report(self, tmp_path):
        spec = SweepSpec(
            "two",
            [
                JobSpec("katsura", {"n": 2}, seed=0),
                JobSpec("katsura", {"n": 2}, seed=1),
            ],
        )
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        checkpoint = tmp_path / "ck"

        dry = self.run_cli(
            "run", str(spec_path), "--checkpoint", str(checkpoint), "--dry-run"
        )
        assert dry.returncode == 0
        assert "2 pending" in dry.stdout
        assert dry.stdout.count("would run") == 2
        assert not (checkpoint / "journal.jsonl").exists()

        ran = self.run_cli(
            "run", str(spec_path), "--checkpoint", str(checkpoint),
            "--mode", "serial",
        )
        assert ran.returncode == 0, ran.stderr
        assert "complete" in ran.stdout

        rep = self.run_cli("report", str(checkpoint))
        assert rep.returncode == 0
        assert "2/2 jobs" in rep.stdout
        assert "nothing pending" in rep.stdout

    def test_example_spec_is_valid(self, tmp_path):
        out = tmp_path / "spec.json"
        proc = self.run_cli("example-spec", "--out", str(out))
        assert proc.returncode == 0
        spec = SweepSpec.load(out)
        assert spec.n_jobs >= 20

    def test_report_format_json(self, tmp_path):
        spec = SweepSpec(
            "json-demo",
            [
                JobSpec("katsura", {"n": 2}, seed=0),
                JobSpec("katsura", {"n": 2}, seed=0, endgame="cauchy"),
                JobSpec("katsura", {"n": 2}, seed=1),
            ],
        )
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        checkpoint = tmp_path / "ck"
        ran = self.run_cli(
            "run", str(spec_path), "--checkpoint", str(checkpoint),
            "--mode", "serial", "--max-jobs", "2",
        )
        assert ran.returncode == 3  # aborted by --max-jobs, resumable

        rep = self.run_cli("report", str(checkpoint), "--format", "json")
        assert rep.returncode == 0, rep.stderr
        payload = json.loads(rep.stdout)  # machine-readable, parses clean
        assert payload["name"] == "json-demo"
        assert payload["n_jobs"] == 3
        assert payload["n_done"] == 2
        assert len(payload["pending"]) == 1
        by_id = {row["job_id"]: row for row in payload["jobs"]}
        cauchy = by_id["katsura-n2-cauchy-s0"]["result"]
        assert cauchy["endgame"] == "cauchy"
        assert cauchy["multiplicity_histogram"] == {"1": 4}
        refine = by_id["katsura-n2-s0"]["result"]
        assert refine["endgame"] == "refine"

    def test_report_reads_journals_from_before_the_mode_axis_went(
        self, tmp_path, capsys
    ):
        """Pieri records journaled while jobs had a ``mode`` axis (one
        edge a front by default, ``batch`` with per-level records and
        their seconds) still load and print; a spec naming the axis is
        reported as unreadable, not as a crash."""
        journal = SweepJournal(tmp_path / "ck")
        old_spec = {"name": "old", "jobs": [
            {"kind": "pieri", "params": {"m": 2, "p": 2, "q": 0}, "seed": 0},
            {"kind": "pieri", "params": {"m": 2, "p": 2, "q": 0}, "seed": 1,
             "mode": "batch"},
        ]}
        journal.initialize(old_spec)
        common = {"n_solutions": 2, "expected": 2, "failures": 0,
                  "max_residual_exp": -12, "fingerprint": "f"}
        level = {"level": 1, "seconds": 0.01, "n_jobs": 1, "n_homotopies": 1,
                 "chart_switches": 0, "retries": 0, "collisions": 0}
        with journal:
            journal.append({
                "job_id": "pieri-m2-p2-q0-s0", "kind": "pieri",
                "params": {"m": 2, "p": 2, "q": 0}, "seed": 0,
                "result": {"mode": "per_path", **common},
                "seconds": 0.1, "worker": ["h", 1],
            })
            journal.append({
                "job_id": "pieri-m2-p2-q0-batch-s1", "kind": "pieri",
                "params": {"m": 2, "p": 2, "q": 0}, "seed": 1,
                "result": {"mode": "batch", **common, "levels": [level]},
                "seconds": 0.1, "worker": ["h", 1],
            })
        assert cli_main(["report", str(tmp_path / "ck")]) == 0
        out = capsys.readouterr().out
        assert "2 jobs done" in out
        assert "pieri-m2-p2-q0-s0: start=pieri-tree paths=2" in out
        assert "pieri-m2-p2-q0-batch-s1: start=pieri-tree paths=2" in out
        assert "pending: unknown, the spec no longer loads" in out
        assert cli_main(
            ["report", str(tmp_path / "ck"), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_done"] == 2
        assert "mode" in payload["spec_error"]
        assert payload["pending"] is None
        by_id = {row["job_id"]: row for row in payload["jobs"]}
        assert by_id["pieri-m2-p2-q0-batch-s1"]["result"]["levels"] == [level]

    def test_report_reads_journals_from_before_the_cache_axis_went(
        self, tmp_path, capsys
    ):
        """Records journaled while jobs had a ``cache`` axis (``-cache-``
        ids, the store route at record level) still load and print; a
        spec naming the axis is reported as unreadable, not as a crash."""
        journal = SweepJournal(tmp_path / "ck")
        journal.initialize({"name": "old", "jobs": [
            {"kind": "pieri", "params": {"m": 2, "p": 2, "q": 0}, "seed": 0,
             "cache": "on"},
        ]})
        artifacts = {"route": {"status": "warm", "n_paths": 2},
                     "stats": {"hits": 1}, "root": "ck/artifacts"}
        with journal:
            journal.append({
                "job_id": "pieri-m2-p2-q0-cache-s0", "kind": "pieri",
                "params": {"m": 2, "p": 2, "q": 0}, "seed": 0,
                "result": {"n_solutions": 2, "expected": 2, "failures": 0,
                           "max_residual_exp": -15, "fingerprint": "f"},
                "artifacts": artifacts, "seconds": 0.1, "worker": ["h", 1],
            })
        assert cli_main(["report", str(tmp_path / "ck")]) == 0
        out = capsys.readouterr().out
        assert "1 jobs done" in out
        assert "pieri-m2-p2-q0-cache-s0: start=pieri-tree paths=2" in out
        assert "pending: unknown, the spec no longer loads" in out
        assert cli_main(
            ["report", str(tmp_path / "ck"), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cache" in payload["spec_error"]
        assert payload["pending"] is None
        (row,) = payload["jobs"]
        assert row["artifacts"] == artifacts
