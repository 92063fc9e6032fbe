#!/usr/bin/env python
"""Checkpointed sweeps: kill a run mid-flight, resume, get identical results.

Runs a small mixed sweep three ways: uninterrupted (the reference), then
killed after 4 journaled jobs (the engine's --max-jobs switch drops
in-flight work exactly like a SIGKILL), then resumed from the journal.
The resume re-runs only the jobs the kill lost, and because every job is
seeded the merged result set matches the reference record for record.

The CLI equivalent (with a real kill -9) is walked through in
docs/sweep_tutorial.md:

    python -m repro.sweep run sweep.json --checkpoint ck --workers 4

Run:  python examples/sweep_resume.py
"""

import tempfile

from repro.sweep import JobSpec, SweepSpec, run_sweep

spec = SweepSpec(
    "resume-demo",
    [JobSpec("katsura", {"n": 2}, seed=s) for s in range(6)]
    + [
        JobSpec("noon", {"n": 3}, seed=0),
        JobSpec("pieri", {"m": 2, "p": 2, "q": 0}, seed=0),
        JobSpec("cyclic", {"n": 4}, seed=0),
        # the PR-10 predictor axis: same system, higher-order pipeline
        JobSpec("katsura", {"n": 3}, seed=0, predictor="hermite"),
    ],
)
print(f"sweep {spec.name!r}: {spec.n_jobs} jobs "
      f"({', '.join(sorted({j.kind for j in spec.jobs}))})")

with tempfile.TemporaryDirectory() as ref_dir:
    reference = run_sweep(spec, ref_dir, mode="serial")
assert reference.complete

with tempfile.TemporaryDirectory() as checkpoint:
    killed = run_sweep(
        spec, checkpoint, n_workers=2, mode="process", abort_after=4
    )
    print(f"\nkilled run: journaled {len(killed.ran_job_ids)} of "
          f"{spec.n_jobs} jobs, then died (aborted={killed.aborted})")

    resumed = run_sweep(spec, checkpoint, n_workers=2, mode="process")
    print(f"resume:     skipped {resumed.skipped} already-journaled, "
          f"ran the remaining {len(resumed.ran_job_ids)}")
    assert resumed.complete
    assert set(resumed.ran_job_ids).isdisjoint(killed.ran_job_ids)

match = all(
    resumed.records[jid]["result"] == reference.records[jid]["result"]
    for jid in spec.job_ids()
)
print(f"\nresult records identical to the uninterrupted run: {match}")
assert match

print("\nOK: the resumed sweep re-ran only unfinished jobs and "
      "reproduced the uninterrupted result set.")
