"""Command-line driver: ``python -m repro.sweep``.

Subcommands::

    run SPEC.json --checkpoint DIR   run (or resume) a sweep
    report DIR                       summarize a checkpoint directory
    example-spec [--out FILE]        emit the mixed demo spec as JSON

``run --dry-run`` lists the job ids that *would* run (after subtracting
the journal) without executing anything, and ``run --max-jobs K`` stops
after K newly journaled jobs — handy for rehearsing the kill/resume
cycle from the tutorial (``docs/sweep_tutorial.md``).

``run --fleet master|worker`` swaps the local process pool for the
multi-host fleet (``docs/fleet.md``): the master binds a TCP endpoint
(``--bind HOST:PORT``, port 0 picks one and prints it) and serves the
spec's un-journaled jobs to remote workers; a worker needs no spec or
checkpoint at all — it connects (``--connect HOST:PORT``), leases jobs,
and ships results back.  Kill any of them — master included — and the
same commands resume from the journal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..parallel.dispatcher import POOL_MODES
from .engine import aggregate_job_telemetry, run_sweep
from .journal import SweepJournal
from .spec import SweepSpec, mixed_demo_spec

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Checkpointed, dynamically load-balanced solve sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run or resume a sweep from a spec file")
    run_p.add_argument(
        "spec", nargs="?", default=None,
        help="path to the sweep spec (JSON); not needed by --fleet worker",
    )
    run_p.add_argument(
        "--checkpoint", default=None,
        help="checkpoint directory (journal lives here); "
        "required except for --fleet worker",
    )
    run_p.add_argument("--workers", type=int, default=None, help="pool size")
    run_p.add_argument(
        "--schedule", choices=["dynamic", "static"], default="dynamic"
    )
    run_p.add_argument("--mode", choices=POOL_MODES, default="process")
    run_p.add_argument(
        "--max-jobs", type=int, default=None, metavar="K",
        help="stop after K newly journaled jobs (simulates a kill)",
    )
    run_p.add_argument(
        "--dry-run", action="store_true",
        help="list pending jobs without running them",
    )
    fleet = run_p.add_argument_group("fleet mode (multi-host, docs/fleet.md)")
    fleet.add_argument(
        "--fleet", choices=["master", "worker", "status"], default=None,
        help="run as the fleet master (serves this spec over TCP), as "
        "a worker agent (leases jobs from a master), or query a live "
        "master's gauges (--fleet status --connect HOST:PORT)",
    )
    fleet.add_argument(
        "--bind", default="127.0.0.1:0", metavar="HOST:PORT",
        help="master: endpoint to listen on (port 0 picks a free port "
        "and prints it)",
    )
    fleet.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="worker: the master's endpoint",
    )
    fleet.add_argument(
        "--worker-id", default=None,
        help="worker: stable identity (default host-pid-random)",
    )
    fleet.add_argument(
        "--heartbeat-timeout", type=float, default=5.0, metavar="S",
        help="master: requeue a worker's lease after S silent seconds",
    )
    fleet.add_argument(
        "--lease-seconds", type=float, default=2.0, metavar="S",
        help="master: size each lease to about S seconds of the "
        "worker's fitted throughput",
    )
    fleet.add_argument(
        "--reconnect-seconds", type=float, default=30.0, metavar="S",
        help="worker: keep retrying a lost master for S seconds "
        "(covers a master restart)",
    )

    report_p = sub.add_parser("report", help="summarize a checkpoint directory")
    report_p.add_argument("checkpoint", help="checkpoint directory")
    report_p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="text (human) or json (machine-readable, includes the "
        "endgame/multiplicity columns) output",
    )
    report_p.add_argument(
        "--telemetry", action="store_true",
        help="also print the merged per-job telemetry (span calls/"
        "seconds and counters journaled alongside each result)",
    )

    ex_p = sub.add_parser("example-spec", help="emit the mixed demo spec")
    ex_p.add_argument("--out", default=None, help="write to a file instead of stdout")
    return parser


def _parse_endpoint(text: str) -> tuple:
    """``HOST:PORT`` -> ``(host, port)``; host may contain colons (IPv6)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad endpoint {text!r}: expected HOST:PORT")
    return host, int(port)


def _cmd_fleet_status(args) -> int:
    """Query a live master's gauges and render them (``--fleet status``)."""
    if args.connect is None:
        raise SystemExit("--fleet status requires --connect HOST:PORT")
    from ..parallel.fleet import fetch_fleet_status

    host, port = _parse_endpoint(args.connect)
    try:
        status = fetch_fleet_status(host, port)
    except OSError as exc:
        print(f"no fleet master at {host}:{port} ({exc})", file=sys.stderr)
        return 1
    stats = status.get("stats", {})
    print(f"fleet master @ {host}:{port}")
    print(f"  jobs {status.get('n_committed', '?')}/{status.get('n_jobs', '?')}"
          f" committed, backlog {status.get('backlog', '?')}")
    print(f"  steals {stats.get('steals', 0)}, "
          f"requeues {stats.get('requeues', 0)}, "
          f"duplicates {stats.get('duplicates', 0)}, "
          f"timeouts {stats.get('timeouts', 0)}, "
          f"registrations {stats.get('registrations', 0)}")
    workers = status.get("workers", {})
    if not workers:
        print("  no workers registered")
        return 0
    print(f"  {'worker':<28} {'leased':>6} {'done':>6} {'busy(s)':>9} "
          f"{'s/cost':>8} {'silent(s)':>9}")
    for worker_id, view in workers.items():
        rate = view.get("seconds_per_cost")
        print(f"  {worker_id:<28} {view.get('leased', 0):>6} "
              f"{view.get('jobs_done', 0):>6} "
              f"{view.get('busy_seconds', 0.0):>9.2f} "
              f"{'probe' if rate is None else format(rate, '8.3f'):>8} "
              f"{view.get('silent_seconds', 0.0):>9.1f}")
    return 0


def _cmd_run_fleet(args) -> int:
    if args.fleet == "status":
        return _cmd_fleet_status(args)
    if args.fleet == "worker":
        if args.connect is None:
            raise SystemExit("--fleet worker requires --connect HOST:PORT")
        from ..parallel.fleet import run_sweep_worker

        host, port = _parse_endpoint(args.connect)
        stats = run_sweep_worker(
            host,
            port,
            worker_id=args.worker_id,
            reconnect_seconds=args.reconnect_seconds,
        )
        print(f"fleet worker {stats.worker_id}: {stats.jobs_done} jobs, "
              f"busy {stats.busy_seconds:.2f}s, "
              f"reconnects {stats.reconnects}, revoked {stats.revoked}")
        if stats.gave_up:
            print(f"  gave up: no master for {args.reconnect_seconds:.0f}s")
            return 1
        return 0

    # master: needs the spec and the checkpoint (journal) like a local run
    if args.spec is None or args.checkpoint is None:
        raise SystemExit("--fleet master requires SPEC and --checkpoint")
    from ..parallel.fleet import run_fleet_master

    host, port = _parse_endpoint(args.bind)

    def on_listening(bound_host, bound_port):
        # parseable by scripts/tests that need the kernel-picked port
        print(f"fleet master listening on {bound_host}:{bound_port}",
              flush=True)

    spec = SweepSpec.load(args.spec)
    report = run_fleet_master(
        spec,
        args.checkpoint,
        host=host,
        port=port,
        heartbeat_timeout=args.heartbeat_timeout,
        lease_target_seconds=args.lease_seconds,
        on_listening=on_listening,
    )
    stats = report.fleet or {}
    print(f"sweep {spec.name!r} [fleet master]")
    print(f"  ran {len(report.ran_job_ids)} jobs, skipped {report.skipped} "
          f"already-journaled; {report.n_done}/{spec.n_jobs} done")
    print(f"  workers {len(stats.get('workers_seen') or ())}, "
          f"steals {stats.get('steals', 0)}, "
          f"requeues {stats.get('requeues', 0)}, "
          f"duplicates {stats.get('duplicates', 0)}, "
          f"timeouts {stats.get('timeouts', 0)}")
    print(f"  wall {report.wall_seconds:.2f}s")
    if not report.complete:
        print(f"  INCOMPLETE: {spec.n_jobs - report.n_done} jobs unfinished; "
              "resume with the same command")
        return 1
    print("  complete")
    return 0


def _cmd_run(args) -> int:
    if args.fleet is not None:
        return _cmd_run_fleet(args)
    if args.spec is None or args.checkpoint is None:
        raise SystemExit("run requires SPEC and --checkpoint "
                         "(unless --fleet worker)")
    spec = SweepSpec.load(args.spec)
    if args.dry_run:
        done = SweepJournal(args.checkpoint).load_records()
        pending = [j for j in spec.job_ids() if j not in done]
        print(f"sweep {spec.name!r}: {spec.n_jobs} jobs, "
              f"{len(done)} already journaled, {len(pending)} pending")
        for job_id in pending:
            print(f"  would run {job_id}")
        return 0
    report = run_sweep(
        spec,
        args.checkpoint,
        n_workers=args.workers,
        schedule=args.schedule,
        mode=args.mode,
        abort_after=args.max_jobs,
    )
    print(f"sweep {spec.name!r} [{report.schedule}/{report.mode}, "
          f"{report.n_workers} workers]")
    print(f"  ran {len(report.ran_job_ids)} jobs, skipped {report.skipped} "
          f"already-journaled; {report.n_done}/{spec.n_jobs} done")
    print(f"  wall {report.wall_seconds:.2f}s, "
          f"cpu {report.total_cpu_seconds:.2f}s, "
          f"imbalance {report.load_imbalance:.2f}")
    if report.worker_crashes:
        print(f"  worker crashes: {report.worker_crashes} "
              f"(pool rebuilds: {report.pool_rebuilds})")
    if report.aborted:
        print("  stopped by --max-jobs; resume with the same command")
        return 3
    if not report.complete:
        print(f"  INCOMPLETE: {spec.n_jobs - report.n_done} jobs unfinished")
        return 1
    print("  complete")
    return 0


def _reconciled_status(manifest: dict, n_done: int) -> str:
    """The journal is the source of truth: a killed run never got to
    finalize the manifest, so a status still claiming "running" cannot
    be trusted (the writer may be dead) and the counts are reconciled
    against the journaled records.  Shared by the text and JSON report
    paths so they can never disagree about an interrupted sweep."""
    status = manifest["status"]
    if status == "running":
        status = (
            "interrupted" if n_done != manifest["n_done"]
            else "running (or interrupted before its first record)"
        )
    return status


def _report_payload(journal: SweepJournal, records: dict, manifest) -> dict:
    """The machine-readable shape of ``report --format json``.

    One row per journaled job (sorted by job id) carrying the result
    record verbatim — including the ``endgame`` strategy and the
    ``multiplicity_histogram`` columns polynomial jobs journal — plus
    the reconciled manifest and the pending job ids (``None`` when no
    spec loads), so downstream tooling never has to parse the human
    text.
    """
    jobs = []
    for job_id in sorted(records):
        record = records[job_id]
        row = {
            "job_id": job_id,
            "kind": record.get("kind"),
            "params": record.get("params", {}),
            "seed": record.get("seed"),
            "seconds": record.get("seconds"),
            "result": record.get("result", {}),
        }
        # record-level extras (non-deterministic, segregated from result);
        # "artifacts" is the store route of records journaled while
        # sweeps had a cache axis
        for key in ("kernel_cache", "telemetry_seconds", "artifacts",
                    "level_seconds"):
            if record.get(key):
                row[key] = record[key]
        jobs.append(row)
    if manifest:
        manifest = dict(manifest)
        manifest["status"] = _reconciled_status(manifest, len(records))
        manifest["n_done"] = len(records)
    payload = {
        "n_done": len(records),
        "manifest": manifest,
        "jobs": jobs,
        "pending": None,
    }
    if manifest and manifest.get("fleet"):
        # protocol stats a fleet-master run persisted: workers seen,
        # per-worker busy seconds, steal/requeue/duplicate counts
        payload["fleet"] = manifest["fleet"]
    telemetry = aggregate_job_telemetry(records.values())
    if telemetry:
        payload["telemetry"] = telemetry
    spec, error = _journal_spec(journal)
    if error:
        payload["spec_error"] = error
    if spec is not None:
        payload["name"] = spec.name
        payload["n_jobs"] = spec.n_jobs
        payload["pending"] = [j for j in spec.job_ids() if j not in records]
    return payload


def _journal_spec(journal: SweepJournal):
    """``(spec, None)``, ``(None, reason)`` for a spec that no longer
    loads (an axis since deleted), or ``(None, None)`` without one."""
    if not journal.spec_path.exists():
        return None, None
    try:
        return SweepSpec.load(journal.spec_path), None
    except ValueError as exc:
        return None, str(exc)


def _cmd_report(args) -> int:
    journal = SweepJournal(args.checkpoint)
    records = journal.load_records()
    manifest = journal.read_manifest()
    if manifest is None and not records:
        print(f"no checkpoint at {args.checkpoint}")
        return 1
    if args.format == "json":
        payload = _report_payload(journal, records, manifest)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if manifest:
        # the journal is the source of truth: a killed run never got to
        # finalize the manifest, so reconcile the counts (see
        # _reconciled_status)
        n_done = len(records)
        status = _reconciled_status(manifest, n_done)
        print(f"sweep {manifest.get('name', '?')!r}: "
              f"{n_done}/{manifest['n_jobs']} jobs, "
              f"status {status} "
              f"(manifest updated {manifest.get('updated_at', '?')})")
    by_kind: dict = {}
    seconds = 0.0
    for record in records.values():
        by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
        seconds += record.get("seconds", 0.0)
    for kind in sorted(by_kind):
        print(f"  {kind:>8}: {by_kind[kind]} jobs done")
    print(f"  journaled compute time: {seconds:.2f}s")
    for job_id in sorted(records):
        record = records[job_id]
        result = record.get("result", {})
        if "n_paths" in result:
            # polynomial job: which start system, how many tracked paths
            start = result.get("start", "total_degree")
            line = (f"    {job_id}: start={start} paths={result['n_paths']} "
                    f"solutions={result['n_solutions']}")
            if "mixed_volume" in result:
                line += f" mixed_volume={result['mixed_volume']}"
            kstats = result.get("kernel")
            if kstats:
                line += (f" kernel={kstats.get('backend', '?')}"
                         f" tape_ops={kstats.get('tape_ops', '?')}"
                         f" kernel_evals={kstats.get('evaluations', '?')}")
                if "points_per_call" in kstats:
                    # thin fronts pay per call, not per point
                    line += f" pts/call={kstats['points_per_call']:.1f}"
                kcache = record.get("kernel_cache")
                if kcache:
                    # worker-cumulative cache state when the job finished
                    line += (f" cache_hits={kcache.get('kernel_hits', '?')}"
                             f" cache_misses="
                             f"{kcache.get('kernel_misses', '?')}"
                             f" cache_size={kcache.get('kernels', '?')}")
                    evicted = (kcache.get("tape_evictions", 0)
                               + kcache.get("kernel_evictions", 0))
                    if evicted:
                        line += f" cache_evictions={evicted}"
            predictor = result.get("predictor", "euler")
            if predictor != "euler":
                # predictor pipeline: which strategy, how much recycled
                line += (f" predictor={predictor}"
                         f" recycle_hits={result.get('tangents_recycled', 0)}")
                if result.get("fallback_retracked"):
                    line += (f" fallback_retracked="
                             f"{result['fallback_retracked']}")
            endgame = result.get("endgame", "refine")
            if endgame != "refine":
                line += f" endgame={endgame}"
                hist = result.get("multiplicity_histogram") or {}
                if hist:
                    # journaled keys are JSON strings; order numerically
                    pairs = ",".join(
                        f"{k}:{v}"
                        for k, v in sorted(
                            hist.items(), key=lambda kv: int(kv[0])
                        )
                    )
                    line += f" multiplicities={{{pairs}}}"
        else:
            line = (f"    {job_id}: start=pieri-tree "
                    f"paths={result.get('expected', '?')} "
                    f"solutions={result.get('n_solutions', '?')}")
        print(line)
    if manifest and manifest.get("abandoned"):
        # jobs the last run gave up on after their retries, and why
        print(f"  abandoned ({len(manifest['abandoned'])}):")
        for job_id, reason in sorted(manifest["abandoned"].items()):
            print(f"    {job_id}: {reason}")
    if manifest and manifest.get("fleet"):
        fstats = manifest["fleet"]
        print(f"  fleet: workers {len(fstats.get('workers_seen') or ())}, "
              f"steals {fstats.get('steals', 0)}, "
              f"requeues {fstats.get('requeues', 0)}, "
              f"duplicates {fstats.get('duplicates', 0)}")
        for worker_id, busy in (fstats.get("busy_by_worker") or {}).items():
            print(f"    {worker_id}: busy {busy:.2f}s")
    if args.telemetry:
        _print_telemetry(aggregate_job_telemetry(records.values()))
    spec, error = _journal_spec(journal)
    if error:
        print(f"  pending: unknown, the spec no longer loads ({error})")
    if spec is not None:
        pending = [j for j in spec.job_ids() if j not in records]
        if pending:
            print(f"  pending ({len(pending)}): "
                  + ", ".join(pending[:8])
                  + (" ..." if len(pending) > 8 else ""))
        else:
            print("  nothing pending")
    return 0


def _print_telemetry(agg) -> None:
    """Render the merged per-job telemetry for ``report --telemetry``."""
    if not agg:
        print("  telemetry: none journaled")
        return
    print(f"  telemetry (merged over {agg.get('n_sources', 0)} jobs):")
    spans = agg.get("spans") or {}
    if spans:
        print(f"    {'span':<28} {'calls':>8} {'seconds':>10}")
        for key, span in spans.items():
            secs = span.get("seconds")
            print(f"    {key:<28} {span.get('calls', 0):>8} "
                  + (f"{secs:>10.3f}" if secs is not None else f"{'-':>10}"))
    counters = agg.get("counters") or {}
    if counters:
        print("    counters:")
        for key, val in counters.items():
            print(f"      {key:<30} {val}")


def _cmd_example_spec(args) -> int:
    text = json.dumps(mixed_demo_spec().to_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_example_spec(args)
    except BrokenPipeError:
        # downstream closed the pipe (| head, a pager): not an error,
        # but Python would print a noisy traceback at shutdown unless
        # stdout is detached first
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
