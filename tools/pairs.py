#!/usr/bin/env python
"""Alternating fresh-process benchmark pairs: a parent checkout against
this working tree, on the same seeds.

The host changes speed by 20-50 % within minutes, so a speed claim
rests on interleaved pairs, not on two runs side by side.  Pair ``k``
(1-based) runs ``perfbench/harness.py run`` once in each checkout, on
seed ``first_seed + k - 1`` and the benchmark's own window
(``run_seconds`` of BENCHMARK.json); odd pairs run the parent first,
even pairs the working tree first.  Each pair is one JSON line of
``--out``.

The summary gives, per end-to-end metric of ``BENCHMARK.json``, both
medians and quartiles, the pairs the working tree won (ties count for
neither side), whether the gap between the medians exceeds the parent's
interquartile range, and the verdict of ``harness.compare_row`` on the
two lists of runs (``unresolved`` with fewer than 4 runs or a spread
above the metric's bound, unless every run of the working tree reads
better than every run of the parent).  It then compares, side by side,
the share of failed ops next to the cores a run kept busy (the median
of ``cpu_s / solve_s``, so a parallel change's CPU story reads off one
line), the share of expected roots not delivered
(``REGRESSED`` when the change's share is higher by more than the
harness's ``ROOTS_MISSING_BOUND``, as ``harness.py compare`` judges it)
and the median op count a run: ``peak_rss_mb`` grows with the ops a
window fits, so where the counts differ it is compared at unequal op
counts.

Run:  python tools/pairs.py run PARENT_DIR --workload W --pairs N --seed S
          --out PAIRS.jsonl
      python tools/pairs.py summary pairs.jsonl [more.jsonl ...]

The tool writes only ``--out``; each harness run keeps its own record
under its checkout's ``perfbench/results/``, which git ignores, and the
tool reads the run's root and op counts from there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "perfbench_harness", ROOT / "perfbench" / "harness.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def bounds():
    """``{metric: (better, bound)}`` of BENCHMARK.json's end-to-end
    metrics."""
    return {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}


def summarize(pairs, metric_bounds):
    """One row per metric from pairs ``{"parent": {m: v}, "change":
    {m: v}}``; a pair is won when the change's value is better."""
    rows = []
    for name, (better, bound) in metric_bounds.items():
        a = [p["parent"][name] for p in pairs]
        b = [p["change"][name] for p in pairs]
        beats = (lambda x, y: y < x) if better == "lower" else (lambda x, y: y > x)
        row = harness.compare_row(a, b, better, bound)
        if (row.get("why") == "spread exceeds bound"
                and all(beats(x, y) for x in a for y in b)):
            row = {**row, "verdict": "better in every run"}
            del row["why"]
        qa = harness.quartiles(a)
        rows.append({
            **row, "metric": name, "bound": bound, "pairs": len(pairs),
            "parent": qa, "change": harness.quartiles(b),
            "wins": sum(beats(x, y) for x, y in zip(a, b)),
            "gap_exceeds_parent_iqr": abs(row["new"] - row["base"]) > qa[2] - qa[0],
        })
    return rows


def failed_shares(pairs):
    """``{side: failed ops / attempted ops}`` over every run of a side."""
    return {side: sum(p["runs"][side]["failed"] for p in pairs)
            / max(1, sum(p["runs"][side]["attempted"] for p in pairs))
            for side in ("parent", "change")}


def cores_used(pairs):
    """``{side: median cpu_s / solve_s}``: the cores a run kept busy."""
    return {side: statistics.median(p[side]["cpu_s"] / p[side]["solve_s"]
                                    for p in pairs)
            for side in ("parent", "change")}


def root_losses(pairs):
    """``{side: roots missing / roots expected}`` over every run of a
    side, and the harness's verdict on the change's share."""
    shares = {side: sum(p["runs"][side]["roots_missing"] for p in pairs)
              / max(1, sum(p["runs"][side]["roots_expected"] for p in pairs))
              for side in ("parent", "change")}
    worse = shares["change"] - shares["parent"] > harness.ROOTS_MISSING_BOUND
    return shares, "REGRESSED" if worse else "unchanged"


def median_ops(pairs):
    """``{side: median ops a run}``."""
    return {side: statistics.median(p["runs"][side]["ops"] for p in pairs)
            for side in ("parent", "change")}


def format_rows(rows):
    lines = [f"{'metric':12s} {'parent median [q1, q3]':>30s} "
             f"{'change median [q1, q3]':>30s} {'ratio':>6s} wins  gap>IQR  "
             "verdict"]
    for r in rows:
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                 for q in (r["parent"], r["change"])]
        why = f" ({r['why']})" if "why" in r else ""
        lines.append(
            f"{r['metric']:12s} {cells[0]:>30s} {cells[1]:>30s} "
            f"{r['ratio']:6.3f} {r['wins']:2d}/{r['pairs']:<2d} "
            f"{'yes' if r['gap_exceeds_parent_iqr'] else 'no':>4s}     "
            f"{r['verdict']}{why} [bound {r['bound']}]")
    return "\n".join(lines)


def harness_run(checkout, workload, seed):
    """One fresh-process harness run; its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/harness.py", "run", "--workload",
         workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if not proc.stdout.strip():
        raise RuntimeError(f"{checkout}: harness printed nothing\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = Path(checkout) / "perfbench" / "results" / f"BENCH_{workload}.json"
    detail = json.loads(record.read_text())["detail"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "ops": detail["ops"],
            "roots_missing": detail["roots_missing"],
            "roots_expected": detail["roots_expected"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def cmd_run(args):
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    pairs = []
    with open(args.out, "a") as out:
        for k in range(1, args.pairs + 1):
            seed = args.seed + k - 1
            order = ("parent", "change") if k % 2 else ("change", "parent")
            runs = {side: harness_run(sides[side], args.workload, seed)
                    for side in order}
            pair = {"workload": args.workload, "pair": k, "seed": seed,
                    "first": order[0],
                    **{side: runs[side]["metrics"] for side in sides},
                    "runs": {side: {key: value for key, value in
                                    runs[side].items() if key != "metrics"}
                             for side in sides}}
            out.write(json.dumps(pair) + "\n")
            out.flush()
            pairs.append(pair)
            print(f"pair {k} seed {seed}: solve_s parent "
                  f"{pair['parent']['solve_s']:.4g} change "
                  f"{pair['change']['solve_s']:.4g}", flush=True)
    return report(pairs)


def report(pairs):
    """Print each workload's summary; nonzero if a run was incorrect, or
    the change failed a larger share of its ops or lost more roots."""
    status = 0
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        ours = [p for p in pairs if p["workload"] == workload]
        print(f"== {workload}")
        print(format_rows(summarize(ours, bounds())))
        shares = failed_shares(ours)
        worse = shares["change"] > shares["parent"]
        cores = cores_used(ours)
        print(f"failed ops: parent {shares['parent']:.2%}, change "
              f"{shares['change']:.2%}{'  MORE FAIL' if worse else ''}; "
              f"cores used (cpu_s / solve_s, median): parent "
              f"{cores['parent']:.2f}, change {cores['change']:.2f}")
        missing, verdict = root_losses(ours)
        print(f"roots missing: parent {missing['parent']:.4%}, change "
              f"{missing['change']:.4%}  {verdict} "
              f"[bound +{harness.ROOTS_MISSING_BOUND} abs]")
        ops = median_ops(ours)
        unequal = ("  (peak_rss_mb compared at unequal op counts)"
                   if ops["parent"] != ops["change"] else "")
        print(f"ops a run, median: parent {ops['parent']:g}, change "
              f"{ops['change']:g}{unequal}")
        status |= worse or verdict == "REGRESSED"
    bad = [(p["pair"], side) for p in pairs for side in ("parent", "change")
           if not p["runs"][side]["correct"]]
    print("every run correct" if not bad else f"INCORRECT runs: {bad}")
    return 1 if bad or status else 0


def cmd_summary(args):
    pairs = [json.loads(line) for path in args.files
             for line in Path(path).read_text().splitlines() if line.strip()]
    return report(pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run alternating pairs")
    run.add_argument("parent", help="path of the parent checkout")
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, required=True,
                     help="seed of the first pair; pair k runs seed + k - 1")
    run.add_argument("--out", required=True,
                     help="JSON-line file the pairs are appended to")
    run.set_defaults(func=cmd_run)
    summary = sub.add_parser("summary", help="summarize JSON-line files")
    summary.add_argument("files", nargs="+")
    summary.set_defaults(func=cmd_summary)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
