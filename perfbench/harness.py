"""The repo's benchmark: one harness, named workloads, end-to-end and
per-layer metrics.  See README.md beside this file.

    python3 perfbench/harness.py run --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/harness.py all [--seed S] [--runs N] [--traced] [--label L]
    python3 perfbench/harness.py compare A.json B.json

``run`` is what BENCHMARK.json names: one workload in this (fresh)
process, closed loop, one client, ops back to back for T seconds.  Its
last stdout line is the JSON result.  ``all`` runs every workload in a
child process each and writes ``results/BENCH_<label>.json``;
``compare`` applies BENCHMARK.json's bounds to two such files.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start: setup_s counts the imports below

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))  # the program runs from source

MIN_OPS = 5        # timed ops a run's medians rest on, however slow the host
TRACE_OPS = 2      # a traced pass times exactly these ops, so its counts repeat
DEFAULT_SEED = 2004

#: (name, unit, better) — BENCHMARK.json carries the bounds
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("roots_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
#: absolute rise in roots missing / expected that `compare` calls a regression
ROOTS_MISSING_BOUND = 0.001
#: share of a run's expected roots that may go missing before it is incorrect
MISSING_ALLOWED = 0.005
#: seconds one reference sample takes on this host class at its median
#: speed; fixed for the life of the benchmark (changing it rescales
#: every normalised metric)
REF_NOMINAL_S = 0.010
REF_SHARE = 0.1    # reference sampling after an op, as a share of its wall


def cpu_seconds():
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb():
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _rng(seed, stream):
    import numpy as np

    return np.random.default_rng([seed, stream])


def reference_sample():
    """Seconds for a fixed bit of work with the workloads' own mix:
    interpreter bytecode, small-array numpy calls, small LAPACK solves."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 9, 9)) + 1j * rng.standard_normal((32, 9, 9))
    b = rng.standard_normal((32, 9, 1)) + 0j
    t0 = time.perf_counter()
    acc = 0
    for i in range(50000):
        acc += i * i
    for _ in range(150):
        x = np.linalg.solve(a, b)
        x = x * x + x
    return time.perf_counter() - t0


def sample_host_speed(seconds):
    """Reference samples for about ``seconds`` (at least three)."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < 3 or time.perf_counter() < deadline:
        samples.append(reference_sample())
    return samples


def run_op(workload, seed, i, tracer=None):
    """Op ``i`` of a run: generate its input, time the solve."""
    inp = workload.make_input(_rng(seed, i + 1))
    if tracer is not None:
        tracer.op = i
    report = error = None
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        with tracer.span("op") if tracer is not None else nullcontext():
            report = workload.op(inp)
    except Exception:  # an op that raises fails its roots; the run goes on
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return {"input": inp, "report": report, "error": error,
            "wall": wall, "cpu": cpu}


def timed_ops(workload, seed, seconds, before):
    """Ops back to back until ``seconds`` have passed and ``MIN_OPS``
    are done.

    The host this runs on changes speed by +-30 % in phases of 20-60 s,
    so the reference loop is sampled at every op boundary and each op
    gets ``slowdown``: the median of the samples around it over the
    nominal sample time.  Normalised metrics divide by it.  ``before``
    holds the samples taken just ahead of the first op.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_OPS or time.perf_counter() < deadline:
        sample = run_op(workload, seed, len(samples))
        after = sample_host_speed(REF_SHARE * sample["wall"])
        sample["slowdown"] = statistics.median(before + after) / REF_NOMINAL_S
        samples.append(sample)
        before = after
    return samples


def check_ops(workload, samples):
    """Re-verify every returned root; fills ``delivered``/``bad``.

    ``attempted``/``failed`` count ops, and an op fails when it raises
    (its roots then all count as missing).  ``correct`` is false when
    any returned root does not verify, or when more than
    ``MISSING_ALLOWED`` of the expected roots (and more than one) were
    not delivered — a path the program itself reports as failed is
    not a wrong answer, but losing many is.
    """
    for s in samples:
        s["delivered"], s["bad"] = (
            (0, 0) if s["report"] is None
            else workload.check(s["input"], s["report"])
        )
    expected = workload.expected_roots
    roots_expected = expected * len(samples)
    roots_missing = sum(max(0, expected - s["delivered"]) for s in samples)
    sound = all(s["bad"] == 0 and s["delivered"] <= expected for s in samples)
    return {
        "correct": sound and roots_missing <= max(
            1, MISSING_ALLOWED * roots_expected),
        "attempted": len(samples),
        "failed": sum(s["report"] is None for s in samples),
    }, {"roots_expected": roots_expected, "roots_missing": roots_missing}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end_metrics(samples, setup_s):
    """Timing metrics are in reference-host seconds (wall / slowdown)."""
    walls = [s["wall"] / s["slowdown"] for s in samples]
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(walls),
        "roots_per_s": sum(s["delivered"] for s in samples) / sum(walls),
        "cpu_s": statistics.median(s["cpu"] / s["slowdown"] for s in samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def _set_up(name, seed, tracer=None):
    """Import the program, build the workload, pay its warm-up op.

    Returns the workload, its set-up time in reference-host seconds
    (see :func:`timed_ops`) and the reference samples taken after it.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    try:
        try:
            with tracer.span("setup") if tracer is not None else nullcontext():
                workload.setup(_rng(seed, 0), RESULTS / f"tmp-{os.getpid()}")
        finally:
            if tracer is not None:
                tracer.uninstall()  # each traced op installs its own
        seconds = time.perf_counter() - _T0
        after = sample_host_speed(REF_SHARE * seconds)
    except BaseException:
        workload.close()
        raise
    return workload, seconds * REF_NOMINAL_S / statistics.median(after), after


def run_untraced(name, seed, seconds):
    workload, setup_s, ref = _set_up(name, seed)
    try:
        samples = timed_ops(workload, seed, seconds, ref)
        verdict, roots = check_ops(workload, samples)
    finally:
        workload.close()
    metrics = end_to_end_metrics(samples, setup_s)
    walls = [s["wall"] / s["slowdown"] for s in samples]
    detail = {
        "ops": len(samples),
        **roots,
        "slowdown": statistics.median(s["slowdown"] for s in samples),
        "solve_s_quartiles": quartiles(walls),
        "solve_s_max": max(walls),
        "errors": [s["error"] for s in samples if s["error"]],
    }
    return verdict, metrics, detail


def run_traced(name, seed):
    from tracing import Tracer, layer_metrics, layer_shares

    tracer = Tracer()
    try:
        workload = _set_up(name, seed, tracer)[0]
        try:
            # each op once with wrappers and once without, in ABBA order
            # so host drift does not read as tracing overhead
            traced, plain = [], []
            for i in range(TRACE_OPS):
                for with_tracer in ((True, False), (False, True))[i % 2]:
                    if with_tracer:
                        tracer.install()
                        traced.append(run_op(workload, seed, i, tracer))
                        tracer.uninstall()
                    else:
                        plain.append(run_op(workload, seed, i))
            verdict, roots = check_ops(workload, traced)
            extra = workload.layer_counts()
        finally:
            workload.close()
    finally:
        tracer.uninstall()
    extra["trace.overhead_frac"] = (
        sum(s["wall"] for s in traced) / sum(s["wall"] for s in plain) - 1.0
    )
    trace = tracer.export()
    ops = list(range(TRACE_OPS))
    metrics = layer_metrics(trace, ops, [s["report"] for s in traced], extra)
    detail = {
        "ops": TRACE_OPS,
        **roots,
        "layer_self_s": layer_shares(trace["spans"], ops),
        "missing_targets": trace["missing"],
        "errors": [s["error"] for s in traced if s["error"]],
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace_{name}.json").write_text(json.dumps(trace))
    return verdict, metrics, detail


def host_fingerprint():
    """What a reader needs to recognise a foreign or contaminated run."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def units(specs):
    return {name: unit for name, unit, _ in specs}


def cmd_run(args):
    load_start = os.getloadavg()[0]
    if args.trace:
        from tracing import LAYER_METRICS as specs

        verdict, metrics, detail = run_traced(args.workload, args.seed)
    else:
        specs = END_TO_END
        verdict, metrics, detail = run_untraced(
            args.workload, args.seed, args.seconds
        )
    unit = units(specs)
    for error in detail["errors"]:
        print(error, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  ops {detail['ops']}")
    for name, value in metrics.items():
        shown = "null (wrap target missing)" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown} {unit[name]}")
    if args.trace:
        wall = sum(detail["layer_self_s"].values())
        print("  self-time shares of the traced ops: " + ", ".join(
            f"{layer} {100 * own / wall:.1f}%" for layer, own in sorted(
                detail["layer_self_s"].items(), key=lambda kv: -kv[1])))
    else:
        q1, q2, q3 = detail["solve_s_quartiles"]
        print(f"  solve_s quartiles {q1:.4g} / {q2:.4g} / {q3:.4g}, "
              f"max {detail['solve_s_max']:.4g}, n {detail['ops']}; "
              f"host slowdown {detail['slowdown']:.3f}")
    print(f"  ops: {verdict['failed']} of {verdict['attempted']} raised; roots: "
          f"{detail['roots_missing']} of {detail['roots_expected']} expected "
          f"not delivered; correct={verdict['correct']}")
    result = {
        **verdict,
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "host": {**host_fingerprint(), "load_1m_start": load_start,
                 "load_1m_end": os.getloadavg()[0]},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "traced": bool(args.trace),
        "result": result, "detail": detail,
    }
    RESULTS.mkdir(exist_ok=True)
    _record_path(args.workload, args.trace).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if verdict["correct"] else 1


def _record_path(name, traced):
    return RESULTS / f"BENCH_{name}{'_traced' if traced else ''}.json"


def _child_run(name, seed, seconds, trace):
    """One `run` in a fresh process; returns the record it wrote."""
    path = _record_path(name, trace)
    path.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "run",
         "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        timeout=900,
    )
    if not path.exists():
        raise SystemExit(f"{name}: run wrote no result")
    return json.loads(path.read_text())


def cmd_all(args):
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    load_start = os.getloadavg()[0]
    out = {
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "end_to_end": {n: {m: {"unit": u, "values": []}
                           for m, u, _ in END_TO_END} for n in names},
        "slowdown": {n: [] for n in names},
        "roots": {n: {"expected": [], "missing": []} for n in names},
        "per_layer": {},
    }
    correct = True
    # workloads alternate within each repeat so slow host drift hits all alike
    for r in range(args.runs):
        for name in names:
            record = _child_run(name, args.seed + r, args.seconds, trace=False)
            correct &= record["result"]["correct"]
            for metric, entry in record["result"]["metrics"].items():
                out["end_to_end"][name][metric]["values"].append(entry["value"])
            out["slowdown"][name].append(record["detail"]["slowdown"])
            for key in ("expected", "missing"):
                out["roots"][name][key].append(record["detail"][f"roots_{key}"])
    if args.traced:
        for name in names:
            record = _child_run(name, args.seed, args.seconds, trace=True)
            correct &= record["result"]["correct"]
            out["per_layer"][name] = {
                m: e["value"] for m, e in record["result"]["metrics"].items()
            }
    out["host"] = {**host_fingerprint(), "load_1m_start": load_start,
                   "load_1m_end": os.getloadavg()[0]}

    print("\n== end to end: median over runs [spread = IQR / median] ==")
    for name in names:
        for metric, unit, _ in END_TO_END:
            values = out["end_to_end"][name][metric]["values"]
            q1, q2, q3 = quartiles(values)
            print(f"{name:18s} {metric:12s} {q2:10.4f} {unit:4s} "
                  f"[{(q3 - q1) / q2:.3f}, n={len(values)}]")
        roots = out["roots"][name]
        print(f"{name:18s} roots_missing_frac "
              f"{sum(roots['missing']) / sum(roots['expected']):.6f}"
              f"   host slowdown {statistics.median(out['slowdown'][name]):.3f}")
    if args.traced:
        unit = units(LAYER_METRICS)
        print(f"\n== per layer: totals over {TRACE_OPS} traced ops ==")
        print(f"{'metric':30s} {'unit':6s} " + " ".join(f"{n:>17s}" for n in names))
        for metric, _, _ in LAYER_METRICS:
            cells = []
            for name in names:
                value = out["per_layer"][name][metric]
                cells.append("null" if value is None else f"{value:.6g}")
            print(f"{metric:30s} {unit[metric]:6s} "
                  + " ".join(f"{c:>17s}" for c in cells))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}  correct={correct}")
    return 0 if correct else 1


def compare_row(base, new, better, bound):
    """Verdict for one (metric, workload) row from two lists of runs."""
    a, b = statistics.median(base), statistics.median(new)
    ratio = b / a
    row = {"base": a, "new": b, "ratio": ratio}
    if min(len(base), len(new)) < 4:
        return {**row, "verdict": "unresolved", "why": "fewer than 4 runs"}
    spreads = []
    for values in (base, new):
        q1, q2, q3 = quartiles(values)
        spreads.append((q3 - q1) / q2)
    row["spread"] = spreads
    worse = ratio - 1.0 if better == "lower" else 1.0 / ratio - 1.0
    if max(spreads) > bound:
        return {**row, "verdict": "unresolved", "why": "spread exceeds bound"}
    if worse > bound:
        return {**row, "verdict": "REGRESSED"}
    return {**row, "verdict": "improved" if worse < -bound else "unchanged"}


def cmd_compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base, new = (json.loads(Path(p).read_text()) for p in (args.base, args.new))
    regressed = False
    print(f"{'workload':18s} {'metric':18s} {'base':>10s} {'new':>10s} "
          f"{'new/base':>8s}  verdict")
    for name in base["end_to_end"]:
        if name not in new["end_to_end"]:
            continue
        for metric, (better, bound) in bounds.items():
            row = compare_row(
                base["end_to_end"][name][metric]["values"],
                new["end_to_end"][name][metric]["values"], better, bound,
            )
            regressed |= row["verdict"] == "REGRESSED"
            note = f" ({row['why']})" if "why" in row else ""
            print(f"{name:18s} {metric:18s} {row['base']:10.4f} "
                  f"{row['new']:10.4f} {row['ratio']:8.3f}  "
                  f"{row['verdict']}{note} [bound {bound}]")
        a, b = (
            sum(f["roots"][name]["missing"]) / sum(f["roots"][name]["expected"])
            for f in (base, new)
        )
        verdict = "REGRESSED" if b - a > ROOTS_MISSING_BOUND else "unchanged"
        regressed |= verdict == "REGRESSED"
        print(f"{name:18s} {'roots_missing_frac':18s} {a:10.6f} {b:10.6f} "
              f"{b - a:+8.5f}  {verdict} [bound +{ROOTS_MISSING_BOUND} abs]")
    return 1 if regressed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one workload, in this process")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=20.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(func=cmd_run)

    every = sub.add_parser("all", help="every workload, a child process each")
    every.add_argument("--workload", action="append")
    every.add_argument("--seed", type=int, default=DEFAULT_SEED)
    every.add_argument("--runs", type=int, default=1,
                       help="repeats per workload; repeat r uses seed + r")
    every.add_argument("--seconds", type=float, default=20.0)
    every.add_argument("--traced", action="store_true")
    every.add_argument("--label", default="latest")
    every.set_defaults(func=cmd_all)

    compare = sub.add_parser("compare", help="apply the bounds to two results")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
