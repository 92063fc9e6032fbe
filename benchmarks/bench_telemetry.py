"""Telemetry trace-pipeline smoke.

One fully traced solve (``trace_paths=True``) must export a
Chrome-format trace that ``python -m repro.telemetry report``
summarizes into per-layer shares, with every layer of the stack
(predictor, corrector, kernel) present.  The cost of an ambient
context without tracing is a count, not a wall-clock ratio: a solve
records a fixed handful of spans however many paths it tracks
(``tests/test_telemetry.py::TestAmbientCost``).

Run:    PYTHONPATH=src python benchmarks/bench_telemetry.py       (cyclic-7)
Smoke:  PYTHONPATH=src python benchmarks/bench_telemetry.py --quick  (cyclic-5)
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.homotopy import solve
from repro.systems import cyclic_roots_system
from repro.telemetry.trace import layer_report, load_trace


def trace_pipeline(n, seed) -> bool:
    system = cyclic_roots_system(n)
    report = solve(
        system,
        mode="batch",
        kernel="slp",
        endgame="cauchy",
        rng=np.random.default_rng(seed),
        trace_paths=True,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"cyclic{n}.trace.json"
        n_events = report.trace.write_trace(path)
        breakdown = layer_report(load_trace(path))
    layers = breakdown["layers"]
    total_self = sum(s["self_seconds"] for s in layers.values()) or 1.0
    print(f"\ntraced solve: {n_events} events, layer shares:")
    for layer, stats in sorted(
        layers.items(), key=lambda kv: -kv[1]["self_seconds"]
    ):
        print(
            f"  {layer:<12} {100 * stats['self_seconds'] / total_self:>5.1f}%"
            f"  ({stats['calls']} spans)"
        )
    missing = {"predictor", "corrector", "kernel"} - set(layers)
    if missing:
        print(f"FAIL: layers missing from the trace: {sorted(missing)}")
        return False
    if n_events == 0:
        print("FAIL: traced solve exported no events")
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: cyclic-5"
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    args = parser.parse_args()
    n = 5 if args.quick else 7

    if not trace_pipeline(n, args.seed):
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
