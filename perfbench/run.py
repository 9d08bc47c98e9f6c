"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_vectorsum --seed 0 --seconds 20 --trace 0

Run from the repository root: the simulator is imported from ``src/`` of
the checkout this file sits in, and the committed result files are read
from ``benchmarks/results/``.  The load is a closed loop: one client in
one thread runs the workload's passes back to back for ``--seconds``
(at least one pass), each pass setting everything up afresh.

``--trace 0`` prints the end-to-end metrics: medians over the passes of
set-up time and of run time, the process's peak RSS, work per second and
the paper-fidelity error.  ``--trace 1`` spends half the time on
untraced passes, then runs one traced pass and prints the per-layer
metrics; its spans go to ``.bench_out/``.  The last line of standard
output is one JSON object; the line before it records the host, the
number of passes and the unit of work that ``work_per_s`` counts.  The
exit code is 1 when any output check failed and 2 when the simulator
cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import typing as _t

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "benchmarks" / "results"
OUT = ROOT / ".bench_out"

#: set-up samples per run, however few passes fit in the time
SETUP_SAMPLES = 9


def _import_simulator() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    simulator really comes from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def calibrate() -> float:
    """Machine-speed probe that never touches the simulator: heap
    operations per second, best of three (the probe ``bench_engine.py``
    records beside its results)."""
    from heapq import heappop, heappush

    best = 0.0
    for _ in range(3):
        gc.collect()
        started = time.perf_counter()
        heap: list[tuple[int, int]] = []
        n = 200_000
        for i in range(n):
            heappush(heap, ((i * 2654435761) % 1000003, i))
        while heap:
            heappop(heap)
        best = max(best, (2 * n) / (time.perf_counter() - started))
    return best


def host_context() -> dict[str, _t.Any]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_ops_per_sec": round(calibrate(), 1),
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Times passes of one workload and runs its output check."""

    def __init__(self, workload: _t.Any, checks: _t.Any) -> None:
        self.workload = workload
        self.checks = checks
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.work_per_s: list[float] = []
        self.last: _t.Any = None

    def one_pass(self) -> float:
        gc.collect()
        started = time.perf_counter()
        state = self.workload.setup()
        built = time.perf_counter()
        outcome = self.workload.run(state)
        done = time.perf_counter()
        del state
        self.workload.check(outcome, self.checks)
        self.setup_s.append(built - started)
        self.wall_s.append(done - built)
        self.work_per_s.append(outcome.work / (done - built))
        self.last = outcome
        return done - built

    def passes(self, seconds: float) -> None:
        """Passes back to back until the next one would end more than
        half a pass after *seconds*."""
        started = time.perf_counter()
        while True:
            took = self.one_pass()
            if time.perf_counter() - started + took / 2 > seconds:
                return

    def extra_setups(self) -> None:
        while len(self.setup_s) < SETUP_SAMPLES:
            gc.collect()
            started = time.perf_counter()
            self.workload.setup()
            self.setup_s.append(time.perf_counter() - started)


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    runner.passes(seconds)
    rss = peak_rss_mib()
    runner.extra_setups()
    return {
        "wall_s": statistics.median(runner.wall_s),
        "setup_s": statistics.median(runner.setup_s),
        "peak_rss_mib": rss,
        "work_per_s": statistics.median(runner.work_per_s),
        "paper_ratio_err": runner.workload.fidelity(runner.last),
    }


def per_layer(runner: Runner, seconds: float, spans_path: pathlib.Path,
              host: dict[str, _t.Any]) -> dict[str, float]:
    from perfbench import layers, tracing

    runner.passes(seconds / 2)
    untraced = statistics.median(runner.wall_s)
    rec = tracing.SpanRecorder()
    with tracing.installed(rec):
        traced = runner.one_pass()
    values = layers.per_layer_values(
        rec.self_seconds(),
        rec.calls(),
        runner.last.counters,
        rec.capped_transfers,
        rec.peak_active_transfers,
        traced / untraced - 1.0,
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"host": host, "metrics": values, **rec.export()}))
    return values


def main(argv: _t.Sequence[str] | None = None, smoke: bool = False,
         goldens: pathlib.Path | None = None) -> int:
    """Run the benchmark; *smoke* and *goldens* exist for the self-test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _import_simulator()
    from perfbench import layers
    from perfbench.workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    host = host_context()
    checks = Checks(goldens or GOLDENS)
    workload = WORKLOADS[args.workload](args.seed, smoke)
    runner = Runner(workload, checks)
    if args.trace:
        values = per_layer(
            runner, args.seconds, OUT / f"spans-{args.workload}-{args.seed}.json", host
        )
        units = {m.name: m.unit for m in layers.PER_LAYER}
    else:
        values = end_to_end(runner, args.seconds)
        units = {m.name: m.unit for m in layers.END_TO_END}

    for failure in checks.failures:
        print(f"check failed: {failure}")
    context = {**host, "passes": len(runner.wall_s), "work_unit": workload.work_unit}
    print("context " + json.dumps(context))
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
