"""Self-test of the benchmark at smoke sizes.

    python3 perfbench/selftest.py

Shows that every metric named in ``BENCHMARK.json`` is printed with its
unit for each workload, traced and untraced; that a corrupted or a
missing result file is reported as a failed check (exit code 1), not
skipped; and that the benchmark refuses to run, printing no result,
from a directory that holds only ``BENCHMARK.json`` and the benchmark.
Scratch files go under ``.bench_out/selftest/``.  Exits non-zero when
any of this does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import typing as _t

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, run  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"


class SelfTest:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            self.failures.append(what)


def bench(workload: str, trace: int, seed: int = 0,
          goldens: pathlib.Path | None = None) -> tuple[int, dict[str, _t.Any]]:
    """One smoke-size run in this process: (exit code, last output line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            smoke=True,
            goldens=goldens,
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_manifest(t: SelfTest) -> dict[str, _t.Any]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
           for m in layers.END_TO_END]
    per_layer = [{"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER]
    t.expect(manifest["end_to_end"] == e2e, "BENCHMARK.json end_to_end matches layers.END_TO_END")
    t.expect(manifest["per_layer"] == per_layer, "BENCHMARK.json per_layer matches layers.PER_LAYER")
    t.expect(
        [w["name"] for w in manifest["workloads"]] == list(layers.ALL),
        "BENCHMARK.json lists the three workloads",
    )
    return manifest


def check_metrics(t: SelfTest, manifest: dict[str, _t.Any]) -> None:
    for workload in layers.ALL:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(workload, trace)
            t.expect(code == 0 and result["correct"] and result["failed"] == 0,
                     f"{workload} trace={trace}: output check passes")
            t.expect(result["attempted"] >= 1, f"{workload} trace={trace}: attempted >= 1")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in manifest[key]}
            t.expect(printed == wanted, f"{workload} trace={trace}: every {key} metric with its unit")
            numbers = all(isinstance(m["value"], float) for m in result["metrics"].values())
            t.expect(numbers, f"{workload} trace={trace}: every value is a number")


def check_goldens(t: SelfTest) -> None:
    corrupted = SCRATCH / "corrupted"
    corrupted.mkdir(parents=True, exist_ok=True)
    text = (run.GOLDENS / "figure2.txt").read_text()
    (corrupted / "figure2.txt").write_text(text.replace("4.62x", "4.63x"))
    code, result = bench("paper_vectorsum", 0, goldens=corrupted)
    t.expect(code == 1 and not result["correct"] and result["failed"] >= 1,
             "a corrupted result file fails the check")

    missing = SCRATCH / "missing"
    missing.mkdir(parents=True, exist_ok=True)
    (missing / "figure2.txt").unlink(missing_ok=True)
    code, result = bench("paper_vectorsum", 0, goldens=missing)
    t.expect(code == 1 and not result["correct"] and result["failed"] >= 1,
             "a missing result file fails the check")


def check_bare_directory(t: SelfTest) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crash_recovery",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    t.expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
             "without the simulator's sources the benchmark fails and prints no result")


def main() -> int:
    t = SelfTest()
    manifest = check_manifest(t)
    check_metrics(t, manifest)
    check_goldens(t)
    check_bare_directory(t)
    print(f"{len(t.failures)} failure(s)")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
