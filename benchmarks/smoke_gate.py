"""What the ``--smoke`` benches share: the cold-seam precondition and
the one baseline regression gate.

:func:`gate` is the whole regression decision for
``bench_engine.py --smoke`` and ``bench_scale.py --smoke``.  It writes
the run's rates, then holds them to the floors committed under
``benchmarks/baselines/``.  Each floor is scaled down on a machine that
the heap calibration probe proves slower than the one that recorded it
(never up), less :data:`TOLERANCE`.  The run fails when the baseline is
missing, unparsable or has no floors, when a committed configuration is
absent from the run, or when a rate lands below its floor.
"""

from __future__ import annotations

import gc
import importlib
import json
import pathlib
import time
import typing as _t

#: allowed rate drop vs. the committed baseline before the gate fails
TOLERANCE = 0.20

#: the race detector's monitor seams (filled by ``RaceSanitizer.install``);
#: the observability seams come from ``repro.obs.tracing`` itself
_DETECTOR_SEAMS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.process", "Process", "_monitor"),
    ("repro.sim.engine", "Engine", "_monitor"),
    ("repro.core.api", "LmpSession", "_access_monitor"),
    ("repro.core.coherence.protocol", "CoherenceDirectory", "_race_hook"),
)


def installed_seams() -> list[str]:
    """Every detector or observability seam that is not ``None``."""
    from repro.obs.tracing import _MODULE_SEAMS, _SEAMS

    stale: list[str] = []
    for module_name, class_name, attr in _DETECTOR_SEAMS + _SEAMS:
        owner = getattr(importlib.import_module(module_name), class_name)
        if getattr(owner, attr) is not None:
            stale.append(f"{class_name}.{attr}")
    for module_name, attr in _MODULE_SEAMS:
        if getattr(importlib.import_module(module_name), attr) is not None:
            stale.append(f"{module_name}.{attr}")
    return stale


def assert_seams_cold() -> None:
    """Every seam must default to None, and a fresh engine must take the
    bare dispatch fast path — otherwise a bench measures hook dispatch,
    not the machinery it names."""
    from repro.sim.engine import Engine

    stale = installed_seams()
    if stale:
        raise SystemExit(f"detector seams unexpectedly installed: {', '.join(stale)}")
    probe = Engine()
    if probe._step_hooks or probe._event_sinks or Engine._global_event_sinks:
        raise SystemExit(
            "fresh engine is instrumented: step hooks or event sinks are "
            "installed, so the bare dispatch fast path will not engage"
        )


def calibrate() -> float:
    """Machine-speed probe: a fixed heap workload that never touches repro
    code, so an engine regression cannot mask itself as a slow machine.

    The committed floors were measured on one machine; a CI runner (or a
    loaded box) is legitimately slower at everything, not just at the
    bench."""
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
        secs = time.perf_counter() - started
        best = max(best, (2 * n) / secs)
    return best


def load_baseline(path: pathlib.Path) -> dict[str, _t.Any]:
    """The committed baseline; exits when it is missing, unparsable, or
    carries no per-configuration floors."""
    try:
        baseline = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"no readable committed baseline at {path}: {exc}") from None
    if not isinstance(baseline, dict) or not baseline.get("results"):
        raise SystemExit(f"committed baseline {path} has no per-configuration floors")
    return baseline


def gate(
    label: str,
    results: _t.Mapping[str, _t.Mapping[str, float]],
    baseline_path: pathlib.Path,
    out: pathlib.Path,
    calibration: float | None = None,
) -> None:
    """Write *results* to *out*, then fail unless every committed
    configuration's ``events_per_sec`` clears its machine-scaled floor.

    *calibration* is the probe's ops/s on this machine; it is measured
    when not given."""
    if calibration is None:
        calibration = calibrate()
    out.write_text(
        json.dumps(
            {"results": results, "calibration_ops_per_sec": round(calibration, 1)},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {out}")

    baseline = load_baseline(baseline_path)
    base_cal = baseline.get("calibration_ops_per_sec", 0.0)
    scale = min(1.0, calibration / base_cal) if base_cal else 1.0
    if scale < 1.0:
        print(
            f"machine calibration: {calibration:,.0f} probe ops/s vs "
            f"{base_cal:,.0f} at baseline capture — floors scaled x{scale:.2f}"
        )
    failures: list[str] = []
    for name, committed in baseline["results"].items():
        current = results.get(name)
        if current is None:
            failures.append(f"{name}: configuration missing from this run")
            continue
        floor = committed["events_per_sec"] * (1.0 - TOLERANCE) * scale
        if current["events_per_sec"] < floor:
            failures.append(
                f"{name}: {current['events_per_sec']:,.0f}/s is >"
                f"{TOLERANCE:.0%} below committed baseline "
                f"{committed['events_per_sec']:,.0f}"
                + (f" (floor scaled x{scale:.2f} for this machine)" if scale < 1.0 else "")
            )
    if failures:
        raise SystemExit(f"{label} regression:\n  " + "\n  ".join(failures))
    print(f"regression gate: all configurations within {TOLERANCE:.0%} of "
          "committed baseline — OK")
