"""The shared bench regression gate (``benchmarks/smoke_gate.py``).

``bench_engine.py --smoke`` and ``bench_scale.py --smoke`` hand their
rates to one ``gate`` function.  These tests drive every outcome of
that decision with fixed rates and a fixed calibration value, so
nothing here is timed.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load_smoke_gate():
    spec = importlib.util.spec_from_file_location(
        "smoke_gate", BENCHMARKS / "smoke_gate.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


smoke_gate = _load_smoke_gate()

#: a floor of 125 * (1 - 20%) = 100/s, recorded on a 1000 ops/s machine
BASELINE = {
    "calibration_ops_per_sec": 1000.0,
    "results": {"churn": {"events_per_sec": 125.0}},
}


def _gate(tmp_path, rate, baseline=BASELINE, calibration=1000.0, results=None):
    path = tmp_path / "baseline.json"
    if baseline is not None:
        path.write_text(baseline if isinstance(baseline, str) else json.dumps(baseline))
    if results is None:
        results = {"churn": {"events_per_sec": rate}}
    smoke_gate.gate("test bench", results, path, tmp_path / "out.json", calibration)


def test_rate_at_the_floor_passes_and_records_the_run(tmp_path, capsys):
    _gate(tmp_path, 100.0)
    assert "OK" in capsys.readouterr().out
    written = json.loads((tmp_path / "out.json").read_text())
    assert written == {
        "results": {"churn": {"events_per_sec": 100.0}},
        "calibration_ops_per_sec": 1000.0,
    }


def test_missing_baseline_fails(tmp_path):
    with pytest.raises(SystemExit, match="no readable committed baseline"):
        _gate(tmp_path, 500.0, baseline=None)
    # the run is still recorded for the CI artifact
    assert (tmp_path / "out.json").exists()


def test_unparsable_baseline_fails(tmp_path):
    with pytest.raises(SystemExit, match="no readable committed baseline"):
        _gate(tmp_path, 500.0, baseline="{not json")


@pytest.mark.parametrize("baseline", [{"results": {}}, {"calibration_ops_per_sec": 1.0}, []])
def test_baseline_without_floors_fails(tmp_path, baseline):
    with pytest.raises(SystemExit, match="no per-configuration floors"):
        _gate(tmp_path, 500.0, baseline=baseline)


def test_configuration_absent_from_the_run_fails(tmp_path):
    with pytest.raises(SystemExit, match="churn: configuration missing"):
        _gate(tmp_path, 0.0, results={"storm": {"events_per_sec": 500.0}})


def test_rate_below_the_floor_fails(tmp_path):
    with pytest.raises(SystemExit, match="test bench regression"):
        _gate(tmp_path, 99.0)


def test_slower_machine_scales_the_floors_down(tmp_path, capsys):
    # half the recorded probe speed: the floor drops from 100 to 50
    _gate(tmp_path, 50.0, calibration=500.0)
    assert "floors scaled x0.50" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="scaled x0.50"):
        _gate(tmp_path, 49.0, calibration=500.0)


def test_faster_machine_never_raises_the_floors(tmp_path):
    # twice the recorded probe speed: the scale is capped at 1.0, so the
    # floor stays at 100, not 200
    _gate(tmp_path, 100.0, calibration=2000.0)
    with pytest.raises(SystemExit):
        _gate(tmp_path, 99.0, calibration=2000.0)


def test_committed_baselines_are_readable():
    for name in ("BENCH_engine_baseline.json", "BENCH_scale_baseline.json"):
        baseline = smoke_gate.load_baseline(BENCHMARKS / "baselines" / name)
        assert baseline["calibration_ops_per_sec"] > 0
        assert all(r["events_per_sec"] > 0 for r in baseline["results"].values())


def test_smoke_benches_share_the_gate():
    """Neither smoke bench keeps a private calibration or floor loop."""
    for name in ("bench_engine.py", "bench_scale.py"):
        source = (BENCHMARKS / name).read_text()
        assert "smoke_gate.gate(" in source
        assert "def _calibrate" not in source
        assert "TOLERANCE" not in source
        assert "--seed-compat" not in source


# --- the seam lists the smoke benches hold cold ----------------------------------


def test_seam_check_covers_every_obs_and_detector_seam():
    from repro.check import RaceSanitizer
    from repro.obs import Observability
    from repro.obs.tracing import _MODULE_SEAMS, _SEAMS

    assert smoke_gate.installed_seams() == []
    smoke_gate.assert_seams_cold()

    with Observability().activated():
        installed = smoke_gate.installed_seams()
    expected = [f"{cls}.{attr}" for _mod, cls, attr in _SEAMS]
    expected += [f"{mod}.{attr}" for mod, attr in _MODULE_SEAMS]
    assert installed == expected
    for seam in ("Core._obs", "CoherenceDirectory._obs", "LocalityBalancer._obs",
                 "Gauntlet._obs", "repro.workloads.vector_sum._obs"):
        assert seam in installed

    with RaceSanitizer().installed():
        with pytest.raises(SystemExit, match="Process._monitor"):
            smoke_gate.assert_seams_cold()
        assert smoke_gate.installed_seams() == [
            "Process._monitor",
            "Engine._monitor",
            "LmpSession._access_monitor",
            "CoherenceDirectory._race_hook",
        ]
    assert smoke_gate.installed_seams() == []

