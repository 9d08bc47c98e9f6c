"""L1, B1, B3 — the paper's remaining quantitative claims.

* L1: §4.3 loaded-latency ratios (2.8x / 3.6x),
* B1: §4.2 cost scenarios,
* B3: §4.4 near-memory computing (the result the paper describes but
  does not show).
"""

from __future__ import annotations

import pytest

from repro.experiments import cost, latency, nearmem


@pytest.mark.benchmark(group="claims")
def test_latency_ratios(run_once):
    result = run_once(latency.run)
    assert result.ratio_link0 == pytest.approx(2.8, abs=0.15)
    assert result.ratio_link1 == pytest.approx(3.6, abs=0.2)


@pytest.mark.benchmark(group="claims")
def test_cost_scenarios(run_once):
    result = run_once(cost.run)
    assert result.scenario_1.physical_premium > 0
    assert result.scenario_2.physical_premium > 0


@pytest.mark.benchmark(group="claims")
def test_near_memory_computing(run_once):
    result = run_once(nearmem.run)
    # shipping turns one server's bandwidth into every server's
    assert result.speedup > 4.0
