"""T1 — the claims of Table 1 (memory-type latency and bandwidth)."""

from __future__ import annotations

import pytest

from repro.experiments import table1


@pytest.mark.benchmark(group="tables")
def test_table1(run_once):
    result = run_once(table1.run)
    for row in result.rows:
        assert row.latency_ns == pytest.approx(row.paper_latency_ns, rel=0.05)
        assert row.bandwidth_gbps == pytest.approx(row.paper_bandwidth_gbps, rel=0.02)
