"""T2 — the claims of Table 2 (Link0/Link1 loaded-latency and bandwidth)."""

from __future__ import annotations

import pytest

from repro.experiments import table2


@pytest.mark.benchmark(group="tables")
def test_table2(run_once):
    result = run_once(table2.run)
    for link in result.links:
        assert link.min_latency_ns == pytest.approx(link.paper_min_ns, rel=0.05)
        assert link.bandwidth_gbps == pytest.approx(link.paper_bandwidth_gbps, rel=0.02)
