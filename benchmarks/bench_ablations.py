"""A1–A5 — the challenge ablations (§5 mechanisms, measured).

* A1 incast at the physical pool vs logical data placement,
* A2 shared-region sizing policies,
* A3 locality balancing on/off,
* A4 coherent-region pressure + NUMA-aware locks,
* A5 failure recovery regimes.
"""

from __future__ import annotations

import pytest

from repro.experiments import coherence, failures, incast, migration, sizing


@pytest.mark.benchmark(group="ablations")
def test_a1_incast(run_once):
    result = run_once(incast.run)
    last = result.points[-1]
    assert last.logical_spread_gbps > 3.5 * last.physical_w1_gbps


@pytest.mark.benchmark(group="ablations")
def test_a2_sizing_policies(run_once):
    result = run_once(sizing.run)
    by_name = {s.policy: s for s in result.skewed.scores}
    assert by_name["global-optimizer"].objective >= by_name["static"].objective


@pytest.mark.benchmark(group="ablations")
def test_a3_locality_balancing(run_once):
    result = run_once(migration.run)
    assert result.final_speedup > 4.0  # 21 -> 97 GB/s on link1
    assert result.with_balancer[-1].locality == pytest.approx(1.0)


@pytest.mark.benchmark(group="ablations")
def test_a4_coherence(run_once):
    result = run_once(coherence.run)
    assert result.filter_sweep[-1].back_invalidations > 0
    scores = {s.lock: s for s in result.lock_scores}
    assert scores["cohort"].remote_directory_messages < scores["spinlock"].remote_directory_messages


@pytest.mark.benchmark(group="ablations")
def test_a5_failure_recovery(run_once):
    result = run_once(failures.run)
    by_scheme = {o.scheme: o for o in result.outcomes}
    assert by_scheme["replication x2"].data_survived
    assert by_scheme["RS(2,1)"].data_survived
    assert not by_scheme["unprotected"].data_survived
