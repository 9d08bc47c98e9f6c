"""B0, A6, A7 — the extension experiments.

* B0: software (RDMA-style) vs hardware (load/store) disaggregation,
  quantifying the paper's §2.1 motivation,
* A6: slowdown and working-set sweeps (the curves behind Figures 2–5),
* A7: rack-scale pools over a leaf-spine PBR fabric (§3.2's 10–100 TB).
"""

from __future__ import annotations

import pytest

from repro.experiments import accelerators, applications, multirack, software, sweeps


@pytest.mark.benchmark(group="extensions")
def test_b0_software_vs_hardware(run_once):
    result = run_once(software.run)
    cache_line = result.latency_points[0]
    assert cache_line.size_bytes == 64
    # hardware load/store wins decisively at cache-line granularity...
    assert cache_line.hardware_advantage > 3.0
    # ...and the gap closes once transfers amortize the software costs
    assert result.latency_points[-1].hardware_advantage < 1.5
    assert result.software_stream_gbps == pytest.approx(
        result.hardware_stream_gbps, rel=0.05
    )


@pytest.mark.benchmark(group="extensions")
def test_a9_application_kernels(run_once):
    result = run_once(applications.run)
    logical = result.score("Logical")
    nocache = result.score("Physical no-cache")
    # latency-bound kernels feel the architecture directly: local KV ops
    # run at local-DRAM latency, remote ones at fabric latency
    assert logical.kv_mean_latency_ns < nocache.kv_mean_latency_ns / 2
    assert logical.bfs_duration_us < nocache.bfs_duration_us / 2
    assert logical.kv_ops_per_sec > nocache.kv_ops_per_sec


@pytest.mark.benchmark(group="extensions")
def test_a6_sweeps(run_once):
    result = run_once(sweeps.run)
    # Logical never loses to the physical baselines, at any point
    for point in result.size_points:
        if point.physical_feasible:
            assert point.logical_gbps >= point.nocache_gbps - 0.5
            assert point.logical_gbps >= point.cache_gbps - 0.5
    # locality decays exactly as capacity arithmetic predicts: 24/size
    tail = result.size_points[-1]
    assert tail.locality == pytest.approx(24 / tail.vector_gib, abs=0.01)
    # the physical pool falls off the feasibility cliff past 64 GiB
    assert not tail.physical_feasible
    # slowdown sweep: advantage saturates at total/remote = 64/40
    for point in result.slowdown_points:
        assert point.advantage == pytest.approx(1.6, abs=0.05)


@pytest.mark.benchmark(group="extensions")
def test_a8_accelerator_shipping(run_once):
    result = run_once(accelerators.run)
    by_key = {(p.engine_kind, p.vector_gib): p for p in result.points}
    cpu = by_key[("cpu", 32.0)]
    offload = by_key[("accelerator", 32.0)]
    # same DRAM-bound bandwidth, zero CPU time consumed
    assert offload.aggregate_gbps == pytest.approx(cpu.aggregate_gbps, rel=0.05)
    assert offload.cpu_core_ms == 0.0
    assert cpu.cpu_core_ms > 0.0


@pytest.mark.benchmark(group="extensions")
def test_a7_multirack(run_once):
    result = run_once(multirack.run)
    local, same_rack, cross_rack = result.tiers
    assert local.total_ns < same_rack.total_ns < cross_rack.total_ns
    assert cross_rack.hops == 4
    # bisection bandwidth scales linearly with racks at fixed trunk width
    first, *_rest, last = result.scale_points
    assert last.bisection_gbps == pytest.approx(
        first.bisection_gbps * last.racks / first.racks, rel=0.01
    )
    assert result.racks_for_100tb > result.racks_for_10tb
