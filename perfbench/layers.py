"""The benchmark's metrics, with what each per-layer metric predicts.

``END_TO_END`` and ``PER_LAYER`` are the single source for the metric
lists in ``BENCHMARK.json`` (the self-test checks that they agree).
Every per-layer entry also records which end-to-end metric it should
move, on which workloads, and where it should stay flat.

Per-layer times are self times (``tracing.SpanRecorder.self_seconds``)
of one traced pass; counts come from the same spans or from the
simulator's public counters after that pass.
"""

from __future__ import annotations

import dataclasses
import typing as _t

VECTORSUM = "paper_vectorsum"
SCALE = "scale_openloop"
CRASH = "crash_recovery"
ALL = (VECTORSUM, SCALE, CRASH)


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it should move ("" for none)
    on: tuple[str, ...]  # workloads where it should move it
    flat: tuple[str, ...]  # workloads where it should stay flat


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.15),
    EndToEnd("work_per_s", "work/s", "higher", 0.25),
    EndToEnd("paper_ratio_err", "frac", "lower", 0.05),
)


def _m(name: str, unit: str, moves: str, on: tuple[str, ...], flat: tuple[str, ...] = (),
       better: str = "lower") -> LayerMetric:
    return LayerMetric(name, unit, better, moves, on, flat)


_NOT_VS = (SCALE, CRASH)
PER_LAYER = (
    _m("topology.build_s", "s", "setup_s", ALL),
    _m("topology.builds", "count", "setup_s", ALL),
    _m("sim.engine.run_self_s", "s", "wall_s", ALL),
    _m("sim.engine.events", "count", "wall_s", ALL),
    _m("sim.engine.ns_per_event", "ns", "wall_s", ALL),
    _m("sim.fluid.transfer_s", "s", "wall_s", (VECTORSUM,), _NOT_VS),
    _m("sim.fluid.transfers", "count", "wall_s", (VECTORSUM,), _NOT_VS),
    _m("sim.fluid.peak_active", "count", "wall_s", (VECTORSUM,), _NOT_VS),
    _m("sim.fluid.capped_share", "frac", "wall_s", (VECTORSUM,), _NOT_VS),
    _m("sim.fluid.step_hook_s", "s", "wall_s", (VECTORSUM,), _NOT_VS),
    _m("hw.cpu.parallel_stream_s", "s", "wall_s", (VECTORSUM,), _NOT_VS),
    _m("hw.dram.write_bytes_s", "s", "wall_s", (CRASH,), (VECTORSUM,)),
    _m("hw.dram.read_bytes_s", "s", "wall_s", (CRASH,), (VECTORSUM,)),
    _m("hw.server.crash_s", "s", "wall_s", (CRASH,), (VECTORSUM, SCALE)),
    _m("hw.dram.resident_mib", "MiB", "peak_rss_mib", (CRASH,), (VECTORSUM,)),
    _m("fabric.transport.reads", "count", "wall_s", (CRASH, SCALE), (VECTORSUM,)),
    _m("fabric.transport.writes", "count", "wall_s", (CRASH, SCALE), (VECTORSUM,)),
    _m("fabric.transport.copies", "count", "wall_s", (CRASH, SCALE), (VECTORSUM,)),
    _m("fabric.transport.bytes_copied", "B", "wall_s", (CRASH, SCALE), (VECTORSUM,)),
    _m("core.pool.allocate_s", "s", "wall_s", (SCALE,), (VECTORSUM,)),
    _m("core.pool.free_s", "s", "wall_s", (SCALE,), (VECTORSUM,)),
    _m("core.regions.allocate_frames_s", "s", "wall_s", (SCALE,), (VECTORSUM,)),
    _m("core.regions.set_shared_target_s", "s", "wall_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("core.pool.access_segments_s", "s", "wall_s", (VECTORSUM,), _NOT_VS),
    _m("core.failures.handle_crash_s", "s", "wall_s", (CRASH,), (VECTORSUM, SCALE)),
    _m("core.failures.repair_bytes", "B", "wall_s", (CRASH,), (VECTORSUM, SCALE)),
    _m("core.migration.bytes_evacuated", "B", "wall_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("mem.page_table.map_s", "s", "wall_s", (SCALE,), (VECTORSUM,)),
    _m("mem.page_table.maps", "count", "wall_s", (SCALE,), (VECTORSUM,)),
    _m("mem.page_table.unmap_s", "s", "wall_s", (SCALE,), (VECTORSUM,)),
    _m("cluster.manager.acquires", "count", "wall_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("cluster.manager.release_s", "s", "wall_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("cluster.manager.sweep_s", "s", "wall_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("cluster.manager.reflex_s", "s", "wall_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("cluster.admission.grant_ratio", "frac", "wall_s", (SCALE,), (VECTORSUM, CRASH),
       better="higher"),
    _m("scale.traffic.build_s", "s", "setup_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("scale.driver.build_s", "s", "setup_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("scale.autoscaler.reflexes", "count", "wall_s", (SCALE,), (VECTORSUM, CRASH)),
    _m("trace.overhead_frac", "frac", "", ()),
)


def per_layer_values(
    self_s: _t.Mapping[str, float],
    calls: _t.Mapping[str, int],
    counters: _t.Mapping[str, float],
    capped_transfers: int,
    peak_active_transfers: int,
    overhead_frac: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced pass."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(key: str) -> float:
        return float(counters.get(key, 0.0))

    events = count("sim.engine.events")
    values = {
        "topology.build_s": self_s.get("topology.build", 0.0),
        "topology.builds": calls.get("topology.build", 0),
        "sim.engine.run_self_s": self_s.get("sim.engine.run", 0.0),
        "sim.engine.events": events,
        "sim.engine.ns_per_event": ratio(self_s.get("sim.engine.run", 0.0) * 1e9, events),
        "sim.fluid.transfer_s": self_s.get("sim.fluid.transfer", 0.0),
        "sim.fluid.transfers": calls.get("sim.fluid.transfer", 0),
        "sim.fluid.peak_active": peak_active_transfers,
        "sim.fluid.capped_share": ratio(capped_transfers, calls.get("sim.fluid.transfer", 0)),
        "sim.fluid.step_hook_s": self_s.get("sim.fluid.step_hook", 0.0),
        "hw.cpu.parallel_stream_s": self_s.get("hw.cpu.parallel_stream", 0.0),
        "hw.dram.write_bytes_s": self_s.get("hw.dram.write_bytes", 0.0),
        "hw.dram.read_bytes_s": self_s.get("hw.dram.read_bytes", 0.0),
        "hw.server.crash_s": self_s.get("hw.server.crash", 0.0),
        "hw.dram.resident_mib": count("hw.dram.resident_mib"),
        "fabric.transport.reads": count("fabric.transport.reads"),
        "fabric.transport.writes": count("fabric.transport.writes"),
        "fabric.transport.copies": count("fabric.transport.copies"),
        "fabric.transport.bytes_copied": count("fabric.transport.bytes_copied"),
        "core.pool.allocate_s": self_s.get("core.pool.allocate", 0.0),
        "core.pool.free_s": self_s.get("core.pool.free", 0.0),
        "core.regions.allocate_frames_s": self_s.get("core.regions.allocate_frames", 0.0),
        "core.regions.set_shared_target_s": self_s.get("core.regions.set_shared_target", 0.0),
        "core.pool.access_segments_s": self_s.get("core.pool.access_segments", 0.0),
        "core.failures.handle_crash_s": self_s.get("core.failures.handle_crash", 0.0),
        "core.failures.repair_bytes": count("core.failures.repair_bytes"),
        "core.migration.bytes_evacuated": count("core.migration.bytes_evacuated"),
        "mem.page_table.map_s": self_s.get("mem.page_table.map", 0.0),
        "mem.page_table.maps": calls.get("mem.page_table.map", 0),
        "mem.page_table.unmap_s": self_s.get("mem.page_table.unmap", 0.0),
        "cluster.manager.acquires": calls.get("cluster.manager.acquire", 0),
        "cluster.manager.release_s": self_s.get("cluster.manager.release", 0.0),
        "cluster.manager.sweep_s": self_s.get("cluster.manager.sweep", 0.0),
        "cluster.manager.reflex_s": self_s.get("cluster.manager.reflex", 0.0),
        "cluster.admission.grant_ratio": ratio(
            count("cluster.admission.grants"), calls.get("cluster.manager.acquire", 0)
        ),
        "scale.traffic.build_s": self_s.get("scale.traffic.build", 0.0),
        "scale.driver.build_s": self_s.get("scale.driver.build", 0.0),
        "scale.autoscaler.reflexes": count("scale.autoscaler.reflexes"),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: float(value) for name, value in values.items()}
