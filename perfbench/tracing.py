"""Spans recorded around calls into the simulator's layers.

The traced run patches a fixed set of public functions for the length of
one pass and restores them afterwards; the untraced run patches nothing.
Every span keeps ``[name, parent, start_ns, end_ns, calls, total_ns]``.
Calls that happen once per event or per page (step hooks, fluid
transfers, DRAM copies, page-table edits, process steps) are aggregated:
one span per (name, parent) whose ``calls`` and ``total_ns`` add up every
call, with ``start_ns`` of the first and ``end_ns`` of the last.  That
keeps a figure4 pass, with about a million step-hook calls, to a few
hundred spans.  Spans stay in memory and are written out when the run
ends.

A span's self time is its total minus the totals of its direct children.
Calls never overlap (one thread, and a process step runs to its next
``yield`` before any other code), so the children's totals are exactly
the part of the parent's time they cover.

``PoolManager.acquire``, ``PoolManager.reflex`` and
``RecoveryManager.handle_crash`` return a process whose body runs later,
inside ``Engine.run``.  For these the recorder counts the calls and times
each step of the process body by wrapping the generator handed to
``Engine.process`` during the call, and of every process those steps
spawn in turn.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import time
import typing as _t

#: field order of one span record
FIELDS = ("name", "parent", "start_ns", "end_ns", "calls", "total_ns")

_now_ns = time.perf_counter_ns


class SpanRecorder:
    """In-memory span table plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list[_t.Any]] = []
        self._stack = [-1]
        self._aggregates: dict[tuple[str, int], int] = {}
        #: calls of process-returning functions (their spans count steps)
        self.process_calls: collections.Counter[str] = collections.Counter()
        self.capped_transfers = 0
        self.peak_active_transfers = 0
        #: span name for the next generator handed to Engine.process
        self.pending_process: str | None = None
        #: span name of the process step running now, if any
        self.process_label: str | None = None
        self.origin_ns = _now_ns()

    def open(self, name: str, aggregate: bool) -> tuple[int, int]:
        parent = self._stack[-1]
        now = _now_ns()
        if aggregate:
            key = (name, parent)
            index = self._aggregates.get(key)
            if index is None:
                index = self._aggregates[key] = len(self.spans)
                self.spans.append([name, parent, now, now, 0, 0])
        else:
            index = len(self.spans)
            self.spans.append([name, parent, now, now, 0, 0])
        self._stack.append(index)
        return index, now

    def close(self, token: tuple[int, int]) -> None:
        index, started = token
        now = _now_ns()
        span = self.spans[index]
        span[3] = now
        span[4] += 1
        span[5] += now - started
        self._stack.pop()

    # -- reading --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                covered[span[1]] += span[5]
        out: dict[str, float] = collections.defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span[0]] += (span[5] - covered[index]) / 1e9
        return out

    def calls(self) -> dict[str, int]:
        """Calls per span name (process-returning functions: calls made,
        not process steps)."""
        out: dict[str, int] = collections.defaultdict(int)
        for span in self.spans:
            out[span[0]] += span[4]
        out.update(self.process_calls)
        return out

    def export(self) -> dict[str, _t.Any]:
        """The span table with times relative to the recorder's creation."""
        origin = self.origin_ns
        return {
            "fields": list(FIELDS),
            "spans": [
                [name, parent, start - origin, end - origin, calls, total]
                for name, parent, start, end, calls, total in self.spans
            ],
        }


def _timed(rec: SpanRecorder, name: str, fn: _t.Callable[..., _t.Any], aggregate: bool):
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
        token = open_(name, aggregate)
        try:
            return fn(*args, **kwargs)
        finally:
            close(token)

    return wrapper


def _timed_steps(rec: SpanRecorder, name: str, body: _t.Generator) -> _t.Generator:
    """Drive *body* step by step, timing each step as a span.  Processes
    spawned during a step (repairs, migrations, transport operations)
    are timed under the same name."""
    value: _t.Any = None
    error: BaseException | None = None
    while True:
        token = rec.open(name, True)
        outer, rec.process_label = rec.process_label, name
        try:
            target = body.send(value) if error is None else body.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.process_label = outer
            rec.close(token)
        try:
            value, error = (yield target), None
        except BaseException as exc:  # forwarded into the body, which re-raises
            value, error = None, exc


def _process_api(rec: SpanRecorder, name: str, fn: _t.Callable[..., _t.Any]):
    @functools.wraps(fn)
    def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
        rec.process_calls[name] += 1
        rec.pending_process = name
        try:
            return fn(*args, **kwargs)
        finally:
            rec.pending_process = None

    return wrapper


@contextlib.contextmanager
def installed(rec: SpanRecorder) -> _t.Iterator[SpanRecorder]:
    """Patch the traced functions for the duration of the block."""
    from repro.cluster.manager import PoolManager
    from repro.core.failures.recovery import RecoveryManager
    from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
    from repro.core.regions import RegionManager
    from repro.hw.cpu import CpuSocket
    from repro.hw.dram import MemoryDevice
    from repro.hw.server import Server
    from repro.mem.page_table import PageTable
    from repro.scale.driver import ScaleDriver
    from repro.scale.traffic import OpenLoopTraffic
    from repro.sim.engine import Engine
    from repro.sim.fluid import FluidModel
    from repro.topology import builder, multirack

    single = [
        (builder, "build", "topology.build"),
        (multirack, "build_multirack_deployment", "topology.build"),
        (Engine, "run", "sim.engine.run"),
        (CpuSocket, "parallel_stream", "hw.cpu.parallel_stream"),
        (Server, "crash", "hw.server.crash"),
        (LogicalMemoryPool, "access_segments", "core.pool.access_segments"),
        (PhysicalMemoryPool, "access_segments", "core.pool.access_segments"),
        (OpenLoopTraffic, "__init__", "scale.traffic.build"),
        (ScaleDriver, "__init__", "scale.driver.build"),
    ]
    aggregated = [
        (MemoryDevice, "write_bytes", "hw.dram.write_bytes"),
        (MemoryDevice, "read_bytes", "hw.dram.read_bytes"),
        (LogicalMemoryPool, "allocate", "core.pool.allocate"),
        (PhysicalMemoryPool, "allocate", "core.pool.allocate"),
        (LogicalMemoryPool, "free", "core.pool.free"),
        (PhysicalMemoryPool, "free", "core.pool.free"),
        (RegionManager, "allocate_frames", "core.regions.allocate_frames"),
        (RegionManager, "set_shared_target", "core.regions.set_shared_target"),
        (PageTable, "map_page", "mem.page_table.map"),
        (PageTable, "unmap_page", "mem.page_table.unmap"),
        (PoolManager, "release", "cluster.manager.release"),
        (PoolManager, "release_many", "cluster.manager.release"),
        (PoolManager, "sweep_expired", "cluster.manager.sweep"),
    ]
    process_apis = [
        (PoolManager, "acquire", "cluster.manager.acquire"),
        (PoolManager, "reflex", "cluster.manager.reflex"),
        (RecoveryManager, "handle_crash", "core.failures.handle_crash"),
    ]

    replacements: list[tuple[_t.Any, str, _t.Any]] = []
    for owner, attr, name in single:
        replacements.append((owner, attr, _timed(rec, name, getattr(owner, attr), False)))
    for owner, attr, name in aggregated:
        replacements.append((owner, attr, _timed(rec, name, getattr(owner, attr), True)))
    for owner, attr, name in process_apis:
        replacements.append((owner, attr, _process_api(rec, name, getattr(owner, attr))))

    original_process = Engine.process
    original_add_step_hook = Engine.add_step_hook
    original_transfer = FluidModel.transfer

    def process(self: Engine, generator: _t.Generator, name: str = "") -> _t.Any:
        label = rec.pending_process or rec.process_label
        if label is not None:
            rec.pending_process = None
            generator = _timed_steps(rec, label, generator)
        return original_process(self, generator, name)

    def add_step_hook(self: Engine, hook: _t.Callable[[Engine], None]) -> None:
        original_add_step_hook(self, _timed(rec, "sim.fluid.step_hook", hook, True))

    def transfer(
        self: FluidModel,
        path: _t.Sequence[_t.Any],
        size: float,
        rate_cap: float = math.inf,
        tag: str = "",
        on_complete: _t.Any = None,
    ) -> _t.Any:
        token = rec.open("sim.fluid.transfer", True)
        try:
            return original_transfer(self, path, size, rate_cap, tag, on_complete)
        finally:
            rec.close(token)
            if rate_cap != math.inf:
                rec.capped_transfers += 1
            active = self.active_transfers
            if active > rec.peak_active_transfers:
                rec.peak_active_transfers = active

    replacements += [
        (Engine, "process", process),
        (Engine, "add_step_hook", add_step_hook),
        (FluidModel, "transfer", transfer),
    ]

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
