"""CPU core model.

The paper's microbenchmark sums a vector with 14 cores because a single
core cannot saturate a memory channel: its throughput is capped by
memory-level parallelism (a bounded number of outstanding cache-line
requests against the access round-trip — Little's law).  We model a core
as a streaming request generator:

* it walks its assigned byte ranges chunk by chunk (default 4 MiB),
* each chunk is a fluid transfer whose rate cap is
  ``mlp_lines * 64 B / loaded_latency`` of the target at issue time,
* consecutive chunks are pipelined by the hardware prefetcher, so the
  only per-chunk serialization is the issue latency of the first line —
  a sub-percent effect at 4 MiB chunks, mirroring how load/store access
  "can leverage processor mechanisms to hide memory latency" (§1).

``mlp_lines`` defaults to 24, counting both L1 miss buffers and the L2
prefetchers that run ahead of them; with 14 cores this saturates both
the 97 GB/s local channel and the 34.5/21 GB/s emulated CXL links, as in
the paper's testbed.

A stream runs as a callback chain, not as a process (the same shape as
:mod:`repro.fabric.transport`): the latency timeout's callback starts
the chunk's fluid transfer, and the transfer's completion callback
starts the next chunk or succeeds the stream's event with the bytes
moved.  No generator is resumed per chunk.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.hw.latency import mlp_rate_cap
from repro.sim.events import Event, lazy_event
from repro.sim.fluid import Capacity, FluidModel
from repro.units import mib

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


@dataclasses.dataclass
class AccessSegment:
    """A contiguous run of bytes a core must stream.

    ``path`` is the chain of bandwidth constraints the data crosses;
    ``latency_fn`` returns the current loaded round-trip latency in ns
    (used for the MLP rate cap); ``before`` optionally names a transfer
    that must complete first for each chunk — used by the page cache to
    model fill-then-read.
    """

    path: tuple[Capacity, ...]
    nbytes: int
    latency_fn: _t.Callable[[], float]
    label: str = ""
    fill_path: tuple[Capacity, ...] | None = None
    fill_bytes: int = 0
    fill_latency_fn: _t.Callable[[], float] | None = None


class Core:
    """One hardware thread streaming data through the fluid model."""

    #: installed by repro.obs.Observability: records one span per stream
    #: under the caller's running span, charged with the per-chunk
    #: stream time by latency category.  None = one class-attribute load
    #: per stream.
    _obs: _t.ClassVar[_t.Any] = None

    #: segment labels served by this server's own DRAM (everything else
    #: crossed the fabric): "local" direct hits and "cached" page-cache
    #: hits.  See LogicalMemoryPool.access_segments for the label set.
    _LOCAL_LABELS = ("local", "cached")

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        name: str,
        mlp_lines: int = 24,
        line_bytes: int = 64,
        chunk_bytes: int = mib(4),
    ) -> None:
        if mlp_lines < 1:
            raise ConfigError(f"mlp_lines must be >= 1, got {mlp_lines}")
        if chunk_bytes < line_bytes:
            raise ConfigError("chunk_bytes must be at least one cache line")
        self.engine = engine
        self.fluid = fluid
        self.name = name
        self.mlp_lines = mlp_lines
        self.line_bytes = line_bytes
        self.chunk_bytes = chunk_bytes
        self.bytes_streamed = 0

    def rate_cap(self, latency_ns: float) -> float:
        """This core's MLP streaming ceiling at the given latency."""
        return mlp_rate_cap(latency_ns, self.mlp_lines, self.line_bytes)

    def stream(self, segments: _t.Sequence[AccessSegment]) -> Event:
        """Stream every segment in order; the returned event succeeds
        with the bytes moved (or fails with whatever a step raised)."""
        return _Stream(self, list(segments)).done


class _Stream:
    """One :meth:`Core.stream` as a callback chain.

    A zero-delay start event begins the first chunk, so the stream's
    first step runs where a spawned process would first run.  Each chunk
    is then: an optional cache fill (a fluid transfer on the fill path),
    the access-latency timeout, and the chunk's fluid transfer.  Each
    step's callback starts the next one, and the last transfer's
    callback succeeds :attr:`done` with the bytes moved.  Under
    :class:`~repro.obs.Observability` the stream records one span,
    parented to the caller's running span, which takes every chunk's
    latency-category charges.
    """

    __slots__ = (
        "core", "segments", "index", "seg", "tag", "remote", "remaining",
        "fill_remaining", "chunk", "latency", "started", "moved", "done", "obs", "span",
    )

    def __init__(self, core: Core, segments: list[AccessSegment]) -> None:
        engine = core.engine
        name = f"{core.name}.stream"
        self.core = core
        self.segments = segments
        self.index = 0
        self.seg: AccessSegment | None = None
        self.tag = ""
        self.remote = False
        self.remaining = 0
        self.fill_remaining = 0
        self.chunk = 0
        self.latency = 0.0
        self.started = 0.0
        self.moved = 0
        self.done = Event(engine, name=name)
        obs = self.obs = Core._obs
        self.span = obs.stream_begin(engine, name) if obs is not None else None
        start = lazy_event(engine, "start", name)
        start._value = None
        start.callbacks.append(self._step)
        engine._schedule(start, delay=0.0)

    def _step(self, _ev: Event | None = None) -> None:
        """Start the next chunk's first step, or finish the stream."""
        try:
            while self.remaining <= 0:
                if self.index == len(self.segments):
                    self._end(None)
                    return
                seg = self.seg = self.segments[self.index]
                self.index += 1
                self.remaining = seg.nbytes
                self.fill_remaining = seg.fill_bytes
                self.remote = bool(seg.label) and seg.label not in Core._LOCAL_LABELS
                self.tag = f"{self.core.name}.{seg.label or 'scan'}"
                if self.span is not None:
                    self.obs.stream_segment(
                        self.span, self.core.name, seg.label or "scan", self.remote
                    )
            core = self.core
            seg = self.seg
            assert seg is not None
            self.chunk = min(core.chunk_bytes, self.remaining)
            # Cache-miss chunks fetch from the fill path first (the
            # upfront memcpy of the Physical-cache configuration).
            if seg.fill_path is not None and self.fill_remaining > 0:
                fill_chunk = min(core.chunk_bytes, self.fill_remaining)
                self.fill_remaining -= fill_chunk
                fill_lat = (seg.fill_latency_fn or seg.latency_fn)()
                self.started = core.engine.now
                core.fluid.transfer(
                    seg.fill_path,
                    fill_chunk,
                    rate_cap=core.rate_cap(fill_lat),
                    tag=f"{core.name}.fill",
                    on_complete=self._filled,
                )
            else:
                self._issue()
        except Exception as exc:
            self._end(exc)

    def _filled(self, _ev: Event) -> None:
        if self.span is not None:
            # cache fills always cross the fabric
            self.obs.stream_hop(self.span, True, 0.0, self.core.engine.now - self.started)
        try:
            self._issue()
        except Exception as exc:
            self._end(exc)

    def _issue(self) -> None:
        """Pay the chunk's access latency: the first line of each chunk
        pays it, and the rest stream behind it."""
        seg = self.seg
        assert seg is not None
        latency = self.latency = seg.latency_fn()
        self.core.engine.timeout(latency).callbacks.append(self._transfer)

    def _transfer(self, _ev: Event) -> None:
        core = self.core
        seg = self.seg
        assert seg is not None
        self.started = core.engine.now
        try:
            core.fluid.transfer(
                seg.path,
                self.chunk,
                rate_cap=core.rate_cap(self.latency),
                tag=self.tag,
                on_complete=self._transferred,
            )
        except Exception as exc:
            self._end(exc)

    def _transferred(self, _ev: Event) -> None:
        if self.span is not None:
            self.obs.stream_hop(
                self.span, self.remote, self.latency, self.core.engine.now - self.started
            )
        chunk = self.chunk
        self.remaining -= chunk
        self.moved += chunk
        self.core.bytes_streamed += chunk
        self._step()

    def _end(self, exc: Exception | None) -> None:
        if self.span is not None:
            self.obs.stream_end(self.span, self.core.engine.now)
        if exc is None:
            self.done.succeed(self.moved)
        else:
            self.done.fail(exc)


class CpuSocket:
    """A socket: a set of identical cores plus helpers to fan work out."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        name: str,
        core_count: int = 14,
        mlp_lines: int = 24,
        chunk_bytes: int = mib(4),
    ) -> None:
        if core_count < 1:
            raise ConfigError(f"core_count must be >= 1, got {core_count}")
        self.engine = engine
        self.name = name
        self.cores = [
            Core(engine, fluid, f"{name}.core{i}", mlp_lines=mlp_lines, chunk_bytes=chunk_bytes)
            for i in range(core_count)
        ]

    @property
    def core_count(self) -> int:
        return len(self.cores)

    def parallel_stream(
        self, per_core_segments: _t.Sequence[_t.Sequence[AccessSegment]]
    ) -> list[Event]:
        """Start one stream per entry; returns the list of stream events
        (each succeeds with that core's bytes moved).

        The caller typically wraps them in ``engine.all_of(...)``.
        """
        if len(per_core_segments) > len(self.cores):
            raise ConfigError(
                f"{len(per_core_segments)} work lists for {len(self.cores)} cores"
            )
        return [
            core.stream(segments)
            for core, segments in zip(self.cores, per_core_segments)
        ]
