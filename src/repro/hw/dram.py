"""DRAM device model: a bandwidth channel, a loaded-latency curve, a
capacity budget, and (optionally) real byte contents.

Performance experiments only need the channel and the curve; functional
tests (migration preserves data, erasure decoding reconstructs a crashed
server's bytes) also need contents, so the device carries a sparse
:class:`BackingStore` that materializes pages lazily.  Simulations of
multi-terabyte pools therefore cost memory and time proportional to the
bytes the test actually writes, not the configured capacity — a crash
included.
"""

from __future__ import annotations

import typing as _t

from repro.errors import AddressError, ConfigError
from repro.hw.specs import DeviceSpec
from repro.sim.fluid import Capacity, FluidModel

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_PAGE = 4096
#: shared source of zeros for reads of pages never written
_ZERO_PAGE = bytes(_PAGE)


class BackingStore:
    """Sparse byte store with zero-fill semantics.

    Pages (4 KiB) materialize on first write; reads of untouched ranges
    return zeros, matching freshly-mapped memory.  Every operation costs
    time proportional to the bytes it moves or the pages materialized in
    its range, never to the size of the range itself: discarding a
    terabyte that holds one written page visits one page.
    """

    __slots__ = ("_pages", "bytes_written")

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self.bytes_written = 0

    def _resident_between(self, first: int, last: int) -> list[int]:
        """Materialized page numbers in [first, last), ascending, as a
        snapshot the caller may mutate the store under.  Walks the range
        or the resident set, whichever is shorter."""
        pages = self._pages
        if last - first <= len(pages):
            return [page_no for page_no in range(first, last) if page_no in pages]
        return sorted(page_no for page_no in pages if first <= page_no < last)

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store *data* at byte offset *addr*.  Costs O(len(data)): whole
        aligned pages are stored as one copy each, partial pages are
        patched in place."""
        if addr < 0:
            raise AddressError(f"negative address {addr}")
        view = memoryview(data)
        size = len(view)
        self.bytes_written += size
        pages = self._pages
        pos = 0
        while pos < size:
            page_no, offset = divmod(addr + pos, _PAGE)
            take = min(_PAGE - offset, size - pos)
            if take == _PAGE:
                pages[page_no] = bytearray(view[pos : pos + _PAGE])
            else:
                page = pages.get(page_no)
                if page is None:
                    page = pages[page_no] = bytearray(_PAGE)
                page[offset : offset + take] = view[pos : pos + take]
            pos += take

    def read(self, addr: int, size: int) -> bytes:
        """Fetch *size* bytes at *addr* (zeros where never written) as
        immutable ``bytes`` that share no memory with the store.  Costs
        O(size): one copy of each page slice into the result."""
        if addr < 0 or size < 0:
            raise AddressError(f"invalid read range ({addr}, {size})")
        pages = self._pages
        chunks: list[bytes | bytearray] = []
        pos = 0
        while pos < size:
            page_no, offset = divmod(addr + pos, _PAGE)
            take = min(_PAGE - offset, size - pos)
            page = pages.get(page_no, _ZERO_PAGE)
            chunks.append(page if take == _PAGE else page[offset : offset + take])
            pos += take
        return b"".join(chunks)

    def discard(self, addr: int, size: int) -> None:
        """Drop whole pages in [addr, addr+size) — models losing the
        contents when a server crashes or a range is freed.  Partial
        pages at the edges are kept.  Costs O(min(range pages, resident
        pages)), so crashing a terabyte device is as cheap as the bytes
        it held."""
        first = (addr + _PAGE - 1) // _PAGE
        last = (addr + size) // _PAGE
        for page_no in self._resident_between(first, last):
            del self._pages[page_no]

    def zero_range(self, addr: int, size: int) -> None:
        """Make [addr, addr+size) read as zeros without materializing
        pages: whole pages are dropped, partial edges are overwritten.
        Costs O(min(range pages, resident pages)) plus the two edges."""
        if size <= 0:
            return
        self.discard(addr, size)
        end = addr + size
        first_full = -(-addr // _PAGE)
        last_full = end // _PAGE
        left_edge = min(first_full * _PAGE, end)
        if left_edge > addr and (addr // _PAGE) in self._pages:
            self.write(addr, bytes(left_edge - addr))
        right_edge = max(last_full * _PAGE, addr)
        if end > right_edge and (right_edge // _PAGE) in self._pages:
            self.write(right_edge, bytes(end - right_edge))

    def copy_to(self, dst: "BackingStore", src_addr: int, dst_addr: int, size: int) -> None:
        """Copy [src_addr, +size) into *dst* at *dst_addr*, touching only
        materialized source pages — a terabyte of untouched zeros is never
        visited.  Costs O(min(range pages, resident pages)) on each side
        plus the bytes of the materialized source pages.  *dst* may be
        this store when the two ranges do not overlap."""
        if size <= 0:
            return
        dst.zero_range(dst_addr, size)
        src_end = src_addr + size
        first = src_addr // _PAGE
        last = (src_end - 1) // _PAGE
        pages = self._pages
        for page_no in self._resident_between(first, last + 1):
            page = pages[page_no]
            page_start = page_no * _PAGE
            lo = max(page_start, src_addr)
            hi = min(page_start + _PAGE, src_end)
            chunk = memoryview(page)[lo - page_start : hi - page_start]
            dst.write(dst_addr + (lo - src_addr), chunk)

    @property
    def resident_bytes(self) -> int:
        """Physical bytes currently materialized."""
        return len(self._pages) * _PAGE


class MemoryDevice:
    """One DRAM device (a server's DIMMs, or the physical pool's DIMMs)."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        spec: DeviceSpec,
        capacity_bytes: int,
        name: str = "",
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"device capacity must be positive, got {capacity_bytes}")
        self.engine = engine
        self.fluid = fluid
        self.spec = spec
        self.name = name or spec.name
        self.capacity_bytes = int(capacity_bytes)
        #: the bandwidth constraint every access to this device crosses
        self.channel = Capacity(f"{self.name}.chan", spec.bandwidth)
        self.latency_model = spec.latency_model()
        self.store = BackingStore()

    # -- performance ------------------------------------------------------------

    def loaded_latency(self) -> float:
        """Current latency in ns given the channel's instantaneous load."""
        return self.latency_model(self.channel.utilization)

    def unloaded_latency(self) -> float:
        return self.latency_model.lat_min

    def transfer(self, size: float, rate_cap: float = float("inf"), tag: str = ""):
        """Move *size* bytes through this device alone (local access)."""
        return self.fluid.transfer([self.channel], size, rate_cap=rate_cap, tag=tag)

    # -- contents -------------------------------------------------------------

    def write_bytes(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store real contents (functional tests / small buffers)."""
        end = addr + len(data)
        if end > self.capacity_bytes:
            raise AddressError(
                f"write [{addr}, {end}) exceeds {self.name} capacity {self.capacity_bytes}"
            )
        self.store.write(addr, data)

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Fetch real contents."""
        if addr + size > self.capacity_bytes:
            raise AddressError(
                f"read [{addr}, {addr + size}) exceeds {self.name} capacity"
            )
        return self.store.read(addr, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryDevice {self.name} {self.capacity_bytes}B {self.spec.bandwidth}GB/s>"
