"""Tests for the DRAM device model and its sparse backing store."""

from __future__ import annotations

import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AddressError, ConfigError
from repro.hw.dram import BackingStore, MemoryDevice
from repro.hw.link import LINK_PRESETS
from repro.hw.pool_device import PoolDevice
from repro.hw.server import Server
from repro.hw.specs import LOCAL_DDR4
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel
from repro.units import TiB, gib, mib


def make_device(capacity=gib(1)) -> MemoryDevice:
    engine = Engine()
    return MemoryDevice(engine, FluidModel(engine), LOCAL_DDR4, capacity)


# --- backing store -------------------------------------------------------------


def test_unwritten_reads_as_zero():
    store = BackingStore()
    assert store.read(1000, 16) == bytes(16)
    assert store.resident_bytes == 0


def test_write_read_round_trip():
    store = BackingStore()
    store.write(5, b"hello world")
    assert store.read(5, 11) == b"hello world"
    assert store.read(0, 5) == bytes(5)


def test_write_spanning_pages():
    store = BackingStore()
    data = bytes(range(256)) * 40  # 10240 bytes: crosses 4 KiB pages
    store.write(4000, data)
    assert store.read(4000, len(data)) == data


def test_discard_drops_whole_pages():
    store = BackingStore()
    store.write(0, b"x" * 8192)
    store.discard(0, 8192)
    assert store.read(0, 8192) == bytes(8192)
    assert store.resident_bytes == 0


def test_discard_is_page_conservative():
    """Partial pages at the edges are not discarded."""
    store = BackingStore()
    store.write(0, b"A" * 12288)
    store.discard(100, 8000)  # only page 1 is fully inside
    assert store.read(0, 100) == b"A" * 100  # page 0 kept


def test_zero_range_handles_partial_edges():
    store = BackingStore()
    store.write(0, b"B" * 12288)
    store.zero_range(100, 8000)
    assert store.read(0, 100) == b"B" * 100
    assert store.read(100, 8000) == bytes(8000)
    assert store.read(8100, 12288 - 8100) == b"B" * (12288 - 8100)


def test_copy_to_moves_only_resident_pages():
    src = BackingStore()
    dst = BackingStore()
    src.write(0, b"data")
    src.copy_to(dst, 0, 1 << 20, 1 << 30)  # a 1 GiB "copy"
    assert dst.read(1 << 20, 4) == b"data"
    # the untouched tail never materialized
    assert dst.resident_bytes <= 8192


def test_copy_to_zeroes_stale_destination():
    src = BackingStore()
    dst = BackingStore()
    dst.write(500, b"stale-old-bytes")
    src.copy_to(dst, 0, 0, 4096)
    assert dst.read(500, 15) == bytes(15)


def test_negative_addresses_rejected():
    store = BackingStore()
    with pytest.raises(AddressError):
        store.write(-1, b"x")
    with pytest.raises(AddressError):
        store.read(-1, 4)


_PAGE = 4096
_MODEL = 160_000  # bytes the reference model tracks per store

# range sizes narrower than, comparable to, and far wider than
# the resident set, so both of the range operations' iteration branches run
_range_sizes = st.one_of(st.integers(0, 3 * _PAGE), st.integers(0, _MODEL), st.just(TiB))

_steps = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 1), st.integers(0, 100_000),
              st.binary(min_size=1, max_size=20_000)),
    st.tuples(st.just("discard"), st.integers(0, 1), st.integers(0, 110_000), _range_sizes),
    st.tuples(st.just("zero"), st.integers(0, 1), st.integers(0, 110_000), _range_sizes),
    # (src store, dst store, lower address, size, gap, copy downwards?):
    # the two ranges never overlap, even when both are the same store
    st.tuples(st.just("copy"), st.integers(0, 1), st.integers(0, 1), st.integers(0, 60_000),
              st.integers(1, 30_000), st.integers(0, 20_000), st.booleans()),
)


def _apply_to_model(model: bytearray, step) -> None:
    kind, _, addr, arg = step
    if kind == "write":
        model[addr : addr + len(arg)] = arg
        return
    lo, hi = addr, addr + arg
    if kind == "discard":  # only whole pages inside the range are dropped
        lo, hi = -(-lo // _PAGE) * _PAGE, hi // _PAGE * _PAGE
    hi = min(hi, _MODEL)
    if hi > lo:
        model[lo:hi] = bytes(hi - lo)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_steps, min_size=1, max_size=12))
@example(steps=[  # narrow ranges with partial edges inside a wide resident set
    ("write", 0, 0, bytes(range(256)) * 160),
    ("discard", 0, 100, 5000),
    ("zero", 0, 9000, 5000),
    ("copy", 0, 0, 20_000, 9000, 100, True),
])
def test_store_matches_reference_model(steps):
    """The sparse store behaves exactly like one big bytearray, under
    writes, page-conservative discards, zeroing and copies (including a
    store copying within itself)."""
    stores = [BackingStore(), BackingStore()]
    models = [bytearray(_MODEL), bytearray(_MODEL)]
    for step in steps:
        if step[0] == "copy":
            _, src, dst, lo, size, gap, downwards = step
            src_addr, dst_addr = lo, lo + size + gap
            if downwards:
                src_addr, dst_addr = dst_addr, src_addr
            stores[src].copy_to(stores[dst], src_addr, dst_addr, size)
            models[dst][dst_addr : dst_addr + size] = models[src][src_addr : src_addr + size]
            continue
        kind, which, addr, arg = step
        store = stores[which]
        if kind == "write":
            store.write(addr, arg)
        elif kind == "discard":
            store.discard(addr, arg)
        else:
            store.zero_range(addr, arg)
        _apply_to_model(models[which], step)
    for store, model in zip(stores, models):
        contents = store.read(0, _MODEL)
        assert type(contents) is bytes
        assert contents == bytes(model)
        # nothing was ever written past the modelled range
        assert store.read(_MODEL, 3 * _PAGE) == bytes(3 * _PAGE)


# --- device ------------------------------------------------------------------


def test_device_write_respects_capacity():
    device = make_device(capacity=mib(2))
    device.write_bytes(mib(2) - 4, b"abcd")
    with pytest.raises(AddressError):
        device.write_bytes(mib(2) - 3, b"abcd")
    with pytest.raises(AddressError):
        device.read_bytes(mib(2), 1)


def test_device_requires_positive_capacity():
    engine = Engine()
    with pytest.raises(ConfigError):
        MemoryDevice(engine, FluidModel(engine), LOCAL_DDR4, 0)


def test_device_loaded_latency_rises_with_traffic():
    engine = Engine()
    fluid = FluidModel(engine)
    device = MemoryDevice(engine, fluid, LOCAL_DDR4, gib(1))
    idle = device.loaded_latency()
    fluid.transfer([device.channel], gib(1))
    loaded = device.loaded_latency()
    assert idle == pytest.approx(82.0)
    assert loaded > idle


def test_device_transfer_times_match_bandwidth():
    engine = Engine()
    fluid = FluidModel(engine)
    device = MemoryDevice(engine, fluid, LOCAL_DDR4, gib(64))
    done = device.transfer(gib(1))
    engine.run(done)
    assert engine.now == pytest.approx(gib(1) / 97.0, rel=1e-6)


# --- crash at configured scale ------------------------------------------------


def test_crash_costs_what_the_device_held_not_its_capacity():
    """A 1 TiB server or pool device holding 1 MiB crashes in O(resident
    pages): fast, with a tracemalloc peak of a few MiB, and its contents
    read back as zeros afterwards."""
    engine = Engine()
    fluid = FluidModel(engine)
    link = LINK_PRESETS["link0"]
    for device in (Server(engine, fluid, 0, TiB, link), PoolDevice(engine, fluid, TiB, link)):
        # timed untraced first, so an O(capacity) crash fails in seconds
        # rather than crawling under tracemalloc; then traced
        for traced in (False, True):
            device.dram.write_bytes(gib(512) + 100, b"\xa5" * mib(1))
            assert device.dram.store.resident_bytes == mib(1) + 4096
            if traced:
                tracemalloc.start()
            try:
                started = time.perf_counter()
                device.crash()
                elapsed = time.perf_counter() - started
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert elapsed < 0.1
            assert peak < mib(2)
            assert not device.alive
            assert device.dram.store.resident_bytes == 0
            assert device.dram.read_bytes(gib(512), mib(1) + 200) == bytes(mib(1) + 200)
