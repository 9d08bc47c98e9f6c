"""The benchmark's three workloads.

Each workload generates its inputs from the seed, builds everything it
needs in ``setup`` (the ``setup_s`` metric), runs a fixed amount of work
in ``run`` (the ``wall_s`` metric), and checks the outputs in ``check``.
Everything is driven through the simulator's public functions; the
tracing module patches some of them for the traced pass, so the calls
below always go through the module or class attribute.

At ``COMMITTED_SEED`` the rendered outputs must equal the committed
result files byte for byte; at any other seed the workload's invariants
must hold.  Each failed comparison counts as one failed operation.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import typing as _t

#: the seed the committed result files were rendered with
COMMITTED_SEED = 0

#: PAPER.md's fidelity targets: (figure, link, baseline, paper speedup)
PAPER_TARGETS = (
    ("figure2", "link1", "Physical no-cache", 4.7),
    ("figure3", "link1", "Physical cache", 3.4),
    ("figure4", "link1", "Physical cache", 1.42),
)

_GIB = 1 << 30
_MIB = 1 << 20


class Checks:
    """Output checks: every comparison is one attempted operation."""

    def __init__(self, goldens: pathlib.Path) -> None:
        self.goldens = goldens
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def golden(self, name: str, rendered: str) -> None:
        """The rendered output must equal ``<goldens>/<name>.txt``; a
        missing or unreadable file is a failure, never a skip."""
        path = self.goldens / f"{name}.txt"
        try:
            expected = path.read_text()
        except OSError as exc:
            self.expect(False, f"golden {path} unreadable: {exc}")
            return
        actual = rendered + "\n"
        if actual == expected:
            self.expect(True, "")
            return
        got, want = actual.splitlines(), expected.splitlines()
        line = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        self.expect(False, f"{name} differs from {path} at line {line + 1}")


@dataclasses.dataclass
class Outcome:
    """What one pass produced."""

    work: float
    counters: dict[str, float]
    result: _t.Any


def deployment_counters(deployments: _t.Iterable[_t.Any]) -> dict[str, float]:
    """Engine and transport counters summed over *deployments*."""
    out = {
        "sim.engine.events": 0.0,
        "fabric.transport.reads": 0.0,
        "fabric.transport.writes": 0.0,
        "fabric.transport.copies": 0.0,
        "fabric.transport.bytes_copied": 0.0,
    }
    for deployment in deployments:
        transport = deployment.transport
        out["sim.engine.events"] += deployment.engine.events_processed
        out["fabric.transport.reads"] += transport.reads_issued
        out["fabric.transport.writes"] += transport.writes_issued
        out["fabric.transport.copies"] += transport.copies_issued
        out["fabric.transport.bytes_copied"] += transport.bytes_copied
    return out


def resident_mib(deployment: _t.Any) -> float:
    """Materialized DRAM contents across the deployment's servers."""
    return sum(s.dram.store.resident_bytes for s in deployment.servers) / _MIB


# -- paper_vectorsum ------------------------------------------------------------


class PaperVectorSum:
    """The paper's §4.1 microbenchmark at 8, 24 and 64 GB (figures 2–4),
    over both links and all three pool configurations.

    The seed picks the engine seed and the server that runs the sum; the
    simulated bandwidths do not depend on either."""

    name = "paper_vectorsum"
    work_unit = "simulated GiB streamed"

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.experiments import figures

        self.seed = seed
        self.requester = seed % 4
        sizes = figures.FIGURE_SIZES
        names = ("figure2",) if smoke else ("figure2", "figure3", "figure4")
        self.figures = {name: sizes[name] for name in names}

    def setup(self) -> list[tuple[str, str, str, _t.Any]]:
        from repro.core import pool
        from repro.topology import builder

        pools = []
        for figure in self.figures:
            for link in ("link0", "link1"):
                logical = builder.build_logical(link, seed=self.seed)
                cached = builder.build_physical(link, cache=True, seed=self.seed)
                uncached = builder.build_physical(link, cache=False, seed=self.seed)
                pools += [
                    (figure, link, "Logical", pool.LogicalMemoryPool(logical)),
                    (figure, link, "Physical cache", pool.PhysicalMemoryPool(cached)),
                    (figure, link, "Physical no-cache", pool.PhysicalMemoryPool(uncached)),
                ]
        return pools

    def run(self, pools: list[tuple[str, str, str, _t.Any]]) -> Outcome:
        from repro.experiments.figures import FigureResult
        from repro.workloads.vector_sum import run_vector_sum

        results: dict[str, dict[tuple[str, str], _t.Any]] = {f: {} for f in self.figures}
        streamed = 0
        for figure, link, config, pool in pools:
            result = run_vector_sum(
                pool, self.figures[figure] * _GIB, requester_id=self.requester, label=config
            )
            results[figure][(config, link)] = result
            if result.feasible:
                streamed += result.vector_bytes * result.repetitions
        rendered = {
            figure: FigureResult(figure=figure, vector_gib=self.figures[figure], results=res)
            for figure, res in results.items()
        }
        counters = deployment_counters(p.deployment for *_, p in pools)
        return Outcome(work=streamed / _GIB, counters=counters, result=rendered)

    def check(self, outcome: Outcome, checks: Checks) -> None:
        figures = outcome.result
        for name, figure in figures.items():
            for key, result in figure.results.items():
                checks.expect(result.feasible, f"{name} {key} infeasible")
            if self.seed == COMMITTED_SEED:
                checks.golden(name, figure.render())
        if "figure4" in figures:
            speedup = figures["figure4"].speedup("link1", "Physical cache")
            checks.expect(
                speedup > 1.0,
                f"Logical does not beat Physical cache on link1 at 64 GB ({speedup:.3f}x)",
            )
        else:
            speedup = figures["figure2"].speedup("link1", "Physical no-cache")
            checks.expect(
                speedup > 1.0,
                f"Logical does not beat Physical no-cache on link1 at 8 GB ({speedup:.3f}x)",
            )

    def fidelity(self, outcome: Outcome) -> float:
        return ratio_error(outcome.result)


def ratio_error(figures: dict[str, _t.Any]) -> float:
    """Mean relative error of the simulated speedups against the paper's
    targets, over the targets whose figure ran."""
    errors = [
        abs(figures[f].speedup(link, over) - paper) / paper
        for f, link, over, paper in PAPER_TARGETS
        if f in figures
    ]
    return sum(errors) / len(errors)


def paper_fidelity_probe(seed: int, smoke: bool) -> float:
    """``paper_ratio_err`` for workloads that do not run the figures:
    only the link1 configurations the targets compare."""
    from repro.core import pool
    from repro.experiments.figures import FIGURE_SIZES, FigureResult
    from repro.topology import builder
    from repro.workloads.vector_sum import run_vector_sum

    targets = PAPER_TARGETS[:1] if smoke else PAPER_TARGETS
    figures = {}
    for figure, link, over, _paper in targets:
        size = FIGURE_SIZES[figure] * _GIB
        logical = pool.LogicalMemoryPool(builder.build_logical(link, seed=seed))
        other = pool.PhysicalMemoryPool(
            builder.build_physical(link, cache=over == "Physical cache", seed=seed)
        )
        results = {
            ("Logical", link): run_vector_sum(logical, size, label="Logical"),
            (over, link): run_vector_sum(other, size, label=over),
        }
        figures[figure] = FigureResult(figure=figure, vector_gib=size // _GIB, results=results)
    return ratio_error(figures)


# -- scale_openloop -------------------------------------------------------------


class ScaleOpenLoop:
    """S1 of ``experiments/scale.py``: 10k Zipf tenants on 16 servers in
    four racks, hybrid fluid mode, run once static and once elastic over
    the same open-loop trace.

    Every run replays S1's own trace (experiment seed ``COMMITTED_SEED``):
    across experiment seeds its arrival count swings by about 10%, which
    alone spread ``wall_s`` past its bound.  The seed moves the flash
    crowd instead, onto another tenth of the Zipf tail; the committed
    seed keeps S1's slice at ranks 60-70%."""

    name = "scale_openloop"
    work_unit = "open-loop arrivals"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.crowd_start = (
            0.6 if seed == COMMITTED_SEED
            else random.Random(f"scale_openloop:{seed}").uniform(0.3, 0.9)
        )
        # S1's configuration; the smoke size is the reduced run the
        # scale tests use
        self.tenants = 2_000 if smoke else 10_000
        self.duration_us = 1_500.0 if smoke else 4_000.0
        self.base_rate_ops_us = 1.0 if smoke else 1.25
        self.racks = 4
        self.servers_per_rack = 4
        self.server_dram = 8 * _MIB
        self.shared_fraction = 0.35
        self.quota_bytes = 4 * _MIB

    def _traffic_spec(self) -> _t.Any:
        from repro.scale.traffic import BurstModel, DiurnalCycle, FlashCrowd, TrafficSpec
        from repro.units import kib, us

        duration_ns = us(self.duration_us)
        tenants = self.tenants
        return TrafficSpec(
            tenants=tenants,
            base_rate_ops_s=self.base_rate_ops_us * 1e6,
            duration_ns=duration_ns,
            zipf_theta=0.99,
            diurnal=DiurnalCycle(period_ns=duration_ns / 2.0, amplitude=0.4),
            bursts=BurstModel(multiplier=3.0, mean_on_ns=us(40), mean_off_ns=us(160)),
            flash_crowds=(
                FlashCrowd(
                    start_ns=0.4 * duration_ns,
                    duration_ns=0.2 * duration_ns,
                    multiplier=8.0,
                    first_slot=int(self.crowd_start * tenants),
                    last_slot=max(
                        int(self.crowd_start * tenants) + 1,
                        int((self.crowd_start + 0.1) * tenants),
                    ),
                    focus=0.8,
                ),
            ),
            alloc_bytes=kib(64),
            hold_mean_ns=us(80.0),
            access_fraction=0.25,
            access_bytes=kib(4),
            write_fraction=0.3,
        )

    def _manager(self) -> _t.Any:
        from repro.cluster.manager import PoolManager
        from repro.core.runtime import LmpRuntime
        from repro.mem.layout import PageGeometry
        from repro.topology import multirack
        from repro.units import kib

        pod = multirack.MultiRackSpec(
            racks=self.racks,
            servers_per_rack=self.servers_per_rack,
            server_dram_bytes=self.server_dram,
            link="link0",
            trunk_width=4.0,
        )
        deployment = multirack.build_multirack_deployment(
            pod, seed=COMMITTED_SEED, hybrid_fluid=True
        )
        runtime = LmpRuntime(
            deployment,
            geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
            shared_fraction=self.shared_fraction,
            coherent_bytes=kib(64),
            snoop_filter_lines=256,
        )
        manager = PoolManager(runtime, policy="capacity-balanced")
        for region in manager.pool.regions.values():
            region.flex_on_demand = False
        return manager

    def setup(self) -> dict[str, _t.Any]:
        from repro.obs.metrics import MetricsRegistry
        from repro.scale.autoscaler import AutoscalerConfig, ReflexAutoscaler
        from repro.scale.driver import ScaleDriver
        from repro.scale.traffic import OpenLoopTraffic
        from repro.units import us

        spec = self._traffic_spec()
        state: dict[str, _t.Any] = {"spec": spec}
        for label in ("static", "elastic"):
            manager = self._manager()
            traffic = OpenLoopTraffic(spec, manager.engine.rng)
            state[label] = (manager, ScaleDriver(manager, traffic, quota_bytes=self.quota_bytes))
        elastic = state["elastic"][0]
        registry = MetricsRegistry()
        registry.add_transport(elastic.runtime.deployment.transport)
        state["registry"] = registry
        state["autoscaler"] = ReflexAutoscaler(
            elastic,
            AutoscalerConfig(
                period_ns=us(50),
                high_watermark=0.80,
                low_watermark=0.40,
                grow_step=0.5,
                max_shared_fraction=0.90,
                min_shared_bytes=int(self.server_dram * self.shared_fraction),
                shrink_headroom=0.25,
            ),
            registry=registry,
        )
        return state

    def run(self, state: dict[str, _t.Any]) -> Outcome:
        from repro.experiments.scale import ScaleResult
        from repro.scale.report import build_report

        reports = {}
        for label in ("static", "elastic"):
            manager, driver = state[label]
            autoscaler = state["autoscaler"] if label == "elastic" else None
            procs = driver.processes()
            if autoscaler is not None:
                procs.append(autoscaler.run(state["spec"].duration_ns + driver.drain_grace_ns))
            manager.engine.run(manager.engine.all_of(procs))
            reports[label] = build_report(label, driver, autoscaler)
        result = ScaleResult(
            tenants=self.tenants,
            racks=self.racks,
            servers_per_rack=self.servers_per_rack,
            static=reports["static"],
            elastic=reports["elastic"],
            registry=state["registry"],
        )
        managers = [state[label][0] for label in ("static", "elastic")]
        counters = deployment_counters(m.runtime.deployment for m in managers)
        elastic = managers[1]
        counters.update(
            {
                "hw.dram.resident_mib": sum(resident_mib(m.runtime.deployment) for m in managers),
                "core.migration.bytes_evacuated": elastic.stats.counter(
                    "reflex.bytes_evacuated"
                ).value,
                "cluster.admission.grants": sum(
                    m.stats.counter("granted").value for m in managers
                ),
                "scale.autoscaler.reflexes": len(state["autoscaler"].actions),
            }
        )
        moved = elastic.stats.counter("reflex.bytes_evacuated").value + elastic.stats.counter(
            "reflex.bytes_relocated"
        ).value
        work = result.static.arrivals + result.elastic.arrivals
        return Outcome(work=work, counters=counters, result=(result, moved))

    def check(self, outcome: Outcome, checks: Checks) -> None:
        result, moved = outcome.result
        if self.seed == COMMITTED_SEED and not self.smoke:
            checks.golden("scale", result.render())
        checks.expect(
            result.static.arrivals == result.elastic.arrivals,
            f"static and elastic saw different traces "
            f"({result.static.arrivals} vs {result.elastic.arrivals} arrivals)",
        )
        checks.expect(
            result.elastic.flash_reject_rate < result.static.flash_reject_rate,
            f"elastic flash-window rejects {result.elastic.flash_reject_rate:.4f} "
            f"not below static {result.static.flash_reject_rate:.4f}",
        )
        checks.expect(
            moved == result.elastic.bytes_migrated,
            f"reflex reports moved {moved} bytes, autoscaler billed "
            f"{result.elastic.bytes_migrated}",
        )
        copied = result.elastic.transport_bytes_copied
        checks.expect(
            0 < moved <= copied,
            f"migrated {moved} bytes but the transport copied {copied}",
        )
        checks.expect(
            result.static.transport_bytes_copied == 0,
            f"static run copied {result.static.transport_bytes_copied} bytes",
        )

    def fidelity(self, outcome: Outcome) -> float:
        return paper_fidelity_probe(self.seed, self.smoke)


# -- crash_recovery -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Object:
    kind: str  # "plain", "replicated" or "coded"
    size: int
    source: int  # offset of the payload in the workload's random bytes
    read_offset: int
    read_size: int


@dataclasses.dataclass(frozen=True)
class _Round:
    seed: int
    victim: int
    writer: int
    reader: int
    objects: tuple[_Object, ...]


class CrashRecovery:
    """Writes beside reads on the byte-level data plane, then a crash.

    Each round builds a fresh ``build_logical("link0")`` deployment and
    writes seeded payloads of 1–16 MiB as plain, 2-way replicated and
    RS(2,1) erasure-coded objects homed on a victim server.  It reads
    back partial ranges, crashes the victim, runs
    ``RecoveryManager.handle_crash`` and verifies every byte: replicated
    and coded objects read back whole, plain objects on the victim are
    reported lost."""

    name = "crash_recovery"
    work_unit = "payload MiB written, repaired and verified"

    #: MiB per object of each kind in every round (the seed trims each
    #: by up to 64 KiB, so sizes are not page multiples)
    SIZES_MIB = {"plain": (16, 2), "replicated": (12, 1), "coded": (8, 4)}

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        rng = random.Random(f"crash_recovery:{seed}")
        rounds = 1 if smoke else 4
        shrink = 8 if smoke else 1
        self.data = rng.randbytes(24 * _MIB)
        self.rounds = []
        for r in range(rounds):
            victim = rng.randrange(3)  # coded shards live on servers 0..2
            survivors = [s for s in range(4) if s != victim]
            objects = []
            for kind, sizes in self.SIZES_MIB.items():
                for mib in sizes:
                    size = mib * _MIB // shrink - rng.randrange(64 * 1024 // shrink)
                    read_size = rng.randrange(1, size + 1)
                    objects.append(
                        _Object(
                            kind=kind,
                            size=size,
                            source=rng.randrange(len(self.data) - size),
                            read_offset=rng.randrange(size - read_size + 1),
                            read_size=read_size,
                        )
                    )
            rng.shuffle(objects)
            self.rounds.append(
                _Round(
                    seed=seed * 1000 + r,
                    victim=victim,
                    writer=rng.randrange(4),
                    reader=rng.choice(survivors),
                    objects=tuple(objects),
                )
            )

    def setup(self) -> list[tuple[_t.Any, _t.Any]]:
        from repro.core import pool
        from repro.core.failures import RecoveryManager
        from repro.topology import builder

        built = []
        for rnd in self.rounds:
            deployment = builder.build_logical("link0", seed=rnd.seed)
            lmp = pool.LogicalMemoryPool(deployment)
            built.append((lmp, RecoveryManager(lmp, coordinator_id=rnd.reader)))
        return built

    def run(self, built: list[tuple[_t.Any, _t.Any]]) -> Outcome:
        verdicts: list[str] = []
        counters = {"hw.dram.resident_mib": 0.0, "core.failures.repair_bytes": 0.0}
        work_bytes = 0
        for rnd in self.rounds:
            # drop each round's deployment once done: its contents are the
            # bulk of the workload's memory
            lmp, recovery = built.pop(0)
            written, repaired, verified, resident = self._round(rnd, lmp, recovery, verdicts)
            work_bytes += written + repaired + verified
            counters["core.failures.repair_bytes"] += repaired
            counters["hw.dram.resident_mib"] = max(counters["hw.dram.resident_mib"], resident)
            for key, value in deployment_counters([lmp.deployment]).items():
                counters[key] = counters.get(key, 0.0) + value
        return Outcome(work=work_bytes / _MIB, counters=counters, result=verdicts)

    def _round(
        self, rnd: _Round, lmp: _t.Any, recovery: _t.Any, verdicts: list[str]
    ) -> tuple[int, int, int, float]:
        """One round; appends one verdict per check ("" when it passed)."""
        from repro.core.failures import ErasureCodedBuffer, ReplicatedBuffer
        from repro.mem.interleave import PinnedPlacement

        engine = lmp.engine
        data = memoryview(self.data)
        live = []
        written = 0
        for index, obj in enumerate(rnd.objects):
            payload = data[obj.source : obj.source + obj.size]
            name = f"r{rnd.seed}.{obj.kind}{index}"
            if obj.kind == "plain":
                handle = lmp.allocate(
                    obj.size, requester_id=rnd.victim, name=name,
                    placement=PinnedPlacement(rnd.victim),
                )
                engine.run(lmp.write(rnd.writer, handle, 0, payload))
                recovery.register_unprotected(handle)
            elif obj.kind == "replicated":
                handle = ReplicatedBuffer(lmp, obj.size, copies=2, home_server=rnd.victim, name=name)
                engine.run(handle.write(rnd.writer, 0, payload))
                recovery.register(handle)
            else:
                handle = ErasureCodedBuffer(lmp, obj.size, data_shards=2, parity_shards=1, name=name)
                engine.run(handle.put(rnd.writer, payload))
                recovery.register(handle)
            written += obj.size
            live.append((obj, name, handle, payload))
        resident = resident_mib(lmp.deployment)

        verified = 0
        for obj, name, handle, payload in live:
            lo, hi = obj.read_offset, obj.read_offset + obj.read_size
            if obj.kind == "plain":
                got = engine.run(lmp.read(rnd.reader, handle, lo, obj.read_size))
            elif obj.kind == "replicated":
                got = engine.run(handle.read(rnd.reader, lo, obj.read_size))
            else:
                got = engine.run(handle.get(rnd.reader))[lo:hi]
            verified += obj.read_size
            ok = got == payload[lo:hi]
            verdicts.append("" if ok else f"{name}: read-back of [{lo}, {hi}) differs before the crash")

        lmp.deployment.server(rnd.victim).crash()
        report = engine.run(recovery.handle_crash(rnd.victim))
        expected_repair = 0
        for obj, name, handle, payload in live:
            if obj.kind == "plain":
                lost = name in report.lost_buffers
                verdicts.append("" if lost else f"{name}: not reported lost after its server crashed")
                continue
            if obj.kind == "replicated":
                expected_repair += obj.size
                got = engine.run(handle.read(rnd.reader, 0, obj.size))
            else:
                expected_repair += handle.shard_len
                got = engine.run(handle.get(rnd.reader))
            verified += obj.size
            ok = got == payload and not handle.degraded()
            verdicts.append("" if ok else f"{name}: bytes differ or redundancy lost after recovery")
        repaired = report.bytes_reconstructed
        verdicts.append(
            "" if repaired == expected_repair
            else f"round {rnd.seed}: repaired {repaired} bytes, expected {expected_repair}"
        )
        return written, repaired, verified, resident

    def check(self, outcome: Outcome, checks: Checks) -> None:
        for verdict in outcome.result:
            checks.expect(not verdict, verdict)

    def fidelity(self, outcome: Outcome) -> float:
        return paper_fidelity_probe(self.seed, self.smoke)


WORKLOADS: dict[str, type] = {
    w.name: w for w in (PaperVectorSum, ScaleOpenLoop, CrashRecovery)
}
