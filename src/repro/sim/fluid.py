"""Max-min fair fluid bandwidth model.

Every data transfer in the reproduction (a core streaming a chunk from
DRAM, a page migration crossing the fabric, a cache fill from the
physical pool) is a *flow* over a *path* of :class:`Capacity` nodes
(memory channels, fabric ports, switch links).  At any instant each flow
has a rate; rates are the max-min fair allocation subject to

* every capacity node's aggregate rate limit, and
* each flow's own rate cap (e.g. a single core's streaming ceiling).

The allocation is recomputed with the Bertsekas–Gallager water-filling
algorithm whenever a flow starts or finishes.  Between recomputations
flow progress is linear, so the model is exact — not a discretized
approximation — while remaining event-driven and fast: the number of
events is O(#flows), independent of transfer sizes.

Max-min fairness cannot tell apart two flows with the same path and the
same rate cap, so the solver works on *groups* keyed by ``(path,
rate_cap)``: the water-filling runs over groups, and a group's members
advance together in virtual service (see :class:`_FlowGroup`).  Flow
progress is advanced only at rate transitions — a flow start, a
completion tick, or an explicit :meth:`FluidModel.settle` — so event
dispatch costs the model nothing between them.

Each model keeps at most one live completion tick on the engine heap.
A solve stores the absolute time it wants to be woken at and pushes a
tick only when that is earlier than the pending one; a tick that fires
before the stored time re-arms itself for it.  And because capacity
rates never change, a multi-group solve's rates depend only on which
groups are active and how many members each has: a model remembers
the solves whose inputs come back and replays them instead of
water-filling again.

This is the standard technique for simulating bandwidth-bound systems at
scale (flow-level network simulation), and it is the reason we can "run"
96 GB scans in milliseconds of wall-clock time.
"""

from __future__ import annotations

import math
import typing as _t
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event, lazy_event
from repro.sim.stats import StatSet

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Capacity:
    """A bandwidth-limited element: memory channel, fabric port, or link."""

    __slots__ = (
        "name",
        "rate",
        "stats",
        "_crossings",
        "_used_rate",
        "_util_gauge",
        "_bytes_counter",
    )

    def __init__(self, name: str, rate: float) -> None:
        if rate <= 0 or not math.isfinite(rate):
            raise SimulationError(f"capacity {name!r} needs a positive finite rate, got {rate}")
        self.name = name
        #: peak rate in bytes/ns (== GB/s)
        self.rate = rate
        self.stats = StatSet(name)
        #: active flows crossing this element (a path that visits it
        #: twice counts twice)
        self._crossings = 0
        self._used_rate = 0.0
        #: the "utilization" gauge and "bytes" counter, cached at first
        #: use (StatSet.gauge/counter always hand back the same object)
        self._util_gauge: _t.Any = None
        self._bytes_counter: _t.Any = None

    @property
    def used_rate(self) -> float:
        """Aggregate instantaneous rate of flows crossing this element."""
        return self._used_rate

    @property
    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return min(1.0, self._used_rate / self.rate)

    @property
    def active_flows(self) -> int:
        return self._crossings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Capacity {self.name} {self.rate:.1f}B/ns {self._crossings} flows>"


class Transfer:
    """One in-flight flow: *size* bytes, a member of one :class:`_FlowGroup`."""

    __slots__ = ("size", "done", "started_at", "seq", "group", "tag")

    def __init__(
        self,
        size: float,
        done: Event,
        started_at: float,
        seq: int,
        group: "_FlowGroup",
        tag: str = "",
    ) -> None:
        self.size = size
        self.done = done
        self.started_at = started_at
        #: model-wide start counter: completions at one instant retire in
        #: start order, and equal completion targets pop in start order
        self.seq = seq
        self.group = group
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "->".join(c.name for c in self.group.path)
        return f"<Transfer {self.tag or 'flow'} {self.size:.0f}B via {names}>"


def _start_order(flow: Transfer) -> int:
    return flow.seq


class _FlowGroup:
    """The flows sharing one ``(path, rate_cap)`` pair.

    Max-min fairness gives every member the same rate, so the group
    advances in *virtual service*: ``service`` is the cumulative bytes
    drained per member since the group formed.  A member joining at
    service S with ``size`` bytes completes when service reaches
    ``S + size`` — its *target* — so draining the whole group costs one
    multiply, and completions pop off a heap of targets instead of
    scanning every flow.  Every member sits in the heap exactly once, so
    its length is the member count.
    """

    __slots__ = ("key", "gid", "path", "cap", "simple", "rate", "service", "heap")

    def __init__(self, path: tuple[Capacity, ...], cap: float, gid: int) -> None:
        self.key = (path, cap)
        #: the model-wide serial of this group (its part of a solve key)
        self.gid = gid
        self.path = path
        self.cap = cap
        #: True when the path visits each capacity at most once (lets the
        #: solver take the single-group fast path; a duplicated node makes
        #: each member count against it twice, which needs the full pass)
        self.simple = len(set(path)) == len(path)
        #: current per-member max-min rate (set by the water-filling)
        self.rate = 0.0
        #: cumulative per-member service in bytes
        self.service = 0.0
        #: (target, seq, flow) min-heap of pending completions
        self.heap: list[tuple[float, int, Transfer]] = []


class FluidModel:
    """Shared fluid solver attached to one :class:`Engine`.

    Components create one model per simulation and call :meth:`transfer`
    to move bytes.  The returned event fires when the last byte arrives;
    its value is the transfer duration in nanoseconds.

    The model counts its own work in plain integers: ``recomputes``
    (water-filling passes that had flows to solve), how many of those
    took the single-group fast path, the group and flow counts summed
    over all passes (divide by ``recomputes`` for the means), how many
    multi-group passes replayed a remembered solve (``solves_reused``),
    and how many ticks fired early and re-armed (``ticks_rearmed``).
    """

    #: observability seam (see :mod:`repro.obs.tracing`): None unless an
    #: Observability is installed, which then registers every new model
    _obs: _t.ClassVar[_t.Any] = None

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: active groups keyed by (path, rate_cap), insertion-ordered so
        #: the water-filling's bottleneck tie-breaks are reproducible
        self._groups: dict[tuple[tuple[Capacity, ...], float], _FlowGroup] = {}
        #: every group formed so far, active or idle, by the same key
        self._known: dict[tuple[tuple[Capacity, ...], float], _FlowGroup] = {}
        #: groups formed so far (the next group's serial)
        self._groups_formed = 0
        #: capacities crossed by at least one active flow (dict-as-set)
        self._caps: dict[Capacity, None] = {}
        self._active = 0
        self._flow_seq = 0
        self._last_advance = engine.now
        #: the one live ``fluid.tick`` on the engine heap and its heap time
        self._tick: Event | None = None
        self._tick_at = math.inf
        #: absolute time the latest solve asked to be woken at
        self._wake = math.inf
        #: multi-group solves, keyed by each active group's serial and
        #: member count in group order (see _recompute)
        self._solved: dict[tuple[int, ...], tuple[_t.Any, ...]] = {}
        #: digests of the solve keys met once so far
        self._seen: set[int] = set()
        self.recomputes = 0
        self.single_group_recomputes = 0
        self.groups_solved = 0
        self.flows_solved = 0
        self.solves_reused = 0
        self.ticks_rearmed = 0
        obs = FluidModel._obs
        if obs is not None:
            obs.fluid_model(self)

    # -- public API ------------------------------------------------------------

    def transfer(
        self,
        path: _t.Sequence[Capacity],
        size: float,
        rate_cap: float = math.inf,
        tag: str = "",
        on_complete: _t.Callable[[Event], None] | None = None,
    ) -> Event:
        """Start moving *size* bytes along *path*; returns the completion event.

        *on_complete*, when given, is attached as the completion event's
        first callback — the callback-driven consumption style: the
        caller hands the wait over to the fluid model instead of
        suspending a process on the returned event.  ``repro check
        --flow`` (LMP014) recognizes this form as a consumed wait.
        """
        if size < 0:
            raise SimulationError(f"negative transfer size {size}")
        if rate_cap <= 0:
            raise SimulationError(f"transfer rate cap must be positive, got {rate_cap}")
        done = lazy_event(self.engine, "transfer", tag)
        if on_complete is not None:
            done.callbacks.append(on_complete)
        if size == 0 or not path:
            done.succeed(0.0)
            return done
        finished = self._advance()
        route = tuple(path)
        key = (route, rate_cap)
        group = self._groups.get(key)
        if group is None:
            group = self._join_group(key)
        self._flow_seq += 1
        flow = Transfer(size, done, self.engine.now, self._flow_seq, group, tag)
        heappush(group.heap, (group.service + size, flow.seq, flow))
        self._active += 1
        caps = self._caps
        for cap in route:
            cap._crossings += 1
            caps[cap] = None
        if finished is not None:
            # completions pop off the group heaps exactly once, so they
            # are retired here; _finish recomputes with the new flow in
            self._finish(finished)
        else:
            self._recompute()
        return done

    @property
    def active_transfers(self) -> int:
        return self._active

    def _join_group(self, key: tuple[tuple[Capacity, ...], float]) -> "_FlowGroup":
        """Activate the group for *key*: the one this model formed for it
        before, restarted from zero service like a fresh group, or a new
        one.  Keeping groups makes them the solve table's key parts."""
        known = self._known
        group = known.get(key)
        if group is None:
            if len(known) >= self.KNOWN_GROUPS_MAX:
                # forget the idle groups; solves that named them can
                # never match again, so the table goes with them
                known = self._known = dict(self._groups)
                self._solved.clear()
                self._seen.clear()
            group = known[key] = _FlowGroup(key[0], key[1], self._groups_formed)
            self._groups_formed += 1
        else:
            group.service = 0.0
            group.rate = 0.0
        self._groups[key] = group
        return group

    def settle(self) -> None:
        """Bring flow progress up to the current time and complete any
        drained flows.  Progress otherwise advances only at rate
        transitions, so call this before reading byte counters mid-flight."""
        finished = self._advance()
        if finished is not None:
            self._finish(finished)

    # -- internals ---------------------------------------------------------

    #: transfers with less than this many bytes left are complete; residues
    #: of this size are float error from rate*dt accumulation, and letting
    #: them linger deadlocks once dt underflows the clock's ulp
    COMPLETION_EPSILON = 1e-3

    #: most multi-group solves (and first-met solve keys) one model
    #: remembers; the oldest solve goes first when the table is full
    SOLVED_MAX = 4096
    #: most groups one model keeps; past it the idle ones are forgotten
    KNOWN_GROUPS_MAX = 4096

    def _advance(self) -> list[Transfer] | None:
        """Drain bytes according to current rates up to the current time.

        Returns the flows that reached completion during this drain (in
        transfer-start order), or None when none did.
        """
        now = self.engine.now
        dt = now - self._last_advance
        if dt <= 0:
            return None
        self._last_advance = now
        if not self._active:
            return None
        # Rates are constant over the whole interval, so each capacity's
        # byte total grows by exactly used_rate * dt.
        for cap in self._caps:
            used = cap._used_rate
            if used > 0.0:
                counter = cap._bytes_counter
                if counter is None:
                    counter = cap._bytes_counter = cap.stats.counter("bytes")
                counter.add(used * dt)
        epsilon = self.COMPLETION_EPSILON
        finished: list[Transfer] | None = None
        for group in self._groups.values():
            rate = group.rate
            if rate > 0.0:
                group.service = service = group.service + rate * dt
            else:
                service = group.service
            heap = group.heap
            limit = service + epsilon
            while heap and heap[0][0] <= limit:
                if finished is None:
                    finished = []
                finished.append(heappop(heap)[2])
        if finished is not None and len(finished) > 1:
            finished.sort(key=_start_order)
        return finished

    def _finish(self, finished: list[Transfer]) -> None:
        """Retire *finished* flows (already popped off their heaps)."""
        now = self.engine.now
        groups = self._groups
        caps = self._caps
        for flow in finished:
            group = flow.group
            if not group.heap and groups.get(group.key) is group:
                del groups[group.key]
            self._active -= 1
            for cap in group.path:
                cap._crossings -= 1
                if not cap._crossings:
                    # idle now and outside every remaining group's path
                    del caps[cap]
                    cap._used_rate = 0.0
                    gauge = cap._util_gauge
                    if gauge is None:
                        gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
                    gauge.update(0.0, now)
            if not flow.done.triggered:
                flow.done.succeed(now - flow.started_at)
        self._recompute()

    def _recompute(self) -> None:
        """Water-filling max-min allocation (Bertsekas–Gallager) over the
        ``(path, rate_cap)`` groups.

        Each round finds the bottleneck share — the smallest
        ``remaining rate / unfrozen flows`` over the capacities.  Capped
        groups whose cap is at or below that share freeze at their cap
        (the cap is a per-member pseudo-capacity); otherwise every group
        crossing the bottleneck freezes at the share.  This is the
        per-flow algorithm's rule in the per-flow algorithm's order; only
        ``n * rate`` replaces n repeated subtractions.  Each capacity's
        used rate is the water-filling residue, and the next completion
        horizon comes from the group heaps, so nothing here visits
        individual flows.

        Capacity rates never change, so the rates and used rates depend
        only on which groups are active, in order, and their member
        counts.  A multi-group solve is remembered under that key (see
        :data:`SOLVED_MAX`), and a repeat of it is replayed instead of
        water-filled again; the horizon is always computed afresh.
        """
        groups = self._groups
        if not groups:
            # nothing to solve; a pending tick finds nothing to wake for
            self._wake = math.inf
            return
        now = self.engine.now
        self.recomputes += 1
        self.groups_solved += len(groups)
        self.flows_solved += self._active
        if len(groups) == 1:
            (group,) = groups.values()
            if group.simple:
                # One round of water-filling: every capacity carries the
                # n members once, so the bottleneck share is the smallest
                # cap.rate / n, and the cap binds if it is no larger.
                self.single_group_recomputes += 1
                heap = group.heap
                n = len(heap)
                rate = group.cap
                for cap in group.path:
                    share = cap.rate / n
                    if share < rate:
                        rate = share
                group.rate = rate
                used = rate * n
                for cap in group.path:
                    cap._used_rate = used
                    gauge = cap._util_gauge
                    if gauge is None:
                        gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
                    gauge.update(used / cap.rate, now)
                self._schedule_next_tick((heap[0][0] - group.service) / rate)
                return

        parts: list[int] = []
        for group in groups.values():
            parts.append(group.gid)
            parts.append(len(group.heap))
        key = tuple(parts)
        solved = self._solved.get(key)
        if solved is None:
            solved = self._water_fill()
            # Keep a solve only when its key comes back: an open-loop mix
            # rarely repeats one, and the table would fill with the rest.
            # Two keys whose digests collide only get kept one solve early.
            digest = hash(key)
            seen = self._seen
            if digest in seen:
                memo = self._solved
                if len(memo) >= self.SOLVED_MAX:
                    del memo[next(iter(memo))]
                memo[key] = solved
            else:
                if len(seen) >= self.SOLVED_MAX:
                    seen.clear()
                seen.add(digest)
        else:
            self.solves_reused += 1
            self._replay(solved)
        self._schedule_next_tick(self._horizon())

    def _water_fill(self) -> tuple[_t.Any, ...]:
        """The water-filling rounds.  Sets every group's rate and every
        crossed capacity's used rate, and returns the solve as
        ``(index, rate, index, rate, ...)``: each group's index in group
        order and its per-member rate, in the order the groups froze."""
        groups = self._groups
        # capacity -> [remaining rate, unfrozen crossings]; insertion
        # order makes the bottleneck tie-breaks reproducible
        state: dict[Capacity, list[_t.Any]] = {}
        for group in groups.values():
            n = len(group.heap)
            for cap in group.path:  # a duplicated node counts once per crossing
                entry = state.get(cap)
                if entry is None:
                    state[cap] = [cap.rate, n]
                else:
                    entry[1] += n

        steps: list[_t.Any] = []
        #: unfrozen group -> its index in group order
        unfrozen = {group: i for i, group in enumerate(groups.values())}
        while unfrozen:
            best_share = math.inf
            best_cap: Capacity | None = None
            for cap, (rem, n) in state.items():  # noqa: LMP003 - insertion order is deterministic; Capacity is unsortable
                if n > 0:
                    share = rem / n
                    if share < best_share:
                        best_share = share
                        best_cap = cap
            if best_cap is None:
                raise SimulationError("water-filling found flows with no constraints")
            frozen = [g for g in unfrozen if g.cap <= best_share]
            if not frozen:
                frozen = [g for g in unfrozen if best_cap in g.path]
            for group in frozen:
                rate = group.rate = group.cap if group.cap <= best_share else best_share
                steps.append(unfrozen.pop(group))
                steps.append(rate)
                n = len(group.heap)
                for cap in group.path:
                    entry = state[cap]
                    entry[0] -= rate * n
                    entry[1] -= n
        # Every group froze, so cap.rate - remaining is the sum of the
        # member rates crossing each capacity.
        self._set_used_rates((cap, entry[0]) for cap, entry in state.items())
        return tuple(steps)

    def _replay(self, steps: tuple[_t.Any, ...]) -> None:
        """Apply a remembered solve: set each group's rate and take it off
        every capacity it crosses in the order the groups froze, so each
        used rate is the same float the water-filling left."""
        ordered = list(self._groups.values())
        remaining: dict[Capacity, float] = {}
        pairs = iter(steps)
        for i, rate in zip(pairs, pairs):
            group = ordered[i]
            group.rate = rate
            take = rate * len(group.heap)
            for cap in group.path:
                remaining[cap] = remaining.get(cap, cap.rate) - take
        self._set_used_rates(remaining.items())

    def _set_used_rates(self, residues: _t.Iterable[tuple[Capacity, float]]) -> None:
        """Set each capacity's used rate from its water-filling residue."""
        now = self.engine.now
        for cap, left in residues:
            used = cap.rate - left
            if used < 0.0:
                used = 0.0
            cap._used_rate = used
            gauge = cap._util_gauge
            if gauge is None:
                gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
            gauge.update(used / cap.rate, now)

    def _horizon(self) -> float:
        """Time until the earliest member of any group drains."""
        horizon = math.inf
        for group in self._groups.values():
            if group.rate > 0.0 and group.heap:
                h = (group.heap[0][0] - group.service) / group.rate
                if h < horizon:
                    horizon = h
        return horizon

    def _schedule_next_tick(self, horizon: float) -> None:
        """Ask to be woken when the earliest flow will drain.

        The wake time is stored; a new tick goes on the heap only when it
        is earlier than the pending one.  A pending tick that fires
        before the stored wake time re-arms itself for it (see _on_tick),
        so no tick is pushed just to be superseded.
        """
        if horizon == math.inf:
            self._wake = math.inf
            return
        # The clock's resolution shrinks as it grows; a horizon below one
        # ulp would fire "now", advance by dt == 0, and drain nothing.
        now = self.engine.now
        floor = 4.0 * math.ulp(now)
        wake = self._wake = now + (horizon if horizon > floor else floor)
        if wake < self._tick_at:
            # the pending tick, if any, is superseded and fires as a no-op
            tick = Event(self.engine, name="fluid.tick")
            tick._value = None
            tick.callbacks.append(self._on_tick)
            self._tick = tick
            self._tick_at = wake
            self.engine._schedule_at(tick, wake)

    def _on_tick(self, tick: Event) -> None:
        if tick is not self._tick:
            return  # an earlier tick superseded this one
        wake = self._wake
        if self.engine.now < wake:
            # A solve since this tick was pushed moved the wake later.
            # Re-arm at the exact stored float; advancing here would split
            # rate * dt in two and move the byte totals.
            if wake == math.inf:
                self._tick = None
                self._tick_at = math.inf
                return
            self.ticks_rearmed += 1
            self._tick_at = wake
            tick.callbacks = [self._on_tick]
            self.engine._schedule_at(tick, wake)
            return
        self._tick = None
        self._tick_at = math.inf
        finished = self._advance()
        if finished is not None:
            self._finish(finished)
        elif self._active:
            # float dust left the earliest target just out of reach
            self._schedule_next_tick(self._horizon())
