"""Tests for the max-min fair fluid bandwidth model.

The fluid solver is the reproduction's measurement substrate, so these
tests pin its arithmetic exactly: completion times of known scenarios,
max-min fairness across bottlenecks, rate caps, and agreement with
closed-form math and with a per-flow reference solver on randomized
cases (hypothesis).
"""

from __future__ import annotations

import math
import typing as _t

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.fluid import Capacity, FluidModel


def make() -> tuple[Engine, FluidModel]:
    engine = Engine()
    return engine, FluidModel(engine)


def test_single_flow_runs_at_capacity():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1000.0)
    engine.run(done)
    assert engine.now == pytest.approx(100.0)


def test_flow_rate_cap_binds_below_capacity():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1000.0, rate_cap=2.0)
    engine.run(done)
    assert engine.now == pytest.approx(500.0)


def test_two_equal_flows_share_fairly():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    a = fluid.transfer([link], 500.0)
    b = fluid.transfer([link], 500.0)
    engine.run(engine.all_of([a, b]))
    # each gets 5.0 -> both finish at t=100
    assert engine.now == pytest.approx(100.0)


def test_short_flow_finishing_frees_bandwidth():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    short = fluid.transfer([link], 100.0)  # finishes at t=20 at rate 5
    long = fluid.transfer([link], 1000.0)
    engine.run(short)
    assert engine.now == pytest.approx(20.0)
    engine.run(long)
    # long moved 100 bytes by t=20, then 900 more at rate 10
    assert engine.now == pytest.approx(20.0 + 90.0)


def test_capped_flow_leaves_residual_to_others():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    capped = fluid.transfer([link], 300.0, rate_cap=3.0)
    greedy = fluid.transfer([link], 700.0)
    engine.run(engine.all_of([capped, greedy]))
    # capped runs at 3, greedy at 7 -> both finish at t=100
    assert engine.now == pytest.approx(100.0)


def test_multi_bottleneck_max_min_allocation():
    engine, fluid = make()
    # classic: flow A crosses both links, B only link1, C only link2
    link1 = Capacity("l1", 10.0)
    link2 = Capacity("l2", 10.0)
    a = fluid.transfer([link1, link2], 5000.0)
    b = fluid.transfer([link1], 5000.0)
    c = fluid.transfer([link2], 5000.0)
    # max-min: a=5, b=5, c=5 -> all finish at t=1000
    engine.run(engine.all_of([a, b, c]))
    assert engine.now == pytest.approx(1000.0)


def test_asymmetric_bottlenecks():
    engine, fluid = make()
    narrow = Capacity("narrow", 2.0)
    wide = Capacity("wide", 100.0)
    through = fluid.transfer([narrow, wide], 200.0)  # rate 2
    local = fluid.transfer([wide], 9800.0)  # rate 98
    engine.run(engine.all_of([through, local]))
    assert engine.now == pytest.approx(100.0)


def test_zero_byte_transfer_completes_instantly():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 0.0)
    assert done.triggered
    assert engine.run(done) == 0.0


def test_empty_path_completes_instantly():
    engine, fluid = make()
    done = fluid.transfer([], 1000.0)
    assert done.triggered


def test_negative_size_rejected():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    with pytest.raises(SimulationError):
        fluid.transfer([link], -1.0)


def test_nonpositive_rate_cap_rejected():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    with pytest.raises(SimulationError):
        fluid.transfer([link], 10.0, rate_cap=0.0)


def test_capacity_requires_positive_rate():
    with pytest.raises(SimulationError):
        Capacity("bad", 0.0)
    with pytest.raises(SimulationError):
        Capacity("bad", math.inf)


def test_transfer_event_value_is_duration():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 500.0)
    assert engine.run(done) == pytest.approx(50.0)


def test_utilization_tracks_active_flows():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    fluid.transfer([link], 1000.0, rate_cap=4.0)
    assert link.utilization == pytest.approx(0.4)
    fluid.transfer([link], 1000.0, rate_cap=4.0)
    assert link.utilization == pytest.approx(0.8)
    engine.run()
    assert link.utilization == 0.0  # idle again after completion


def test_bytes_counter_accumulates():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    engine.run(fluid.transfer([link], 123.0))
    engine.run(fluid.transfer([link], 877.0))
    assert link.stats.counter("bytes").value == pytest.approx(1000.0)


def test_mid_transfer_join_is_exact():
    """A flow joining halfway perturbs the first flow's finish time in
    the exact fluid way."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    first = fluid.transfer([link], 1000.0)

    def joiner():
        yield engine.timeout(50.0)  # first has 500 left
        second = fluid.transfer([link], 500.0)
        yield second

    join_proc = engine.process(joiner())
    engine.run(first)
    # after t=50 both run at 5: each has 500 left -> both end at t=150
    assert engine.now == pytest.approx(150.0)
    engine.run(join_proc)
    assert engine.now == pytest.approx(150.0)


def test_many_flows_conserve_capacity():
    engine, fluid = make()
    link = Capacity("link", 34.5)
    flows = [fluid.transfer([link], 34.5e6) for _ in range(14)]
    engine.run(engine.all_of(flows))
    # 14 x 34.5e6 bytes through 34.5 B/ns = 14e6 ns
    assert engine.now == pytest.approx(14e6, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=6),
    rate=st.floats(0.5, 100.0),
)
def test_aggregate_throughput_equals_capacity(sizes, rate):
    """However flows share one link, total bytes / makespan == capacity
    while the link is saturated; the makespan is bounded by the fluid
    optimum and by serial execution."""
    engine = Engine()
    fluid = FluidModel(engine)
    link = Capacity("link", rate)
    flows = [fluid.transfer([link], size) for size in sizes]
    engine.run(engine.all_of(flows))
    optimum = sum(sizes) / rate
    assert engine.now == pytest.approx(optimum, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    size=st.floats(64.0, 1e7),
    cap=st.floats(0.1, 5.0),
    rate=st.floats(5.0, 200.0),
)
def test_single_capped_flow_matches_closed_form(size, cap, rate):
    engine = Engine()
    fluid = FluidModel(engine)
    link = Capacity("link", rate)
    engine.run(fluid.transfer([link], size, rate_cap=cap))
    assert engine.now == pytest.approx(size / min(cap, rate), rel=1e-6)


# -- reference oracle ------------------------------------------------------
#
# A plain per-flow Bertsekas–Gallager simulation: water-fill every active
# flow, advance to the next arrival or completion, repeat.  It shares no
# code with FluidModel (no groups, no virtual service, no engine), so
# agreement with it checks the grouped solver's arithmetic end to end.


def reference_waterfill(
    rates: dict[str, float], flows: list[tuple[tuple[str, ...], float]]
) -> list[float]:
    """Max-min fair rates for *flows* given as (path, rate_cap) pairs."""
    remaining = {}
    unfrozen_at: dict[str, int] = {}
    for path, _cap in flows:
        for name in path:
            remaining[name] = rates[name]
            unfrozen_at[name] = unfrozen_at.get(name, 0) + 1
    alloc = [0.0] * len(flows)
    unfrozen = list(range(len(flows)))
    while unfrozen:
        best_share, best = math.inf, None
        for name, rem in remaining.items():
            if unfrozen_at[name] > 0 and rem / unfrozen_at[name] < best_share:
                best_share, best = rem / unfrozen_at[name], name
        frozen = [i for i in unfrozen if flows[i][1] <= best_share]
        if frozen:
            for i in frozen:
                alloc[i] = flows[i][1]
        else:
            frozen = [i for i in unfrozen if best in flows[i][0]]
            for i in frozen:
                alloc[i] = best_share
        for i in frozen:
            unfrozen.remove(i)
            for name in flows[i][0]:
                remaining[name] -= alloc[i]
                unfrozen_at[name] -= 1
    return alloc


def reference_completions(
    rates: dict[str, float],
    flows: list[tuple[float, tuple[str, ...], float, float]],
) -> list[float]:
    """Completion time of each (start, path, size, rate_cap) flow."""
    epsilon = FluidModel.COMPLETION_EPSILON
    done = [math.nan] * len(flows)
    pending = sorted(range(len(flows)), key=lambda i: flows[i][0])
    left = {}
    now = 0.0
    while pending or left:
        active = list(left)
        alloc = reference_waterfill(rates, [(flows[i][1], flows[i][3]) for i in active])
        horizon = min((left[i] / r for i, r in zip(active, alloc)), default=math.inf)
        step_to = now + horizon
        if pending and flows[pending[0]][0] <= step_to:
            step_to = flows[pending[0]][0]
        dt = step_to - now
        for i, r in zip(active, alloc):
            left[i] -= r * dt
        now = step_to
        for i in active:
            if left[i] <= epsilon:
                del left[i]
                done[i] = now
        while pending and flows[pending[0]][0] <= now:
            i = pending.pop(0)
            left[i] = flows[i][2]
    return done


def model_completions(
    rates: dict[str, float],
    flows: list[tuple[float, tuple[str, ...], float, float]],
    watch: _t.Callable[[Engine, FluidModel], None] | None = None,
) -> list[float]:
    """The same scenario through FluidModel on an engine; *watch*, when
    given, instruments the engine and model before any flow starts."""
    engine, fluid = make()
    if watch is not None:
        watch(engine, fluid)
    caps = {name: Capacity(name, rate) for name, rate in rates.items()}
    done = [math.nan] * len(flows)

    def start(i: int) -> None:
        _start, path, size, rate_cap = flows[i]

        def finish(_ev, i=i) -> None:
            done[i] = engine.now

        fluid.transfer([caps[n] for n in path], size, rate_cap, on_complete=finish)

    for i, (at, *_rest) in enumerate(flows):
        engine.timeout(at).callbacks.append(lambda _ev, i=i: start(i))
    engine.run()
    return done


# -- the grouped solver against the oracle ----------------------------------


def test_hybrid_single_flow_matches_default():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1000.0)
    engine.run(done)
    assert engine.now == pytest.approx(100.0)


def test_hybrid_staggered_flows_match_default_mode():
    """Joins, drains, and a rate-capped flow: completion times equal the
    per-flow reference's."""
    rates = {"link": 10.0, "wide": 40.0}
    flows = [
        (0.0, ("link", "wide"), 400.0, math.inf),
        (0.0, ("link",), 900.0, 3.0),
        (25.0, ("wide",), 2000.0, math.inf),
    ]
    assert model_completions(rates, flows) == pytest.approx(
        reference_completions(rates, flows), rel=1e-9
    )


def test_capped_group_freezes_before_the_bottleneck():
    """Four flows capped at 1.0 share a 10-wide link with two uncapped
    ones: the fair share 10/6 exceeds the cap, so the capped group
    freezes at 1.0 and the uncapped pair splits the remaining 6."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    for _ in range(4):
        fluid.transfer([link], 100.0, rate_cap=1.0)
    for _ in range(2):
        fluid.transfer([link], 300.0)
    assert link.utilization == pytest.approx(1.0)
    rates = {"link": 10.0}
    flows = [(0.0, ("link",), 100.0, 1.0)] * 4 + [(0.0, ("link",), 300.0, math.inf)] * 2
    expected = reference_completions(rates, flows)
    assert expected[4] == pytest.approx(100.0)  # 300 bytes at 3 each
    assert model_completions(rates, flows) == pytest.approx(expected, rel=1e-9)


def test_capped_group_that_is_also_bottlenecked():
    """Four flows capped at 3.0 and one uncapped flow share a 10-wide
    link: the fair share 2.0 is below the cap, so the capped group
    freezes at the bottleneck share like everyone else."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    for _ in range(4):
        fluid.transfer([link], 200.0, rate_cap=3.0)
    fluid.transfer([link], 400.0)
    engine.run(until=50.0)
    fluid.settle()
    assert link.stats.counter("bytes").value == pytest.approx(500.0)
    rates = {"link": 10.0}
    flows = [(0.0, ("link",), 200.0, 3.0)] * 4 + [(0.0, ("link",), 400.0, math.inf)]
    expected = reference_completions(rates, flows)
    # all five run at 2.0; the capped four end at t=100 and the last one
    # then has the link to itself: 200 bytes at 10
    assert expected == pytest.approx([100.0] * 4 + [120.0])
    assert model_completions(rates, flows) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("rate_cap", [0.7, 2.5, 3.3, math.inf])
def test_single_group_fast_path_is_bit_identical_to_reference(n, rate_cap):
    """One group on a simple path: min(cap, min cap.rate / n) equals one
    full round of water-filling exactly, so the first completion time is
    bit-for-bit the reference's."""
    rates = {"chan": 9.7, "link": 6.1, "port": 13.0}
    flows = [(0.0, ("chan", "link", "port"), 700.0 + 100.0 * i, rate_cap) for i in range(n)]
    model = model_completions(rates, flows)
    reference = reference_completions(rates, flows)
    assert model[0] == reference[0]
    assert model == pytest.approx(reference, rel=1e-12)


_CAP_NAMES = ("a", "b", "c")
_PATHS = (("a",), ("a", "b"), ("b", "c"), ("a", "b", "c"), ("c", "a", "c"))
_FLOW_SETS = st.lists(
    st.tuples(
        st.sampled_from((0.0, 5.0, 12.5, 40.0)),
        st.sampled_from(_PATHS),
        st.integers(1, 2000).map(float),
        st.sampled_from((math.inf, 0.75, 1.5, 4.0)),
    ),
    min_size=1,
    max_size=10,
)
_RATE_SETS = st.tuples(*(st.sampled_from((3.0, 8.0, 12.5)) for _ in _CAP_NAMES))


@settings(max_examples=60, deadline=None)
@given(flows=_FLOW_SETS, rates=_RATE_SETS)
def test_grouped_solver_matches_per_flow_reference(flows, rates):
    """Staggered flows with equal and mixed caps, shared paths, and one
    path that visits a node twice: every completion time agrees with
    the per-flow reference, and every wake-up keeps the tick protocol
    (see :func:`watch_ticks`)."""
    capacity = dict(zip(_CAP_NAMES, rates))
    seen = {"acted": 0, "rearmed": 0, "superseded": 0}
    model = model_completions(
        capacity, flows, watch=lambda engine, fluid: watch_ticks(engine, fluid, seen)
    )
    assert model == pytest.approx(reference_completions(capacity, flows), rel=1e-9)
    assert seen["acted"] >= 1


def test_hybrid_settle_exposes_midflight_progress():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1000.0)
    engine.run(until=40.0)
    fluid.settle()
    assert link.stats.counter("bytes").value == pytest.approx(400.0)
    assert link.utilization == pytest.approx(1.0)
    engine.run(done)
    assert engine.now == pytest.approx(100.0)


def test_hybrid_aggregate_bytes_match_per_flow_accounting():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    flows = [fluid.transfer([link], 123.0), fluid.transfer([link], 877.0)]
    engine.run(engine.all_of(flows))
    assert link.stats.counter("bytes").value == pytest.approx(1000.0)


def test_hybrid_tiny_transfer_completes():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1e-6)  # below COMPLETION_EPSILON
    engine.run(done)
    assert done.triggered


def test_solver_counters_track_groups_and_flows():
    """Same-(path, cap) flows share a group; the counters see it."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    flows = [fluid.transfer([link], 100.0, rate_cap=1.0) for _ in range(4)]
    engine.run(engine.all_of(flows))
    # four starts plus one retirement of all four at once
    assert fluid.recomputes == 4
    assert fluid.single_group_recomputes == 4
    assert fluid.groups_solved == 4
    assert fluid.flows_solved == 1 + 2 + 3 + 4


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=12),
    rate=st.floats(0.5, 100.0),
)
def test_hybrid_aggregate_throughput_equals_capacity(sizes, rate):
    """The solver conserves work: total bytes / makespan equals the link
    rate, however many flows share the one group."""
    engine, fluid = make()
    link = Capacity("link", rate)
    flows = [fluid.transfer([link], size) for size in sizes]
    engine.run(engine.all_of(flows))
    assert engine.now == pytest.approx(sum(sizes) / rate, rel=1e-6)


# -- one live tick, reused solves -------------------------------------------


def watch_ticks(engine: Engine, fluid: FluidModel, seen: dict[str, int]) -> None:
    """Check the tick protocol at every wake-up and count the outcomes.

    *expected* is the wake time the latest solve asked for, worked out
    here from the horizon it passed: ``now + horizon``, floored at four
    ulps of the clock.  At most one tick of the model is live on the
    heap; a live tick either acts exactly at *expected* or, fired early,
    re-arms itself at exactly *expected*; a superseded tick does nothing.
    """
    expected = [math.inf]
    recompute, schedule, on_tick = fluid._recompute, fluid._schedule_next_tick, fluid._on_tick

    def watched_recompute() -> None:
        expected[0] = math.inf  # unless the solve asks for a wake
        recompute()

    def watched_schedule(horizon: float) -> None:
        now = engine.now
        if horizon != math.inf:
            expected[0] = now + max(horizon, 4.0 * math.ulp(now))
        schedule(horizon)

    def watched_tick(tick) -> None:
        live = [e for _when, _seq, e in engine._heap if e is fluid._tick]
        assert len(live) <= (0 if tick is fluid._tick else 1)
        if tick is not fluid._tick:
            seen["superseded"] += 1
            before = (fluid._last_advance, len(engine._heap))
            on_tick(tick)
            assert (fluid._last_advance, len(engine._heap)) == before
        elif engine.now < expected[0]:
            seen["rearmed"] += 1
            on_tick(tick)
            assert [when for when, _seq, e in engine._heap if e is tick] == [expected[0]]
        else:
            seen["acted"] += 1
            assert engine.now == expected[0]
            on_tick(tick)

    fluid._recompute = watched_recompute  # type: ignore[method-assign]
    fluid._schedule_next_tick = watched_schedule  # type: ignore[method-assign]
    fluid._on_tick = watched_tick  # type: ignore[method-assign]


def test_a_later_wake_rearms_the_pending_tick():
    """Flows that join and slow the flow ahead of them move the wake
    later: no second tick is pushed, and the first tick re-arms once, at
    the exact wake float (here ``now + (wake - now)`` would round off
    it), and the model counts it."""
    engine, fluid = make()
    seen = {"acted": 0, "rearmed": 0, "superseded": 0}
    watch_ticks(engine, fluid, seen)
    link = Capacity("link", 3.0)
    first = fluid.transfer([link], 100.0)  # alone: done at 100 / 3
    engine.run(until=10.0)
    joined = [fluid.transfer([link], 1000.0) for _ in range(3)]
    ticks = [e for _when, _seq, e in engine._heap if e.name == "fluid.tick"]
    assert len(ticks) == 1
    engine.run(engine.all_of([first, *joined]))
    assert first.value == 10.0 + (100.0 - 30.0) / 0.75
    assert engine.now == pytest.approx(3100.0 / 3.0)
    assert fluid.ticks_rearmed == seen["rearmed"] == 1
    assert seen["superseded"] == 0


def test_idle_group_rejoins_from_zero_service():
    """A group whose last member finished stays known to the model and,
    when a flow joins it again, restarts from zero service like a fresh
    group."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    engine.run(fluid.transfer([link], 100.0, rate_cap=2.0))
    (group,) = fluid._known.values()
    assert group.service > 0.0 and not fluid._groups
    started = engine.now
    done = fluid.transfer([link], 50.0, rate_cap=2.0)
    assert fluid._groups[((link,), 2.0)] is group
    assert group.service == 0.0
    engine.run(done)
    assert engine.now == started + 25.0


def _solver_state(engine: Engine, fluid: FluidModel, caps: list[Capacity]) -> tuple:
    return (
        engine.now,
        fluid._wake,
        tuple(group.rate for group in fluid._groups.values()),
        tuple(cap._used_rate for cap in caps),
    )


@settings(max_examples=60, deadline=None)
@given(flows=_FLOW_SETS, rates=_RATE_SETS)
def test_reused_solve_is_bit_identical_to_a_fresh_one(flows, rates):
    """The same flows three rounds over (so multi-group solve keys come
    back) on two models in lockstep: one serves repeated solves from its
    table, the other water-fills every time.  After every event the
    group rates, the used rates and the wake time agree bit for bit."""
    runs = []
    for remember in (True, False):
        engine, fluid = make()
        caps = [Capacity(name, rate) for name, rate in zip(_CAP_NAMES, rates)]
        by_name = dict(zip(_CAP_NAMES, caps))
        if not remember:
            recompute = fluid._recompute

            def fresh(fluid=fluid, recompute=recompute) -> None:
                fluid._solved.clear()
                recompute()

            fluid._recompute = fresh  # type: ignore[method-assign]
        for round_start in (0.0, 1e5, 2e5):
            for at, path, size, cap in flows:
                route = [by_name[n] for n in path]
                engine.timeout(round_start + at).callbacks.append(
                    lambda _ev, fluid=fluid, route=route, size=size, cap=cap: fluid.transfer(
                        route, size, cap
                    )
                )
        runs.append((engine, fluid, caps))
    (memo_engine, memo, memo_caps), (fresh_engine, fresh_model, fresh_caps) = runs
    while memo_engine._heap or fresh_engine._heap:
        memo_engine.step()
        fresh_engine.step()
        assert _solver_state(memo_engine, memo, memo_caps) == _solver_state(
            fresh_engine, fresh_model, fresh_caps
        )
    assert fresh_model.solves_reused == 0
    multi_group = memo.recomputes - memo.single_group_recomputes
    assert memo.solves_reused > 0 or multi_group == 0


@settings(max_examples=40, deadline=None)
@given(flows=_FLOW_SETS, rates=_RATE_SETS)
def test_bounded_tables_keep_the_solver_exact(flows, rates):
    """With the solve table and the group registry cut to a couple of
    entries, evictions and registry resets happen all the time, and the
    completions still match the per-flow reference."""
    capacity = dict(zip(_CAP_NAMES, rates))
    models: list[FluidModel] = []

    def shrink(_engine: Engine, fluid: FluidModel) -> None:
        fluid.SOLVED_MAX = 2  # type: ignore[misc]
        fluid.KNOWN_GROUPS_MAX = 2  # type: ignore[misc]
        models.append(fluid)

    twice = flows + [(at + 1e5, *rest) for at, *rest in flows]
    assert model_completions(capacity, twice, watch=shrink) == pytest.approx(
        reference_completions(capacity, twice), rel=1e-9
    )
    (fluid,) = models
    assert len(fluid._solved) <= 2 and len(fluid._seen) <= 2
