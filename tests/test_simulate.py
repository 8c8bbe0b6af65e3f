from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.config import WorldConfig
from officelab.errors import ValidationError
from officelab.rng import SIMULATE, WordDraws, substream
from officelab.simulate import run_simulation
from officelab.world import AgentProfile, FloorPlan, ScheduleEvent, StayProbs, stationary_distribution

from conftest import line_plan, uniform_agent


# --- scalar reference ---------------------------------------------------------
#
# One agent-tick at a time, drawing from a real Generator: the dynamics and the
# draw order the simulate docstring states, written as plainly as possible.


def _active(ev: ScheduleEvent, tick: int, day: int) -> bool:
    """Whether ``ev`` is active at ``tick`` of ``day``: on one of its days (None = every day), inside its window."""
    return (ev.days is None or day in ev.days) and ev.window[0] <= tick < ev.window[1]


def _pick_destination(profile: AgentProfile, tick: int, day: int, rng: np.random.Generator) -> int:
    """Destination for an agent that has decided to move at this tick.

    The earliest-starting active schedule event wins (ties: lowest target id)
    and fires with its own probability; otherwise sample the destination
    distribution, drawing what rng.choice(k, p=p) over destination_arrays
    would, from the profile's cached cdf.
    """
    active = [ev for ev in profile.schedule if _active(ev, tick, day)]
    if active:
        active.sort(key=lambda ev: (ev.window[0], ev.target))
        ev = active[0]
        if rng.random() < ev.probability:
            return ev.target
    return int(profile.destination_arrays[0][profile.destination_cdf.searchsorted(rng.random(), side="right")])


def step_agent(
    location: int,
    destination: int,
    profile: AgentProfile,
    plan: FloorPlan,
    co_present: int,
    tick: int,
    rng: np.random.Generator | None,
    day: int = 0,
    fluctuation_rate: float = 0.05,
) -> tuple[int, int]:
    """Advance one agent by one tick; returns the new (location, destination).

    ``rng`` may be None only when the step draws nothing (an idle agent whose
    stay probability reaches 1).
    """
    if destination != location:
        if fluctuation_rate > 0.0 and rng.random() < fluctuation_rate:
            ns = plan.neighbors[location]
            return ns[rng.integers(0, len(ns))], destination  # the draw of rng.choice(len(ns))
        return int(plan.next_hop[location, destination]), destination

    stay = min(1.0, profile.stay_at(location, plan) + co_present * profile.delta_p)
    if stay >= 1.0 or rng.random() < stay:
        return location, location
    return location, _pick_destination(profile, tick, day, rng)


def _reference_run(config: WorldConfig) -> np.ndarray:
    """run_simulation's locations[day, tick, a], one step_agent call per agent-tick."""
    plan = config.floor_plan
    agents = config.agents
    streams = [substream(config.rng_seed, SIMULATE, i) for i in range(len(agents))]
    locations = np.empty((config.days, config.ticks_per_day, len(agents)), dtype=np.int64)
    for day in range(config.days):
        here = [p.home for p in agents]
        going = list(here)
        for tick in range(config.ticks_per_day):
            locations[day, tick] = here
            if tick == config.ticks_per_day - 1:
                break  # nothing moves after the day's last tick
            count = [here.count(x) for x in here]  # taken before anyone moves
            for i, p in enumerate(agents):
                here[i], going[i] = step_agent(
                    here[i], going[i], p, plan, count[i] - 1, tick, streams[i], day, config.fluctuation_rate
                )
    return locations


def test_absorbing_agent_never_moves():
    plan = line_plan(3)
    prof = uniform_agent(0, 1, 3, stay=1.0)
    # idle at 1 (destination == location); no rng needed: stay clamps to 1
    assert step_agent(1, 1, prof, plan, co_present=0, tick=0, rng=None) == (1, 1)


def test_co_presence_clamps_stay_probability_to_one():
    # stay 0.9 + 2 * 0.3 clamps to 1: the step is deterministic, no draw happens
    plan = line_plan(3)
    prof = AgentProfile(0, 1, StayProbs(default=0.9), {0: 0.5, 2: 0.5}, delta_p=0.3)
    location, _ = step_agent(1, 1, prof, plan, co_present=2, tick=0, rng=None)
    assert location == 1


def test_active_schedule_event_sets_shortest_path_tail():
    plan = line_plan(8)
    prof = AgentProfile(
        0,
        0,
        StayProbs(default=0.0),
        {0: 1.0},
        schedule=(ScheduleEvent(window=(0, 5), target=7, probability=1.0),),
    )
    rng = substream(1, SIMULATE, 0)
    location, destination = step_agent(0, 0, prof, plan, co_present=0, tick=0, rng=rng, fluctuation_rate=0.0)
    assert location == 0  # planning the trip costs the tick
    assert destination == 7
    visited = [location]
    for tick in range(1, 8):
        location, destination = step_agent(
            location, destination, prof, plan, co_present=0, tick=tick, rng=rng, fluctuation_rate=0.0
        )
        visited.append(location)
    assert visited == list(range(8))
    assert destination == location  # arriving makes the agent idle


def test_inactive_window_and_wrong_day_do_not_fire():
    plan = line_plan(3)
    event = ScheduleEvent(window=(5, 10), target=2, probability=1.0, days=(1,))
    prof = AgentProfile(0, 0, StayProbs(default=0.0), {0: 1.0}, schedule=(event,))
    rng = substream(2, SIMULATE, 0)
    # window not reached: the destination distribution picks 0, so the agent stays idle
    assert step_agent(0, 0, prof, plan, 0, tick=0, rng=rng, day=1, fluctuation_rate=0.0)[1] == 0
    # window active but wrong day
    assert step_agent(0, 0, prof, plan, 0, tick=6, rng=rng, day=0, fluctuation_rate=0.0)[1] == 0


def _tiny_config(seed: int, ticks: int = 1000, stay: float = 0.5, n: int = 2, days: int = 1, fluct: float = 0.0):
    plan = line_plan(n)
    prof = uniform_agent(0, 0, n, stay=stay)
    return WorldConfig(
        floor_plan=plan, agents=(prof,), ticks_per_day=ticks, days=days, rng_seed=seed, fluctuation_rate=fluct
    )


def test_absorbing_run_produces_all_home_records():
    cfg = dataclasses.replace(_tiny_config(0, ticks=10), agents=(uniform_agent(0, 0, 2, stay=1.0),))
    locations = run_simulation(cfg)
    assert locations.shape == (1, 10, 1)
    assert (locations == 0).all()


def test_same_seed_reproduces_and_seeds_differ():
    a = run_simulation(_tiny_config(7))
    b = run_simulation(_tiny_config(7))
    c = run_simulation(_tiny_config(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_each_day_restarts_at_home_and_counts_are_exact():
    cfg = _tiny_config(3, ticks=50, days=4)
    locations = run_simulation(cfg)
    assert locations.shape == (4, 50, 1) and locations.dtype == np.int64
    assert (locations[:, 0] == 0).all()


def test_consecutive_locations_respect_adjacency():
    plan = FloorPlan((0, 1, 2, 3, 4), frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
    prof = AgentProfile(0, 0, StayProbs(default=0.3), {0: 0.3, 2: 0.4, 4: 0.3})
    cfg = WorldConfig(floor_plan=plan, agents=(prof,), ticks_per_day=3000, days=2, rng_seed=11, fluctuation_rate=0.1)
    for seq in run_simulation(cfg)[:, :, 0].tolist():
        for a, b in zip(seq, seq[1:]):
            assert a == b or (min(a, b), max(a, b)) in plan.adjacency


def test_occupancy_converges_to_stationary_oracle():
    plan = line_plan(2)
    prof = uniform_agent(0, 0, 2, stay=0.5)
    target = stationary_distribution(plan, prof)
    cfg = WorldConfig(floor_plan=plan, agents=(prof,), ticks_per_day=100_000, days=1, rng_seed=5, fluctuation_rate=0.0)
    empirical = np.bincount(run_simulation(cfg).ravel(), minlength=2) / 100_000
    assert np.abs(empirical - target).sum() < 0.01


def _mean_shared_dwell(cfg: WorldConfig) -> float:
    runs = []
    current = 0
    locations = run_simulation(cfg)[0]
    for together in (locations[:, 0] == locations[:, 1]).tolist():
        if together:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return float(np.mean(runs)) if runs else 0.0


def test_co_presence_stickiness_extends_shared_dwell():
    plan = line_plan(2)

    def config(seed: int, delta_p: float) -> WorldConfig:
        agents = (
            AgentProfile(0, 0, StayProbs(default=0.5), {0: 0.5, 1: 0.5}, delta_p=delta_p),
            AgentProfile(1, 1, StayProbs(default=0.5), {0: 0.5, 1: 0.5}, delta_p=delta_p),
        )
        return WorldConfig(floor_plan=plan, agents=agents, ticks_per_day=2000, days=1, rng_seed=seed, fluctuation_rate=0.0)

    sticky = [_mean_shared_dwell(config(seed, 0.45)) for seed in range(20)]
    baseline = [_mean_shared_dwell(config(seed, 0.0)) for seed in range(20)]
    assert np.mean(sticky) > np.mean(baseline)
    # paired per-seed comparison: stickiness should win nearly everywhere
    wins = sum(s > b for s, b in zip(sticky, baseline))
    assert wins >= 16


def test_adding_an_agent_does_not_perturb_existing_streams():
    plan = line_plan(3)
    a0 = uniform_agent(0, 0, 3, stay=0.4)
    a1 = uniform_agent(1, 2, 3, stay=0.4)
    solo = WorldConfig(floor_plan=plan, agents=(a0,), ticks_per_day=400, days=1, rng_seed=9, fluctuation_rate=0.0)
    duo = WorldConfig(floor_plan=plan, agents=(a0, a1), ticks_per_day=400, days=1, rng_seed=9, fluctuation_rate=0.0)
    assert np.array_equal(run_simulation(solo)[:, :, 0], run_simulation(duo)[:, :, 0])


def test_pick_destination_draws_as_choice_with_p():
    # the trajectory pins date from rng.choice(k, p=p) for destinations and rng.choice(k) for detours; the
    # simulator draws them from the profile's cdf and with integers(0, k), so draws and generator states must agree
    vectors = ([1.0], [0.5, 0.5], [0.1, 0.0, 0.9], [0.2, 0.3, 0.1, 0.25, 0.15], [0.0, 1.0], [1 / 3] * 3)
    for seed, p in enumerate(vectors):
        prof = AgentProfile(0, 0, StayProbs(default=0.0), {10 * i: x for i, x in enumerate(p)})
        by_cdf, by_choice = substream(seed, SIMULATE, 0), substream(seed, SIMULATE, 0)
        drawn = [_pick_destination(prof, tick=0, day=0, rng=by_cdf) for _ in range(300)]
        assert drawn == [10 * int(by_choice.choice(len(p), p=p)) for _ in range(300)]
        assert by_cdf.bit_generator.state == by_choice.bit_generator.state
    for k in (1, 2, 3, 19, 20, 50, 1000):
        by_choice, by_integers = substream(k, SIMULATE, 0), substream(k, SIMULATE, 0)
        assert [int(by_choice.choice(k)) for _ in range(200)] == [int(by_integers.integers(0, k)) for _ in range(200)]
        assert by_choice.bit_generator.state == by_integers.bit_generator.state


def test_word_draws_equal_the_generator_draws():
    # run_simulation decodes its draws from the raw PCG64 words; this fails if numpy changes how
    # Generator.random() or Generator.integers(0, k) turns words into values
    ks = (1, 2, 3, 4, 7, 50, 1000, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32)  # 2**31 + 1 rejects half the time
    for seed in range(300):
        kinds = np.random.default_rng(seed)
        decoded, reference = substream(seed, SIMULATE, seed % 5), substream(seed, SIMULATE, seed % 5)
        if seed % 3 == 0:  # start from a generator that holds the high half of a word
            decoded.integers(0, 7)
            reference.integers(0, 7)
        draws = WordDraws(decoded, block=5)  # 60 draws cross many block boundaries
        for _ in range(60):
            if kinds.random() < 0.5:
                assert draws.random() == reference.random()
            else:
                k = int(kinds.choice(ks))
                assert draws.integers(k) == int(reference.integers(0, k)), (seed, k)


@pytest.mark.parametrize("destinations", [{0: 0.5, 1: 0.6}, {0: 1.5, 1: -0.5}, {0: float("nan"), 1: 1.0}, {}])
def test_a_destination_distribution_choice_would_reject_is_a_validation_error(destinations):
    prof = AgentProfile(3, 0, StayProbs(default=0.0), destinations)
    cfg = WorldConfig(floor_plan=line_plan(2), agents=(prof,), ticks_per_day=5, days=1, rng_seed=0)
    with pytest.raises(ValidationError, match="destinations of agent 3 are not a probability distribution"):
        run_simulation(cfg)


def test_destinations_are_read_at_the_first_pick():
    # an agent that never picks a destination runs, as it did when each pick read the profile
    prof = AgentProfile(3, 0, StayProbs(default=1.0), {0: 0.5, 1: 0.6})
    cfg = WorldConfig(floor_plan=line_plan(2), agents=(prof,), ticks_per_day=5, days=2, rng_seed=0)
    assert (run_simulation(cfg) == 0).all()


@st.composite
def small_worlds(draw):
    """Configs that hold every case the simulator branches on: a location of degree 3 or more and one of
    degree 1, two agents with delta_p > 0 sharing a home, a stay probability of 1, and schedule events with
    and without days."""
    n = draw(st.integers(4, 7))
    parents = [0, 0, 0] + [draw(st.integers(0, x - 1)) for x in range(4, n)]  # a tree: 0 has degree >= 3
    plan = FloorPlan(tuple(range(n)), frozenset((p, x) for x, p in enumerate(parents, start=1)))
    ticks = draw(st.integers(2, 40))
    days = draw(st.integers(1, 3))
    shared = draw(st.integers(0, n - 1))
    agents = []
    for a in range(draw(st.integers(2, 4))):
        weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
        schedule = []
        for _ in range(draw(st.integers(0 if a > 1 else 1, 2))):
            start = draw(st.integers(0, ticks - 1))
            schedule.append(
                ScheduleEvent(
                    window=(start, draw(st.integers(start + 1, ticks + 5))),
                    target=draw(st.integers(0, n - 1)),
                    probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
                    days=None if a == 1 else draw(st.none() | st.just((0,)) | st.just((1, 2))),
                )
            )
        if a == 0:  # one event per agent with days (agent 0) and without (agent 1)
            schedule[0] = dataclasses.replace(schedule[0], days=(days - 1,))
        agents.append(
            AgentProfile(
                id=10 - a,
                home=shared if a < 2 else draw(st.integers(0, n - 1)),
                stay_prob=StayProbs(
                    default=draw(st.sampled_from([0.0, 0.3, 0.7])),
                    by_location={draw(st.integers(0, n - 1)): 1.0} if a == 0 else {},
                ),
                destinations={x: w / sum(weights) for x, w in enumerate(weights) if w or draw(st.booleans())},
                delta_p=draw(st.sampled_from([0.2, 0.5])) if a < 2 else draw(st.sampled_from([0.0, 0.3])),
                schedule=tuple(schedule),
            )
        )
    return WorldConfig(
        floor_plan=plan,
        agents=tuple(agents),
        ticks_per_day=ticks,
        days=days,
        rng_seed=draw(st.integers(0, 2**32)),
        fluctuation_rate=draw(st.sampled_from([0.0, 0.1, 0.5])),
    )


@settings(max_examples=150, deadline=None)
@given(small_worlds())
def test_run_simulation_equals_the_scalar_reference(config):
    assert np.array_equal(run_simulation(config), _reference_run(config))
