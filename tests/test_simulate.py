from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from officelab.config import WorldConfig
from officelab.errors import ValidationError
from officelab.rng import SIMULATE, substream
from officelab.simulate import _pick_destination, run_simulation, step_agent
from officelab.world import AgentProfile, FloorPlan, ScheduleEvent, StayProbs, stationary_distribution

from conftest import line_plan, uniform_agent


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


@pytest.mark.parametrize("destinations", [{0: 0.5, 1: 0.6}, {0: 1.5, 1: -0.5}, {0: float("nan"), 1: 1.0}, {}])
def test_a_destination_distribution_choice_would_reject_is_a_validation_error(destinations):
    prof = AgentProfile(3, 0, StayProbs(default=0.0), destinations)
    with pytest.raises(ValidationError, match="destinations of agent 3 are not a probability distribution"):
        _pick_destination(prof, tick=0, day=0, rng=substream(0, SIMULATE, 0))
