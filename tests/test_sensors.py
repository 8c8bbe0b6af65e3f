from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.errors import ValidationError
from officelab.rng import OBSERVE, substream
from officelab.sensors import (
    ObservationEvent,
    SensorSpec,
    generate_event_log,
    observe,
    observe_tick,
)


def _noiseless(sensor_id: str, coverage: tuple[int, ...]) -> SensorSpec:
    return SensorSpec(sensor_id, "camera", coverage, p_detect=1.0, p_false_positive=0.0, p_confuse=0.0)


def test_noiseless_sensors_mirror_truth_within_coverage():
    sensors = [_noiseless("cam", (0, 1))]
    truth = {0: 0, 1: 1, 2: 5}  # agent 2 out of coverage
    events = observe_tick(truth, sensors, substream(0, OBSERVE, 0))
    assert events == [
        ObservationEvent("cam", 0, 0, 0, 0),
        ObservationEvent("cam", 0, 0, 1, 1),
    ]


def test_blind_sensor_emits_nothing():
    sensors = [SensorSpec("cam", "camera", (0, 1), p_detect=0.0, p_false_positive=0.0)]
    assert observe_tick({0: 0}, sensors, substream(0, OBSERVE, 0)) == []


def test_detection_count_within_binomial_3_sigma():
    spec = SensorSpec("cam", "camera", (0,), p_detect=0.9, p_false_positive=0.0, p_confuse=0.0)
    rng = substream(1, OBSERVE, 0)
    n = 10_000
    hits = sum(len(observe_tick({0: 0}, [spec], rng)) for _ in range(n))
    sigma = math.sqrt(n * 0.9 * 0.1)
    assert abs(hits - n * 0.9) <= 3 * sigma


def test_false_positive_rate_within_binomial_3_sigma():
    spec = SensorSpec("cam", "camera", (0, 1, 2), p_detect=0.0, p_false_positive=0.05, p_confuse=0.0)
    rng = substream(2, OBSERVE, 0)
    n = 20_000
    fps = sum(len(observe_tick({0: 5}, [spec], rng)) for _ in range(n))  # agent outside coverage
    sigma = math.sqrt(n * 0.05 * 0.95)
    assert abs(fps - n * 0.05) <= 3 * sigma


def test_confusion_swaps_identity_but_not_location():
    spec = SensorSpec("cam", "camera", (0, 1), p_detect=1.0, p_false_positive=0.0, p_confuse=1.0)
    events = observe_tick({0: 0, 1: 1}, [spec], substream(3, OBSERVE, 0))
    assert [e.location for e in events] == [0, 1]
    assert [e.reported_agent for e in events] == [1, 0]  # always the other agent


def _walk(n_ticks: int, days: int = 1) -> np.ndarray:
    """locations[day, tick, 0] of one agent walking 0, 1, 2, 0, ... each day."""
    return np.tile(np.arange(n_ticks) % 3, (days, 1))[:, :, None]


def test_event_log_is_deterministic_and_ordered():
    sensors = [
        SensorSpec("b_cam", "camera", (0, 1, 2), p_detect=0.7, p_false_positive=0.05),
        SensorSpec("a_tag", "tag_reader", (1,), p_detect=0.8, p_false_positive=0.02),
    ]
    locations = _walk(200, days=2)
    log1 = generate_event_log(locations, [0], sensors, seed=99)
    log2 = generate_event_log(locations, [0], sensors, seed=99)
    assert log1 == log2
    keys = [(e.day, e.tick, e.sensor) for e in log1]
    assert keys == sorted(keys)


def test_empty_trajectories_give_empty_log():
    for locations in (np.zeros((0, 0, 0), dtype=np.int64), np.zeros((2, 5, 0), dtype=np.int64)):
        assert generate_event_log(locations, [], [_noiseless("cam", (0,))], seed=1) == []


def test_noiseless_full_coverage_yields_one_event_per_record():
    sensors = [_noiseless("cam", (0, 1, 2))]
    locations = _walk(50)
    log = generate_event_log(locations, [0], sensors, seed=4)
    assert len(log) == locations.size
    assert all(locations[e.day, e.tick, 0] == e.location and e.reported_agent == 0 for e in log)


def test_no_event_escapes_its_sensors_coverage():
    sensors = [
        SensorSpec("cam", "camera", (0, 2), p_detect=0.6, p_false_positive=0.2, p_confuse=0.3),
        SensorSpec("tag", "tag_reader", (1,), p_detect=0.5, p_false_positive=0.2),
    ]
    coverage = {s.id: set(s.coverage) for s in sensors}
    locations = ((np.arange(500)[:, None] + np.arange(3)) % 3)[None]  # agent a at (a + t) % 3
    for event in generate_event_log(locations, [0, 1, 2], sensors, seed=12):
        assert event.location in coverage[event.sensor]


def test_raising_p_detect_raises_mean_detection_count():
    locations = _walk(300)

    def total(p: float, seed: int) -> int:
        spec = SensorSpec("cam", "camera", (0, 1, 2), p_detect=p, p_false_positive=0.0)
        return len(generate_event_log(locations, [0], [spec], seed=seed))

    low = np.mean([total(0.5, s) for s in range(30)])
    high = np.mean([total(0.9, s) for s in range(30)])
    assert high > low


def _observe_day_reference(rows, sensors, rng, day=0, ticks=None):
    """The observe layout as a plain scalar scan: ``rows[t]`` maps agent -> location at the day's tick ``ticks[t]``,
    sensors draw in list order, agents in id order; one uniform triple per covered cell, one per (tick, sensor)."""
    agents = sorted(rows[0]) if rows else []
    ticks = list(ticks or range(len(rows)))
    if not agents or not sensors:
        return []
    n = len(agents)
    cells = [
        (t, a, s)
        for t in range(len(rows))
        for a in range(n)
        for s in range(len(sensors))
        if rows[t][agents[a]] in sensors[s].coverage
    ]
    u = rng.random((3, len(cells))).tolist()
    v = rng.random((3, len(rows), len(sensors))).tolist()
    draws = {cell: (u[0][k], u[1][k], u[2][k]) for k, cell in enumerate(cells)}
    events = []
    for t in range(len(rows)):
        for s, spec in enumerate(sensors):
            for a, agent in enumerate(agents):
                if (t, a, s) not in draws:
                    continue
                detect, confuse, pick = draws[t, a, s]
                if detect >= spec.p_detect:
                    continue
                reported = agent
                if n > 1 and confuse < spec.p_confuse:
                    others = agents[:a] + agents[a + 1 :]
                    reported = others[int(pick * (n - 1))]
                events.append(ObservationEvent(spec.id, day, ticks[t], reported, rows[t][agent]))
            if v[0][t][s] < spec.p_false_positive:
                named = agents[int(v[1][t][s] * n)]
                at = spec.coverage[int(v[2][t][s] * len(spec.coverage))]
                events.append(ObservationEvent(spec.id, day, ticks[t], named, at))
    return events


def test_observe_tick_matches_the_agent_scan_draw_for_draw():
    # multi-location (and one repeated) coverage, confusions and false
    # positives; agents share locations and ids are not dense
    sensors = [
        SensorSpec("cam", "camera", (0, 2, 3), p_detect=0.8, p_false_positive=0.3, p_confuse=0.4),
        SensorSpec("tag", "tag_reader", (1,), p_detect=0.9, p_false_positive=0.2, p_confuse=0.3),
        SensorSpec("wide", "camera", (0, 1, 2, 3, 4), p_detect=0.6, p_false_positive=0.5, p_confuse=0.5),
        SensorSpec("dup", "camera", (2, 2, 4), p_detect=0.7, p_false_positive=0.1, p_confuse=0.2),
    ]
    placement = np.random.default_rng(5)
    fast, slow = substream(7, OBSERVE, 0), substream(7, OBSERVE, 0)
    for tick in range(400):
        agents = [3, 8, 11, 40][: 1 + tick % 4]
        truth = {a: int(placement.integers(0, 6)) for a in agents}
        got = observe_tick(truth, sensors, fast, day=1, tick=tick)
        assert got == _observe_day_reference([truth], sensors, slow, day=1, ticks=[tick])
    assert fast.random() == slow.random()  # same number of draws consumed


def test_a_negative_location_is_named_with_its_day():
    locations = _walk(5, days=3)
    locations[2, 4, 0] = -1
    with pytest.raises(ValidationError, match="location -1 of day 2 is negative"):
        generate_event_log(locations, [0], [_noiseless("cam", (0, 1))], seed=0)


def _reference_log(locations, agents, sensors, seed):
    """_observe_day_reference day by day over ``locations[day, tick, a]``, where agent ``agents[a]`` stands."""
    ordered = sorted(sensors, key=lambda s: s.id)
    events = []
    for day, table in enumerate(np.asarray(locations).tolist()):
        rows = [dict(zip(agents, row)) for row in table]
        events += _observe_day_reference(rows, ordered, substream(seed, OBSERVE, day), day=day)
    return events


def test_observe_columns_name_the_events_of_the_event_log():
    # agents and sensors given out of id order: columns index them as given, the draws go by id
    sensors = [
        SensorSpec("tag", "tag_reader", (1, 2), p_detect=0.8, p_false_positive=0.3, p_confuse=0.5),
        SensorSpec("cam", "camera", (0, 1), p_detect=0.9, p_false_positive=0.2, p_confuse=0.4),
    ]
    agents = [7, 2, 5]
    placement = np.random.default_rng(3)
    locations = placement.integers(0, 3, size=(2, 40, len(agents)))
    columns = observe(locations, agents, sensors, seed=11)
    named = [
        ObservationEvent(sensors[s].id, d, t, agents[a], x) for s, d, t, a, x in zip(*(c.tolist() for c in columns))
    ]
    assert named == _reference_log(locations, agents, sensors, seed=11)
    assert named == generate_event_log(locations, agents, sensors, seed=11)
    assert len(named) > 100


_probabilities = st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0])


@st.composite
def _sensor_sets(draw):
    n = draw(st.integers(1, 6))
    sensors = []
    for i in range(n):
        coverage = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))  # repeats allowed
        sensors.append(
            SensorSpec(
                f"s{draw(st.integers(0, 99)):02d}{i}",
                "camera",
                tuple(sorted(coverage)),
                p_detect=draw(_probabilities),
                p_false_positive=draw(_probabilities),
                p_confuse=draw(_probabilities),
            )
        )
    return sensors


@st.composite
def _location_sets(draw):
    # agents in any order, every one at every tick of every day
    agents = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True))
    days, ticks = draw(st.integers(1, 3)), draw(st.integers(1, 25))
    size = days * ticks * len(agents)
    cells = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    return agents, np.array(cells, dtype=np.int64).reshape(days, ticks, len(agents))


@given(_sensor_sets(), _location_sets(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_event_log_equals_the_scalar_layout_day_by_day(specs, drawn, seed):
    agents, locations = drawn
    assert generate_event_log(locations, agents, specs, seed) == _reference_log(locations, agents, specs, seed)
