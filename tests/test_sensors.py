from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab import sensors as sensor_module
from officelab.rng import OBSERVE, substream
from officelab.sensors import ObservationEvent, SensorSpec, generate_event_log, observe_tick
from officelab.simulate import TrajectoryRecord


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


def _walk_records(n_ticks: int, days: int = 1) -> list[TrajectoryRecord]:
    return [
        TrajectoryRecord(agent=0, day=day, tick=t, location=t % 3)
        for day in range(days)
        for t in range(n_ticks)
    ]


def test_event_log_is_deterministic_and_ordered():
    sensors = [
        SensorSpec("b_cam", "camera", (0, 1, 2), p_detect=0.7, p_false_positive=0.05),
        SensorSpec("a_tag", "tag_reader", (1,), p_detect=0.8, p_false_positive=0.02),
    ]
    records = _walk_records(200, days=2)
    log1 = generate_event_log(records, sensors, seed=99)
    log2 = generate_event_log(records, sensors, seed=99)
    assert log1 == log2
    keys = [(e.day, e.tick, e.sensor) for e in log1]
    assert keys == sorted(keys)


def test_empty_trajectories_give_empty_log():
    assert generate_event_log([], [_noiseless("cam", (0,))], seed=1) == []


def test_noiseless_full_coverage_yields_one_event_per_record():
    sensors = [_noiseless("cam", (0, 1, 2))]
    records = _walk_records(50)
    log = generate_event_log(records, sensors, seed=4)
    assert len(log) == len(records)
    truth = {(r.day, r.tick): r.location for r in records}
    assert all(truth[(e.day, e.tick)] == e.location and e.reported_agent == 0 for e in log)


def test_no_event_escapes_its_sensors_coverage():
    sensors = [
        SensorSpec("cam", "camera", (0, 2), p_detect=0.6, p_false_positive=0.2, p_confuse=0.3),
        SensorSpec("tag", "tag_reader", (1,), p_detect=0.5, p_false_positive=0.2),
    ]
    coverage = {s.id: set(s.coverage) for s in sensors}
    records = [
        TrajectoryRecord(agent=a, day=0, tick=t, location=(a + t) % 3) for a in range(3) for t in range(500)
    ]
    for event in generate_event_log(records, sensors, seed=12):
        assert event.location in coverage[event.sensor]


def test_raising_p_detect_raises_mean_detection_count():
    records = _walk_records(300)

    def total(p: float, seed: int) -> int:
        spec = SensorSpec("cam", "camera", (0, 1, 2), p_detect=p, p_false_positive=0.0)
        return len(generate_event_log(records, [spec], seed=seed))

    low = np.mean([total(0.5, s) for s in range(30)])
    high = np.mean([total(0.9, s) for s in range(30)])
    assert high > low


def _observe_tick_reference(truth, sensors, rng, day=0, tick=0):
    """observe_tick as a scan of every agent per sensor against a frozenset of its coverage."""
    agent_ids = sorted(truth)
    events = []
    if not agent_ids:
        return events
    for spec in sensors:
        covered = frozenset(spec.coverage)
        for agent in agent_ids:
            loc = truth[agent]
            if loc not in covered:
                continue
            if rng.random() >= spec.p_detect:
                continue
            reported = agent
            if spec.p_confuse > 0.0 and len(agent_ids) > 1 and rng.random() < spec.p_confuse:
                others = [a for a in agent_ids if a != agent]
                reported = others[rng.choice(len(others))]
            events.append(ObservationEvent(spec.id, day, tick, reported, loc))
        if spec.p_false_positive > 0.0 and rng.random() < spec.p_false_positive:
            agent = agent_ids[rng.choice(len(agent_ids))]
            loc = spec.coverage[rng.choice(len(spec.coverage))]
            events.append(ObservationEvent(spec.id, day, tick, int(agent), int(loc)))
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
        assert got == _observe_tick_reference(truth, sensors, slow, day=1, tick=tick)
    assert fast.random() == slow.random()  # same number of draws consumed


def test_choice_and_integers_draw_the_same_values():
    # observe draws its wrong identities and false positives with integers(0, k); the event
    # stream (and the pinned digests) date from rng.choice(k), so the two must stay one draw
    for k in (1, 2, 3, 19, 20, 50, 1000):
        by_choice, by_integers = substream(k, OBSERVE, 0), substream(k, OBSERVE, 0)
        assert [int(by_choice.choice(k)) for _ in range(200)] == [int(by_integers.integers(0, k)) for _ in range(200)]
        assert by_choice.bit_generator.state == by_integers.bit_generator.state


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
def _record_sets(draw):
    # per (day, tick), any nonempty subset of the agents, so the agents can change between ticks
    agents = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True))
    records = []
    for day in draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)):
        for tick in sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=25, unique=True))):
            present = draw(st.lists(st.sampled_from(agents), min_size=1, unique=True))
            records += [TrajectoryRecord(a, day, tick, draw(st.integers(0, 6))) for a in present]
    return records


@given(_sensor_sets(), _record_sets(), st.integers(0, 2**32), st.sampled_from([2, 3, 5, 8, sensor_module._BLOCK]))
@settings(max_examples=150, deadline=None)
def test_event_log_equals_the_scalar_scan_tick_by_tick(specs, records, seed, block):
    # small blocks run out mid-tick, so every way a block can end is crossed
    ordered = sorted(specs, key=lambda s: s.id)
    expected, streams = [], {}
    for day, tick in sorted({(r.day, r.tick) for r in records}):
        truth = {r.agent: r.location for r in records if (r.day, r.tick) == (day, tick)}
        rng = streams.setdefault(day, substream(seed, OBSERVE, day))
        expected += _observe_tick_reference(truth, ordered, rng, day=day, tick=tick)
    with mock.patch.object(sensor_module, "_BLOCK", block):
        assert generate_event_log(records, specs, seed) == expected
