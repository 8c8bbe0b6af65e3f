"""Imperfect sensor network: missed detections, false positives, identity mixups.

Sensors are abstract per-location detectors; a camera's field of view is its
coverage set. Default noise levels are synthetic (real likelihoods for this
kind of network are not public): p_detect 0.9, p_false_positive 0.01,
p_confuse 0.05.

Draw layout (version 2 of the observe substream), part of the determinism
contract. Day d draws from ``substream(seed, OBSERVE, d)``, sensors sorted by
id, agents sorted by id, ``loc[t, a]`` agent a's location at the day's tick t,
and A agents:

- detections: the covered cells are ``np.nonzero(covers[loc])``, covers[loc]
  of shape (tick, agent, sensor) in C order, and ``rng.random((3, m))`` draws
  for them. Row 0 detects (< p_detect), row 1 confuses (< p_confuse, only with
  two agents or more), row 2 names the wrong identity floor(u * (A - 1)),
  skipping the agent itself;
- false positives: ``rng.random((3, ticks, sensors))``. Row 0 fires
  (< p_false_positive), row 1 names the agent floor(u * A), row 2 the
  coverage entry floor(u * len(coverage)).

A day without agents or sensors draws nothing. One sort puts the events in
file order: tick, sensor id, the detections in agent order, then the false
positive. ``_observe_day`` computes a day with numpy; ``observe`` runs the
days of a ``locations[day, tick, a]`` array into EventColumns,
``generate_event_log`` and ``observe_tick`` into events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .rng import OBSERVE, substream

SENSOR_KINDS = ("camera", "tag_reader", "biometric")


@dataclass(frozen=True)
class SensorSpec:
    id: str
    kind: str
    coverage: tuple[int, ...]  # sorted location ids
    p_detect: float = 0.9
    p_false_positive: float = 0.01  # per tick
    p_confuse: float = 0.05  # report a uniformly random wrong identity


def false_positive_share(spec: SensorSpec, n_agents: int) -> float:
    """q, the chance per tick that ``spec``'s false positive names one given agent of ``n_agents`` (0: any);
    ValidationError naming the sensor at q = 1, where the tracker's clutter odds q/(1 - q) are unbounded."""
    q = spec.p_false_positive / n_agents if n_agents else spec.p_false_positive
    if q >= 1.0:
        raise ValidationError(f"sensor {spec.id}'s false positive names the one agent every tick (p_false_positive 1)")
    return q


class ObservationEvent(NamedTuple):
    sensor: str
    day: int
    tick: int
    reported_agent: int
    location: int


class EventColumns(NamedTuple):
    """Events as int64 columns, one entry per event in event order."""

    sensor: np.ndarray  # index into the config's sensor list
    day: np.ndarray
    tick: np.ndarray
    agent: np.ndarray  # the reported agent's column (its index in the config's agent order)
    location: np.ndarray


_NONE = np.zeros(0, dtype=np.int64)


def _observe_day(
    loc: np.ndarray, sensors: Sequence[SensorSpec], rng: np.random.Generator, day: int
) -> tuple[np.ndarray, ...]:
    """Day ``day``'s (tick, sensor, reported agent, location) columns in file order, drawn as the module docstring
    lays out. ``loc[t, a]`` is where agent column ``a`` stands at the day's tick ``t``; agents and sensors are
    indexed by position, in the order they draw in."""
    ticks, n_agents = loc.shape
    if not loc.size or not sensors:
        return (_NONE,) * 4
    if loc.min() < 0:
        raise ValidationError(f"location {int(loc.min())} of day {day} is negative")
    coverage = [spec.coverage for spec in sensors]
    sizes = np.array([len(c) for c in coverage])
    width = max(int(loc.max()), *(max(c, default=0) for c in coverage)) + 1
    covers = np.zeros((width, len(sensors)), dtype=bool)  # location -> the sensors covering it
    entries = np.zeros((len(sensors), max(sizes.max(), 1)), dtype=np.int64)  # sensor -> its coverage entries
    for j, c in enumerate(coverage):
        covers[list(c), j] = True  # a repeated coverage entry detects once
        entries[j, : len(c)] = c
    p_detect, p_confuse, p_false_positive = np.array(
        [(spec.p_detect, spec.p_confuse, spec.p_false_positive if spec.coverage else 0.0) for spec in sensors]
    ).T

    t, a, s = np.unravel_index(np.flatnonzero(covers[loc]), (ticks, n_agents, len(sensors)))  # np.nonzero's cells
    u = rng.random((3, t.size))
    hit = u[0] < p_detect[s]
    t, a, s, u = t[hit], a[hit], s[hit], u[:, hit]
    wrong = (u[2] * (n_agents - 1)).astype(np.int64)
    reported = np.where((u[1] < p_confuse[s]) & (n_agents > 1), wrong + (wrong >= a), a)

    v = rng.random((3, ticks, len(sensors)))
    ft, fs = np.nonzero(v[0] < p_false_positive)
    named = (v[1, ft, fs] * n_agents).astype(np.int64)
    at = entries[fs, (v[2, ft, fs] * sizes[fs]).astype(np.int64)]

    tick, sensor = np.concatenate((t, ft)), np.concatenate((s, fs))
    slot = np.concatenate((a, np.full(ft.size, n_agents)))  # the detected agent's column; n_agents: the false positive
    order = np.argsort((tick * len(sensors) + sensor) * (n_agents + 1) + slot)
    return tick[order], sensor[order], np.concatenate((reported, named))[order], np.concatenate((loc[t, a], at))[order]


def observe(locations: np.ndarray, agents: Sequence[int], sensors: Sequence[SensorSpec], seed: int) -> EventColumns:
    """The events of ``locations[day, tick, a]``, where agent ``agents[a]`` stands, as EventColumns.

    Agent column ``a`` names ``agents[a]`` and sensor index ``j`` names
    ``sensors[j]``; the draws follow the module docstring, day d on its own
    substream, so days can be regenerated independently.
    """
    by_id = np.array(sorted(range(len(sensors)), key=lambda j: sensors[j].id), dtype=np.int64)
    ordered = [sensors[j] for j in by_id]
    column = np.argsort(agents)
    days = [(_NONE,) * 5]
    for day in range(len(locations)):
        tick, s, a, x = _observe_day(locations[day][:, column], ordered, substream(seed, OBSERVE, day), day)
        days.append((by_id[s], np.full(tick.size, day, dtype=np.int64), tick, column[a], x))
    return EventColumns(*map(np.concatenate, zip(*days)))


def observe_tick(
    truth: dict[int, int],
    sensors: Sequence[SensorSpec],
    rng: np.random.Generator,
    day: int = 0,
    tick: int = 0,
) -> list[ObservationEvent]:
    """Noisy events for one tick of ground truth (agent -> location): a one-tick day of the module docstring's
    layout, drawn from ``rng``, with the sensors in the order given rather than by id."""
    agents = sorted(truth)
    loc = np.array([[truth[agent] for agent in agents]], dtype=np.int64).reshape(1, -1)
    _, s, a, x = (c.tolist() for c in _observe_day(loc, sensors, rng, day))
    return [ObservationEvent(sensors[j].id, day, tick, agents[i], at) for j, i, at in zip(s, a, x)]


def generate_event_log(
    locations: np.ndarray, agents: Sequence[int], sensors: Sequence[SensorSpec], seed: int
) -> list[ObservationEvent]:
    """``observe``'s events as ObservationEvents, ordered by (day, tick, sensor id)."""
    sensor, day, tick, agent, at = observe(locations, agents, sensors, seed)
    names, named = [sensors[j].id for j in sensor.tolist()], [agents[a] for a in agent.tolist()]
    return list(map(ObservationEvent, names, day.tolist(), tick.tolist(), named, at.tolist()))
