"""Imperfect sensor network: missed detections, false positives, identity mixups.

Sensors are abstract per-location detectors; a camera's field of view is its
coverage set. Default noise levels are synthetic (real likelihoods for this
kind of network are not public): p_detect 0.9, p_false_positive 0.01,
p_confuse 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .rng import OBSERVE, substream

if TYPE_CHECKING:
    from .simulate import TrajectoryRecord

SENSOR_KINDS = ("camera", "tag_reader", "biometric")


@dataclass(frozen=True)
class SensorSpec:
    id: str
    kind: str
    coverage: tuple[int, ...]  # sorted location ids
    p_detect: float = 0.9
    p_false_positive: float = 0.01  # per tick
    p_confuse: float = 0.05  # report a uniformly random wrong identity


def false_positive_share(spec: SensorSpec, n_agents: int | None) -> float:
    """q, the chance per tick that ``spec``'s false positive names one given agent of ``n_agents`` (None or 0: any);
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


def observe_tick(
    truth: dict[int, int],
    sensors: Sequence[SensorSpec],
    rng: np.random.Generator,
    day: int = 0,
    tick: int = 0,
) -> list[ObservationEvent]:
    """Noisy events for one tick of ground truth (agent -> location).

    Per sensor: each covered agent is detected with p_detect (identity swapped
    with p_confuse), and one false positive naming a random agent at a random
    covered location fires with p_false_positive. Sensors are processed in
    list order, agents in id order; draw order is part of the determinism
    contract.
    """
    agent_ids = sorted(truth)
    events: list[ObservationEvent] = []
    if not agent_ids:  # nobody to detect and no identities to misreport
        return events
    present: dict[int, list[int]] = {}  # location -> its agents, in id order
    for agent in agent_ids:
        present.setdefault(truth[agent], []).append(agent)
    for spec in sensors:
        covered = [(agent, loc) for loc in spec.coverage if loc in present for agent in present[loc]]
        if len(spec.coverage) > 1:  # back to id order; a repeated coverage entry detects once
            covered = sorted(set(covered))
        for agent, loc in covered:
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


def generate_event_log(
    records: Iterable[TrajectoryRecord],
    sensors: Sequence[SensorSpec],
    seed: int,
) -> list[ObservationEvent]:
    """Full event log for a trajectory set, ordered by (day, tick, sensor).

    Each day draws from its own substream, so days can be regenerated (or
    parallelized) independently.
    """
    by_day_tick: dict[tuple[int, int], dict[int, int]] = {}
    for rec in records:
        by_day_tick.setdefault((rec.day, rec.tick), {})[rec.agent] = rec.location
    ordered_sensors = sorted(sensors, key=lambda s: s.id)
    events: list[ObservationEvent] = []
    current_day = None
    rng = None
    for day, tick in sorted(by_day_tick):
        if day != current_day:
            rng = substream(seed, OBSERVE, day)
            current_day = day
        events.extend(observe_tick(by_day_tick[(day, tick)], ordered_sensors, rng, day=day, tick=tick))
    return events
