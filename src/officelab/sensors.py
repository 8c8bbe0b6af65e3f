"""Imperfect sensor network: missed detections, false positives, identity mixups.

Sensors are abstract per-location detectors; a camera's field of view is its
coverage set. Default noise levels are synthetic (real likelihoods for this
kind of network are not public): p_detect 0.9, p_false_positive 0.01,
p_confuse 0.05.

Draw order, part of the determinism contract: ticks in order; within a tick,
sensors in the order given; per sensor, one detection uniform for each
covered agent in id order (a detected agent with p_confuse > 0, and another
agent to name, then draws a confusion uniform, and a confused one an integer
for the wrong identity), then, if p_false_positive > 0, one false-positive
uniform (a firing one draws an integer for the agent, then one for the
location). One private kernel, ``_observe_run``, produces exactly this scalar
stream for a run of ticks with the same agents while drawing the uniforms in
blocks; ``observe_tick`` and ``generate_event_log`` both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .rng import OBSERVE, substream

if TYPE_CHECKING:
    from .simulate import TrajectoryRecord

SENSOR_KINDS = ("camera", "tag_reader", "biometric")

_BLOCK = 128  # uniforms drawn per rng.random call; at least 2, the most one slot draws
_CHUNK_CELLS = 1 << 16  # (tick, sensor, agent) cells of the slot program built at once


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


_event = partial(tuple.__new__, ObservationEvent)  # ObservationEvent((fields)) without its Python-level __new__


def _observe_run(
    locations: np.ndarray,
    ticks: Sequence[int],
    agent_ids: list[int],
    sensors: Sequence[SensorSpec],
    rng: np.random.Generator,
    day: int,
) -> list[ObservationEvent]:
    """Events for consecutive ticks that all have the agents ``agent_ids`` (ascending), in draw order.

    ``locations[t, a]`` is where ``agent_ids[a]`` stands at ``ticks[t]``. The
    draws are laid out first as a slot program: per tick, per sensor, one
    detection slot per covered agent, then the false-positive slot. The
    uniforms come in blocks of ``rng.random(_BLOCK)`` and one Python loop walks
    the slots. Before each integer draw, and before returning, the generator
    is put back where the scalar scan would stand: the state saved when the
    block was drawn is restored (its buffered uint32 with it), then the
    ``used`` uniforms are drawn again.
    """
    n_agents = len(agent_ids)
    if not n_agents or not sensors:
        return []
    if locations.min() < 0:
        raise ValidationError(f"location {int(locations.min())} of day {day} is negative")
    width = max(int(locations.max()), *(max(spec.coverage, default=0) for spec in sensors)) + 1
    covers = np.zeros((width, len(sensors)), dtype=bool)  # location -> the sensors covering it
    for j, spec in enumerate(sensors):
        covers[list(spec.coverage), j] = True  # a repeated coverage entry detects once
    fp_on = np.array([spec.p_false_positive > 0.0 for spec in sensors])
    thresholds = [p for spec in sensors for p in (spec.p_detect, spec.p_false_positive)]  # by slot code
    ids = [spec.id for spec in sensors]
    confuse = [spec.p_confuse if n_agents > 1 else 0.0 for spec in sensors]
    coverage = [spec.coverage for spec in sensors]

    bits = rng.bit_generator
    saved = None
    block: list[float] = []
    used = 0

    def rewind() -> None:  # to where the scalar scan stands: the block's start, then the uniforms used
        bits.state = saved
        rng.random(used)

    events: list[ObservationEvent] = []
    step = max(1, _CHUNK_CELLS // (len(sensors) * (n_agents + 1)))
    for t0 in range(0, len(locations), step):
        here = locations[t0 : t0 + step]
        program = np.empty((len(here), len(sensors), n_agents + 1), dtype=bool)  # tick, sensor, agent or false positive
        program[:, :, :n_agents] = covers[here].transpose(0, 2, 1)
        program[:, :, n_agents] = fp_on
        t, cell = np.divmod(np.flatnonzero(program), program[0].size)
        s, a = np.divmod(cell, n_agents + 1)
        # per slot: its code 2 * sensor (+1 for the false positive), agent and tick in the chunk; a firing
        # slot looks up its tick and location, so the lists hold no per-slot floats or large ints
        code, a, t = (2 * s + (a == n_agents)).tolist(), a.tolist(), t.tolist()
        rows = here.tolist()

        k, n = 0, len(code)
        while k < n:
            stop = min(n, k + (len(block) - used) // 2)  # a slot draws at most two uniforms
            if stop == k:  # the next block, drawn from where the scalar scan stands
                if used < len(block):
                    rewind()
                saved = bits.state
                block = rng.random(min(_BLOCK, 2 * (n - k))).tolist()
                used = 0
                continue
            for slot in range(k, stop):
                used += 1
                if block[used - 1] >= thresholds[code[slot]]:  # a miss, or no false positive
                    continue
                sensor, i = code[slot] >> 1, t[slot]
                if code[slot] & 1:
                    rewind()
                    named = agent_ids[int(rng.integers(0, n_agents))]
                    at = coverage[sensor][int(rng.integers(0, len(coverage[sensor])))]
                    events.append(_event((ids[sensor], day, ticks[t0 + i], named, int(at))))
                else:
                    agent, p_confuse = a[slot], confuse[sensor]
                    if p_confuse:
                        used += 1
                    if not p_confuse or block[used - 1] >= p_confuse:  # reported as itself
                        events.append(_event((ids[sensor], day, ticks[t0 + i], agent_ids[agent], rows[i][agent])))
                        continue
                    rewind()
                    other = int(rng.integers(0, n_agents - 1))  # the same draw as choice() over the others
                    reported = agent_ids[other + (other >= agent)]
                    events.append(_event((ids[sensor], day, ticks[t0 + i], reported, rows[i][agent])))
                block, used = [], 0  # the integer draws moved the generator past the block
                break
            k = slot + 1
    if used < len(block):
        rewind()
    return events


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
    list order, agents in id order (the draw order of the module docstring).
    This is the one-tick case of the kernel that ``generate_event_log`` runs
    over whole days: the slots draw from one block of uniforms and the state
    is restored before each integer draw and at the end, so the generator
    ends where one scalar draw at a time would leave it.
    """
    agent_ids = sorted(truth)
    row = np.array([[truth[agent] for agent in agent_ids]], dtype=np.int64)
    return _observe_run(row, [tick], agent_ids, sensors, rng, day)


def generate_event_log(
    records: Iterable[TrajectoryRecord],
    sensors: Sequence[SensorSpec],
    seed: int,
) -> list[ObservationEvent]:
    """Full event log for a trajectory set, ordered by (day, tick, sensor id).

    Each day draws from its own substream, so days can be regenerated (or
    parallelized) independently. A (day, tick) holds the records that name
    it (a repeated agent-tick keeps its last location). Each run of the
    day's ticks with the same agents, the whole day for a simulated or
    checked table, goes through the kernel at once: slots in tick, then
    sensor id order, the uniforms drawn in blocks, the state restored before
    each integer draw. The events and the draws equal those of
    ``observe_tick`` called tick by tick.
    """
    by_day_tick: dict[tuple[int, int], dict[int, int]] = {}
    for rec in records:
        by_day_tick.setdefault((rec.day, rec.tick), {})[rec.agent] = rec.location
    ordered_sensors = sorted(sensors, key=lambda s: s.id)
    runs: list[tuple[int, list[int], list[int], list[list[int]]]] = []  # day, agents, ticks, locations
    for day, tick in sorted(by_day_tick):
        truth = by_day_tick[(day, tick)]
        agent_ids = sorted(truth)
        if not runs or runs[-1][0] != day or runs[-1][1] != agent_ids:
            runs.append((day, agent_ids, [], []))
        runs[-1][2].append(tick)
        runs[-1][3].append([truth[agent] for agent in agent_ids])
    del by_day_tick
    events: list[ObservationEvent] = []
    rng = None
    for i, (day, agent_ids, ticks, rows) in enumerate(runs):
        if i == 0 or runs[i - 1][0] != day:
            rng = substream(seed, OBSERVE, day)
        events.extend(_observe_run(np.array(rows, dtype=np.int64), ticks, agent_ids, ordered_sensors, rng, day))
    return events
