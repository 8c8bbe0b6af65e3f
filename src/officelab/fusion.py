"""Bayesian location tracking: stacked predict/update over one run-wide evidence buffer.

Beliefs are per-agent categorical distributions over location bins. Events
enter as one validated integer column table (sensors.EventColumns: observe
emits it, the events reader's array path builds it with agent_columns, and
ObservationEvents, the line reader's too, pass through _checked_columns);
the whole run's reports fill one (days, ticks, agents, locations) evidence
buffer (LikelihoodModel.evidence_into: one sort keyed by the multiplication
order groups the reports, their factors are computed per chunk of groups and
multiplied in, one pass per rank of a group within its agent-tick).
track_run builds the motion model and the agents' start (a point mass at
home) once and fills the buffer once. Every agent starts each day at home,
so the days are independent and both halves step all of them at once, a row
per (day, agent): decoding.decode_agents reads the evidence first, then the
forward filter advances every row tick by tick, each through its agent's
motion kernel (predict), reweighted by its evidence (update), and
overwrites the tick's evidence with the beliefs in place. It returns arrays
(Tracks): ``beliefs[day, tick, a]`` and the decoded
``locations[day, tick, a]``, agent column a in config order. fuse_run is its
filter half on a list of ObservationEvents, as BeliefMatrix views. Tick 0 is
update-only, prediction applies from tick 1.

The per-agent likelihood treats only reports naming the agent as evidence
(beliefs are independent across agents): per sensor, at most one true
detection plus Poisson clutter (LikelihoodModel), so the filter's
predict-only fallback and decoding's leak retry serve only evidence that no
model explains, such as a hand-edited events.jsonl.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import WorldConfig
from .decoding import decode_agents
from .errors import ValidationError
from .sensors import EventColumns, ObservationEvent, SensorSpec, false_positive_share
from .world import FloorPlan

log = logging.getLogger("officelab.fusion")

BELIEF_FLOOR = 1e-12
EVIDENCE_CHUNK = 2048  # report groups per chunk; bounds the gathered (groups, n) factor rows of its passes
# Minimum weight of the uniform self+neighbors component in the default
# kernel: keeps every physically possible move (planning-tick stays, detours,
# walks to schedule targets) at positive probability even when the config has
# fluctuation_rate = 0.
KERNEL_SUPPORT_FLOOR = 0.01


@dataclass(frozen=True)
class MotionModel:
    """Per-agent location transition kernels (rows sum to 1, support self+adjacent)."""

    agents: tuple[int, ...]
    kernels: np.ndarray  # (agents, n, n), stacked in the order of ``agents``

    def kernel(self, agent: int) -> np.ndarray:
        return self.kernels[self.agents.index(agent)]


def motion_model_for(config: WorldConfig) -> MotionModel:
    """Location-level Markovization of the simulator dynamics.

    From an idle tick at x the agent keeps mass stay(x) in place and sends
    the rest one hop toward each destination; a uniform slice over self plus
    neighbors (the detour rate, floored at KERNEL_SUPPORT_FLOOR) covers
    fluctuations, planning delays, and off-distribution targets, so every
    physically possible move keeps positive probability. Transit memory is
    deliberately folded away; this is the tracker's prior, not the truth.
    """
    plan = config.floor_plan
    detour = np.zeros((plan.n, plan.n))
    for x in plan.locations:
        support = [x, *plan.neighbors[x]]
        detour[x, support] = 1.0 / len(support)
    mix = max(config.fluctuation_rate, KERNEL_SUPPORT_FLOOR)
    kernels = []
    for profile in config.agents:
        K = np.zeros((plan.n, plan.n))
        for x in plan.locations:
            s = profile.stay_at(x, plan)
            K[x, x] += s
            move = 1.0 - s
            for d, p in sorted(profile.destinations.items()):
                K[x, plan.next_hop[x, d]] += move * p
        kernels.append((1.0 - mix) * K + mix * detour)
    return MotionModel(tuple(a.id for a in config.agents), np.reshape(kernels, (-1, plan.n, plan.n)))


def _integers(values: Sequence, name: str) -> np.ndarray:
    column = np.array(values)
    if column.size and column.dtype.kind not in "iu":
        raise ValidationError(f"events carry a {name} that is not an integer ({column.dtype} column)")
    return column.astype(np.int64)


def agent_columns(
    agent: np.ndarray, day: np.ndarray, tick: np.ndarray, loc: np.ndarray, agents: Sequence[int], days: int,
    ticks: int, n: int
) -> np.ndarray | None:
    """Each row's agent column, the index of its ``agent`` in ``agents``, if every row names one of ``agents`` at
    day 0..days-1, tick 0..ticks-1 and location 0..n-1; else None."""
    ids = np.array(agents, dtype=np.int64)
    if not ids.size:  # searchsorted needs an id to land on
        return None if agent.size else agent
    by_id = np.argsort(ids)
    col = by_id[np.searchsorted(ids, agent, sorter=by_id).clip(max=ids.size - 1)]
    off = (ids[col] != agent) | (day < 0) | (day >= days) | (tick < 0) | (tick >= ticks) | (loc < 0) | (loc >= n)
    return None if np.any(off) else col


def _checked_columns(
    events: Iterable[ObservationEvent], sensors: Sequence[str], agents: Sequence[int], days: int, ticks: int, n: int
) -> EventColumns:
    """The events as integer columns, sensors and agents as their index in ``sensors`` and ``agents``; an event
    naming a day, agent, tick, sensor or location outside the arguments raises ValidationError naming the first."""
    names, *numbers = list(zip(*events)) or [()] * 5
    day, tick, agent, loc = map(_integers, numbers, ("day", "tick", "reported_agent", "location"))
    index = {s: i for i, s in enumerate(sensors)}
    idx = np.array([index.get(s, -1) for s in names], dtype=np.int64)
    col = agent_columns(agent, day, tick, loc, agents, days, ticks, n)
    if col is not None and np.all(idx >= 0):
        return EventColumns(idx, day, tick, col, loc)
    bad = np.flatnonzero((day < 0) | (day >= days))
    if bad.size:
        raise ValidationError(f"events name day {day[bad[0]]}; the config has days 0..{days - 1}")
    bad = np.flatnonzero(~np.isin(agent, agents) | (tick < 0) | (tick >= ticks))
    if bad.size:
        k = bad[0]
        raise ValidationError(f"events name agent {agent[k]} at tick {tick[k]}; the config has {list(agents)}")
    bad = np.flatnonzero(idx < 0)
    if bad.size:
        raise ValidationError(f"events name sensor {names[bad[0]]!r}, which the config does not define")
    raise ValidationError(f"events name location {loc[(loc < 0) | (loc >= n)][0]}; the floor plan has 0..{n - 1}")


class LikelihoodModel:
    """Evidence likelihoods over locations, one row per agent-tick.

    Per sensor, the reports naming the agent are at most one true detection,
    rate p_detect*(1-p_confuse) at the agent's location, plus Poisson clutter
    (Bar-Shalom, Willett & Tian, "Tracking and Data Fusion", 2011) of
    intensity q/(|coverage|*(1-q)) on the coverage, the odds of one false
    positive naming the agent there (q = p_false_positive/n_agents). A row is
    the product of all silence terms times, per reporting sensor, its report
    factor over its silence term. A zero silence term (certain detection)
    stays out of that product and applies only where it was silent.
    """

    def __init__(self, sensors: Sequence[SensorSpec], plan: FloorPlan, n_agents: int):
        self.plan = plan
        self._sensor_ids = [s.id for s in sensors]
        n = plan.n
        mask = np.zeros((len(sensors), n))
        for i, s in enumerate(sensors):
            mask[i, list(s.coverage)] = 1.0
        p_detect = np.array([s.p_detect * (1.0 - s.p_confuse) for s in sensors]).reshape(-1, 1)
        self._d = p_detect * mask  # (sensors, n) true-detection rate
        q = np.array([false_positive_share(s, n_agents) for s in sensors])
        coverage = np.array([len(s.coverage) for s in sensors]).reshape(-1, 1)
        self._fp_at = mask * (q[:, None] / coverage)  # (sensors, n) density of the false positive
        silent = (1.0 - self._d) * (1.0 - q[:, None])
        certain = silent == 0.0
        self._certain_ids = np.flatnonzero(certain.any(axis=1))  # sensors whose silence is impossible somewhere
        self._certain_at = certain[self._certain_ids]
        silent[certain] = 1.0
        self._silent = silent  # (sensors, n) no-report likelihood, with zeros set to 1
        self._silent_product = np.prod(silent, axis=0)
        self._miss = 1.0 - self._d  # (sensors, n)
        self._hit = self._d * (1.0 - q)[:, None]  # (sensors, n) true report at the agent's location
        self._clutter = self._fp_at / (1.0 - q[:, None])  # (sensors, n) clutter intensity

    def _groups(self, columns: EventColumns, ticks: int, n_agents: int):
        """Reports grouped by (day, tick, agent, sensor) in one sort keyed by the multiplication order.

        Returns per group its flat (day, tick, agent) cell and its sensor, the
        groups ordered by cell and then by the position of their first event;
        the report locations, group after group, each group's in event order
        (the sort is stable); and ``edges``: group g's reports are
        ``loc[edges[g]:edges[g + 1]]``.
        """
        idx, day, tick, col, loc = columns
        cell = (day * ticks + tick) * n_agents + col
        key = cell * len(self._silent) + idx  # one key per (cell, sensor)
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        order = np.lexsort((first[group], cell))
        edges = np.append(np.flatnonzero(np.diff(group[order], prepend=-1)), order.size)
        lead = order[edges[:-1]]
        return cell[lead], idx[lead], loc[order], edges

    def _factors(self, sensor: np.ndarray, first: np.ndarray, loc: np.ndarray) -> np.ndarray:
        """(groups, n) factors over silence; group g holds loc[first[g]:first[g + 1]], the last group to the end:
        [miss(x)·fp_at(y_1)·L_1 + Σ_r [x = y_r]·hit(y_r)·L_r] / silent(x), L_r the other reports' clutter product."""
        size = np.diff(first, append=loc.size)
        of = np.repeat(np.arange(sensor.size), size)  # each report's group
        clutter = self._clutter[sensor[of], loc]
        zero = clutter == 0.0
        clutter[zero] = 1.0
        # L_r: the group's product over its nonzero intensities without report r's, and 0 if another is 0
        others = np.repeat(np.multiply.reduceat(clutter, first), size) / clutter
        others[np.repeat(np.add.reduceat(zero, first, dtype=np.int64), size) > zero] = 0.0
        f = self._miss[sensor] * (self._fp_at[sensor, loc[first]] * others[first])[:, None]
        np.add.at(f, (of, loc), self._hit[sensor[of], loc] * others)
        f /= self._silent[sensor]
        return f

    def evidence_into(self, columns: EventColumns, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, a C-contiguous (days, ticks, agents, locations) float array, with the run's likelihoods
        and return it.

        ``columns`` comes from ``_checked_columns`` with the model's sensors
        and ``out``'s days, ticks and agents. Each report group's factor over
        silence multiplies its agent-tick row, the sensors of a row in order
        of first appearance in the events; an agent-tick no event names is
        silence. The groups come sorted by row, EVIDENCE_CHUNK at a time;
        pass r of a chunk multiplies in the r-th group of each of its rows
        with one fancy-indexed product (no row twice), so the chunks and
        passes in order give every row its factors in that order.
        """
        _, ticks, n_agents, n = out.shape
        rows = np.reshape(out, (-1, n), copy=False)
        rows[:] = self._silent_product
        cell, sensor, loc, edges = self._groups(columns, ticks, n_agents)
        for c in range(0, cell.size, EVIDENCE_CHUNK):
            e = min(c + EVIDENCE_CHUNK, cell.size)
            at, f = cell[c:e], self._factors(sensor[c:e], edges[c:e] - edges[c], loc[edges[c] : edges[e]])
            rank = np.arange(at.size) - np.searchsorted(at, at)  # each group's place among its cell's in the chunk
            for r in range(int(rank.max()) + 1):
                g = rank == r  # no cell twice, so one fancy-indexed multiply applies them all
                rows[at[g]] *= f[g]
        for i, certain in zip(self._certain_ids, self._certain_at):
            silent = np.ones(len(rows), dtype=bool)
            silent[cell[sensor == i]] = False
            rows[np.ix_(silent, certain)] = 0.0
        return out

    def tick_likelihood(self, reports: dict[str, list[int]]) -> np.ndarray:
        """One agent-tick's likelihood; ``reports`` maps sensor id -> report locations ({} = silence)."""
        events = [ObservationEvent(s, 0, 0, 0, y) for s, locs in reports.items() for y in locs]
        columns = _checked_columns(events, self._sensor_ids, (0,), 1, 1, self.plan.n)
        return self.evidence_into(columns, np.empty((1, 1, 1, self.plan.n)))[0, 0, 0]


def likelihood_of_events(
    events: Iterable[ObservationEvent], agent: int, sensors: Sequence[SensorSpec], plan: FloorPlan, n_agents: int
) -> np.ndarray:
    """Per-location evidence weights for one agent from one tick's events.

    Every event is checked (_checked_columns) at its own day and tick, which
    must be integers from 0, against the sensors and the plan; any agent id
    may report.
    """
    events = list(events)
    ticks = {(ev.day, ev.tick) for ev in events}
    if len(ticks) > 1:
        raise ValidationError(f"events span several ticks: {sorted(ticks)}")
    agents = sorted({*_integers([ev.reported_agent for ev in events], "reported_agent").tolist(), agent})
    # the bounds admit the events' own (day, tick) last; _checked_columns names one that is not an integer
    bounds = [x + 1 if isinstance(x, (int, np.integer)) else 1 for x in next(iter(ticks), (0, 0))]
    columns = _checked_columns(events, [s.id for s in sensors], agents, *bounds, plan.n)
    zero = np.zeros_like(columns.day)  # the one tick, as evidence_into's only (day, tick)
    rows = np.empty((1, 1, len(agents), plan.n))
    model = LikelihoodModel(sensors, plan, n_agents)
    return model.evidence_into(columns._replace(day=zero, tick=zero), rows)[0, 0, agents.index(agent)]


def event_columns(events: Iterable[ObservationEvent], config: WorldConfig) -> EventColumns:
    """The events as the tracker's column table for ``config``, checked against its sensors, plan, days, ticks
    and agents (_checked_columns)."""
    sensors, agents = [s.id for s in config.sensors], [a.id for a in config.agents]
    return _checked_columns(events, sensors, agents, config.days, config.ticks_per_day, config.floor_plan.n)


@dataclass(frozen=True)
class BeliefMatrix:
    """One tick's agent-by-location probability table (rows sum to 1)."""

    day: int
    tick: int
    agents: tuple[int, ...]
    probs: np.ndarray  # shape (n_agents, n_locations)
    predict_only: int = 0  # rows left at their prediction by degenerate evidence


@dataclass(frozen=True)
class Tracks:
    """One track_run pass; agent column a in config agent order. A half switched off leaves its arrays None."""

    beliefs: np.ndarray | None  # (days, ticks, agents, n) filtered distributions over locations (fuse)
    predict_only: np.ndarray | None  # (days, ticks) rows left at their prediction by degenerate evidence (fuse)
    paths: np.ndarray | None  # locations[day, tick, a] of the decoded paths (decode)
    scores: np.ndarray | None  # (days, agents) log scores of the decoded paths (decode)
    retries: int  # agent-days that needed the Viterbi leak retry


def _filter_in_place(start: np.ndarray, motion: MotionModel, buffer: np.ndarray) -> np.ndarray:
    """Forward-filter every day of ``buffer``'s (days, ticks, agents, n) evidence at once, each day from ``start``,
    overwriting each tick's evidence with its beliefs; returns predict_only (days, ticks).

    Degenerate evidence (all posterior products zero) falls back to the
    predicted belief for that row and tick and is logged;
    ``predict_only[day, tick]`` counts the rows that did so.
    """
    days, ticks = buffer.shape[:2]
    predict_only = np.empty((days, ticks), dtype=np.int64)
    rows = np.broadcast_to(start, buffer[:, 0].shape)
    for tick in range(ticks):
        if tick > 0:
            rows = (rows[:, :, None, :] @ motion.kernels)[:, :, 0]
        post = rows * buffer[:, tick]  # the tick's evidence, read before its beliefs overwrite it
        total = post.sum(axis=2)
        dead = total <= 0.0
        stuck = np.nonzero(dead)
        for day, i in zip(*stuck):
            log.debug("degenerate evidence for agent %d at day %d tick %d; predict-only", motion.agents[i], day, tick)
        post[stuck], total[stuck] = rows[stuck], 1.0
        floored = np.maximum(post / total[:, :, None], BELIEF_FLOOR)
        rows = np.divide(floored, floored.sum(axis=2, keepdims=True), out=buffer[:, tick])
        predict_only[:, tick] = dead.sum(axis=1)
    return predict_only


def track_run(
    columns: EventColumns,
    config: WorldConfig,
    motion: MotionModel | None = None,
    fuse: bool = True,
    decode: bool = True,
) -> Tracks:
    """Filtered beliefs (``fuse``) and decoded paths (``decode``) for every configured day.

    ``columns`` is event_columns' table for ``config``. The run's evidence
    fills one (days, ticks, agents, n) buffer once and serves both halves:
    the decoder reads it first, then the filter overwrites it with the
    beliefs, so a run allocates that buffer once whichever halves it runs,
    and a half switched off allocates none of its own arrays. The motion
    model is built from ``config`` unless given; rows follow the config's
    agent order, which a given ``motion`` must share. Every agent starts
    each day as a point mass at home.
    """
    motion = motion or motion_model_for(config)
    agents = tuple(a.id for a in config.agents)
    if motion.agents != agents:
        raise ValidationError(f"motion model covers agents {list(motion.agents)}; the config has {list(agents)}")
    days, ticks, n = config.days, config.ticks_per_day, config.floor_plan.n
    model = LikelihoodModel(config.sensors, config.floor_plan, n_agents=len(agents))
    start = np.zeros((len(agents), n))
    start[np.arange(len(agents)), [a.home for a in config.agents]] = 1.0
    buffer = model.evidence_into(columns, np.empty((days, ticks, len(agents), n)))
    # the decoder goes first: the filter overwrites the evidence
    paths, scores, retries = decode_agents(start, motion.kernels, buffer, agents) if decode else (None, None, 0)
    predict_only = _filter_in_place(start, motion, buffer) if fuse else None
    return Tracks(buffer if fuse else None, predict_only, paths, scores, retries)


def fuse_run(
    events: Iterable[ObservationEvent],
    config: WorldConfig,
    motion: MotionModel | None = None,
) -> list[BeliefMatrix]:
    """Filtered beliefs for every (day, tick) of the configured run, days then ticks in order: track_run without
    decoding, each matrix a view into its beliefs array."""
    tracks = track_run(event_columns(events, config), config, motion, decode=False)
    agents = tuple(a.id for a in config.agents)
    return [
        BeliefMatrix(day, tick, agents, probs, int(tracks.predict_only[day, tick]))
        for day, table in enumerate(tracks.beliefs)
        for tick, probs in enumerate(table)
    ]
