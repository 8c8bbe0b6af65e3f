"""Bayesian location tracking: stacked predict/update over one evidence block per day.

Beliefs are per-agent categorical distributions over location bins. Each
day's sensor reports become one (ticks, agents, locations) evidence block;
all agents then advance together, each through its own motion kernel
(predict), reweighted by its row of the block (update). Decoding reads the
same block. Each day starts from a point mass at the agent's home; tick 0 is
update-only, prediction applies from tick 1.

The per-agent likelihood treats only reports naming the agent as evidence
and explains them as true detections or false positives; reports produced by
confusing some other agent are not modeled (beliefs are independent across
agents), which is exactly the mismatch the belief floor absorbs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import WorldConfig
from .errors import DegenerateEvidenceError, ValidationError
from .sensors import ObservationEvent, SensorSpec
from .world import FloorPlan

log = logging.getLogger("officelab.fusion")

BELIEF_FLOOR = 1e-12
# One day of reports: (tick, reported agent) -> sensor id -> report locations.
DayReports = dict[tuple[int, int], dict[str, list[int]]]
# Minimum weight of the uniform self+neighbors component in the default
# kernel: keeps every physically possible move (planning-tick stays, detours,
# walks to schedule targets) at positive probability even when the config has
# fluctuation_rate = 0.
KERNEL_SUPPORT_FLOOR = 0.01


@dataclass(frozen=True)
class MotionModel:
    """Per-agent location transition kernels (rows sum to 1, support self+adjacent)."""

    kernels: dict[int, np.ndarray]

    def kernel(self, agent: int) -> np.ndarray:
        return self.kernels[agent]

    def validate(self, plan: FloorPlan) -> None:
        for agent, K in self.kernels.items():
            if K.shape != (plan.n, plan.n):
                raise ValidationError(f"kernel of agent {agent} has shape {K.shape}")
            if np.abs(K.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValidationError(f"kernel rows of agent {agent} do not sum to 1")
            for x in plan.locations:
                allowed = {x, *plan.neighbors[x]}
                support = np.nonzero(K[x] > 0)[0]
                if not set(int(j) for j in support) <= allowed:
                    raise ValidationError(f"kernel of agent {agent} leaves adjacency at {x}")


def _uniform_adjacent_rows(plan: FloorPlan) -> np.ndarray:
    U = np.zeros((plan.n, plan.n))
    for x in plan.locations:
        support = [x, *plan.neighbors[x]]
        U[x, support] = 1.0 / len(support)
    return U


def simulator_motion_model(config: WorldConfig) -> MotionModel:
    """Location-level Markovization of the simulator dynamics.

    From an idle tick at x the agent keeps mass stay(x) in place and sends
    the rest one hop toward each destination; a uniform slice over self plus
    neighbors (the detour rate, floored at KERNEL_SUPPORT_FLOOR) covers
    fluctuations, planning delays, and off-distribution targets, so every
    physically possible move keeps positive probability. Transit memory is
    deliberately folded away; this is the tracker's prior, not the truth.
    """
    plan = config.floor_plan
    detour = _uniform_adjacent_rows(plan)
    mix = max(config.fluctuation_rate, KERNEL_SUPPORT_FLOOR)
    kernels = {}
    for profile in config.agents:
        K = np.zeros((plan.n, plan.n))
        for x in plan.locations:
            s = profile.stay_at(x, plan)
            K[x, x] += s
            move = 1.0 - s
            for d, p in sorted(profile.destinations.items()):
                K[x, plan.next_hop[x, d]] += move * p
        kernels[profile.id] = (1.0 - mix) * K + mix * detour
    return MotionModel(kernels)


def uniform_adjacent_motion_model(plan: FloorPlan, agent_ids: Iterable[int]) -> MotionModel:
    """Mismatched-model mode: uniform over self plus neighbors, same for all."""
    U = _uniform_adjacent_rows(plan)
    return MotionModel({a: U for a in agent_ids})


def motion_model_for(config: WorldConfig) -> MotionModel:
    if config.motion_model == "uniform_adjacent":
        return uniform_adjacent_motion_model(config.floor_plan, [a.id for a in config.agents])
    return simulator_motion_model(config)


def predict(belief_row: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Diffuse a belief through the motion kernel: b'[j] = sum_i b[i] K[i,j]."""
    return belief_row @ kernel


def update(belief_row: np.ndarray, likelihood: np.ndarray) -> np.ndarray:
    """Bayes reweighting; raises DegenerateEvidenceError if all products vanish."""
    post = belief_row * likelihood
    total = post.sum()
    if total <= 0.0:
        raise DegenerateEvidenceError("likelihood contradicts the belief's support")
    return post / total


class LikelihoodModel:
    """Evidence likelihoods over locations, one row per agent-tick.

    For each sensor the report pattern (locations of reports naming the
    agent) is explained by: true detection with rate p_detect*(1-p_confuse)
    at the agent's location, plus at most one false positive naming the
    agent with rate p_false_positive/n_agents, uniform over the coverage.
    A row is the product of all silence terms times, per reporting sensor,
    its report factor over its silence term. A zero silence term (certain
    detection) stays out of that product and applies only where it was silent.
    """

    def __init__(self, sensors: Sequence[SensorSpec], plan: FloorPlan, n_agents: int | None = None):
        self.plan = plan
        self._index = {s.id: i for i, s in enumerate(sensors)}
        n = plan.n
        self._params = []  # per sensor: (n,) true-detection rate, false-positive rate, (n,) its density
        self._silent = []  # (n,) no-report likelihood, with zeros set to 1
        self._certain = {}  # sensor index -> (n,) mask where silence is impossible
        for i, s in enumerate(sensors):
            mask = np.zeros(n)
            mask[list(s.coverage)] = 1.0
            d = s.p_detect * (1.0 - s.p_confuse) * mask
            q = s.p_false_positive / n_agents if n_agents else s.p_false_positive
            silent = (1.0 - d) * (1.0 - q)
            if not silent.all():
                self._certain[i] = silent == 0.0
                silent[self._certain[i]] = 1.0
            self._params.append((d, q, mask * (q / len(s.coverage))))
            self._silent.append(silent)
        self._silent_product = np.prod(np.stack(self._silent), axis=0) if sensors else np.ones(n)

    def _sensor_factor(self, idx: int, report_locs: list[int]) -> np.ndarray:
        d, q, fp_at = self._params[idx]
        if len(report_locs) == 1:
            y = report_locs[0]
            f = (1.0 - d) * fp_at[y]
            f[y] += d[y] * (1.0 - q)
            return f
        if len(report_locs) == 2:
            f = np.zeros_like(d)
            for y in set(report_locs):
                f[y] = d[y] * fp_at[report_locs[0] if report_locs[1] == y else report_locs[1]]
            return f
        # three or more reports naming one agent cannot come from one sensor
        # under this model (one true + one false positive at most)
        return np.zeros_like(d)

    def day_evidence(self, reports: DayReports, ticks: int, agents: Sequence[int]) -> np.ndarray:
        """(ticks, agents, locations) likelihoods for one day; a key absent from ``reports`` is silence."""
        column = {a: i for i, a in enumerate(agents)}
        block = np.tile(self._silent_product, (ticks, len(agents), 1))
        silent_at = {idx: np.ones((ticks, len(agents)), dtype=bool) for idx in self._certain}
        for (tick, agent), by_sensor in reports.items():
            if agent not in column or not 0 <= tick < ticks:
                raise ValidationError(f"events name agent {agent} at tick {tick}; the config has {list(agents)}")
            row = block[tick, column[agent]]
            for sensor_id, locs in by_sensor.items():
                if sensor_id not in self._index:
                    raise ValidationError(f"events name sensor {sensor_id!r}, which the config does not define")
                idx = self._index[sensor_id]
                row *= self._sensor_factor(idx, locs) / self._silent[idx]
                if idx in silent_at:
                    silent_at[idx][tick, column[agent]] = False
        for idx, silent in silent_at.items():
            block[silent[:, :, None] & self._certain[idx]] = 0.0
        return block

    def tick_likelihood(self, reports: dict[str, list[int]]) -> np.ndarray:
        """One agent-tick's likelihood; ``reports`` maps sensor id -> report locations ({} = silence)."""
        return self.day_evidence({(0, 0): reports}, 1, (0,))[0, 0]


def group_reports(events: Iterable[ObservationEvent], days: int) -> list[DayReports]:
    """Events as one DayReports per day 0..days-1, each list in event order.

    An event dated outside the run raises ValidationError naming its day.
    """
    grouped: list[DayReports] = [{} for _ in range(days)]
    for ev in events:
        if not 0 <= ev.day < days:
            raise ValidationError(f"events name day {ev.day}; the config has days 0..{days - 1}")
        grouped[ev.day].setdefault((ev.tick, ev.reported_agent), {}).setdefault(ev.sensor, []).append(ev.location)
    return grouped


def likelihood_of_events(
    events: Iterable[ObservationEvent],
    agent: int,
    sensors: Sequence[SensorSpec],
    plan: FloorPlan,
    n_agents: int | None = None,
) -> np.ndarray:
    """Per-location evidence weights for one agent from one tick's events."""
    events = list(events)
    ticks = {(ev.day, ev.tick) for ev in events}
    if len(ticks) > 1:
        raise ValidationError(f"events span several ticks: {sorted(ticks)}")
    reports: dict[str, list[int]] = {}
    for ev in events:
        if ev.reported_agent == agent:
            reports.setdefault(ev.sensor, []).append(ev.location)
    return LikelihoodModel(sensors, plan, n_agents=n_agents).tick_likelihood(reports)


@dataclass(frozen=True)
class BeliefMatrix:
    """One tick's agent-by-location probability table (rows sum to 1)."""

    day: int
    tick: int
    agents: tuple[int, ...]
    probs: np.ndarray  # shape (n_agents, n_locations)
    predict_only: int = 0  # rows left at their prediction by degenerate evidence


def fuse_run(
    events: Iterable[ObservationEvent],
    config: WorldConfig,
    motion: MotionModel | None = None,
) -> list[BeliefMatrix]:
    """Filtered beliefs for every (day, tick) of the configured run.

    Degenerate evidence (all posterior products zero) falls back to the
    predicted belief for that tick and is logged.
    """
    plan = config.floor_plan
    motion = motion or motion_model_for(config)
    agent_ids = tuple(a.id for a in config.agents)
    model = LikelihoodModel(config.sensors, plan, n_agents=len(agent_ids))
    kernels = np.array([motion.kernel(a) for a in agent_ids]).reshape(-1, plan.n, plan.n)

    out: list[BeliefMatrix] = []
    for day, reports in enumerate(group_reports(events, config.days)):
        evidence = model.day_evidence(reports, config.ticks_per_day, agent_ids)
        rows = np.zeros((len(agent_ids), plan.n))
        rows[np.arange(len(agent_ids)), [a.home for a in config.agents]] = 1.0
        for tick in range(config.ticks_per_day):
            if tick > 0:
                rows = (rows[:, None, :] @ kernels)[:, 0]
            post = rows * evidence[tick]
            total = post.sum(axis=1)
            stuck = np.flatnonzero(total <= 0.0)
            for i in stuck:
                log.debug("degenerate evidence for agent %d at day %d tick %d; predict-only", agent_ids[i], day, tick)
            post[stuck], total[stuck] = rows[stuck], 1.0
            floored = np.maximum(post / total[:, None], BELIEF_FLOOR)
            rows = floored / floored.sum(axis=1, keepdims=True)
            out.append(BeliefMatrix(day=day, tick=tick, agents=agent_ids, probs=rows, predict_only=len(stuck)))
    return out


def argmax_paths(beliefs: Sequence[BeliefMatrix]) -> dict[int, dict[int, list[int]]]:
    """Per-tick most probable location per agent: agent -> day -> sequence."""
    paths: dict[int, dict[int, list[int]]] = {}
    for matrix in sorted(beliefs, key=lambda m: (m.day, m.tick)):
        for i, agent in enumerate(matrix.agents):
            paths.setdefault(agent, {}).setdefault(matrix.day, []).append(int(matrix.probs[i].argmax()))
    return paths
