"""Agent-based movement simulation over the office floor plan.

Each tick an idle agent stays put with probability
min(1, stay_prob + co_present * delta_p), or picks a destination (an active
schedule event preempts the destination distribution); planning costs the
tick. A walking agent moves one hop along the floor plan's route table toward
its destination, or with probability ``fluctuation_rate`` detours to a
uniform random neighbor and keeps the same destination. The agent state is
(location, destination), the same chain the stationary oracle iterates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .config import WorldConfig
from .rng import SIMULATE, substream
from .world import AgentProfile, FloorPlan


@dataclass
class AgentState:
    agent: int
    location: int
    destination: int | None = None  # None while idle
    rng_stream: np.random.Generator | None = None


@dataclass(frozen=True)
class TrajectoryRecord:
    agent: int
    day: int
    tick: int
    location: int


def _pick_destination(profile: AgentProfile, tick: int, day: int, rng: np.random.Generator) -> int:
    """Destination for an agent that has decided to move at this tick.

    The earliest-starting active schedule event wins (ties: lowest target id)
    and fires with its own probability; otherwise sample the destination
    distribution.
    """
    active = [ev for ev in profile.schedule if ev.active(tick, day)]
    if active:
        active.sort(key=lambda ev: (ev.window[0], ev.target))
        ev = active[0]
        if rng.random() < ev.probability:
            return ev.target
    locs, probs = profile.destination_arrays
    return int(locs[rng.choice(len(locs), p=probs)])


def step_agent(
    state: AgentState,
    profile: AgentProfile,
    plan: FloorPlan,
    co_present: int,
    tick: int,
    day: int = 0,
    fluctuation_rate: float = 0.05,
) -> AgentState:
    """Advance one agent by one tick; returns the new state.

    ``tick`` is the decision tick (used for schedule windows); the returned
    location is where the agent sits on the following tick.
    """
    rng = state.rng_stream
    if state.destination is not None:
        if fluctuation_rate > 0.0 and rng.random() < fluctuation_rate:
            ns = plan.neighbors[state.location]
            nxt = int(ns[rng.choice(len(ns))])
        else:
            nxt = plan.first_hop(state.location, state.destination)
        return replace(state, location=nxt, destination=None if nxt == state.destination else state.destination)

    stay = min(1.0, profile.stay_at(state.location, plan) + co_present * profile.delta_p)
    if stay >= 1.0 or rng.random() < stay:
        return state
    destination = _pick_destination(profile, tick, day, rng)
    return replace(state, destination=None if destination == state.location else destination)


def run_simulation(config: WorldConfig) -> list[TrajectoryRecord]:
    """Ground-truth trajectories: one record per (agent, day, tick).

    Deterministic given config.rng_seed; each agent draws from its own
    substream, and every day starts with all agents idle at home.
    """
    plan = config.floor_plan
    streams = [substream(config.rng_seed, SIMULATE, i) for i in range(len(config.agents))]
    records: list[TrajectoryRecord] = []
    for day in range(config.days):
        states = [
            AgentState(agent=p.id, location=p.home, rng_stream=streams[i])
            for i, p in enumerate(config.agents)
        ]
        for tick in range(config.ticks_per_day):
            for st in states:
                records.append(TrajectoryRecord(st.agent, day, tick, st.location))
            if tick == config.ticks_per_day - 1:
                continue
            occupancy = Counter(st.location for st in states)
            states = [
                step_agent(
                    st,
                    config.agents[i],
                    plan,
                    co_present=occupancy[st.location] - 1,
                    tick=tick,
                    day=day,
                    fluctuation_rate=config.fluctuation_rate,
                )
                for i, st in enumerate(states)
            ]
    return records
