"""Agent-based movement simulation over the office floor plan.

An agent's state is two integers, its location x and its destination d, the
(x, d) chain the stationary oracle iterates; it is idle exactly when d == x.
Each tick an idle agent stays put with probability
min(1, stay_prob + co_present * delta_p), or picks a destination (an active
schedule event preempts the destination distribution); planning costs the
tick, and picking its own location leaves it idle. A walking agent moves one
hop along the floor plan's route table toward its destination, or with
probability ``fluctuation_rate`` detours to a uniform random neighbor and
keeps the same destination; standing on the destination makes it idle.
Co-presence counts the other agents at x as the locations stood at the start
of the tick, before anyone moves. A run is one ``locations[day, tick, a]``
array, agent column a in config agent order, the one form of an agent-tick
table every later stage takes.
"""

from __future__ import annotations

import numpy as np

from .config import WorldConfig
from .rng import SIMULATE, substream
from .world import AgentProfile, FloorPlan


def _pick_destination(profile: AgentProfile, tick: int, day: int, rng: np.random.Generator) -> int:
    """Destination for an agent that has decided to move at this tick.

    The earliest-starting active schedule event wins (ties: lowest target id)
    and fires with its own probability; otherwise sample the destination
    distribution, drawing what rng.choice(k, p=p) over destination_arrays
    would, from the profile's cached cdf.
    """
    active = [ev for ev in profile.schedule if ev.active(tick, day)]
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

    ``tick`` is the decision tick (used for schedule windows); the returned
    location is where the agent sits on the following tick. ``rng`` may be
    None only when the step draws nothing (an idle agent whose stay
    probability reaches 1).
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


def run_simulation(config: WorldConfig) -> np.ndarray:
    """Ground-truth ``locations[day, tick, a]``: an int64 array of shape (days, ticks_per_day, agents), agent
    column a in config agent order.

    Deterministic given config.rng_seed; each agent draws from its own
    substream, and every day starts with all agents idle at home.
    """
    plan = config.floor_plan
    agents = config.agents
    streams = [substream(config.rng_seed, SIMULATE, i) for i in range(len(agents))]
    locations = np.empty((config.days, config.ticks_per_day, len(agents)), dtype=np.int64)
    for day in range(config.days):
        here = [p.home for p in agents]
        going = list(here)
        rows = []
        for tick in range(config.ticks_per_day):
            rows.append(tuple(here))
            if tick == config.ticks_per_day - 1:
                break
            count = [0] * plan.n  # taken before anyone moves; agent i reads it at its own start location
            for x in here:
                count[x] += 1
            for i, p in enumerate(agents):
                here[i], going[i] = step_agent(
                    here[i], going[i], p, plan, count[here[i]] - 1, tick, streams[i], day, config.fluctuation_rate
                )
        locations[day] = rows
    return locations
