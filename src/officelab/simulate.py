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

Agent a draws from its own substream, ``substream(seed, SIMULATE, a)``, and
the trajectory pins rely on the order of its draws within a tick. A walking
agent draws ``random()`` for the detour when ``fluctuation_rate > 0``, then
``integers(0, degree)`` if it detours. An idle agent draws ``random()`` for
staying unless its stay probability reaches 1; if it moves, it draws
``random()`` for the first active schedule event (earliest start, then
lowest target), if it has one, and then, unless that event fired,
``random()`` against the destination cdf. The last tick of a day draws
nothing. The values are decoded from the substream's raw words
(``rng.WordDraws``); ``test_word_draws_equal_the_generator_draws`` holds
them equal to the Generator's own.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .config import WorldConfig
from .rng import SIMULATE, WordDraws, substream


def run_simulation(config: WorldConfig) -> np.ndarray:
    """Ground-truth ``locations[day, tick, a]``: an int64 array of shape (days, ticks_per_day, agents), agent
    column a in config agent order.

    Deterministic given config.rng_seed; each agent draws from its own
    substream, and every day starts with all agents idle at home.
    """
    plan = config.floor_plan
    agents = config.agents
    n_agents, ticks, fluctuation = len(agents), config.ticks_per_day, config.fluctuation_rate
    draws = [WordDraws(substream(config.rng_seed, SIMULATE, i)) for i in range(n_agents)]
    stay = [[p.stay_at(x, plan) for x in range(plan.n)] for p in agents]
    delta_p = [p.delta_p for p in agents]
    sticky = n_agents > 1 and any(delta_p)  # alone, or with no delta_p, co-presence moves no stay probability
    hop = plan.next_hop.tolist()
    neighbors = [plan.neighbors[x] for x in range(plan.n)]
    schedules = [sorted(p.schedule, key=lambda ev: (ev.window[0], ev.target)) for p in agents]
    choices: list = [None] * n_agents  # (locations, cdf) of each agent's destinations, read at its first pick
    flat: list[int] = []
    for day in range(config.days):
        events = [
            [(ev.window[0], ev.window[1], ev.probability, ev.target) for ev in s if ev.days is None or day in ev.days]
            for s in schedules
        ]
        here = [p.home for p in agents]
        going = list(here)
        count = [0] * plan.n
        for x in here:
            count[x] += 1
        for tick in range(ticks):
            flat += here
            if tick == ticks - 1:
                break
            for i in range(n_agents):
                x = here[i]
                d = going[i]
                if d != x:
                    if fluctuation > 0.0 and draws[i].random() < fluctuation:
                        ns = neighbors[x]
                        here[i] = ns[draws[i].integers(len(ns))]
                    else:
                        here[i] = hop[x][d]
                    continue
                s = stay[i][x]
                if sticky:
                    s += (count[x] - 1) * delta_p[i]
                if s >= 1.0 or draws[i].random() < s:
                    continue
                target = None
                for start, end, probability, event_target in events[i]:  # the earliest-starting active one decides
                    if start <= tick < end:
                        if draws[i].random() < probability:
                            target = event_target
                        break
                if target is None:
                    if choices[i] is None:
                        choices[i] = (agents[i].destination_arrays[0].tolist(), agents[i].destination_cdf.tolist())
                    locations, cdf = choices[i]
                    target = locations[bisect_right(cdf, draws[i].random())]  # Generator.choice(k, p=p)'s pick
                going[i] = target
            if sticky:  # the next tick's counts, from this tick's moves
                for x, y in zip(flat[-n_agents:], here):
                    if x != y:
                        count[x] -= 1
                        count[y] += 1
    return np.array(flat, dtype=np.int64).reshape(config.days, ticks, n_agents)
