from __future__ import annotations

import numpy as np
import pytest

from officelab.config import WorldConfig, parse_config
from officelab.decoding import DecodedPath, decode_agents
from officelab.sensors import ObservationEvent, generate_event_log
from officelab.simulate import run_simulation
from officelab.world import AgentProfile, FloorPlan, StayProbs


def line_plan(n: int, tags: dict[int, str] | None = None, home_of=None) -> FloorPlan:
    edges = frozenset((i, i + 1) for i in range(n - 1))
    return FloorPlan(tuple(range(n)), edges, tags or {}, home_of or {})


def uniform_agent(agent_id: int, home: int, n: int, stay: float = 0.5, delta_p: float = 0.0) -> AgentProfile:
    return AgentProfile(
        id=agent_id,
        home=home,
        stay_prob=StayProbs(default=stay),
        destinations={x: 1.0 / n for x in range(n)},
        delta_p=delta_p,
    )


def simulated_events(config: WorldConfig) -> list[ObservationEvent]:
    """The event log of ``config``'s simulated run."""
    return generate_event_log(run_simulation(config), [a.id for a in config.agents], config.sensors, config.rng_seed)


def decode_day(initial, kernel, evidence, agent: int, day: int) -> DecodedPath:
    """One agent-day's (ticks, n) evidence through decode_agents, the leak retry included."""
    paths, scores, _ = decode_agents(
        np.asarray(initial)[None], np.asarray(kernel)[None], np.asarray(evidence)[None, :, None], [agent]
    )
    return DecodedPath(agent=agent, day=day, path=tuple(paths[0, :, 0].tolist()), log_score=float(scores[0, 0]))


def minimal_config_doc() -> dict:
    return {
        "floor_plan": {
            "locations": [0, 1],
            "adjacency": [[0, 1]],
            "tags": {"0": "office", "1": "corridor"},
            "home_of": {"0": [0]},
        },
        "agents": [
            {
                "id": 0,
                "home": 0,
                "stay_prob": {"default": 0.5, "by_location": {"0": 0.9}},
                "destinations": {"0": 0.5, "1": 0.5},
                "delta_p": 0.0,
                "schedule": [],
            }
        ],
        "ticks_per_day": 10,
        "days": 1,
        "rng_seed": 123,
    }


@pytest.fixture
def minimal_config() -> WorldConfig:
    return parse_config(minimal_config_doc())
