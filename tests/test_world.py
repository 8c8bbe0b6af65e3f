from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.config import dump_config, load_config, parse_config
from officelab.errors import ParseError, ValidationError
from officelab.presets import demo_config, full_scale_config
from officelab.sensors import SENSOR_KINDS
from officelab.world import (
    AgentProfile,
    FloorPlan,
    TOL,
    StayProbs,
    _extended_kernel,
    stationary_distribution,
)

from conftest import line_plan, minimal_config_doc, uniform_agent

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- config loading ---------------------------------------------------------


def test_minimal_config_round_trips_stated_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config_doc()))
    cfg = load_config(path)
    assert cfg.floor_plan.locations == (0, 1)
    assert cfg.floor_plan.adjacency == frozenset({(0, 1)})
    assert cfg.agents[0].home == 0
    assert cfg.agents[0].destinations == {0: 0.5, 1: 0.5}
    assert cfg.ticks_per_day == 10
    assert cfg.days == 1
    assert cfg.rng_seed == 123


def test_unknown_adjacency_location_rejected():
    doc = minimal_config_doc()
    doc["floor_plan"]["adjacency"].append([0, 99])
    with pytest.raises(ValidationError, match="unknown location 99"):
        parse_config(doc)


def test_shipped_configs_match_their_preset_builders():
    # the same rendering scripts/gen_configs.py writes
    for name, doc in (("demo.json", demo_config(seed=42)), ("full_scale.json", full_scale_config(seed=7, days=5))):
        assert (CONFIGS / name).read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n", name


def test_full_scale_config_loads_with_50_locations():
    cfg = load_config(CONFIGS / "full_scale.json")
    assert cfg.floor_plan.n == 50
    assert len(cfg.sensors) == 120
    assert sum(1 for s in cfg.sensors if s.kind == "camera") == 30
    assert sum(1 for s in cfg.sensors if s.kind == "tag_reader") == 90


@pytest.mark.parametrize("ticks", [1, 2, 50, 150, 151, 300, 1000])
def test_full_scale_preset_loads_at_any_day_length(ticks):
    # the schedule windows, set for 300 ticks, scale to the day: each starts
    # inside it and stays at least one tick long
    cfg = parse_config(full_scale_config(seed=3, days=2, ticks_per_day=ticks))
    windows = [event.window for agent in cfg.agents for event in agent.schedule]
    assert len(windows) == 2 * len(cfg.agents)
    assert all(0 <= start < ticks and start < end for start, end in windows)
    if ticks == 300:
        assert set(windows) == {(60, 110), (150, 190)}


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    for data in (b"{not json", b'{"floor_plan": \xff}'):  # not JSON; not UTF-8
        path.write_bytes(data)
        with pytest.raises(ParseError, match="malformed config"):
            load_config(path)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d["floor_plan"]["adjacency"].append([1, 1]), "self-edge"),
        (lambda d: d["floor_plan"].update(locations=[0, 1, 5]), "dense"),
        (lambda d: d["floor_plan"]["tags"].update({"1": "ballroom"}), "unknown tag"),
        (lambda d: d["agents"][0].update(destinations={"0": 0.5, "1": 0.48}), "sum to 0.98"),
        (lambda d: d["agents"][0].update(destinations={}), "no destination"),
        (lambda d: d["agents"][0].update(delta_p=1.5), "delta_p"),
        (lambda d: d["agents"].append(dict(d["agents"][0])), "duplicate agent id"),
        (lambda d: d.update(ticks_per_day=0), "ticks_per_day"),
        (lambda d: d.update(days=0), "days"),
        (lambda d: d.update(ticks_per_day=1.5), "ticks_per_day must be an integer"),
        (lambda d: d.update(days=2.5), "days must be an integer"),
        (lambda d: d.update(rng_seed=-1), "rng_seed must be an integer >= 0"),
        (lambda d: d.update(rng_seed=1.5), "rng_seed must be an integer"),
        (lambda d: d.update(rng_seed="7"), "rng_seed must be an integer"),
        (lambda d: d["floor_plan"]["home_of"].update({"1": [7]}), "unknown agent 7"),
        (lambda d: d["agents"][0]["schedule"].append({"window": [5, 5], "target": 0, "probability": 1}), "start < end"),
        (lambda d: d["agents"][0]["stay_prob"].update(by_location={"0": 0.2}, default=0.5), "below the default"),
        (lambda d: d["agents"][0].pop("id"), "structurally invalid"),
        (
            lambda d: d.update(sensors=[{"id": "cam", "coverage": [1, 0, 1]}]),
            "sensor cam covers location 1 more than once",
        ),
        # contact_rule and analytics go through the same typed checks as the rest
        (
            lambda d: d.update(contact_rule={"officemate_exclusion": "false"}),
            "contact_rule.officemate_exclusion must be true or false, got 'false'",
        ),
        (
            lambda d: d.update(contact_rule={"min_consecutive_ticks": 2.7}),
            "contact_rule.min_consecutive_ticks must be an integer >= 1, got 2.7",
        ),
        (lambda d: d.update(analytics={"max_len": 4.9}), "analytics.max_len must be an integer >= 2, got 4.9"),
        (lambda d: d.update(analytics={"min_support": True}), "analytics.min_support must be an integer >= 1, got True"),
        (
            lambda d: d.update(analytics={"baseline_alpha": "nan"}),
            "analytics.baseline_alpha must be a finite number >= 0, got 'nan'",
        ),
        (
            lambda d: d.update(analytics={"day_alpha": float("nan")}),
            "analytics.day_alpha must be a finite number >= 0, got nan",
        ),
        (lambda d: d.update(analytics={"day_alpha": 10**400}), "analytics.day_alpha must be a finite number >= 0"),
        # integer fields take integers only: a float, a string or a bool is not truncated or parsed
        (lambda d: d["agents"][0].update(home=0.5), "home of agent 0 must be an integer, got 0.5"),
        (lambda d: d["agents"][0].update(id=0.9), "agent id must be an integer, got 0.9"),
        (lambda d: d["agents"][0].update(id=True), "agent id must be an integer, got True"),
        (
            lambda d: d.update(sensors=[{"id": "cam", "coverage": [0, 1.7]}]),
            "coverage entry of sensor cam must be an integer, got 1.7",
        ),
        (
            lambda d: d.update(sensors=[{"id": "cam", "coverage": ["1"]}]),
            "coverage entry of sensor cam must be an integer, got '1'",
        ),
        (lambda d: d.update(sensors=[{"id": "cam", "coverage": "01"}]), "coverage of sensor cam must be a list"),
        (lambda d: d["floor_plan"].update(locations=["0", "1"]), "floor_plan.locations entry must be an integer"),
        (lambda d: d["floor_plan"].update(adjacency=[[0, 1.0]]), "floor_plan.adjacency entry must be an integer"),
        (lambda d: d["floor_plan"]["home_of"].update({"0": [0.0]}), r"floor_plan.home_of\[0\] owner must be an integer"),
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [5, 40.5], "target": 0}),
            "schedule window bound of agent 0 must be an integer, got 40.5",
        ),
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [5, 8], "target": 0, "days": [1.5]}),
            "schedule days entry of agent 0 must be an integer, got 1.5",
        ),
        # a schedule event lies within the configured days and ticks (minimal_config_doc: 1 day of 10 ticks)
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [5, 8], "target": 0, "days": [-4, 99]}),
            r"schedule days entry -4 of agent 0 is outside 0\.\.0",
        ),
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [10, 12], "target": 0}),
            r"schedule window \(10, 12\) of agent 0 starts outside the day's ticks 0\.\.9",
        ),
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [5, 8], "target": "1"}),
            "schedule target of agent 0 must be an integer, got '1'",
        ),
        # location keys are integers in decimal form, so that no two keys name one location
        (
            lambda d: d["floor_plan"].update(tags={"0": "office", "+1": "corridor"}),
            r"floor_plan.tags has key '\+1', which is not an integer in decimal form",
        ),
        (lambda d: d["floor_plan"].update(tags={"x": "office"}), "floor_plan.tags has key 'x'"),
        (lambda d: d["floor_plan"].update(home_of={"00": [0]}), "floor_plan.home_of has key '00'"),
        (
            lambda d: d["agents"][0].update(destinations={"0": 0.5, " 1": 0.5}),
            "destinations of agent 0 has key ' 1'",
        ),
        (
            lambda d: d["agents"][0]["stay_prob"].update(by_location={"0_0": 0.9}),
            "stay_prob.by_location of agent 0 has key '0_0'",
        ),
        # string fields take strings only, and an adjacency entry is exactly a pair: nothing is coerced or dropped
        (lambda d: d.update(sensors=[{"id": 5, "coverage": [0]}]), "sensor id must be a string, got 5"),
        (lambda d: d["agents"][0].update(department=3), "department of agent 0 must be a string, got 3"),
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [5, 8], "target": 0, "label": [1]}),
            r"schedule label of agent 0 must be a string, got \[1\]",
        ),
        (
            lambda d: d["floor_plan"]["adjacency"].append([0, 1, 7]),
            r"floor_plan.adjacency entry must be a pair of locations, got \[0, 1, 7\]",
        ),
        (
            lambda d: d["floor_plan"]["adjacency"].append([1]),
            r"floor_plan.adjacency entry must be a pair of locations, got \[1\]",
        ),
        # every reference to a location, tag, kind or agent names one the config defines
        (lambda d: d["floor_plan"].update(locations=[]), "floor_plan.locations must be a nonempty list"),
        (lambda d: d["floor_plan"]["tags"].update({"5": "office"}), "tags references unknown location 5"),
        (lambda d: d["floor_plan"]["home_of"].update({"5": [0]}), "home_of references unknown location 5"),
        (lambda d: d["agents"][0].update(home=5), "home 5 of agent 0 is not a known location"),
        (
            lambda d: d["agents"][0]["stay_prob"].update(by_tag={"ballroom": 0.5}),
            "stay_prob of agent 0 names unknown tag 'ballroom'",
        ),
        (
            lambda d: d["agents"][0]["stay_prob"].update(by_location={"5": 0.9}),
            "stay_prob of agent 0 references unknown location 5",
        ),
        (
            lambda d: d["agents"][0].update(destinations={"0": 0.5, "5": 0.5}),
            "destinations of agent 0 reference unknown location 5",
        ),
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [-1, 3], "target": 0}),
            r"schedule window \(-1, 3\) of agent 0 has negative start",
        ),
        (
            lambda d: d["agents"][0]["schedule"].append({"window": [1, 3], "target": 5}),
            "schedule of agent 0 targets unknown location 5",
        ),
        (
            lambda d: d.update(sensors=[{"id": "cam", "kind": "radar", "coverage": [0]}]),
            "sensor cam has unknown kind 'radar'",
        ),
        (lambda d: d.update(sensors=[{"id": "cam", "coverage": []}]), "sensor cam has empty coverage"),
        (lambda d: d.update(sensors=[{"id": "cam", "coverage": [0, 5]}]), "sensor cam covers unknown location 5"),
        (lambda d: d.pop("days"), "config is missing required key 'days'"),
        (lambda d: d["floor_plan"].update(home_of={"1": [0]}), r"home_of\[1\] names agent 0 whose home is 0"),
        (
            lambda d: d.update(sensors=[{"id": "cam", "coverage": [0]}, {"id": "cam", "coverage": [1]}]),
            "duplicate sensor id 'cam'",
        ),
        (
            lambda d: d.update(contact_rule={"excluded_tags": ["ballroom"]}),
            "contact_rule excludes unknown tag 'ballroom'",
        ),
        (
            lambda d: d.update(analytics={"min_len": 4, "max_len": 3}),
            "analytics pattern lengths must satisfy 2 <= min_len <= max_len",
        ),
    ],
)
def test_invariant_violations_are_named(mutate, match):
    doc = minimal_config_doc()
    mutate(doc)
    with pytest.raises(ValidationError, match=match):
        parse_config(doc)


def test_a_config_document_that_is_not_an_object_is_named():
    with pytest.raises(ValidationError, match="config document must be a JSON object"):
        parse_config([minimal_config_doc()])


def test_disconnected_plan_rejected():
    doc = minimal_config_doc()
    doc["floor_plan"]["locations"] = [0, 1, 2]
    with pytest.raises(ValidationError, match="not connected"):
        parse_config(doc)


def test_agent_owning_two_homes_rejected():
    doc = minimal_config_doc()
    doc["floor_plan"]["home_of"] = {"0": [0], "1": [0]}
    with pytest.raises(ValidationError, match="more than one home"):
        parse_config(doc)


def test_accepted_config_reserializes_identically(tmp_path):
    for name in ("demo.json", "full_scale.json"):
        cfg = load_config(CONFIGS / name)
        assert parse_config(dump_config(cfg)) == cfg


@st.composite
def _optional_keys(draw, **values) -> dict:
    """An object holding each key of ``values`` or not, with a value drawn from its strategy."""
    return {key: draw(value) for key, value in values.items() if draw(st.booleans())}


@st.composite
def sensor_docs(draw, n: int) -> dict:
    """A sensor over some of locations 0..n-1, with an id that needs JSON escapes at times and any optional key
    left out at times."""
    doc = {
        "id": draw(st.text(st.sampled_from('ab"\\é☃ :'), min_size=1, max_size=6)),
        "coverage": draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)),
    }
    return doc | draw(
        _optional_keys(
            kind=st.sampled_from(SENSOR_KINDS),
            p_detect=st.floats(0.0, 1.0),
            p_false_positive=st.floats(0.0, 0.5),
            p_confuse=st.floats(0.0, 1.0),
        )
    )


@st.composite
def config_docs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    perm = draw(st.permutations(range(n)))
    edges = sorted({tuple(sorted((a, b))) for a, b in zip(perm, perm[1:])})
    n_agents = draw(st.integers(min_value=1, max_value=3))
    ticks_per_day = draw(st.integers(1, 50))  # drawn first: a schedule window starts within the day
    tag_pool = ["office", "meeting_room", "printer", "corridor", "lunch_area", "other"]
    tags = {str(x): tag_pool[draw(st.integers(0, 5))] for x in range(n) if draw(st.booleans())}
    agents = []
    homes: dict[int, list[int]] = {}
    for aid in range(n_agents):
        home = draw(st.integers(0, n - 1))
        weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        total = sum(weights)
        default = draw(st.floats(0.1, 0.7))
        if draw(st.booleans()):
            stay_prob = default  # the number shorthand for {"default": default}
        else:
            by_tag = draw(st.dictionaries(st.sampled_from(tag_pool), st.floats(0.0, 1.0), max_size=3))
            by_location = {str(home): draw(st.floats(default, 1.0))}
            stay_prob = {"default": default, "by_tag": by_tag, "by_location": by_location}
        schedule = []
        if draw(st.booleans()):
            start = draw(st.integers(0, ticks_per_day - 1))
            schedule.append(
                {
                    "window": [start, start + draw(st.integers(1, 5))],
                    "target": draw(st.integers(0, n - 1)),
                    "probability": draw(st.floats(0.0, 1.0)),
                    "label": "m",
                    "days": [0] if draw(st.booleans()) else None,
                }
            )
        agents.append(
            {
                "id": aid,
                "home": home,
                "department": draw(st.sampled_from(["Research", "Development", "other"])),
                "stay_prob": stay_prob,
                "destinations": {str(x): w / total for x, w in enumerate(weights)},
                "delta_p": draw(st.floats(0.0, 0.5)),
                "schedule": schedule,
            }
        )
        homes.setdefault(home, []).append(aid)
    return {
        "floor_plan": {
            "locations": list(range(n)),
            "adjacency": [list(e) for e in edges],
            "tags": tags,
            # a lone owner may be written bare, without its list
            "home_of": {
                str(loc): owners[0] if len(owners) == 1 and draw(st.booleans()) else owners
                for loc, owners in homes.items()
            },
        },
        "agents": agents,
        "ticks_per_day": ticks_per_day,
        "days": draw(st.integers(1, 4)),
        "rng_seed": draw(st.integers(0, 2**63 - 1)),
        "fluctuation_rate": draw(st.floats(0.0, 0.3)),
        "sensors": draw(st.lists(sensor_docs(n), max_size=3, unique_by=lambda s: s["id"])),
        "contact_rule": draw(
            _optional_keys(
                min_consecutive_ticks=st.integers(1, 20),
                excluded_tags=st.lists(st.sampled_from(tag_pool), max_size=3),  # empty as well
                officemate_exclusion=st.booleans(),
            )
        ),
        "analytics": draw(
            _optional_keys(
                baseline_alpha=st.floats(0.0, 10.0),
                day_alpha=st.floats(0.0, 10.0),
                min_support=st.integers(1, 5),
                min_len=st.integers(2, 5),  # at most the default max_len,
                max_len=st.integers(5, 8),  # at least the default min_len and any drawn one
            )
        ),
    }


@given(config_docs())
@settings(max_examples=100, deadline=None)
def test_random_accepted_configs_round_trip(doc):
    cfg = parse_config(doc)
    assert parse_config(dump_config(cfg)) == cfg


# --- shortest paths ---------------------------------------------------------


def _route(plan: FloorPlan, src: int, dst: int) -> list[int]:
    """The canonical path src -> dst, endpoints included, by walking plan.next_hop."""
    path = [src]
    while path[-1] != dst:
        assert len(path) < plan.n, f"route {path} from {src} does not reach {dst}"
        path.append(int(plan.next_hop[path[-1], dst]))
    return path


def test_line_graph_unique_path():
    assert _route(line_plan(3), 0, 2) == [0, 1, 2]


def test_identity_path():
    assert _route(line_plan(3), 1, 1) == [1]


def _all_shortest_paths(plan: FloorPlan, src: int, dst: int) -> list[list[int]]:
    """Breadth-first enumeration of every minimum-hop path."""
    frontier = [[src]]
    while frontier:
        done = [p for p in frontier if p[-1] == dst]
        if done:
            return done
        frontier = [p + [y] for p in frontier for y in plan.neighbors[p[-1]] if y not in p]
    return []


def test_cycle_tie_breaks_to_lowest_next_id():
    plan = FloorPlan((0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    candidates = _all_shortest_paths(plan, 0, 2)
    assert sorted(candidates) == [[0, 1, 2], [0, 3, 2]]
    assert _route(plan, 0, 2) == min(candidates)


@st.composite
def connected_plans(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    perm = draw(st.permutations(range(n)))
    edges = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}  # spanning path
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return FloorPlan(tuple(range(n)), frozenset(edges))


@given(connected_plans(), st.data())
@settings(max_examples=150, deadline=None)
def test_shortest_path_is_minimal_against_exhaustive_search(plan, data):
    src = data.draw(st.integers(0, plan.n - 1))
    dst = data.draw(st.integers(0, plan.n - 1))
    path = _route(plan, src, dst)
    assert path[0] == src and path[-1] == dst
    for a, b in zip(path, path[1:]):
        assert (min(a, b), max(a, b)) in plan.adjacency
    # exhaustive simple-path search cannot find anything shorter
    best = min(len(p) for p in _exhaustive_simple_paths(plan, src, dst))
    assert len(path) == best


def _exhaustive_simple_paths(plan, src, dst):
    stack = [[src]]
    out = []
    while stack:
        p = stack.pop()
        if p[-1] == dst:
            out.append(p)
            continue
        for y in plan.neighbors[p[-1]]:
            if y not in p:
                stack.append(p + [y])
    return out


# --- stationary occupancy oracle --------------------------------------------


def test_stationary_absorbing_point_mass():
    plan = line_plan(3)
    prof = uniform_agent(0, 1, 3, stay=1.0)
    pi = stationary_distribution(plan, prof)
    assert np.allclose(pi, [0.0, 1.0, 0.0], atol=1e-12)


def test_stationary_two_symmetric_locations():
    plan = line_plan(2)
    prof = AgentProfile(0, 0, StayProbs(default=0.5), {0: 0.5, 1: 0.5})
    pi = stationary_distribution(plan, prof)
    assert np.allclose(pi, [0.5, 0.5], atol=1e-9)


def _dense_kernel(plan, prof, fluctuation_rate):
    """The extended chain's (source, target, weight) triplets as a dense matrix over states x*n + d."""
    source, target, weight = _extended_kernel(plan, prof, fluctuation_rate)
    K = np.zeros((plan.n**2, plan.n**2))
    np.add.at(K, (source, target), weight)
    return K


def _stationary_by_linear_solve(plan, prof, fluctuation_rate=0.0):
    """Independent oracle: solve pi K = pi on the extended chain directly."""
    K = _dense_kernel(plan, prof, fluctuation_rate)
    m = len(K)
    A = np.vstack([K.T - np.eye(m), np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    occ = pi.reshape(plan.n, plan.n).sum(axis=1)
    return occ / occ.sum()


def test_stationary_three_location_chain_matches_linear_solve():
    plan = line_plan(3)
    prof = AgentProfile(
        0, 0, StayProbs(default=0.6, by_location={0: 0.8}), {0: 0.5, 1: 0.2, 2: 0.3}
    )
    pi = stationary_distribution(plan, prof)
    ref = _stationary_by_linear_solve(plan, prof)
    assert np.abs(pi - ref).sum() < 1e-8


def test_stationary_is_a_fixed_point_distribution():
    plan = FloorPlan((0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    prof = AgentProfile(0, 0, StayProbs(default=0.4), {0: 0.4, 2: 0.6})
    for fluct in (0.0, 0.1):
        K = _dense_kernel(plan, prof, fluct)
        # recover the extended fixed point, then check pi K = pi and the projection
        m = len(K)
        A = np.vstack([K.T - np.eye(m), np.ones(m)])
        b = np.zeros(m + 1)
        b[-1] = 1.0
        pi_ext, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.abs(pi_ext @ K - pi_ext).sum() < 1e-8
        pi = stationary_distribution(plan, prof, fluctuation_rate=fluct)
        assert abs(pi.sum() - 1.0) < 1e-9
        assert np.abs(pi - _stationary_by_linear_solve(plan, prof, fluct)).sum() < 1e-8


def test_stationary_ring_of_101_with_uniform_destinations_is_uniform():
    # an odd ring has no shortest-path ties, so the chain is rotation-symmetric
    n = 101
    plan = FloorPlan(tuple(range(n)), frozenset((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))
    pi = stationary_distribution(plan, uniform_agent(0, 0, n, stay=0.5), fluctuation_rate=0.05)
    assert np.abs(pi - 1.0 / n).max() < 1e-9


def test_stationary_stopping_rule_bounds_the_l1_error_on_the_ring():
    # a stop on the per-step change alone left this ring 31x TOL from its exact answer
    n = 101
    plan = FloorPlan(tuple(range(n)), frozenset((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))
    pi = stationary_distribution(plan, uniform_agent(0, 0, n, stay=0.5), fluctuation_rate=0.05)
    assert np.abs(pi - 1.0 / n).sum() < TOL


def test_stationary_slow_mixing_corridor_matches_linear_solve():
    plan = line_plan(30)
    prof = uniform_agent(0, 0, 30, stay=0.95)
    pi = stationary_distribution(plan, prof, fluctuation_rate=0.05)
    assert np.abs(pi - _stationary_by_linear_solve(plan, prof, 0.05)).sum() < 1e-9
