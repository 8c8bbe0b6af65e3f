from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.config import WorldConfig
from officelab.contacts import (
    ContactGraph,
    ContactRule,
    export_graph,
    extract_contacts,
    graph_metrics,
)
from officelab.errors import ValidationError
from officelab.simulate import run_simulation
from officelab.world import AgentProfile, FloorPlan, ScheduleEvent, StayProbs


def _plan() -> FloorPlan:
    # 0: A's office, 1: B's office, 2: printer, 3: corridor (neutral)
    return FloorPlan(
        (0, 1, 2, 3),
        frozenset({(0, 3), (1, 3), (2, 3)}),
        tags={0: "office", 1: "office", 2: "printer", 3: "corridor"},
        home_of={0: (0,), 1: (1,)},
    )


def _paths(seq_a, seq_b):
    """locations[day, tick, a] of one day, agent 0 walking ``seq_a`` and agent 1 ``seq_b``."""
    return np.array([seq_a, seq_b]).T[None]


PAIR = [0, 1]  # the agent ids of _paths' columns


RULE = ContactRule(min_consecutive_ticks=10, excluded_tags=frozenset({"printer"}), officemate_exclusion=True)


def test_visit_to_an_office_is_a_directed_edge():
    # A spends 12 ticks in B's office: visitor -> host only
    a = [1] * 12 + [0] * 4
    b = [1] * 12 + [1] * 4
    graph = extract_contacts(_paths(a, b), PAIR, _plan(), RULE)
    assert graph.weight(0, 1) == 12
    assert graph.weight(1, 0) == 0


def test_columns_are_named_by_the_agent_ids_given():
    # the same visit as above with the columns swapped: agent 0 still visits agent 1's office
    graph = extract_contacts(_paths([1] * 16, [1] * 12 + [0] * 4), [1, 0], _plan(), RULE)
    assert graph.edges == {(0, 1): 12}
    assert list(graph.nodes) == [0, 1]


def test_printer_co_location_is_excluded():
    a = [2] * 12 + [0] * 4
    b = [2] * 12 + [1] * 4
    graph = extract_contacts(_paths(a, b), PAIR, _plan(), RULE)
    assert graph.edges == {}


def test_below_threshold_interval_is_dropped():
    a = [1] * 9 + [0] * 7
    b = [1] * 9 + [1] * 7
    graph = extract_contacts(_paths(a, b), PAIR, _plan(), RULE)
    assert graph.edges == {}


def test_neutral_ground_credits_both_directions_equally():
    a = [3] * 15 + [0]
    b = [3] * 15 + [1]
    graph = extract_contacts(_paths(a, b), PAIR, _plan(), RULE)
    assert graph.weight(0, 1) == graph.weight(1, 0) == 15


def test_shared_office_respects_officemate_exclusion_flag():
    plan = FloorPlan(
        (0, 1),
        frozenset({(0, 1)}),
        tags={0: "office", 1: "corridor"},
        home_of={0: (0, 1)},  # both agents share office 0
    )
    paths = _paths([0] * 20, [0] * 20)
    excluded = extract_contacts(paths, PAIR, plan, RULE)
    assert excluded.edges == {}
    included = extract_contacts(paths, PAIR, plan, ContactRule(10, frozenset({"printer"}), officemate_exclusion=False))
    assert included.weight(0, 1) == included.weight(1, 0) == 20


def test_interval_splits_when_shared_location_changes():
    # together for 20 ticks but across two locations: two separate intervals
    a = [3] * 8 + [1] * 12
    b = [3] * 8 + [1] * 12
    graph = extract_contacts(_paths(a, b), PAIR, _plan(), RULE)
    assert graph.weight(0, 1) == 12  # only the office interval passes the threshold
    assert graph.weight(1, 0) == 0


def test_a_run_does_not_carry_over_midnight():
    # together on the corridor for the last 6 ticks of day 0 and the first 6 of day 1: two runs of 6, not one of 12
    a = [[0] * 10 + [3] * 6, [3] * 6 + [0] * 10]
    b = [[1] * 10 + [3] * 6, [3] * 6 + [1] * 10]
    paths = np.stack([a, b], axis=-1)
    assert extract_contacts(paths, PAIR, _plan(), RULE).edges == {}
    graph = extract_contacts(paths, PAIR, _plan(), ContactRule(6, frozenset({"printer"}), True))
    assert graph.weight(0, 1) == graph.weight(1, 0) == 12


def _recount_oracle(locations, plan, rule):
    """Independent recount: per (pair, location), find consecutive tick runs; agent a stands in column a."""
    days, _, n_agents = locations.shape
    edges: dict[tuple[int, int], int] = {}

    def credit(src, dst, w):
        edges[(src, dst)] = edges.get((src, dst), 0) + w

    for a in range(n_agents):
        for b in range(a + 1, n_agents):
            for day in range(days):
                seq_a, seq_b = locations[day, :, a].tolist(), locations[day, :, b].tolist()
                for loc in set(seq_a):
                    ticks = [t for t, (x, y) in enumerate(zip(seq_a, seq_b)) if x == y == loc]
                    runs = []
                    for t in ticks:
                        if runs and runs[-1][-1] == t - 1:
                            runs[-1].append(t)
                        else:
                            runs.append([t])
                    for run in runs:
                        if len(run) < rule.min_consecutive_ticks:
                            continue
                        if plan.tag(loc) in rule.excluded_tags:
                            continue
                        owners = plan.owners(loc)
                        a_home, b_home = a in owners, b in owners
                        if rule.officemate_exclusion and a_home and b_home:
                            continue
                        if b_home and not a_home:
                            credit(a, b, len(run))
                        elif a_home and not b_home:
                            credit(b, a, len(run))
                        else:
                            credit(a, b, len(run))
                            credit(b, a, len(run))
    return edges


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_extraction_matches_independent_recount(seed, threshold):
    rng = np.random.default_rng(seed)
    plan = _plan()
    rule = ContactRule(threshold, frozenset({"printer"}), officemate_exclusion=bool(seed % 2))
    paths = np.stack([[rng.integers(0, 4, size=30) for day in range(2)] for agent in range(3)], axis=-1)
    graph = extract_contacts(paths, [0, 1, 2], plan, rule)
    assert graph.edges == _recount_oracle(paths, plan, rule)
    for (a, b), w in graph.edges.items():
        assert a != b and w > 0
        assert a in graph.nodes and b in graph.nodes


def test_raising_threshold_never_adds_weight():
    rng = np.random.default_rng(5)
    paths = np.stack([rng.integers(0, 4, size=200) for agent in range(3)], axis=-1)[None]
    plan = _plan()
    graphs = {
        t: extract_contacts(paths, [0, 1, 2], plan, ContactRule(t, frozenset({"printer"}), True))
        for t in (1, 5, 10, 20)
    }
    thresholds = sorted(graphs)
    for lo, hi in zip(thresholds, thresholds[1:]):
        loose, strict = graphs[lo], graphs[hi]
        assert set(strict.edges) <= set(loose.edges)
        for edge, w in strict.edges.items():
            assert w <= loose.edges[edge]


def test_scheduled_meetings_connect_attendees_but_not_loners():
    # A and B meet daily in the meeting room; C never leaves its office
    plan = FloorPlan(
        (0, 1, 2, 3, 4),
        frozenset({(0, 4), (1, 4), (2, 4), (3, 4)}),
        tags={0: "office", 1: "office", 2: "office", 3: "meeting_room", 4: "corridor"},
        home_of={0: (0,), 1: (1,), 2: (2,)},
    )
    meeting = ScheduleEvent(window=(10, 80), target=3, probability=1.0)

    def agent(aid, home, schedule=()):
        return AgentProfile(
            aid, home, StayProbs(default=0.2, by_tag={"office": 0.9, "meeting_room": 0.95}),
            {home: 1.0}, schedule=schedule,
        )

    cfg = WorldConfig(
        floor_plan=plan,
        agents=(agent(0, 0, (meeting,)), agent(1, 1, (meeting,)), agent(2, 2)),
        ticks_per_day=100,
        days=3,
        rng_seed=21,
        fluctuation_rate=0.0,
    )
    graph = extract_contacts(run_simulation(cfg), [0, 1, 2], plan, ContactRule(10, frozenset({"printer"}), True))
    assert graph.weight(0, 1) > 0 and graph.weight(1, 0) > 0
    assert all(2 not in edge for edge in graph.edges)


# --- metrics ------------------------------------------------------------------


def test_star_graph_metrics():
    nodes = {i: "other" for i in range(5)}
    edges = {(s, 0): 3 for s in range(1, 5)}
    metrics = graph_metrics(ContactGraph(nodes, edges))
    assert metrics.node_metrics[0] == {"in_degree": 4, "out_degree": 0, "weighted_degree": 12}
    for spoke in range(1, 5):
        assert metrics.node_metrics[spoke] == {"in_degree": 0, "out_degree": 1, "weighted_degree": 3}


def test_empty_graph_metrics():
    metrics = graph_metrics(ContactGraph({0: "other", 1: "other"}, {}))
    assert all(m == {"in_degree": 0, "out_degree": 0, "weighted_degree": 0} for m in metrics.node_metrics.values())
    assert metrics.department_matrix == {}


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_degrees_match_exhaustive_edge_recount(seed):
    rng = np.random.default_rng(seed)
    nodes = {i: "other" for i in range(6)}
    edges = {}
    for a in range(6):
        for b in range(6):
            if a != b and rng.random() < 0.3:
                edges[(a, b)] = int(rng.integers(1, 50))
    metrics = graph_metrics(ContactGraph(nodes, edges))
    for node in nodes:
        assert metrics.node_metrics[node]["out_degree"] == sum(1 for (a, _) in edges if a == node)
        assert metrics.node_metrics[node]["in_degree"] == sum(1 for (_, b) in edges if b == node)
        assert metrics.node_metrics[node]["weighted_degree"] == sum(
            w for (a, b), w in edges.items() if node in (a, b)
        )


# --- export -------------------------------------------------------------------


def test_dot_export_contains_directed_edge_with_weight_label():
    graph = ContactGraph({0: "Research", 1: "Development"}, {(0, 1): 12})
    dot = export_graph(graph, "dot")
    assert '"A0" -> "A1" [label="12", weight=12];' in dot
    assert '"A0" [label="A0", shape=square];' in dot  # Research renders square
    assert "diamond" in dot  # Development


def test_department_shapes_follow_the_legend():
    graph = ContactGraph({0: "Research", 1: "Development", 2: "Workshops", 3: "Sales"}, {})
    dot = export_graph(graph, "dot")
    for agent, shape in ((0, "square"), (1, "diamond"), (2, "oval"), (3, "hexagon")):
        assert f'"A{agent}" [label="A{agent}", shape={shape}];' in dot


def test_exports_are_byte_stable():
    graph = ContactGraph({0: "Research", 1: "other"}, {(0, 1): 7, (1, 0): 3})
    assert export_graph(graph, "dot") == export_graph(graph, "dot")
    assert export_graph(graph, "edge_csv") == export_graph(graph, "edge_csv")
    assert export_graph(graph, "edge_csv") == "from,to,weight\n0,1,7\n1,0,3\n"


def test_unknown_export_format_rejected():
    with pytest.raises(ValidationError, match="unknown export format"):
        export_graph(ContactGraph({}, {}), "gexf")
