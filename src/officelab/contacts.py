"""Social network inference from co-location.

Two agents sharing a location bin for at least min_consecutive_ticks form a
contact. Direction runs visitor -> host when the bin is someone's office;
neutral ground credits both directions. Context exclusions drop bins where
co-presence says nothing (printer queues, shared offices when the
officemate_exclusion flag is set). A pair's runs come from one numpy split of
its two ``locations[day, tick, a]`` columns, which restarts at every day.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .world import FloorPlan

# Node shapes for DOT rendering, one per department; unknown departments
# fall back to "other".
DEPARTMENT_SHAPES = {
    "research": "square",
    "development": "diamond",
    "workshops": "oval",
    "other": "hexagon",
}


@dataclass(frozen=True)
class ContactRule:
    min_consecutive_ticks: int = 10
    excluded_tags: frozenset[str] = frozenset({"printer"})
    officemate_exclusion: bool = True


@dataclass(frozen=True)
class ContactGraph:
    """Directed weighted contact graph; edge (a, b) means a visited b."""

    nodes: dict[int, str]  # agent id -> department label
    edges: dict[tuple[int, int], int] = field(default_factory=dict)

    def weight(self, src: int, dst: int) -> int:
        return self.edges.get((src, dst), 0)


def extract_contacts(
    locations: np.ndarray,
    agents: Sequence[int],
    plan: FloorPlan,
    rule: ContactRule,
    departments: dict[int, str] | None = None,
) -> ContactGraph:
    """Contact graph from ``locations[day, tick, a]``, where agent ``agents[a]`` stands.

    Interval attribution: host's office gets visitor->host; a bin owned by
    both (shared office) or by neither credits both directions.
    """
    columns = {agent: locations[:, :, a] for a, agent in enumerate(agents)}  # agent -> its (days, ticks)
    ids = sorted(columns)
    departments = departments or {}
    edges: Counter[tuple[int, int]] = Counter()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            # the shared location each tick, -1 while apart (every location a stage passes lies on 0..n-1)
            here = np.where(columns[a] == columns[b], columns[a], -1)
            starts = np.ones(here.shape, dtype=bool)  # a run starts each day and at each change
            starts[:, 1:] = here[:, 1:] != here[:, :-1]
            first = np.flatnonzero(starts)
            for loc, length in zip(here.ravel()[first].tolist(), np.diff(first, append=here.size).tolist()):
                if loc < 0 or length < rule.min_consecutive_ticks:
                    continue
                if plan.tag(loc) in rule.excluded_tags:
                    continue
                owners = plan.owners(loc)
                a_home = a in owners
                b_home = b in owners
                if rule.officemate_exclusion and a_home and b_home:
                    continue
                if b_home and not a_home:
                    edges[(a, b)] += length
                elif a_home and not b_home:
                    edges[(b, a)] += length
                else:  # neutral ground or shared office: both directions
                    edges[(a, b)] += length
                    edges[(b, a)] += length

    nodes = {a: departments.get(a, "other") for a in ids}
    return ContactGraph(nodes=nodes, edges=dict(edges))


@dataclass(frozen=True)
class GraphMetrics:
    node_metrics: dict[int, dict[str, int]]  # in_degree, out_degree, weighted_degree
    department_matrix: dict[tuple[str, str], int]


def graph_metrics(graph: ContactGraph) -> GraphMetrics:
    node_metrics = {
        a: {"in_degree": 0, "out_degree": 0, "weighted_degree": 0} for a in graph.nodes
    }
    dept_matrix: Counter[tuple[str, str]] = Counter()
    for (a, b), w in graph.edges.items():
        node_metrics[a]["out_degree"] += 1
        node_metrics[b]["in_degree"] += 1
        node_metrics[a]["weighted_degree"] += w
        node_metrics[b]["weighted_degree"] += w
        dept_matrix[(graph.nodes[a], graph.nodes[b])] += w
    return GraphMetrics(node_metrics=node_metrics, department_matrix=dict(dept_matrix))


def export_graph(graph: ContactGraph, format: str = "dot") -> str:
    """Byte-stable DOT or edge-CSV rendering of the graph."""
    if format == "dot":
        lines = ["digraph contacts {"]
        for a in sorted(graph.nodes):
            shape = DEPARTMENT_SHAPES.get(graph.nodes[a].lower(), DEPARTMENT_SHAPES["other"])
            lines.append(f'  "A{a}" [label="A{a}", shape={shape}];')
        for (a, b), w in sorted(graph.edges.items()):
            lines.append(f'  "A{a}" -> "A{b}" [label="{w}", weight={w}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "edge_csv":
        lines = ["from,to,weight"]
        for (a, b), w in sorted(graph.edges.items()):
            lines.append(f"{a},{b},{w}")
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown export format {format!r}")
