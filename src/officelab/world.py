"""Office world: discrete location graph, agent profiles, movement kernels.

Locations are abstract bins with dense integer ids 0..n-1; there is no
geometry. Adjacency is an undirected, irreflexive, connected graph. All
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, NoPathError, ValidationError

LOCATION_TAGS = ("office", "meeting_room", "printer", "corridor", "lunch_area", "other")


@dataclass(frozen=True)
class FloorPlan:
    """Discrete location graph with semantic tags and office ownership.

    ``home_of`` maps a location to the agents whose office it is; shared
    offices list several owners, most locations list none.
    """

    locations: tuple[int, ...]
    adjacency: frozenset[tuple[int, int]]  # normalized (u, v) with u < v
    tags: dict[int, str] = field(default_factory=dict)
    home_of: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.locations)

    def tag(self, location: int) -> str:
        return self.tags.get(location, "other")

    def owners(self, location: int) -> tuple[int, ...]:
        return self.home_of.get(location, ())

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {x: [] for x in self.locations}
        for u, v in self.adjacency:
            adj[u].append(v)
            adj[v].append(u)
        return {x: tuple(sorted(ns)) for x, ns in adj.items()}

    @cached_property
    def distances(self) -> np.ndarray:
        """All-pairs hop distances (n x n int array; -1 = unreachable)."""
        n = self.n
        dist = np.full((n, n), -1, dtype=np.int64)
        for src in self.locations:
            dist[src, src] = 0
            frontier = [src]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for x in frontier:
                    for y in self.neighbors[x]:
                        if dist[src, y] < 0:
                            dist[src, y] = d
                            nxt.append(y)
                frontier = nxt
        return dist

    @cached_property
    def next_hop(self) -> np.ndarray:
        """Route table: next location on the canonical shortest path x -> d (n x n; x itself at d == x).

        Ties broken by lowest next location id. Raises NoPathError on a
        disconnected plan, so no entry is ever unreachable.
        """
        dist = self.distances
        if (dist < 0).any():
            src, dst = np.argwhere(dist < 0)[0]
            raise NoPathError(f"no path from {src} to {dst}")
        hop = np.repeat(np.arange(self.n)[:, None], self.n, axis=1)
        for x in self.locations:
            for y in reversed(self.neighbors[x]):  # the lowest id is written last
                hop[x, dist[y] == dist[x] - 1] = y
        return hop


@dataclass(frozen=True)
class StayProbs:
    """Stay probability lookup: per-location override > per-tag > default."""

    default: float = 0.5
    by_tag: dict[str, float] = field(default_factory=dict)
    by_location: dict[int, float] = field(default_factory=dict)

    def resolve(self, location: int, tag: str) -> float:
        if location in self.by_location:
            return self.by_location[location]
        return self.by_tag.get(tag, self.default)


@dataclass(frozen=True)
class ScheduleEvent:
    """A recurring or day-specific appointment.

    ``window`` is [start_tick, end_tick) in within-day ticks; ``days`` limits
    the event to specific day indices (None = every day). While active, the
    event preempts ordinary destination sampling with the given probability.
    """

    window: tuple[int, int]
    target: int
    probability: float
    label: str = ""
    days: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AgentProfile:
    id: int
    home: int
    stay_prob: StayProbs = field(default_factory=StayProbs)
    destinations: dict[int, float] = field(default_factory=dict)
    delta_p: float = 0.0
    schedule: tuple[ScheduleEvent, ...] = ()
    department: str = "other"

    def stay_at(self, location: int, plan: FloorPlan) -> float:
        return self.stay_prob.resolve(location, plan.tag(location))

    @cached_property
    def destination_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        locs = np.array(sorted(self.destinations), dtype=np.int64)
        probs = np.array([self.destinations[int(d)] for d in locs], dtype=np.float64)
        return locs, probs

    @cached_property
    def destination_cdf(self) -> np.ndarray:
        """The cdf over destination_arrays' locations as Generator.choice(k, p=p) builds it (cumsum, then divided
        by its last entry), with choice's checks: p non-negative and summing to 1 within sqrt(eps)."""
        p = self.destination_arrays[1]
        if not ((p >= 0).all() and abs(p.sum() - 1.0) <= np.sqrt(np.finfo(np.float64).eps)):
            raise ValidationError(f"destinations of agent {self.id} are not a probability distribution: {p.tolist()}")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf


# --- stationary occupancy oracle -------------------------------------------
#
# The location process alone is not Markov: an agent in transit carries its
# destination, and deciding to move costs one planning tick. The exact chain
# lives on states x*n + d for (location x, destination d), d == x meaning
# idle; it is the simulator's own state. Its transitions are sparse
# (source, target, weight) arrays: a stay plus one planning entry per
# destination from an idle state, a hop plus one detour per neighbor from a
# walking one. We power-iterate the lazy chain with np.bincount and project
# onto locations.

TOL = 1e-10  # bound on the L1 distance to the fixed point at which the power iteration stops
MAX_ITER = 200_000


def _extended_kernel(plan: FloorPlan, agent: AgentProfile, fluctuation_rate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (location, destination) chain as (source, target, weight) arrays over states x*n + d."""
    n = plan.n
    locs = np.arange(n)
    stay = np.array([agent.stay_at(x, plan) for x in plan.locations])
    dests, probs = agent.destination_arrays
    # idle at x: stay, or spend a planning tick picking d (d == x stays idle)
    idle = locs * n + locs
    plan_src = np.repeat(idle, len(dests))
    plan_dst = (locs[:, None] * n + dests[None, :]).ravel()
    plan_w = ((1.0 - stay)[:, None] * probs[None, :]).ravel()
    # walking x -> d: one hop along the route table, or a detour to a uniform
    # neighbor; reaching d lands on the idle state d*n + d
    x, d = np.nonzero(~np.eye(n, dtype=bool))
    hop_src = x * n + d
    hop_dst = plan.next_hop[x, d] * n + d
    deg = np.array([len(plan.neighbors[v]) for v in plan.locations])
    ev = np.repeat(locs, deg)  # directed edges ev -> ey
    ey = np.array([y for v in plan.locations for y in plan.neighbors[v]], dtype=np.int64)
    walks = ev[:, None] != locs[None, :]  # (edge, destination) pairs whose source is walking
    det_src = (ev[:, None] * n + locs)[walks]
    det_dst = (ey[:, None] * n + locs)[walks]
    det_w = np.broadcast_to((fluctuation_rate / deg[ev])[:, None], walks.shape)[walks]
    source = np.concatenate([idle, plan_src, hop_src, det_src])
    target = np.concatenate([idle, plan_dst, hop_dst, det_dst])
    weight = np.concatenate([stay, plan_w, np.full(len(hop_src), 1.0 - fluctuation_rate), det_w])
    return source, target, weight


def stationary_distribution(plan: FloorPlan, agent: AgentProfile, fluctuation_rate: float = 0.0) -> np.ndarray:
    """Long-run occupancy of the agent's movement chain (no schedule, delta_p=0).

    Power iteration on the lazy extended chain, started from the agent's home;
    result projected onto locations. With delta_k the L1 change of step k and
    rho = delta_k / delta_{k-1}, the iteration stops once rho < 1 and the
    geometric tail bound delta_k * rho / (1 - rho) on the distance still to
    go drops below ``TOL`` (or a step changes nothing). Raises
    ConvergenceError past ``MAX_ITER``.
    """
    source, target, weight = _extended_kernel(plan, agent, fluctuation_rate)
    m = plan.n * plan.n
    pi = np.zeros(m)
    pi[agent.home * plan.n + agent.home] = 1.0
    prev = 0.0  # rho is undefined at the first step: only a step that changes nothing stops there
    for _ in range(MAX_ITER):
        # lazy step: same fixed point, kills periodicity
        nxt = 0.5 * (pi + np.bincount(target, weights=pi[source] * weight, minlength=m))
        delta = np.abs(nxt - pi).sum()
        pi = nxt
        # delta * rho / (1 - rho) == delta**2 / (prev - delta)
        if delta == 0.0 or (delta < prev and delta * delta / (prev - delta) < TOL):
            break
        prev = delta
    else:
        raise ConvergenceError(f"stationary distribution did not converge in {MAX_ITER} iterations")
    occupancy = pi.reshape(plan.n, plan.n).sum(axis=1)
    return occupancy / occupancy.sum()
