"""Daily-behavior statistics: occupancy, surprise, habit mining.

Surprise of a day is the relative entropy (base 2) between that day's
occupancy and the pooled baseline; it is additive across independent
sources, so scores from several evidence streams combine by summation.
The pooled baseline is smoothed (alpha = 1 by default) so a day visiting a
never-before-seen location stays finite; per-day distributions are raw
counts by default.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SupportViolationError, ValidationError
from .world import FloorPlan


@dataclass(frozen=True)
class OccupancyDistribution:
    agent: int
    scope: str  # "baseline" or "day:<d>"
    probs: np.ndarray


@dataclass(frozen=True)
class SurpriseScore:
    agent: int
    day: int
    bits: float


@dataclass(frozen=True)
class PatternReport:
    agent: int
    patterns: list[tuple[tuple[int, ...], int, int]]  # (sequence, support, length)


# surprise_by_day's result for one agent: the baseline, then each day's occupancy and surprise, keyed by day
AgentSurprise = tuple[OccupancyDistribution, dict[int, OccupancyDistribution], dict[int, SurpriseScore]]


def occupancy_distribution(
    path: Sequence[int],
    plan: FloorPlan,
    alpha: float = 0.0,
    agent: int = 0,
    scope: str = "baseline",
) -> OccupancyDistribution:
    """Fraction of ticks spent in each location, additively smoothed.

    probs[x] = (count(x) + alpha) / (len(path) + alpha * n_locations).
    """
    if len(path) == 0:
        raise ValidationError("occupancy of an empty path is undefined")
    counts = np.bincount(path, minlength=plan.n)
    probs = (counts + alpha) / (len(path) + alpha * plan.n)
    return OccupancyDistribution(agent=agent, scope=scope, probs=probs)


def surprise(day_dist: OccupancyDistribution, baseline: OccupancyDistribution, day: int = -1) -> SurpriseScore:
    """Relative entropy of one day against the baseline, in bits; ``day`` labels the score (-1: none).

    Terms with zero day mass contribute nothing; day mass over zero baseline
    mass raises SupportViolationError (use a smoothed baseline).
    """
    p = day_dist.probs
    q = baseline.probs
    bad = (p > 0) & (q <= 0)
    if bad.any():
        loc = int(np.nonzero(bad)[0][0])
        raise SupportViolationError(f"day distribution has mass at location {loc} where baseline has none")
    bits = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            bits += pi * math.log2(pi / qi)
    return SurpriseScore(agent=day_dist.agent, day=day, bits=max(0.0, bits))


def chain_combine(scores: Sequence[SurpriseScore]) -> SurpriseScore:
    """Total surprise over independent sources: scores add (chain rule)."""
    if not scores:
        raise ValidationError("chain_combine needs at least one score")
    first = scores[0]
    for s in scores[1:]:
        if (s.agent, s.day) != (first.agent, first.day):
            raise ValidationError(
                f"cannot combine scores of (agent {s.agent}, day {s.day}) "
                f"with (agent {first.agent}, day {first.day})"
            )
    return SurpriseScore(agent=first.agent, day=first.day, bits=sum(s.bits for s in scores))


def collapse_runs(seq: Sequence[int]) -> tuple[int, ...]:
    """Drop consecutive duplicates: dwell time belongs to occupancy, not habits."""
    out = []
    for loc in seq:
        if not out or out[-1] != loc:
            out.append(loc)
    return tuple(out)


def mine_frequent_patterns(
    agent: int,
    days: np.ndarray,
    min_support: int,
    min_len: int = 2,
    max_len: int = 5,
) -> PatternReport:
    """Contiguous movement patterns recurring across days.

    ``days`` is the agent's (days, ticks) column of a locations[day, tick, a]
    array, one row per day. Each day's path is duplicate-collapsed, then
    every contiguous subsequence with length in [min_len, max_len] is counted
    once per day it occurs in; patterns meeting min_support are reported
    sorted by (support desc, length desc, lexicographic).
    """
    if not (2 <= min_len <= max_len):
        raise ValidationError("pattern lengths must satisfy 2 <= min_len <= max_len")
    day_counts: Counter[tuple[int, ...]] = Counter()
    for path in days.tolist():
        collapsed = collapse_runs(path)
        seen: set[tuple[int, ...]] = set()
        for length in range(min_len, max_len + 1):
            for start in range(len(collapsed) - length + 1):
                seen.add(collapsed[start : start + length])
        day_counts.update(seen)
    kept = [
        (pattern, support, len(pattern))
        for pattern, support in day_counts.items()
        if support >= min_support
    ]
    kept.sort(key=lambda item: (-item[1], -item[2], item[0]))
    return PatternReport(agent=agent, patterns=kept)


def surprise_by_day(
    agent: int,
    days: np.ndarray,
    plan: FloorPlan,
    baseline_alpha: float = 1.0,
    day_alpha: float = 0.0,
) -> AgentSurprise:
    """Baseline, per-day occupancy, and per-day surprise for one agent, keyed by day.

    ``days`` is the agent's (days, ticks) column of a locations[day, tick, a]
    array, one row per day. The baseline pools every day's path (the
    "average day"); smoothing keeps all baseline entries positive so surprise
    is always finite.
    """
    baseline = occupancy_distribution(days.ravel(), plan, alpha=baseline_alpha, agent=agent, scope="baseline")
    day_dists = {}
    scores = {}
    for day, path in enumerate(days):
        dist = occupancy_distribution(path, plan, alpha=day_alpha, agent=agent, scope=f"day:{day}")
        day_dists[day] = dist
        scores[day] = surprise(dist, baseline, day)
    return baseline, day_dists, scores
