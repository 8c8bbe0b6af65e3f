from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.analytics import (
    OccupancyDistribution,
    SurpriseScore,
    chain_combine,
    collapse_runs,
    mine_frequent_patterns,
    occupancy_distribution,
    surprise,
    surprise_by_day,
)
from officelab.errors import SupportViolationError, ValidationError

from conftest import line_plan


def _dist(probs, agent=0, scope="day:0", alpha=0.0) -> OccupancyDistribution:
    return OccupancyDistribution(agent=agent, scope=scope, probs=np.asarray(probs, dtype=float))


# --- occupancy ----------------------------------------------------------------


def test_occupancy_is_plain_counting_without_smoothing():
    dist = occupancy_distribution([0, 0, 1, 0], line_plan(2), alpha=0.0)
    assert np.allclose(dist.probs, [0.75, 0.25])
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_occupancy_smoothing_formula():
    dist = occupancy_distribution([0], line_plan(2), alpha=1.0)
    assert np.allclose(dist.probs, [2 / 3, 1 / 3])


def test_occupancy_rejects_empty_path():
    with pytest.raises(ValidationError):
        occupancy_distribution([], line_plan(2))


# subnormal alphas (< ~1e-308) underflow to zero mass; only meaningful
# smoothing strengths are in scope for the positivity claim
@given(st.lists(st.integers(0, 3), min_size=1, max_size=50), st.one_of(st.just(0.0), st.floats(1e-9, 2.0)))
@settings(max_examples=100, deadline=None)
def test_occupancy_always_normalizes(path, alpha):
    dist = occupancy_distribution(path, line_plan(4), alpha=alpha)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
    if alpha > 0:
        assert (dist.probs > 0).all()


# --- surprise -----------------------------------------------------------------


def test_surprise_of_identical_distributions_is_zero():
    d = _dist([0.5, 0.5])
    assert surprise(d, _dist([0.5, 0.5], scope="baseline")).bits == 0.0


def test_surprise_of_certain_day_against_even_baseline_is_one_bit():
    score = surprise(_dist([1.0, 0.0]), _dist([0.5, 0.5], scope="baseline"))
    assert score.bits == pytest.approx(1.0, abs=1e-12)


def test_surprise_hand_computed_example():
    score = surprise(_dist([0.75, 0.25]), _dist([0.5, 0.5], scope="baseline"))
    expected = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
    assert score.bits == pytest.approx(expected, abs=1e-12)
    assert score.bits == pytest.approx(0.18872, abs=1e-4)


def test_surprise_requires_baseline_support():
    with pytest.raises(SupportViolationError):
        surprise(_dist([0.5, 0.5]), _dist([1.0, 0.0], scope="baseline"))


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_surprise_is_nonnegative_and_zero_only_at_equality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p = rng.uniform(0.01, 1.0, n)
    p /= p.sum()
    q = rng.uniform(0.01, 1.0, n)
    q /= q.sum()
    bits = surprise(_dist(p), _dist(q, scope="baseline")).bits
    assert bits >= 0.0
    if np.abs(p - q).max() > 1e-6:
        assert bits > 0.0
    assert surprise(_dist(p), _dist(p.copy(), scope="baseline")).bits <= 1e-12


# --- chain rule ----------------------------------------------------------------


def test_chain_combine_sums_bits():
    a = SurpriseScore(agent=0, day=3, bits=0.5)
    b = SurpriseScore(agent=0, day=3, bits=0.25)
    assert chain_combine([a, b]).bits == pytest.approx(0.75)
    assert chain_combine([a]).bits == pytest.approx(0.5)


def test_chain_combine_rejects_mismatched_scores():
    a = SurpriseScore(agent=0, day=3, bits=0.5)
    b = SurpriseScore(agent=1, day=3, bits=0.25)
    with pytest.raises(ValidationError, match=r"cannot combine scores of \(agent 1, day 3\) with \(agent 0, day 3\)"):
        chain_combine([a, b])
    with pytest.raises(ValidationError, match="chain_combine needs at least one score"):
        chain_combine([])


def test_product_distribution_surprise_equals_sum_of_marginals():
    # independent (x, y): joint surprise must equal chain_combine of the parts
    px_day, px_base = np.array([0.7, 0.3]), np.array([0.5, 0.5])
    py_day, py_base = np.array([0.2, 0.8]), np.array([0.6, 0.4])
    joint_day = np.outer(px_day, py_day).ravel()
    joint_base = np.outer(px_base, py_base).ravel()
    joint = surprise(_dist(joint_day), _dist(joint_base, scope="baseline"))
    combined = chain_combine(
        [surprise(_dist(px_day), _dist(px_base, scope="baseline")),
         surprise(_dist(py_day), _dist(py_base, scope="baseline"))]
    )
    assert joint.bits == pytest.approx(combined.bits, abs=1e-9)


def _random_conditional_table(rng, n_days, n_sym):
    table = rng.uniform(0.05, 1.0, (n_days, n_sym))
    return table / table.sum(axis=1, keepdims=True)


def test_weighted_mean_surprise_equals_mutual_information():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_days, n_locs = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p_given_day = _random_conditional_table(rng, n_days, n_locs)
        w = rng.uniform(0.1, 1.0, n_days)
        w /= w.sum()
        baseline = w @ p_given_day
        mean_surprise = sum(
            w[d] * surprise(_dist(p_given_day[d]), _dist(baseline, scope="baseline")).bits
            for d in range(n_days)
        )
        joint = p_given_day * w[:, None]
        mi = sum(
            joint[d, x] * math.log2(joint[d, x] / (w[d] * baseline[x]))
            for d in range(n_days)
            for x in range(n_locs)
        )
        assert mean_surprise == pytest.approx(mi, abs=1e-9)


def chain_rule_decomposition_holds(joint_day: np.ndarray, joint_base: np.ndarray, tol: float = 1e-9) -> bool:
    """D(P(x,y|d) || P(x,y)) == D(P(x|d) || P(x)) + sum_x P(x|d) D(P(y|x,d) || P(y|x))."""
    lhs = surprise(_dist(joint_day.ravel()), _dist(joint_base.ravel(), scope="baseline")).bits
    px_day, px_base = joint_day.sum(axis=1), joint_base.sum(axis=1)
    rhs = surprise(_dist(px_day), _dist(px_base, scope="baseline")).bits
    for x in range(joint_day.shape[0]):
        cond_day = joint_day[x] / px_day[x]
        cond_base = joint_base[x] / px_base[x]
        rhs += px_day[x] * surprise(_dist(cond_day), _dist(cond_base, scope="baseline")).bits
    return abs(lhs - rhs) < tol


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_chain_rule_identity_on_random_joint_tables(seed):
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    joint_day = rng.uniform(0.05, 1.0, (nx, ny))
    joint_day /= joint_day.sum()
    joint_base = rng.uniform(0.05, 1.0, (nx, ny))
    joint_base /= joint_base.sum()
    assert chain_rule_decomposition_holds(joint_day, joint_base)


# --- pattern mining -------------------------------------------------------------


def test_collapse_runs_drops_dwell_time():
    assert collapse_runs([5, 5, 5, 2, 2, 5]) == (5, 2, 5)


def test_planted_pattern_is_found_with_full_support():
    day_paths = np.array([[0, 0, 3, 3, 0, 1]] * 5)  # each day collapses to 0,3,0,1
    report = mine_frequent_patterns(0, day_paths, min_support=5, min_len=3, max_len=3)
    assert ((0, 3, 0), 5, 3) in report.patterns
    assert ((3, 0, 1), 5, 3) in report.patterns


@pytest.mark.parametrize("min_len,max_len", [(1, 3), (4, 3)])
def test_pattern_lengths_out_of_order_are_rejected(min_len, max_len):
    with pytest.raises(ValidationError, match="pattern lengths must satisfy 2 <= min_len <= max_len"):
        mine_frequent_patterns(0, np.array([[0, 1, 0, 1]]), min_support=1, min_len=min_len, max_len=max_len)


def test_min_support_above_day_count_yields_nothing():
    day_paths = np.array([[0, 1, 0, 1]] * 3)
    report = mine_frequent_patterns(0, day_paths, min_support=4, min_len=2, max_len=3)
    assert report.patterns == []


def _ngram_day_support_oracle(day_paths, min_support, min_len, max_len):
    """Brute-force recount: collapse, slice, count distinct days per n-gram."""

    def collapse(seq):
        out = []
        for s in seq:
            if not out or out[-1] != s:
                out.append(s)
        return out

    support: dict[tuple[int, ...], set[int]] = {}
    for day, path in enumerate(day_paths.tolist()):
        c = collapse(path)
        for k in range(min_len, max_len + 1):
            for i in range(len(c) - k + 1):
                support.setdefault(tuple(c[i : i + k]), set()).add(day)
    return {g: len(days) for g, days in support.items() if len(days) >= min_support}


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_pattern_miner_matches_ngram_oracle(seed):
    rng = np.random.default_rng(seed)
    n_days = int(rng.integers(1, 6))
    day_paths = rng.integers(0, 3, size=(n_days, int(rng.integers(1, 30))))
    min_support = int(rng.integers(1, n_days + 1))
    report = mine_frequent_patterns(0, day_paths, min_support, min_len=2, max_len=4)
    expected = _ngram_day_support_oracle(day_paths, min_support, 2, 4)
    assert {p: s for p, s, _ in report.patterns} == expected


def test_patterns_sorted_by_support_then_length_then_lexicographic():
    day_paths = np.array(
        [
            [0, 1, 2, 0, 1],
            [0, 1, 2, 1, 0],
            [0, 1, 0, 1, 2],
        ]
    )
    report = mine_frequent_patterns(0, day_paths, min_support=2, min_len=2, max_len=3)
    keys = [(-s, -length, p) for p, s, length in report.patterns]
    assert keys == sorted(keys)


# --- per-day pipeline helper ------------------------------------------------------


def test_surprise_by_day_baseline_pools_all_days():
    plan = line_plan(3)
    day_paths = np.array([[0, 0, 1], [2, 2, 2]])
    baseline, day_dists, scores = surprise_by_day(0, day_paths, plan, baseline_alpha=1.0)
    pooled_counts = np.array([2, 1, 3], dtype=float)
    assert np.allclose(baseline.probs, (pooled_counts + 1) / (6 + 3))
    assert set(scores) == {0, 1}
    assert all(s.bits >= 0 for s in scores.values())
    assert [(s.agent, s.day) for s in scores.values()] == [(0, 0), (0, 1)]
    assert [d.scope for d in day_dists.values()] == ["day:0", "day:1"]
