from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.decoding import LEAK, brute_force_decode, decode_agents, viterbi_decode
from officelab.errors import AllPathsZeroError, InstanceTooLargeError, ValidationError

from conftest import decode_day


def _random_instance(rng: np.random.Generator, n: int, ticks: int, sparse: bool = False):
    init = rng.uniform(0.05, 1.0, n)
    init /= init.sum()
    K = rng.uniform(0.05, 1.0, (n, n))
    if sparse:  # knock out some transitions to exercise hard constraints
        K *= rng.random((n, n)) > 0.3
        K += np.eye(n) * 0.05  # keep every row alive
    K /= K.sum(axis=1, keepdims=True)
    ev = rng.uniform(0.05, 1.0, (ticks, n))
    return init, K, ev


def _itertools_oracle(init, K, ev):
    """Third route: literal per-path product over itertools.product."""
    T, n = np.asarray(ev).shape
    best_path, best_score = None, -math.inf
    for path in itertools.product(range(n), repeat=T):
        score = init[path[0]] * ev[0][path[0]]
        for t in range(1, T):
            score *= K[path[t - 1]][path[t]] * ev[t][path[t]]
        log_score = math.log(score) if score > 0 else -math.inf
        if log_score > best_score:
            best_path, best_score = path, log_score
    return best_path, best_score


def test_two_tick_example_enumerated_by_hand():
    init = [0.6, 0.4]
    K = [[0.7, 0.3], [0.4, 0.6]]
    ev = [[0.9, 0.2], [0.3, 0.8]]
    # exhaustive: [0,1] scores 0.6*0.9*0.3*0.8 = 0.1296, runner-up [0,0] = 0.1134
    scores = {p: s for p, s in (
        ((0, 0), 0.6 * 0.9 * 0.7 * 0.3),
        ((0, 1), 0.6 * 0.9 * 0.3 * 0.8),
        ((1, 0), 0.4 * 0.2 * 0.4 * 0.3),
        ((1, 1), 0.4 * 0.2 * 0.6 * 0.8),
    )}
    assert max(scores, key=scores.get) == (0, 1)
    assert scores[(0, 1)] == pytest.approx(0.1296)
    assert sorted(scores.values())[-2] == pytest.approx(0.1134)

    for decode in (viterbi_decode, brute_force_decode):
        out = decode(init, K, ev)
        assert out.path == (0, 1)
        assert out.log_score == pytest.approx(math.log(0.1296), abs=1e-12)


def test_single_tick_pinned_evidence():
    out = viterbi_decode([0.5, 0.5], np.eye(2), [[1.0, 0.0]])
    assert out.path == (0,)


def test_uniform_instance_tie_breaks_to_all_zeros():
    init = [0.5, 0.5]
    K = [[0.5, 0.5], [0.5, 0.5]]
    ev = [[0.5, 0.5]] * 4
    for decode in (viterbi_decode, brute_force_decode):
        assert decode(init, K, ev).path == (0, 0, 0, 0)


def test_single_location_world():
    out = brute_force_decode([1.0], [[1.0]], [[0.7]] * 5)
    assert out.path == (0,) * 5
    assert out.log_score == pytest.approx(5 * math.log(0.7))


def test_oracle_rejects_oversized_instances():
    with pytest.raises(InstanceTooLargeError):
        brute_force_decode(np.ones(10) / 10, np.eye(10), np.ones((7, 10)))


def test_contradictory_evidence_raises_all_paths_zero():
    init = [1.0, 0.0]
    K = [[1.0, 0.0], [0.0, 1.0]]
    ev = [[0.0, 1.0]]
    for decode in (viterbi_decode, brute_force_decode):
        with pytest.raises(AllPathsZeroError):
            decode(init, K, ev)


@pytest.mark.parametrize(
    "initial,kernel,evidence,match",
    [
        ([1.0, 0.0], np.eye(2), [1.0, 0.5], r"evidence must be a nonempty \(ticks, locations\) array"),
        ([1.0, 0.0], np.eye(2), np.ones((0, 2)), r"evidence must be a nonempty \(ticks, locations\) array"),
        ([1.0, 0.0], np.eye(3), np.ones((2, 2)), "initial, kernel, and evidence dimensions disagree"),
        ([1.0, 0.0], np.eye(2), np.ones((2, 3)), "initial, kernel, and evidence dimensions disagree"),
    ],
)
def test_malformed_decoder_inputs_are_named(initial, kernel, evidence, match):
    for decode in (viterbi_decode, brute_force_decode):
        with pytest.raises(ValidationError, match=match):
            decode(initial, kernel, evidence)


def test_decode_agents_rejects_disagreeing_dimensions():
    initial, kernels, evidence = np.ones((2, 3)) / 3, np.ones((2, 3, 3)) / 3, np.ones((1, 4, 2, 3))
    for args in (
        (initial, kernels, evidence, [7]),  # one agent name for two rows
        (initial, kernels[:, :2, :2], evidence, [7, 8]),
        (initial, kernels, evidence[0], [7, 8]),  # evidence without its day axis
        (initial, kernels, evidence[:, :0], [7, 8]),  # no ticks
    ):
        with pytest.raises(ValidationError, match="initial, kernels, evidence, and agents dimensions disagree"):
            decode_agents(*args)


def test_decoders_agree_with_itertools_oracle_on_tiny_instances():
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        ticks = int(rng.integers(1, 5))
        init, K, ev = _random_instance(rng, n, ticks)
        ref_path, ref_score = _itertools_oracle(init, K, ev)
        for decode in (viterbi_decode, brute_force_decode):
            out = decode(init, K, ev)
            assert out.path == ref_path
            assert out.log_score == pytest.approx(ref_score, abs=1e-9)


@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 8), st.booleans())
@settings(max_examples=120, deadline=None)
def test_viterbi_equals_brute_force(seed, n, ticks, sparse):
    rng = np.random.default_rng(seed)
    init, K, ev = _random_instance(rng, n, ticks, sparse=sparse)
    try:
        v = viterbi_decode(init, K, ev)
    except AllPathsZeroError:
        with pytest.raises(AllPathsZeroError):
            brute_force_decode(init, K, ev)
        return
    b = brute_force_decode(init, K, ev)
    assert v.path == b.path
    assert v.log_score == pytest.approx(b.log_score, abs=1e-9)


def test_decoded_score_dominates_any_other_path():
    rng = np.random.default_rng(9)
    init, K, ev = _random_instance(rng, 3, 6)
    out = viterbi_decode(init, K, ev)
    logK = np.log(K)
    logE = np.log(ev)
    for path in itertools.product(range(3), repeat=6):
        score = math.log(init[path[0]]) + logE[0][path[0]]
        for t in range(1, 6):
            score += logK[path[t - 1]][path[t]] + logE[t][path[t]]
        assert score <= out.log_score + 1e-9


def test_long_horizon_stays_finite_in_log_space():
    rng = np.random.default_rng(1)
    init, K, ev = _random_instance(rng, 3, 100_000)
    out = viterbi_decode(init, K, ev)
    assert math.isfinite(out.log_score)
    assert len(out.path) == 100_000
    for a, b in zip(out.path, out.path[1:]):
        assert K[a][b] > 0


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(2, 4), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_batched_rows_each_equal_brute_force_and_only_failed_rows_leak(seed, rows, n, ticks):
    # 0/1 kernels, initials and evidence: every feasible path scores exactly
    # 0, so ties are everywhere and only the tie-break picks the path; sparse
    # evidence leaves some rows with no feasible path at all
    rng = np.random.default_rng(seed)
    kernels = (rng.random((rows, n, n)) < 0.5).astype(float)
    kernels[:, np.arange(n), np.arange(n)] = 1.0  # a leaked row always has a path
    initial = (rng.random((rows, n)) < 0.5).astype(float)
    initial[np.arange(rows), rng.integers(0, n, rows)] = 1.0
    evidence = (rng.random((ticks, rows, n)) < 0.4).astype(float)
    agents = [100 + b for b in range(rows)]

    paths, scores, retries = decode_agents(initial, kernels, evidence[None], agents)  # one day
    paths, scores = paths[0], scores[0]
    assert paths.shape == (ticks, rows) and scores.shape == (rows,)

    failed = 0
    for b in range(rows):
        out = decode_day(initial[b], kernels[b], evidence[:, b], agent=agents[b], day=3)
        assert (tuple(paths[:, b].tolist()), scores[b]) == (out.path, out.log_score)  # no row sees another
        try:
            ref = brute_force_decode(initial[b], kernels[b], evidence[:, b])
        except AllPathsZeroError:
            failed += 1
            leak = evidence[:, b].mean(axis=1, keepdims=True) * LEAK
            leak[leak == 0.0] = 1.0
            ref = brute_force_decode(initial[b], kernels[b], evidence[:, b] + leak)
            assert out.log_score == pytest.approx(ref.log_score, abs=1e-12)
            continue
        assert out.path == ref.path  # the lexicographically smallest of the tied paths
        assert out.log_score == ref.log_score == 0.0  # no leak on a feasible row
    assert retries == failed
