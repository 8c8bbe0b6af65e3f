"""Most-likely path extraction from per-tick evidence.

Joint decoding via log-space dynamic programming (Rabiner 1989, "A Tutorial
on HMMs", §III), batched: one pass decodes every day of every agent, a row
per (day, agent) with its agent's initial distribution and motion kernel.
Zero-probability transitions are hard constraints, so decoded paths stay on
the motion kernel's support; each max runs over that support only, through
a padded neighbour table read off the kernels' nonzero pattern (a dense
kernel makes it the full max). The recursion reads the evidence a tick at a
time, keeps two rows of suffix scores and stores each back-pointer as a
narrow offset into that table. decode_agents returns the paths as one
(days, ticks, agents) array and their scores as one (days, agents) array;
viterbi_decode is the one-row case, as a DecodedPath. brute_force_decode
enumerates every location sequence and exists as the independent check on
the DP; both break score ties toward the lexicographically smallest path.

A row whose evidence no feasible path can explain is re-decoded with a tiny
uniform leak (decode_agents); only such rows are rerun.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllPathsZeroError, InstanceTooLargeError, ValidationError

log = logging.getLogger("officelab.decoding")

BRUTE_FORCE_CAP = 10**6
LEAK = 1e-6  # uniform evidence added per tick, relative to that tick's mean, on a retry


@dataclass(frozen=True)
class DecodedPath:
    agent: int
    day: int
    path: tuple[int, ...]
    log_score: float


def _log(arr: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(arr)


def _as_inputs(initial, kernel, evidence):
    initial = np.asarray(initial, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    evidence = np.asarray(evidence, dtype=np.float64)
    if evidence.ndim != 2 or evidence.shape[0] == 0:
        raise ValidationError("evidence must be a nonempty (ticks, locations) array")
    n = initial.shape[0]
    if kernel.shape != (n, n) or evidence.shape[1] != n:
        raise ValidationError("initial, kernel, and evidence dimensions disagree")
    return initial, kernel, evidence


def _viterbi(initial: np.ndarray, kernels: np.ndarray, evidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best paths (days, ticks, agents) and their log scores (days, agents); a score is -inf where no path has
    positive probability.

    ``initial`` is (agents, n), ``kernels`` (agents, n, n), ``evidence``
    (days, ticks, agents, n); every day starts from ``initial``. Suffix
    scores are computed backward, recording from each location the lowest-id
    best next one; following those pointers from the lowest-id best start
    yields the lexicographically smallest optimal path.
    """
    D, T, A, n = evidence.shape
    B = D * A  # rows, day-major: row d * A + a
    support = kernels > 0
    width = int(support.sum(axis=2).max(initial=1))
    # per (agent, location): the kernel row's support in ascending order, padded
    # with locations the kernel gives zero, whose log is -inf
    nbr = np.argsort(~support, axis=2, kind="stable")[:, :, :width].reshape(A * n, width)
    log_k = np.tile(_log(np.take_along_axis(kernels.reshape(A * n, n), nbr, axis=1)), (D, 1))
    flat_nbr = np.tile(nbr, (D, 1)) + np.repeat(np.arange(B) * n, n)[:, None]  # into a raveled (rows, n) array
    corner = np.arange(B * n) * width  # first candidate of each (row, location)

    suffix = _log(evidence[:, T - 1]).reshape(B * n)
    # best next (row, location) from each (row, location) at tick t, as its offset into the support
    offset = np.empty((T - 1, B * n), dtype=np.min_scalar_type(width - 1))
    with np.errstate(invalid="ignore"):
        for t in range(T - 2, -1, -1):
            # suffix[b, i] = ev[t][b, i] + max over j in support(b, i) of (K[b, i, j] + next suffix[b, j]);
            # argmax takes the first maximum, the lowest j
            step = log_k + np.take(suffix, flat_nbr)
            best = step.argmax(axis=1)
            offset[t] = best
            suffix = _log(evidence[:, t]).reshape(B * n) + np.take(step, corner + best)
        head = _log(np.tile(initial, (D, 1))) + suffix.reshape(B, n)
    here = np.empty((T, B), dtype=np.intp)  # flat (row, location) of each step
    here[0] = np.arange(B) * n + head.argmax(axis=1)
    for t in range(1, T):
        at = here[t - 1]
        here[t] = flat_nbr[at, offset[t - 1, at]]
    return np.ascontiguousarray((here % n).reshape(T, D, A).transpose(1, 0, 2)), head.max(axis=1).reshape(D, A)


def viterbi_decode(initial, kernel, evidence, agent: int = 0, day: int = 0) -> DecodedPath:
    """Argmax path over initial * transitions * evidence, in log space: one row of the batched DP."""
    initial, kernel, evidence = _as_inputs(initial, kernel, evidence)
    paths, scores = _viterbi(initial[None], kernel[None], evidence[None, :, None])
    if not np.isfinite(scores[0, 0]):
        raise AllPathsZeroError("no path has positive probability")
    return DecodedPath(agent=agent, day=day, path=tuple(paths[0, :, 0].tolist()), log_score=float(scores[0, 0]))


def decode_agents(initial, kernels, evidence, agents: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode every day of every agent at once, degrading gracefully on contradictory evidence.

    ``initial`` is (agents, n), the start of each day, ``kernels`` (agents,
    n, n), ``evidence`` (days, ticks, agents, n). The likelihood explains any
    simulated event log, but evidence from outside the model (a certain
    sensor's report that no move reaches, a hand-edited event log) can leave
    an agent-day with no positive path. Such rows are re-decoded together
    with a tiny uniform leak added per tick (mirroring the filter's
    predict-only fallback); the leak preserves each tick's argmax ordering.
    Returns the paths (days, ticks, agents), their log scores (days, agents)
    and the number of agent-days that needed the leak; ``agents`` names the
    rows in log messages.
    """
    initial = np.asarray(initial, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    evidence = np.asarray(evidence, dtype=np.float64)
    D, T, A, n = evidence.shape if evidence.ndim == 4 else (0, 0, 0, 0)
    if D * T == 0 or initial.shape != (A, n) or kernels.shape != (A, n, n) or len(agents) != A:
        raise ValidationError("initial, kernels, evidence, and agents dimensions disagree")
    paths, scores = _viterbi(initial, kernels, evidence)
    day, agent = np.nonzero(~np.isfinite(scores))
    if day.size:
        for d, a in zip(day, agent):
            log.debug("contradictory evidence for agent %d day %d; adding uniform leak", agents[a], d)
        stuck = evidence[day, :, agent].transpose(1, 0, 2)  # (ticks, failed rows, n)
        leak = stuck.mean(axis=2, keepdims=True) * LEAK
        leak[leak == 0.0] = 1.0  # an all-zero tick becomes uninformative
        retried, rescored = _viterbi(initial[agent], kernels[agent], (stuck + leak)[None])
        paths[day, :, agent], scores[day, agent] = retried[0].T, rescored[0]
        if not np.isfinite(scores[day, agent]).all():
            raise AllPathsZeroError(f"no path has positive probability on day {day[0]}, even with the leak")
    return paths, scores, int(day.size)


def brute_force_decode(initial, kernel, evidence, agent: int = 0, day: int = 0) -> DecodedPath:
    """Enumerate every location sequence; same tie-break as viterbi_decode.

    The full score tensor is materialized (flat index order is exactly
    lexicographic path order, and argmax takes the first maximum), capped at
    BRUTE_FORCE_CAP paths.
    """
    initial, kernel, evidence = _as_inputs(initial, kernel, evidence)
    T, n = evidence.shape
    if n**T > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(f"{n}^{T} paths exceed the enumeration cap")
    log_k = _log(kernel)
    log_ev = _log(evidence)

    scores = _log(initial) + log_ev[0]
    with np.errstate(invalid="ignore"):
        for t in range(1, T):
            scores = scores[..., None] + (log_k + log_ev[t][None, :])
    flat = scores.reshape(-1)
    best_idx = int(flat.argmax())
    best = float(flat[best_idx])
    if not np.isfinite(best):
        raise AllPathsZeroError("no path has positive probability")
    path = np.unravel_index(best_idx, (n,) * T)
    return DecodedPath(agent=agent, day=day, path=tuple(int(x) for x in path), log_score=best)
