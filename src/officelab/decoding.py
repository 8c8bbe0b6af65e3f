"""Most-likely path extraction from per-tick evidence.

Joint decoding via log-space dynamic programming (Rabiner 1989, "A Tutorial
on HMMs", §III), batched: every row (one agent-day) has its own initial
distribution, motion kernel and evidence, and one pass decodes all rows of a
day. Zero-probability transitions are hard constraints, so decoded paths
stay on the motion kernel's support; each max runs over that support only,
through a padded neighbour table read off the kernels' nonzero pattern (a
dense kernel makes it the full max). decode_agents returns a day's paths as
one (ticks, agents) array and their scores as one (agents,) array;
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
    """Best paths (ticks, rows) and their log scores (rows,); a score is -inf where no path has positive probability.

    ``initial`` is (rows, n), ``kernels`` (rows, n, n), ``evidence`` (ticks, rows, n).
    Suffix scores are computed backward, recording from each location the
    lowest-id best next one; following those pointers from the lowest-id best
    start yields the lexicographically smallest optimal path.
    """
    T, B, n = evidence.shape
    support = kernels > 0
    width = int(support.sum(axis=2).max(initial=1))
    # per (row, location): the kernel row's support in ascending order, padded
    # with locations the kernel gives zero, whose log is -inf
    nbr = np.argsort(~support, axis=2, kind="stable")[:, :, :width].reshape(B * n, width)
    log_k = _log(np.take_along_axis(kernels.reshape(B * n, n), nbr, axis=1))
    flat_nbr = (nbr + np.repeat(np.arange(B) * n, n)[:, None]).ravel()  # into a raveled (rows, n) array
    log_ev = _log(evidence).reshape(T, B * n)
    corner = np.arange(B * n) * width  # first candidate of each (row, location)

    suffix = np.empty((T, B * n))
    suffix[T - 1] = log_ev[T - 1]
    best = np.empty((T, B * n), dtype=np.intp)  # best next (row, location) from each (row, location)
    with np.errstate(invalid="ignore"):
        for t in range(T - 2, -1, -1):
            # suffix[t][b, i] = ev[t][b, i] + max over j in support(b, i) of (K[b, i, j] + suffix[t + 1][b, j]);
            # argmax takes the first maximum, the lowest j
            step = log_k + np.take(suffix[t + 1], flat_nbr).reshape(B * n, width)
            pick = corner + step.argmax(axis=1)
            np.add(log_ev[t], np.take(step, pick), out=suffix[t])
            np.take(flat_nbr, pick, out=best[t + 1])
        head = _log(initial) + suffix[0].reshape(B, n)
    here = np.empty((T, B), dtype=np.intp)  # flat (row, location) of each step
    here[0] = np.arange(B) * n + head.argmax(axis=1)
    for t in range(1, T):
        np.take(best[t], here[t - 1], out=here[t])
    return here % n, head.max(axis=1)


def viterbi_decode(initial, kernel, evidence, agent: int = 0, day: int = 0) -> DecodedPath:
    """Argmax path over initial * transitions * evidence, in log space: one row of the batched DP."""
    initial, kernel, evidence = _as_inputs(initial, kernel, evidence)
    paths, scores = _viterbi(initial[None], kernel[None], evidence[:, None])
    if not np.isfinite(scores[0]):
        raise AllPathsZeroError("no path has positive probability")
    return DecodedPath(agent=agent, day=day, path=tuple(paths[:, 0].tolist()), log_score=float(scores[0]))


def decode_agents(
    initial, kernels, evidence, agents: Sequence[int], day: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode one day of every agent at once, degrading gracefully on contradictory evidence.

    ``initial`` is (agents, n), ``kernels`` (agents, n, n), ``evidence``
    (ticks, agents, n). The likelihood explains any simulated event log,
    but evidence from outside the model (a certain sensor's report that no
    move reaches, a hand-edited event log) can leave a row with no positive
    path. Such rows are re-decoded together with a tiny uniform leak added
    per tick (mirroring the filter's predict-only fallback); the leak preserves
    each tick's argmax ordering. Returns the paths (ticks, agents), their
    log scores (agents,) and the number of rows that needed the leak;
    ``agents`` names the rows in log messages.
    """
    initial = np.asarray(initial, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    evidence = np.asarray(evidence, dtype=np.float64)
    T, B, n = evidence.shape if evidence.ndim == 3 else (0, 0, 0)
    if T == 0 or initial.shape != (B, n) or kernels.shape != (B, n, n) or len(agents) != B:
        raise ValidationError("initial, kernels, evidence, and agents dimensions disagree")
    paths, scores = _viterbi(initial, kernels, evidence)
    failed = np.flatnonzero(~np.isfinite(scores))
    if failed.size:
        for b in failed:
            log.debug("contradictory evidence for agent %d day %d; adding uniform leak", agents[b], day)
        stuck = evidence[:, failed]
        leak = stuck.mean(axis=2, keepdims=True) * LEAK
        leak[leak == 0.0] = 1.0  # an all-zero tick becomes uninformative
        paths[:, failed], scores[failed] = _viterbi(initial[failed], kernels[failed], stuck + leak)
        if not np.isfinite(scores[failed]).all():
            raise AllPathsZeroError(f"no path has positive probability on day {day}, even with the leak")
    return paths, scores, int(failed.size)


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
