"""Output checks and tracking-quality scoring, read from the files a run leaves.

Everything here parses the stage outputs independently of officelab, so a
change to the program cannot also change what it is checked against.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

MANIFEST = "manifest.json"

# Which stage writes each data file; a failed check on a file fails that stage.
FILE_STAGE = {
    "trajectories.jsonl": "simulate",
    "trajectories.csv": "simulate",
    "events.jsonl": "observe",
    "beliefs.csv": "fuse",
    "argmax_paths.csv": "fuse",
    "decoded_paths.csv": "decode",
    "decode_scores.csv": "decode",
    "occupancy.csv": "analyze",
    "surprise.csv": "analyze",
    "patterns.csv": "analyze",
    "fig_panels.csv": "analyze",
    "contacts.dot": "graph",
    "contact_edges.csv": "graph",
    "node_metrics.csv": "graph",
    "department_matrix.csv": "graph",
}

Table = dict[tuple[int, int, int], int]  # (agent, day, tick) -> location


def data_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in a run directory except the manifest."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != MANIFEST
    }


def digest_mismatches(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Files whose digest differs between two runs of one seed, or that one run lacks."""
    return sorted(name for name in first.keys() | again.keys() if first.get(name) != again.get(name))


def read_table(path: Path) -> tuple[Table, int]:
    """An agent,day,tick,location CSV as a table, plus its row count (duplicates included)."""
    table: Table = {}
    rows = 0
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = [header.index(k) for k in ("agent", "day", "tick", "location")]
        for line in fh:
            parts = line.rstrip("\n").split(",")
            agent, day, tick, loc = (int(parts[c]) for c in cols)
            table[(agent, day, tick)] = loc
            rows += 1
    return table, rows


def complete(table: Table, rows: int, agents: list[int], days: int, ticks: int) -> bool:
    """One row per agent-tick: every (agent, day, tick) once and nothing else."""
    expected = len(agents) * days * ticks
    if rows != expected or len(table) != expected:
        return False
    return all(
        (a, d, t) in table for a in agents for d in range(days) for t in range(ticks)
    )


def bad_steps(table: Table, neighbours: dict[int, set[int]]) -> int:
    """Count of consecutive-tick moves that go neither nowhere nor to a neighbour."""
    bad = 0
    for (agent, day, tick), loc in table.items():
        nxt = table.get((agent, day, tick + 1))
        if nxt is not None and nxt != loc and nxt not in neighbours.get(loc, ()):
            bad += 1
    return bad


def matches(predicted: Table, truth: Table) -> int:
    """Agent-ticks where the prediction equals the truth."""
    return sum(1 for key, loc in truth.items() if predicted.get(key) == loc)


def neighbours_of(adjacency: list[list[int]]) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for u, v in adjacency:
        out.setdefault(u, set()).add(v)
        out.setdefault(v, set()).add(u)
    return out


def occupancy(table: Table, n: int) -> list[float]:
    counts = [0] * n
    for loc in table.values():
        counts[loc] += 1
    total = sum(counts)
    return [c / total for c in counts]


def distribution_problem(pi, n: int) -> str | None:
    """Why ``pi`` is not a distribution over n locations, or None if it is."""
    values = [float(x) for x in pi]
    if len(values) != n:
        return f"has {len(values)} entries, expected {n}"
    if min(values) < 0.0:
        return f"has a negative entry {min(values)!r}"
    if abs(sum(values) - 1.0) > 1e-9:
        return f"sums to {sum(values)!r}"
    return None


def l1(p, q) -> float:
    return sum(abs(float(a) - float(b)) for a, b in zip(p, q))
