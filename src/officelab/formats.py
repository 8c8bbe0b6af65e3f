"""On-disk formats for stage handoffs.

Line-delimited JSON for event-like streams, CSV for tabular reports. Field
order and float rendering (shortest round-trip repr) are fixed so identical
runs produce byte-identical files. An agent,day,tick,location table is written
from, and read back into, a ``locations[day, tick, a]`` array whose columns
follow the agent ids given (the config's order). Every such table a stage
reads (trajectories.csv and the *_paths.csv tables) goes through read_paths_csv,
which checks it against the config; trajectories.jsonl is an export, not read.
The integer writers (trajectories, events, paths and beliefs) render their
rows in numpy from each format's literal table (PATHS_LITERALS,
EVENT_LITERALS), the same tables the readers check. Both readers parse a file
exactly as written in arrays, and any other line by line, each line decoded
alone so that an error names its line.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from sys import intern
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytics import AgentSurprise, PatternReport
from .config import WorldConfig
from .contacts import GraphMetrics
from .errors import ValidationError
from .fusion import agent_columns, event_columns
from .sensors import EventColumns, ObservationEvent

BELIEF_WRITE_FLOOR = 1e-6  # rows below this are omitted from the belief CSV
BLOCK_ROWS = 8192  # rows rendered at once; bounds the writers' temporaries to a few hundred KB
# trajectories.csv and the *_paths.csv tables: the header line, then each row's literals, before each of its
# agent, day, tick and location and after the last
PATHS_HEADER = b"agent,day,tick,location\n"
PATHS_LITERALS = (b"", b",", b",", b",", b"\n")
TRAJECTORY_LITERALS = (b'{"agent": ', b', "day": ', b', "tick": ', b', "location": ', b"}\n")
EVENT_LITERALS = (b'{"sensor": "', b'", "day": ', b', "tick": ', b', "reported_agent": ', b', "location": ', b"}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, rows: Iterable[str], source: str | None = None) -> None:
    """A ``# source=`` line when ``source`` is given, the header, then the rows, each ending in a newline."""
    with open(path, "w") as fh:
        if source is not None:
            fh.write(f"# source={source}\n")
        fh.write(f"{header}\n")
        fh.writelines(rows)


def _malformed(path: Path, lineno: int, exc: Exception) -> ValidationError:
    return ValidationError(f"{path} line {lineno} is malformed: {exc!r}")


def _texts(values: Iterable[object]) -> np.ndarray:
    """Each value's ``str`` as one entry of a bytes (S) column, to be gathered by index."""
    return np.array([str(v) for v in values], dtype="S")


def _width(column: np.ndarray) -> int:
    """The bytes of ``column``'s widest entry: a bytes (S) column's item size, or an integer column's widest value
    in decimal form."""
    if column.dtype.kind == "S":
        return column.dtype.itemsize
    return max(len(str(int(column.min(initial=0)))), len(str(int(column.max(initial=0)))))


def _fill(slot: np.ndarray, column: np.ndarray) -> None:
    """Lay ``column`` out in ``slot``, a zeroed (rows, width) view: a bytes (S) column's bytes from the left, an
    integer column in decimal form (a ``-`` when negative) from the right."""
    if column.dtype.kind == "S":
        slot[:] = column.view(np.uint8).reshape(slot.shape)
        return
    rest = np.abs(column).astype(np.uint64)  # |int64 min| wraps to 2**63, as it should
    for k in range(slot.shape[1]):  # the digit worth 10**k, k places before the slot's end
        quotient = rest // np.uint64(10)
        digit = rest - quotient * np.uint64(10)
        slot[:, -1 - k] = digit + np.uint64(ord("0")) * ((rest > 0) | (k == 0))  # places left of the first stay 0
        rest = quotient
    negative = np.flatnonzero(column < 0)
    slot[negative, (slot[negative] != 0).argmax(axis=1) - 1] = ord("-")  # before the first digit


def _render(literals: Sequence[bytes], columns: Sequence[np.ndarray]) -> bytes:
    """Rows of ``literals[0]``, ``columns[0][r]``, ``literals[1]``, ..., ``literals[-1]`` as the bytes to write: laid
    out as one (rows, width) uint8 array, each literal at a fixed column and each column's entries in a slot as wide
    as its widest (see _fill), zero bytes padding the rest; then the zero bytes dropped."""
    widths = [_width(c) for c in columns]
    row = b"".join(lit + bytes(width) for lit, width in zip(literals, [*widths, 0]))
    table = np.empty((columns[0].size, len(row)), dtype=np.uint8)
    table[:] = np.frombuffer(row, dtype=np.uint8)
    end = 0
    for lit, column, width in zip(literals, columns, widths):
        end += len(lit) + width
        _fill(table[:, end - width : end], column)
    return table.tobytes().replace(b"\0", b"")


def _write_blocks(fh: BinaryIO, literals: Sequence[bytes], rows: int, columns: Callable[[slice], Sequence]) -> None:
    """Rows 0..rows-1 rendered from ``literals`` and ``columns(block)``, the columns of a block of rows, BLOCK_ROWS
    rows at a time."""
    for lo in range(0, rows, BLOCK_ROWS):
        fh.write(_render(literals, columns(slice(lo, min(lo + BLOCK_ROWS, rows)))))


def _write_locations(
    path: Path, header: bytes, literals: Sequence[bytes], locations: np.ndarray, agents: Sequence[int], walk: tuple
) -> None:
    """``header``, then a row of ``agents[a]``, day, tick and ``locations[day, tick, a]`` for each cell, cells in the
    C order of the (day, tick, a) axes in the order ``walk`` lists them: (0, 1, 2) is tick-major, (2, 0, 1) is
    agent-major."""
    ids, shape = _texts(agents), [locations.shape[axis] for axis in walk]

    def columns(block: slice) -> tuple:
        index = dict(zip(walk, np.unravel_index(np.arange(block.start, block.stop), shape)))
        day, tick, a = index[0], index[1], index[2]
        return ids[a], day, tick, locations[day, tick, a]

    with open(path, "wb") as fh:
        fh.write(header)
        _write_blocks(fh, literals, locations.size, columns)


def write_trajectories_jsonl(locations: np.ndarray, agents: Sequence[int], path: Path) -> None:
    """One JSON object per line, as ``json.dumps`` renders it, for agent ``agents[a]`` of ``locations[day, tick, a]``:
    day by day, tick by tick, columns in order."""
    _write_locations(path, b"", TRAJECTORY_LITERALS, locations, agents, (0, 1, 2))


def write_trajectories_csv(locations: np.ndarray, agents: Sequence[int], path: Path) -> None:
    """The rows write_trajectories_jsonl writes, as a paths table."""
    _write_locations(path, PATHS_HEADER, PATHS_LITERALS, locations, agents, (0, 1, 2))


def _json_ids(config: WorldConfig) -> list[bytes]:
    """Each sensor id as ``json.dumps`` encodes it, without its quotes."""
    return [json.dumps(s.id)[1:-1].encode() for s in config.sensors]


def write_events_jsonl(columns: EventColumns, path: Path, config: WorldConfig) -> None:
    """One JSON object per line, as ``json.dumps`` renders it, from ``config``'s column table; each sensor id is
    encoded once."""
    ids, agents = np.array(_json_ids(config), dtype="S"), _texts(a.id for a in config.agents)

    def fields(b: slice) -> tuple:
        return ids[columns.sensor[b]], columns.day[b], columns.tick[b], agents[columns.agent[b]], columns.location[b]

    with open(path, "wb") as fh:
        _write_blocks(fh, EVENT_LITERALS, columns.day.size, fields)


def _integer_spans(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The integers at ``buf[lo:hi]`` if each is -?(0|[1-9][0-9]*) of at most 18 digits (to fit int64); else None."""
    neg = buf[lo] == ord("-")
    width = hi - lo - neg
    if np.any((width < 1) | (width > 18) | ((buf[lo + neg] == ord("0")) & (neg | (width > 1)))):
        return None
    value = np.zeros(lo.size, dtype=np.int64)
    for k in range(int(width.max(initial=0))):  # the digits worth 10**k, k places before each span's end
        digit = np.where(width > k, buf[hi - 1 - k] - np.uint8(ord("0")), np.uint8(0))
        if np.any(digit > 9):
            return None
        value += digit * np.int64(10**k)
    return np.where(neg, -value, value)


def read_events_jsonl(path: Path, config: WorldConfig) -> EventColumns:
    """The events as ``config``'s column table (fusion.event_columns); a malformed line raises ValidationError
    naming it. A file of write_events_jsonl's exact lines for ``config`` is parsed in arrays, any other by line."""
    buf = np.fromfile(path, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    colons = np.flatnonzero(buf == ord(":"))
    if colons.size != 5 * ends.size or buf[-1:].tobytes() != b"\n" or not config.sensors:  # an empty file too
        return _read_event_lines(path, config)
    # each literal's start: a fixed distance before its colon, the last at the line's end; each ends before the next
    at = [colons[k::5] - lit.index(b":") for k, lit in enumerate(EVENT_LITERALS[:-1])] + [ends - 1]
    if np.any(at[0] != np.append(0, ends[:-1] + 1)) or any(
        np.any(lo + len(lit) > hi) or np.any(sliding_window_view(buf, len(lit))[lo] != np.frombuffer(lit, np.uint8))
        for lit, lo, hi in zip(EVENT_LITERALS, at, at[1:] + [ends + 1])
    ):
        return _read_event_lines(path, config)
    # each id must be one of the config's as the writer encodes it, of the same width; both zero-padded to 8-byte words
    known = _json_ids(config)
    size = np.array([len(k) for k in known])
    lo, width = at[0] + len(EVENT_LITERALS[0]), at[1] - at[0] - len(EVENT_LITERALS[0])
    w = -(-int(size.max(initial=1)) // 8) * 8
    padded = sliding_window_view(np.append(buf, np.zeros(w, np.uint8)), w)[lo]
    ids = np.where(np.arange(w) >= width[:, None], 0, padded)
    word = np.int64 if w == 8 else f"S{w}"  # one word compares as a number, faster than as a string
    key, table = ids.view(word).ravel(), np.array(known, dtype=f"S{w}").view(word)
    by_key = np.argsort(table)
    sensor = by_key[np.searchsorted(table, key, sorter=by_key).clip(max=table.size - 1)]
    numbers = [_integer_spans(buf, lo + len(lit), hi) for lit, lo, hi in zip(EVENT_LITERALS[1:], at[1:], at[2:])]
    if np.any((table[sensor] != key) | (size[sensor] != width)) or any(x is None for x in numbers):
        return _read_event_lines(path, config)
    day, tick, agent, loc = numbers
    agents = [a.id for a in config.agents]
    col = agent_columns(agent, day, tick, loc, agents, config.days, config.ticks_per_day, config.floor_plan.n)
    if col is None:
        return _read_event_lines(path, config)
    return EventColumns(sensor, day, tick, col, loc)


def _read_event_lines(path: Path, config: WorldConfig) -> EventColumns:
    """read_events_jsonl line by line, lines split where text mode splits them: each line as ``json.loads`` reads
    it, but a boolean is not an integer and the sensor must be a string; each sensor id is held once (interned)."""
    events = []
    try:
        for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
            d = json.loads(line.decode())
            row = [intern(d["sensor"])]
            for key in ("day", "tick", "reported_agent", "location"):
                if type(value := d[key]) is bool:
                    raise TypeError(f"{key} must be an integer, got {value!r}")
                row.append(value)
            events.append(ObservationEvent(*row))
    except (ValueError, KeyError, TypeError) as exc:
        raise _malformed(path, lineno, exc) from None
    return event_columns(events, config)


def write_beliefs_csv(beliefs: np.ndarray, agents: Sequence[int], path: Path) -> None:
    """``beliefs[day, tick, a]`` one row per (day, tick, agent column, location), in that order, whose probability
    is at least BELIEF_WRITE_FLOOR, the probability as ``repr`` renders it (once per distinct value of a day);
    ``agents[a]`` names column a."""
    ids = _texts(agents)
    with open(path, "wb") as fh:
        fh.write(b"day,tick,agent,location,probability\n")
        for day, probs in enumerate(beliefs):
            tick, a, loc = np.nonzero(probs >= BELIEF_WRITE_FLOOR)
            # values at or above the floor are equal only when their bits are (no -0.0, no NaN): each distinct
            # value is rendered once, and each row gets its own value's text
            values, which = np.unique(probs[tick, a, loc], return_inverse=True)
            texts = np.array(list(map(repr, values.tolist())), dtype="S")

            def fields(b: slice) -> tuple:
                return tick[b], ids[a[b]], loc[b], texts[which[b]]

            _write_blocks(fh, (b"%d," % day, b",", b",", b",", b"\n"), tick.size, fields)


def write_paths_csv(locations: np.ndarray, agents: Sequence[int], path: Path) -> None:
    """``locations[day, tick, a]`` one row per (agent, day, tick): agents by id (``agents[a]`` names column a),
    then days and ticks in order."""
    order = np.argsort(agents, kind="stable").tolist()
    _write_locations(path, PATHS_HEADER, PATHS_LITERALS, locations[:, :, order], [agents[a] for a in order], (2, 0, 1))


def read_paths_csv(path: Path, config: WorldConfig) -> np.ndarray:
    """``locations[day, tick, a]`` of the configured agents (column a in config order), from the table
    write_paths_csv and write_trajectories_csv write.

    Each row must be four integers in decimal form, name a configured agent
    and day, be the next tick of its (agent, day) path and below
    ticks_per_day, and lie on the floor plan; a row that does not raises
    ValidationError naming its line. The table must also hold every
    configured agent-tick; after the last row, the first one missing raises
    ValidationError naming it.
    """
    days, ticks, n_agents = config.days, config.ticks_per_day, len(config.agents)
    rows, data = days * ticks * n_agents, Path(path).read_bytes()
    if not data.startswith(PATHS_HEADER) or not data.endswith(b"\n"):
        return _read_path_lines(path, config)
    body = np.frombuffer(data, dtype=np.uint8, offset=len(PATHS_HEADER))
    sep = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    after = np.frombuffer(b"".join(PATHS_LITERALS[1:]), dtype=np.uint8)  # the literal after each of a row's fields
    if sep.size != 4 * rows or np.any(body[sep].reshape(rows, 4) != after):
        return _read_path_lines(path, config)
    values = _integer_spans(body, np.append(-1, sep)[:-1] + 1, sep)  # each field, from after the last separator
    if values is None:
        return _read_path_lines(path, config)
    agent, day, tick, loc = values.reshape(rows, 4).T
    col = agent_columns(agent, day, tick, loc, [a.id for a in config.agents], days, ticks, config.floor_plan.n)
    if col is None:
        return _read_path_lines(path, config)
    # each (agent, day) path, in file order, must be its ticks 0..ticks-1, and the paths every configured one
    path_of = col * days + day
    if np.any((path_of * ticks + tick)[np.argsort(path_of, kind="stable")] != np.arange(rows)):
        return _read_path_lines(path, config)
    locations = np.empty((days, ticks, n_agents), dtype=np.int64)
    locations[day, tick, col] = loc
    return locations


def _read_path_lines(path: Path, config: WorldConfig) -> np.ndarray:
    """read_paths_csv line by line."""
    n, ticks, n_agents = config.floor_plan.n, config.ticks_per_day, len(config.agents)
    # (agent, day) -> the flat index of its tick 0; tick t sits n_agents further on per tick
    first = {(a.id, day): day * ticks * n_agents + i for i, a in enumerate(config.agents) for day in range(config.days)}
    next_tick = dict.fromkeys(first, 0)
    flat = [0] * (config.days * ticks * n_agents)
    with open(path, "rb") as fh:  # lines end at b"\n" only; each is decoded on its own
        lineno = 1
        try:
            if fh.readline() != PATHS_HEADER:
                raise ValueError(f"expected the header {PATHS_HEADER.decode().rstrip()!r}")
            for lineno, line in enumerate(fh, 2):
                fields = line.decode().removesuffix("\n").split(",")
                agent, day, tick, loc = values = [int(f) for f in fields]
                if bad := [f for f, v in zip(fields, values) if str(v) != f]:
                    raise ValueError(f"{bad[0]!r} is not an integer in decimal form")
                expected = next_tick.get((agent, day))
                if expected is None:
                    raise ValueError(f"agent {agent} at day {day} is not configured")
                if not 0 <= tick < ticks:
                    raise ValueError(f"tick {tick} of agent {agent} at day {day} is outside the day's 0..{ticks - 1}")
                if tick < expected:
                    raise ValueError(f"agent {agent} at day {day} tick {tick} repeats a row")
                if tick > expected:
                    raise ValueError(f"no record of agent {agent} at day {day} tick {expected} before tick {tick}")
                if not 0 <= loc < n:
                    raise ValueError(f"location {loc} is outside the floor plan's 0..{n - 1}")
                next_tick[agent, day] = tick + 1
                flat[first[agent, day] + tick * n_agents] = loc
        except ValueError as exc:
            raise _malformed(path, lineno, exc) from None
    missing = [(agent, day, tick) for (agent, day), tick in next_tick.items() if tick < ticks]
    if missing:
        agent, day, tick = min(missing)
        raise ValidationError(f"{path} has no record of agent {agent} at day {day} tick {tick}")
    return np.array(flat, dtype=np.int64).reshape(config.days, ticks, n_agents)


def write_decode_scores_csv(scores: np.ndarray, agents: Sequence[int], path: Path) -> None:
    """``scores[day, a]`` one row per (agent, day): agents by id (``agents[a]`` names column a), then days in order."""
    rows = (
        f"{agents[a]},{day},{_fmt(s)}\n"
        for a in np.argsort(agents, kind="stable").tolist()
        for day, s in enumerate(scores[:, a].tolist())
    )
    _write_csv(path, "agent,day,log_score", rows)


def write_occupancy_csv(results: Sequence[AgentSurprise], path: Path, source: str) -> None:
    """surprise_by_day's ``results``, one per agent in row order: every baseline, then every day's occupancy."""
    dists = chain((baseline for baseline, _, _ in results), (d for _, days, _ in results for d in days.values()))
    rows = (f"{dist.agent},{dist.scope},{loc},{_fmt(p)}\n" for dist in dists for loc, p in enumerate(dist.probs))
    _write_csv(path, "agent,scope,location,probability", rows, source)


def write_surprise_csv(results: Sequence[AgentSurprise], path: Path, source: str) -> None:
    """surprise_by_day's ``results``, one per agent in row order: each day's surprise."""
    rows = (f"{s.agent},{s.day},{_fmt(s.bits)}\n" for _, _, scores in results for s in scores.values())
    _write_csv(path, "agent,day,bits", rows, source)


def write_patterns_csv(reports: Sequence[PatternReport], path: Path, source: str) -> None:
    """One report per agent, in row order."""
    rows = (
        f"{report.agent},{'-'.join(str(x) for x in pattern)},{support}\n"
        for report in reports
        for pattern, support, _ in report.patterns
    )
    _write_csv(path, "agent,pattern,support", rows, source)


def write_fig_panels_csv(results: Sequence[AgentSurprise], path: Path, source: str) -> None:
    """Plot-ready long table with three panels, agents in the order of surprise_by_day's ``results``:
    (a) pooled occupancy per location, (b) per-day occupancy, (c) per-day surprise."""
    pooled = (f"a,{b.agent},,{x},{_fmt(p)}\n" for b, _, _ in results for x, p in enumerate(b.probs))
    per_day = (
        f"b,{dist.agent},{d},{x},{_fmt(p)}\n"
        for _, days, _ in results
        for d, dist in days.items()
        for x, p in enumerate(dist.probs)
    )
    surprise = (f"c,{s.agent},{s.day},,{_fmt(s.bits)}\n" for _, _, scores in results for s in scores.values())
    _write_csv(path, "panel,agent,day,location,value", chain(pooled, per_day, surprise), source)


def write_node_metrics_csv(metrics: GraphMetrics, path: Path) -> None:
    nodes = metrics.node_metrics
    rows = (f"{a},{m['in_degree']},{m['out_degree']},{m['weighted_degree']}\n" for a, m in sorted(nodes.items()))
    _write_csv(path, "agent,in_degree,out_degree,weighted_degree", rows)


def _csv_text(text: str) -> str:
    """Free text from the config as ``csv.writer``'s default dialect writes it: in quotes, inner quotes doubled,
    when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_department_matrix_csv(metrics: GraphMetrics, path: Path) -> None:
    matrix = sorted(metrics.department_matrix.items())
    rows = (f"{_csv_text(src)},{_csv_text(dst)},{w}\n" for (src, dst), w in matrix)
    _write_csv(path, "from_department,to_department,weight", rows)
