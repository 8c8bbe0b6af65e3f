from __future__ import annotations

import csv
import dataclasses
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.config import WorldConfig, load_config
from officelab.contacts import ContactGraph, graph_metrics
from officelab.errors import NoPathError, ValidationError
from officelab import formats
from officelab.formats import (
    BELIEF_WRITE_FLOOR,
    _read_event_lines,
    _read_path_lines,
    _render,
    read_events_jsonl,
    read_paths_csv,
    write_beliefs_csv,
    write_decode_scores_csv,
    write_department_matrix_csv,
    write_events_jsonl,
    write_paths_csv,
    write_trajectories_csv,
    write_trajectories_jsonl,
)
from officelab.pipeline import run_pipeline
from officelab.sensors import EventColumns, ObservationEvent, SensorSpec
from officelab.simulate import run_simulation
from officelab.world import FloorPlan

from conftest import line_plan, uniform_agent


def _config(agents, days: int, ticks: int, n: int) -> WorldConfig:
    plan = line_plan(n)
    return WorldConfig(plan, tuple(uniform_agent(a, 0, n) for a in agents), ticks, days, rng_seed=0)


def test_trajectories_round_trip(tmp_path):
    locations = np.array([[[(a + t) % 3 for a in range(2)] for t in range(4)]] * 2)  # agent a at (a + t) % 3
    path = tmp_path / "t.csv"
    write_trajectories_csv(locations, [0, 1], path)
    read = read_paths_csv(path, _config(range(2), 2, 4, 3))
    assert read.dtype == np.int64 and np.array_equal(read, locations)


def _event_config(sensor_ids, agents, days: int, ticks: int, n: int) -> WorldConfig:
    sensors = tuple(SensorSpec(s, "camera", (0,)) for s in sensor_ids)
    return dataclasses.replace(_config(agents, days, ticks, n), sensors=sensors)


def _columns(events, config: WorldConfig) -> EventColumns:
    """The tracker's column table of ``events`` (sensor ids and agents as ``config`` lists them)."""
    sensors, agents = [s.id for s in config.sensors], [a.id for a in config.agents]
    rows = [(sensors.index(s), d, t, agents.index(a), x) for s, d, t, a, x in events]
    return EventColumns(*(np.array(c, dtype=np.int64).reshape(-1) for c in (zip(*rows) if rows else [()] * 5)))


def _assert_same_columns(got: EventColumns, expected: EventColumns) -> None:
    assert all(np.array_equal(g, e) and g.dtype == np.int64 for g, e in zip(got, expected))


def test_events_round_trip_with_stable_field_order(tmp_path):
    config = _event_config(("tag1", "cam0"), (0, 1), 2, 4, 6)
    columns = _columns([ObservationEvent("cam0", 0, 3, 1, 2), ObservationEvent("tag1", 1, 0, 0, 5)], config)
    path = tmp_path / "e.jsonl"
    write_events_jsonl(columns, path, config)
    _assert_same_columns(read_events_jsonl(path, config), columns)
    first = path.read_text().splitlines()[0]
    assert first.index('"sensor"') < first.index('"day"') < first.index('"tick"')
    assert first.index('"tick"') < first.index('"reported_agent"') < first.index('"location"')


def _json_dumps_lines(objects) -> str:
    return "".join(json.dumps(o) + "\n" for o in objects)


def test_jsonl_writers_match_json_dumps_byte_for_byte(tmp_path):
    # ids needing escapes: a quote, a backslash, a non-ASCII letter, a control character
    sensor_ids = ("cam0", 'say "hi"', "back\\slash", "caméra", "tab\there")
    config = _event_config(sensor_ids, (17, 0), 4, 300, 50)
    events = [
        ObservationEvent(sensor, day, tick, agent, loc)
        for sensor in sensor_ids
        for day, tick, agent, loc in ((0, 0, 0, 0), (3, 299, 17, 49))
    ]
    columns = _columns(events, config)
    write_events_jsonl(columns, tmp_path / "e.jsonl", config)
    assert (tmp_path / "e.jsonl").read_text() == _json_dumps_lines(
        {"sensor": e.sensor, "day": e.day, "tick": e.tick, "reported_agent": e.reported_agent, "location": e.location}
        for e in events
    )
    _assert_same_columns(read_events_jsonl(tmp_path / "e.jsonl", config), columns)
    locations = np.arange(12).reshape(2, 3, 2) * 4  # agents 12 and 0, in that column order
    write_trajectories_jsonl(locations, [12, 0], tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text() == _json_dumps_lines(
        {"agent": agent, "day": d, "tick": t, "location": int(locations[d, t, a])}
        for d in range(2)
        for t in range(3)
        for a, agent in enumerate((12, 0))
    )
    write_events_jsonl(_columns([], config), tmp_path / "none.jsonl", config)
    assert (tmp_path / "none.jsonl").read_text() == ""


def test_events_reader_takes_what_json_loads_takes(tmp_path):
    config = _event_config(("cam0",), (0, 1), 1, 4, 3)
    line = '{"sensor": "cam0", "day": 0, "tick": 3, "reported_agent": 1, "location": 2}'
    path = tmp_path / "e.jsonl"
    path.write_text(f"{line}\n  {line}  \n{line.replace(', ', ',')}")  # padded, compact, no final newline
    _assert_same_columns(read_events_jsonl(path, config), _columns([ObservationEvent("cam0", 0, 3, 1, 2)] * 3, config))
    for bad in (line + " x", line[:-1], "", "[1, 2]", line.replace('"tick"', '"tock"'), "\f" + line):  # \f is not JSON whitespace
        path.write_text(f"{line}\n{bad}\n")
        with pytest.raises(ValidationError, match="line 2 is malformed"):
            read_events_jsonl(path, config)
    # a boolean is not an integer, although np.array([True, 0]) is an int64 column
    for key, value in (("day", 0), ("tick", 3), ("reported_agent", 1), ("location", 2)):
        flag = json.dumps(bool(value))
        path.write_text(f"{line}\n" + line.replace(f'"{key}": {value}', f'"{key}": {flag}') + "\n")
        with pytest.raises(ValidationError, match=f"line 2 is malformed: TypeError.*{key} must be an integer, got"):
            read_events_jsonl(path, config)
    # nor is a float or a string, although 1.0 == 1 and the config has an agent 1
    for value in ("1.0", '"1"'):
        path.write_text(f"{line}\n" + line.replace('"reported_agent": 1', f'"reported_agent": {value}') + "\n")
        with pytest.raises(ValidationError, match="events carry a reported_agent that is not an integer"):
            read_events_jsonl(path, config)


def test_paths_csv_round_trip(tmp_path):
    locations = np.array([[[1, 2], [1, 0], [2, 1]], [[0, 1], [2, 1], [2, 0]]])  # agents 0 and 3 over 2 days
    file = tmp_path / "p.csv"
    write_paths_csv(locations, [0, 3], file)
    assert np.array_equal(read_paths_csv(file, _config((0, 3), 2, 3, 3)), locations)
    assert file.read_text().splitlines()[1:4] == ["0,0,0,1", "0,0,1,1", "0,0,2,2"]  # agent-major, by id
    write_paths_csv(locations[:, :, ::-1], [3, 0], tmp_path / "q.csv")  # columns given out of id order
    assert (tmp_path / "q.csv").read_text() == file.read_text()


def test_readers_reject_a_location_off_the_floor_plan_naming_its_line(tmp_path):
    walk = np.array([0, 2, -1]).reshape(1, 3, 1)  # agent 0 at 0, 2, -1
    write_trajectories_csv(walk[:, :2], [0], tmp_path / "p.csv")
    assert np.array_equal(read_paths_csv(tmp_path / "p.csv", _config((0,), 1, 2, 3)), walk[:, :2])
    with pytest.raises(ValidationError, match=r"p.csv line 3 is malformed.*location 2 is outside the floor plan's 0..1"):
        read_paths_csv(tmp_path / "p.csv", _config((0,), 1, 2, 2))
    write_trajectories_csv(walk, [0], tmp_path / "p.csv")
    with pytest.raises(ValidationError, match=r"p.csv line 4 is malformed.*location -1"):
        read_paths_csv(tmp_path / "p.csv", _config((0,), 1, 3, 3))


def test_paths_reader_rejects_rows_off_the_configured_agent_ticks(tmp_path):
    config = _config((0, 1), 1, 2, 3)
    rows = ["0,0,0,1", "1,0,0,2", "1,0,1,0", "0,0,1,1"]
    path = tmp_path / "p.csv"
    for extra, problem in (
        ("2,0,0,0", "agent 2 at day 0 is not configured"),
        ("0,1,0,0", "agent 0 at day 1 is not configured"),
        ("0,0,2,0", "tick 2 of agent 0 at day 0 is outside the day's 0..1"),
        ("0,0,-1,0", "tick -1 of agent 0 at day 0 is outside the day's 0..1"),
        ("1,0,1,0", "agent 1 at day 0 tick 1 repeats a row"),
    ):
        path.write_text("\n".join(["agent,day,tick,location", *rows, extra, ""]))
        with pytest.raises(ValidationError, match=f"p.csv line 6 is malformed.*{problem}"):
            read_paths_csv(path, config)
    path.write_text("\n".join(["agent,day,tick,location", "0,0,1,1", ""]))
    with pytest.raises(ValidationError, match="p.csv line 2 is malformed.*no record of agent 0 at day 0 tick 0 before tick 1"):
        read_paths_csv(path, config)
    path.write_text("\n".join(["agent,day,tick,location", *rows[:3], ""]))
    with pytest.raises(ValidationError, match="p.csv has no record of agent 0 at day 0 tick 1"):
        read_paths_csv(path, config)
    # each field must be an integer in decimal form; int() alone would read every one of these as on the plan
    wide = _config((0, 1), 1, 2, 11)
    for field in (" 1", "+1", "01", "-0", "1\r", "\u0663", "1_0", "1 "):
        path.write_text("\n".join(["agent,day,tick,location", *rows[:3], f"0,0,1,{field}", ""]))
        problem = ValueError(f"{field!r} is not an integer in decimal form")
        with pytest.raises(ValidationError, match=re.escape(f"p.csv line 5 is malformed: {problem!r}")):
            read_paths_csv(path, wide)
    path.write_text("\r\n".join(["agent,day,tick,location", *rows, ""]))  # CRLF line ends
    with pytest.raises(ValidationError, match="p.csv line 1 is malformed.*expected the header"):
        read_paths_csv(path, config)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_paths_reader_reads_back_the_written_table_and_names_a_lost_or_repeated_row(tmp_path_factory, data):
    agents = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True), label="agents")
    days, ticks, n = (data.draw(st.integers(1, k)) for k in (3, 4, 4))
    config = _config(agents, days, ticks, n)
    cells = [data.draw(st.integers(0, n - 1)) for _ in range(days * ticks * len(agents))]
    locations = np.array(cells, dtype=np.int64).reshape(days, ticks, len(agents))
    path = tmp_path_factory.mktemp("paths") / "p.csv"
    if data.draw(st.booleans(), label="paths table"):  # agent-major, as decode and fuse write it
        write_paths_csv(locations, agents, path)
    else:  # tick-major, as simulate writes it
        write_trajectories_csv(locations, agents, path)
    assert np.array_equal(read_paths_csv(path, config), locations)
    header, *rows = path.read_text().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    if data.draw(st.booleans(), label="repeat"):
        j = data.draw(st.integers(i + 1, len(rows)), label="copy at")
        path.write_text("".join([header, *rows[:j], rows[i], *rows[j:]]))
        with pytest.raises(ValidationError, match=f"p.csv line {j + 2} is malformed.*repeats a row"):
            read_paths_csv(path, config)
    else:
        path.write_text("".join([header, *rows[:i], *rows[i + 1 :]]))
        agent, day, tick, _ = rows[i].split(",")
        with pytest.raises(ValidationError, match=f"no record of agent {agent} at day {day} tick {tick}"):
            read_paths_csv(path, config)


# bytes a mutation inserts or substitutes: those the array paths treat specially, then any byte
_MUTANT_BYTES = st.sampled_from(list(b'0123456789-,:" \n\r\t\\+_.e{}[]tf\0')) | st.integers(0, 255)


@st.composite
def _mutated(draw, text: bytes) -> bytes:
    """``text`` after one random byte substitution, deletion or insertion, or one line swap, drop or repeat."""
    kind = draw(st.sampled_from(("substitute", "delete", "insert", "swap", "drop", "repeat")), label="mutation")
    if kind in ("substitute", "delete", "insert"):
        if not text:
            return bytes([draw(_MUTANT_BYTES)])
        digits = [i for i, byte in enumerate(text) if chr(byte).isdigit()]
        id_ends = [m.start() for m in re.finditer(rb'", "day": ', text)]  # each sensor id's closing quote
        # anywhere, at a digit or at a sensor id's closing quote (an insertion there extends the id), each as often
        places = [st.sampled_from(p) for p in (digits, id_ends) if p]
        i = draw(st.one_of(st.integers(0, len(text) - 1), *places), label="at")
        if kind == "insert" and i in id_ends:  # a NUL after an id pads to the same words as the id itself
            return text[:i] + b"\0" + text[i:]
        byte = b"" if kind == "delete" else bytes([draw(_MUTANT_BYTES, label="byte")])
        return text[:i] + byte + text[i + (kind != "insert") :]
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    i, j = (draw(st.integers(0, len(lines) - 1), label=label) for label in ("line", "other"))
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "drop":
        del lines[i]
    else:
        lines.insert(j, lines[i])
    return b"".join(lines)


def _outcome(read, path: Path, config: WorldConfig):
    """What ``read`` makes of ``path``: its array or arrays, or the text of the ValidationError it raises."""
    try:
        return read(path, config)
    except ValidationError as exc:
        return str(exc)


def _assert_same_outcome(got, expected) -> None:
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        pairs = zip(got, expected) if isinstance(expected, tuple) else [(got, expected)]
        assert all(g.dtype == e.dtype == np.int64 and np.array_equal(g, e) for g, e in pairs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_paths_reader_equals_the_line_reader_on_written_tables_and_their_mutants(tmp_path_factory, data):
    agents = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True), label="agents")
    days, ticks, n = (data.draw(st.integers(1, k)) for k in (3, 4, 12))
    config = _config(agents, days, ticks, n)
    size = days * ticks * len(agents)
    cells = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size), label="locations")
    locations = np.array(cells, dtype=np.int64).reshape(days, ticks, len(agents))
    path = tmp_path_factory.mktemp("paths") / "p.csv"
    write = data.draw(st.sampled_from((write_paths_csv, write_trajectories_csv)), label="writer")
    write(locations, agents, path)
    path.write_bytes(data.draw(_mutated(path.read_bytes())))
    _assert_same_outcome(_outcome(read_paths_csv, path, config), _outcome(_read_path_lines, path, config))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_events_reader_equals_the_line_reader_on_written_logs_and_their_mutants(tmp_path_factory, data):
    # an id holding ":" sends the whole log to the line reader, so only about one config in eight may have one
    alphabet = "ab0:\"\\\u00e9 " if data.draw(st.integers(0, 7), label="colons") == 0 else "ab0\"\\\u00e9 "
    ids = data.draw(st.lists(st.text(alphabet, max_size=3), min_size=1, max_size=3, unique=True), label="ids")
    agents = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True), label="agents")
    days, ticks, n = (data.draw(st.integers(1, k)) for k in (3, 12, 12))
    config = _event_config(ids, agents, days, ticks, n)
    event = st.tuples(*(st.integers(0, k - 1) for k in (len(ids), days, ticks, len(agents), n)))
    # at least one event: an empty log reaches the array path only as a mutant's one inserted byte
    rows = sorted(data.draw(st.lists(event, min_size=1, max_size=12), label="events"), key=lambda row: row[1])
    columns = EventColumns(*(np.array(c, dtype=np.int64) for c in zip(*rows)))
    path = tmp_path_factory.mktemp("events") / "e.jsonl"
    write_events_jsonl(columns, path, config)
    path.write_bytes(data.draw(_mutated(path.read_bytes())))
    _assert_same_outcome(_outcome(read_events_jsonl, path, config), _outcome(_read_event_lines, path, config))


def _refuse(path, *args):
    raise AssertionError(f"{path} went to the line reader")


def test_every_handoff_a_pipeline_writes_takes_the_array_path(tmp_path):
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")
    run_pipeline(config, "demo.json", tmp_path)
    tables = [tmp_path / name for name in ("trajectories.csv", "decoded_paths.csv", "argmax_paths.csv")]
    events = tmp_path / "events.jsonl"
    expected = [_read_path_lines(path, config) for path in tables] + [_read_event_lines(events, config)]
    with (
        mock.patch("officelab.formats._read_path_lines", _refuse),
        mock.patch("officelab.formats._read_event_lines", _refuse),
    ):
        got = [read_paths_csv(path, config) for path in tables] + [read_events_jsonl(events, config)]
    for read, want in zip(got, expected):
        _assert_same_outcome(read, want)


def test_ids_that_need_escapes_or_more_than_one_word_take_the_array_path(tmp_path):
    ids = ('say "hi"', "back\\slash", "caméra", "a_long_sensor_id")
    config = _event_config(ids, (3, 0), 2, 5, 4)
    events = [ObservationEvent(s, d, t, a, x) for s in ids for d, t, a, x in ((0, 4, 3, 0), (1, 0, 0, 3))]
    path = tmp_path / "e.jsonl"
    write_events_jsonl(_columns(events, config), path, config)
    with mock.patch("officelab.formats._read_event_lines", _refuse):
        _assert_same_columns(read_events_jsonl(path, config), _read_event_lines(path, config))
    # an id that extends a configured one, by a letter, by a NUL byte or beyond the longest, matches none
    text = path.read_bytes()
    for sensor, extra in ((ids[2], b"s"), (ids[1], b"\0"), (ids[3], b"_2")):
        head = b'{"sensor": "' + json.dumps(sensor)[1:-1].encode()
        path.write_bytes(text.replace(head, head + extra, 1))
        _assert_same_outcome(_outcome(read_events_jsonl, path, config), _outcome(_read_event_lines, path, config))
    path.write_bytes(text)  # and nothing matches in a config without sensors or without agents
    for bare in (dataclasses.replace(config, sensors=()), dataclasses.replace(config, agents=())):
        _assert_same_outcome(_outcome(read_events_jsonl, path, bare), _outcome(_read_event_lines, path, bare))


def test_a_byte_that_is_not_utf8_is_named_on_its_line(tmp_path):
    config = _event_config(("cam0",), (0, 1), 1, 300, 3)
    rows = [(0, 0, t, a, (t + a) % 3) for t in range(300) for a in range(2)]
    events, table = tmp_path / "e.jsonl", tmp_path / "t.csv"
    write_events_jsonl(EventColumns(*(np.array(c, dtype=np.int64) for c in zip(*rows))), events, config)
    write_trajectories_csv(np.arange(900).reshape(1, 300, 3) % 3, [0, 1, 2], table)
    for path, lineno, read, reference in (
        (events, 501, read_events_jsonl, config),
        (table, 701, read_paths_csv, _config((0, 1, 2), 1, 300, 3)),
    ):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace(b"0", b"\x80", 1)
        path.write_bytes(b"".join(lines))
        line = lines[lineno - 1] if read is read_paths_csv else lines[lineno - 1].rstrip(b"\n")  # as each splits it
        at = line.index(b"\x80")
        problem = UnicodeDecodeError("utf-8", line, at, at + 1, "invalid start byte")
        with pytest.raises(ValidationError) as caught:
            read(path, reference)
        assert str(caught.value) == f"{path} line {lineno} is malformed: {problem!r}"


def test_readers_give_the_line_readers_result_on_an_empty_log_an_unended_line_and_an_id_with_a_colon(tmp_path):
    config = _event_config(("cam:0", "tag1"), (0, 1), 1, 4, 3)
    columns = _columns([ObservationEvent("cam:0", 0, 3, 1, 2), ObservationEvent("tag1", 0, 1, 0, 0)], config)
    path = tmp_path / "e.jsonl"
    write_events_jsonl(columns, path, config)
    text = path.read_bytes()
    for variant in (text, text[:-1], b""):
        path.write_bytes(variant)
        _assert_same_outcome(_outcome(read_events_jsonl, path, config), _outcome(_read_event_lines, path, config))
    locations, config = np.array([[[1, 2], [0, 1]]]), _config((0, 1), 1, 2, 3)
    write_paths_csv(locations, [0, 1], path)
    path.write_bytes(path.read_bytes()[:-1])
    _assert_same_outcome(read_paths_csv(path, config), locations)
    _assert_same_outcome(_read_path_lines(path, config), locations)


def test_trajectories_csv_reads_back_as_the_simulated_locations(tmp_path):
    # observe, and analytics on ground truth, read trajectories.csv through read_paths_csv
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")
    locations = run_simulation(config)
    file = tmp_path / "trajectories.csv"
    write_trajectories_csv(locations, [a.id for a in config.agents], file)
    assert np.array_equal(read_paths_csv(file, config), locations)


def test_belief_csv_omits_rows_below_write_floor(tmp_path):
    beliefs = np.array([0.9999989, 1e-6, 1e-7]).reshape(1, 1, 1, 3)
    file = tmp_path / "b.csv"
    write_beliefs_csv(beliefs, [0], file)
    lines = file.read_text().splitlines()
    assert lines[0] == "day,tick,agent,location,probability"
    locations = [int(line.split(",")[3]) for line in lines[1:]]
    assert locations == [0, 1]  # the 1e-7 row is sparsified away


def _beliefs_csv_per_tick(beliefs: np.ndarray, agents, path: Path) -> None:
    """Reference writer: one np.nonzero per (day, tick), rows in agent column then location order."""
    with open(path, "w") as fh:
        fh.write("day,tick,agent,location,probability\n")
        for day, table in enumerate(beliefs):
            for tick, probs in enumerate(table):
                column, loc = np.nonzero(probs >= BELIEF_WRITE_FLOOR)
                for i, x in zip(column.tolist(), loc.tolist()):
                    fh.write(f"{day},{tick},{agents[i]},{x},{float(probs[i, x])!r}\n")


@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
    st.sampled_from([(), (7,), (7, 3), (3, 7), (5, 0, 9)]),
)
@settings(max_examples=60, deadline=None)
def test_belief_csv_equals_the_per_tick_writer(tmp_path_factory, seed, shape, ids):
    days, ticks, n = shape
    agents = list(ids)
    rng = np.random.default_rng(seed)
    # magnitudes from 1e-9 to 1: values on both sides of the write floor, and some exactly at it
    beliefs = 10.0 ** rng.uniform(-9, 0, (days, ticks, len(agents), n))
    beliefs[rng.random(beliefs.shape) < 0.1] = BELIEF_WRITE_FLOOR
    out = tmp_path_factory.mktemp("beliefs")
    write_beliefs_csv(beliefs, agents, out / "array.csv")
    _beliefs_csv_per_tick(beliefs, agents, out / "per_tick.csv")
    assert (out / "array.csv").read_bytes() == (out / "per_tick.csv").read_bytes()


# repeated probabilities whose repr differ in width, and two below the write floor
_BELIEF_POOL = np.array([1.0, 0.5, 1e-06, 0.30000000000000004, 0.1234567890123456, 1e-07, 0.0])


@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
    st.integers(1, 7),
)
@settings(max_examples=60, deadline=None)
def test_belief_csv_renders_each_distinct_value_of_a_day_once_across_block_boundaries(tmp_path_factory, seed, shape, block):
    days, ticks, n = shape
    agents = [7, 3]
    beliefs = np.random.default_rng(seed).choice(_BELIEF_POOL, (days, ticks, len(agents), n))
    out = tmp_path_factory.mktemp("beliefs")
    rendered = []
    with (
        mock.patch.object(formats, "BLOCK_ROWS", block),  # the blocks' boundaries fall inside the days
        mock.patch.object(formats, "repr", lambda x: rendered.append(x) or repr(x), create=True),
    ):
        write_beliefs_csv(beliefs, agents, out / "array.csv")
    _beliefs_csv_per_tick(beliefs, agents, out / "per_tick.csv")
    assert (out / "array.csv").read_bytes() == (out / "per_tick.csv").read_bytes()
    assert len(rendered) == sum(len(np.unique(d[d >= BELIEF_WRITE_FLOOR])) for d in beliefs)


# integers of every size the writers may meet: 0, small ids and locations, negatives, and 17-18 digit values
_INTEGERS = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.integers(10**16, 10**18 - 1),
    st.integers(-(10**18) + 1, -(10**16)),
    st.integers(-(2**63), 2**63 - 1),
)
_LITERALS = st.binary(max_size=4).filter(lambda lit: b"\0" not in lit)  # a literal holds no NUL byte


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_render_equals_the_f_string_form_on_random_integer_columns(data):
    width = data.draw(st.integers(1, 4), label="columns")
    rows = data.draw(st.sampled_from([0, 1]) | st.integers(2, 40), label="rows")
    columns = [data.draw(st.lists(_INTEGERS, min_size=rows, max_size=rows)) for _ in range(width)]
    literals = data.draw(st.lists(_LITERALS, min_size=width + 1, max_size=width + 1), label="literals")
    expected = "".join(
        literals[0].decode("latin-1") + "".join(f"{v}{lit.decode('latin-1')}" for v, lit in zip(row, literals[1:]))
        for row in zip(*columns)
    ).encode("latin-1")
    assert _render(literals, [np.array(c, dtype=np.int64) for c in columns]) == expected


def _reference_tick_major(locations: np.ndarray, agents, head: str, tail: str, end: str):
    """The trajectory writers' rows as f-strings: day by day, tick by tick, columns in order."""
    ticks, n_agents = locations.shape[1:]
    tick = np.repeat(np.arange(ticks), n_agents).tolist()
    for day, table in enumerate(locations):
        heads = [head.format(agent, day) for agent in agents] * ticks
        yield from (f"{h}{t}{tail}{x}{end}" for h, t, x in zip(heads, tick, table.ravel().tolist()))


def _reference_files(locations: np.ndarray, agents, columns: EventColumns, config: WorldConfig) -> dict[str, str]:
    """Each integer writer's file as f-strings, row by row."""
    header = "agent,day,tick,location\n"
    paths = (
        f"{agents[a]},{day},{t},{x}\n"
        for a in np.argsort(agents, kind="stable").tolist()
        for day, walk in enumerate(locations[:, :, a].tolist())
        for t, x in enumerate(walk)
    )
    ids, ids_of_agents = [json.dumps(s.id) for s in config.sensors], [a.id for a in config.agents]
    events = (
        f'{{"sensor": {ids[s]}, "day": {d}, "tick": {t}, "reported_agent": {ids_of_agents[a]}, "location": {x}}}\n'
        for s, d, t, a, x in zip(*(c.tolist() for c in columns))
    )
    jsonl = _reference_tick_major(locations, agents, '{{"agent": {}, "day": {}, "tick": ', ', "location": ', "}\n")
    return {
        "t.jsonl": "".join(jsonl),
        "t.csv": header + "".join(_reference_tick_major(locations, agents, "{},{},", ",", "\n")),
        "p.csv": header + "".join(paths),
        "e.jsonl": "".join(events),
    }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_writers_equal_their_f_string_forms_across_block_boundaries(tmp_path_factory, data):
    ids = data.draw(st.lists(_INTEGERS | st.integers(-(10**20), 10**20), max_size=3, unique=True), label="agents")
    days, ticks = data.draw(st.integers(1, 3), label="days"), data.draw(st.integers(1, 5), label="ticks")
    size = days * ticks * len(ids)
    cells = data.draw(st.lists(_INTEGERS, min_size=size, max_size=size), label="locations")
    locations = np.array(cells, dtype=np.int64).reshape(days, ticks, len(ids))
    config = _event_config(("cam0", 'say "hi"', "caméra"), (), days, ticks, 4)
    config = dataclasses.replace(config, agents=tuple(uniform_agent(a, 0, 4) for a in ids))
    if ids:
        agent, day = st.integers(0, len(ids) - 1), st.integers(0, days - 1)
        event = st.tuples(st.integers(0, 2), day, _INTEGERS, agent, _INTEGERS)
        rows = sorted(data.draw(st.lists(event, max_size=size), label="events"), key=lambda row: row[1])
    else:
        rows = []
    columns = EventColumns(*(np.array(c, dtype=np.int64).reshape(-1) for c in (zip(*rows) if rows else [()] * 5)))
    beliefs = np.random.default_rng(size).uniform(0, 2 * BELIEF_WRITE_FLOOR, (days, ticks, len(ids), 4))
    out = tmp_path_factory.mktemp("writers")
    block = data.draw(st.integers(1, 7) | st.just(formats.BLOCK_ROWS), label="block rows")
    with mock.patch.object(formats, "BLOCK_ROWS", block):  # the blocks' boundaries fall between any two rows
        write_trajectories_jsonl(locations, ids, out / "t.jsonl")
        write_trajectories_csv(locations, ids, out / "t.csv")
        write_paths_csv(locations, ids, out / "p.csv")
        write_events_jsonl(columns, out / "e.jsonl", config)
        write_beliefs_csv(beliefs, ids, out / "b.csv")
    for name, text in _reference_files(locations, ids, columns, config).items():
        assert (out / name).read_bytes() == text.encode(), name
    _beliefs_csv_per_tick(beliefs, ids, out / "per_tick.csv")
    assert (out / "b.csv").read_bytes() == (out / "per_tick.csv").read_bytes()


def test_writers_render_a_block_boundary_in_a_long_table(tmp_path):
    # 3 agents x 2 days x 1,500 ticks: 9,000 rows, one block boundary at the default BLOCK_ROWS inside a day
    locations = np.arange(9_000).reshape(2, 1_500, 3) % 50
    agents = [-7, 12, 3]
    write_trajectories_jsonl(locations, agents, tmp_path / "t.jsonl")
    write_paths_csv(locations, agents, tmp_path / "p.csv")
    config = _event_config((), (), 2, 1_500, 50)
    expected = _reference_files(locations, agents, _columns([], config), config)
    for name in ("t.jsonl", "p.csv"):
        assert (tmp_path / name).read_bytes() == expected[name].encode(), name


def test_decode_scores_csv_orders_rows_by_agent_id_then_day(tmp_path):
    scores = np.array([[-1.5, -2.0], [-3.25, -4.0]])  # scores[day, a]; the config order is (7, 3)
    file = tmp_path / "s.csv"
    write_decode_scores_csv(scores, [7, 3], file)
    assert file.read_text() == "agent,day,log_score\n3,0,-2.0\n3,1,-4.0\n7,0,-1.5\n7,1,-3.25\n"


def test_department_matrix_quotes_a_name_that_holds_a_comma_or_a_quote(tmp_path):
    graph = ContactGraph({0: 'R&D, "Lab"', 1: "Ops", 2: 'R&D, "Lab"'}, {(0, 1): 5, (1, 0): 3, (0, 2): 2})
    write_department_matrix_csv(graph_metrics(graph), tmp_path / "m.csv")
    with open(tmp_path / "m.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["from_department", "to_department", "weight"],
        ["Ops", 'R&D, "Lab"', "3"],
        ['R&D, "Lab"', "Ops", "5"],
        ['R&D, "Lab"', 'R&D, "Lab"', "2"],
    ]


def test_next_hop_defends_against_unreachable_targets():
    # bypasses config validation: two disconnected components
    plan = FloorPlan((0, 1, 2, 3), frozenset({(0, 1), (2, 3)}))
    with pytest.raises(NoPathError):
        plan.next_hop[0, 3]
