from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from officelab.config import load_config
from officelab.errors import NoPathError, ValidationError
from officelab.formats import (
    read_events_jsonl,
    read_paths_csv,
    read_trajectories_jsonl,
    trajectories_to_paths,
    write_beliefs_csv,
    write_events_jsonl,
    write_paths_csv,
    write_trajectories_csv,
    write_trajectories_jsonl,
)
from officelab.fusion import BeliefMatrix
from officelab.sensors import ObservationEvent
from officelab.simulate import TrajectoryRecord, run_simulation
from officelab.world import FloorPlan


def test_trajectories_round_trip(tmp_path):
    records = [TrajectoryRecord(a, d, t, (a + t) % 3) for a in range(2) for d in range(2) for t in range(4)]
    path = tmp_path / "t.jsonl"
    write_trajectories_jsonl(records, path)
    assert read_trajectories_jsonl(path, 3) == records


def test_events_round_trip_with_stable_field_order(tmp_path):
    events = [ObservationEvent("cam0", 0, 3, 1, 2), ObservationEvent("tag1", 1, 0, 0, 5)]
    path = tmp_path / "e.jsonl"
    write_events_jsonl(events, path)
    assert read_events_jsonl(path) == events
    first = path.read_text().splitlines()[0]
    assert first.index('"sensor"') < first.index('"day"') < first.index('"tick"')
    assert first.index('"tick"') < first.index('"reported_agent"') < first.index('"location"')


def _json_dumps_lines(objects) -> str:
    return "".join(json.dumps(o) + "\n" for o in objects)


def test_jsonl_writers_match_json_dumps_byte_for_byte(tmp_path):
    # ids needing escapes: a quote, a backslash, a non-ASCII letter, a control character
    events = [
        ObservationEvent(sensor, day, tick, agent, loc)
        for sensor in ("cam0", 'say "hi"', "back\\slash", "caméra", "tab\there")
        for day, tick, agent, loc in ((0, 0, 0, 0), (3, 299, 17, 49))
    ]
    write_events_jsonl(events, tmp_path / "e.jsonl")
    assert (tmp_path / "e.jsonl").read_text() == _json_dumps_lines(
        {"sensor": e.sensor, "day": e.day, "tick": e.tick, "reported_agent": e.reported_agent, "location": e.location}
        for e in events
    )
    assert read_events_jsonl(tmp_path / "e.jsonl") == events
    records = [TrajectoryRecord(a, d, t, x) for a, d, t, x in ((0, 0, 0, 0), (12, 4, 99_999, 49))]
    write_trajectories_jsonl(records, tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text() == _json_dumps_lines(
        {"agent": r.agent, "day": r.day, "tick": r.tick, "location": r.location} for r in records
    )


def test_events_reader_takes_what_json_loads_takes(tmp_path):
    line = '{"sensor": "cam0", "day": 0, "tick": 3, "reported_agent": 1, "location": 2}'
    path = tmp_path / "e.jsonl"
    path.write_text(f"{line}\n  {line}  \n{line.replace(', ', ',')}")  # padded, compact, no final newline
    assert read_events_jsonl(path) == [ObservationEvent("cam0", 0, 3, 1, 2)] * 3
    for bad in (line + " x", line[:-1], "", "[1, 2]", line.replace('"tick"', '"tock"'), "\f" + line):  # \f is not JSON whitespace
        path.write_text(f"{line}\n{bad}\n")
        with pytest.raises(ValidationError, match="line 2 is malformed"):
            read_events_jsonl(path)


def test_paths_csv_round_trip(tmp_path):
    paths = {0: {0: [1, 1, 2], 1: [0, 2, 2]}, 3: {0: [2, 0, 1]}}
    file = tmp_path / "p.csv"
    write_paths_csv(paths, file)
    assert read_paths_csv(file, 3) == paths


def test_readers_reject_a_location_off_the_floor_plan_naming_its_line(tmp_path):
    records = [TrajectoryRecord(0, 0, t, x) for t, x in enumerate((0, 2, -1))]
    write_trajectories_jsonl(records[:2], tmp_path / "t.jsonl")
    assert read_trajectories_jsonl(tmp_path / "t.jsonl", 3) == records[:2]
    with pytest.raises(ValidationError, match=r"t.jsonl line 2 is malformed.*location 2 is outside the floor plan's 0..1"):
        read_trajectories_jsonl(tmp_path / "t.jsonl", 2)
    write_trajectories_jsonl(records, tmp_path / "t.jsonl")
    with pytest.raises(ValidationError, match=r"t.jsonl line 3 is malformed.*location -1"):
        read_trajectories_jsonl(tmp_path / "t.jsonl", 3)
    write_trajectories_csv(records[:2], tmp_path / "p.csv")
    assert read_paths_csv(tmp_path / "p.csv", 3) == {0: {0: [0, 2]}}
    with pytest.raises(ValidationError, match=r"p.csv line 3 is malformed.*location 2 is outside the floor plan's 0..1"):
        read_paths_csv(tmp_path / "p.csv", 2)
    write_trajectories_csv(records, tmp_path / "p.csv")
    with pytest.raises(ValidationError, match=r"p.csv line 4 is malformed.*location -1"):
        read_paths_csv(tmp_path / "p.csv", 3)


def test_trajectories_csv_reads_as_the_grouped_records(tmp_path):
    # analytics on ground truth reads trajectories.csv through read_paths_csv
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")
    records = run_simulation(config)
    file = tmp_path / "trajectories.csv"
    write_trajectories_csv(records, file)
    paths, grouped = read_paths_csv(file, config.floor_plan.n), trajectories_to_paths(records)
    assert paths == grouped
    assert list(paths) == list(grouped)
    assert all(list(paths[a]) == list(grouped[a]) for a in paths)


def test_belief_csv_omits_rows_below_write_floor(tmp_path):
    probs = np.array([[0.9999989, 1e-6, 1e-7]])
    matrix = BeliefMatrix(day=0, tick=0, agents=(0,), probs=probs)
    file = tmp_path / "b.csv"
    write_beliefs_csv([matrix], file)
    lines = file.read_text().splitlines()
    assert lines[0] == "day,tick,agent,location,probability"
    locations = [int(line.split(",")[3]) for line in lines[1:]]
    assert locations == [0, 1]  # the 1e-7 row is sparsified away


def test_trajectories_group_into_tick_ordered_paths():
    records = [
        TrajectoryRecord(0, 0, 1, 5),
        TrajectoryRecord(0, 0, 0, 4),  # out of order on purpose
        TrajectoryRecord(0, 1, 0, 2),
    ]
    assert trajectories_to_paths(records) == {0: {0: [4, 5], 1: [2]}}


def test_next_hop_defends_against_unreachable_targets():
    # bypasses config validation: two disconnected components
    plan = FloorPlan((0, 1, 2, 3), frozenset({(0, 1), (2, 3)}))
    with pytest.raises(NoPathError):
        plan.next_hop[0, 3]
