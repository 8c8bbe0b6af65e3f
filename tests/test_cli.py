from __future__ import annotations

import json
import logging
import re
from pathlib import Path

import pytest

from officelab.cli import main
from officelab.pipeline import RunManifest

from conftest import minimal_config_doc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def config_path(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config_doc()))
    return path


def _noiseless_doc() -> dict:
    doc = minimal_config_doc()
    doc["ticks_per_day"] = 40
    doc["days"] = 2
    doc["sensors"] = [
        {"id": "cam", "kind": "camera", "coverage": [0, 1], "p_detect": 1.0, "p_false_positive": 0.0, "p_confuse": 0.0}
    ]
    return doc


def test_simulate_writes_one_line_per_agent_tick(config_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "trajectories.jsonl").read_text().splitlines()
    assert len(lines) == 10  # 1 agent * 1 day * 10 ticks


def test_invalid_config_exits_1_without_partial_outputs(tmp_path, capsys):
    doc = minimal_config_doc()
    doc["agents"][0]["destinations"] = {"0": 0.5, "1": 0.48}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert "sum to 0.98" in capsys.readouterr().err
    assert not out.exists()


def test_a_string_flag_in_contact_rule_exits_1_naming_the_key(tmp_path, capsys):
    doc = minimal_config_doc()
    doc["contact_rule"] = {"officemate_exclusion": "false"}  # a string, which bool() would read as True
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert "contact_rule.officemate_exclusion must be true or false" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tags", ["printer", ["printer", 3]])
def test_excluded_tags_other_than_a_list_of_strings_exit_1_naming_the_key(tmp_path, capsys, tags):
    doc = minimal_config_doc()
    doc["contact_rule"] = {"excluded_tags": tags}  # a bare string would be read letter by letter
    path = tmp_path / "tags.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert "contact_rule.excluded_tags must be a list of strings" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.update(floor_plan=[]), "floor_plan must be a JSON object, got []"),
        (lambda d: d.update(contact_rule="strict"), "contact_rule must be a JSON object, got 'strict'"),
        (lambda d: d.update(analytics=3), "analytics must be a JSON object, got 3"),
        (lambda d: d["floor_plan"].update(tags=["office"]), "floor_plan.tags must be a JSON object"),
        (lambda d: d["agents"][0].update(stay_prob=[0.5]), "stay_prob of agent 0 must be a number or a JSON object"),
        (
            lambda d: d["agents"][0]["stay_prob"].update(by_tag=["office"]),
            "stay_prob.by_tag of agent 0 must be a JSON object",
        ),
        (lambda d: d["agents"][0].update(destinations=[0.5, 0.5]), "destinations of agent 0 must be a JSON object"),
    ],
    ids=["floor_plan", "contact_rule", "analytics", "tags", "stay_prob", "by_tag", "destinations"],
)
def test_a_config_section_of_the_wrong_json_type_exits_1_naming_the_key(tmp_path, capsys, mutate, message):
    doc = minimal_config_doc()
    mutate(doc)
    path = tmp_path / "section.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("officelab: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"floor_plan": \xff}')
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"officelab: malformed config {path}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_a_config_that_cannot_be_read_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "missing.json"
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"officelab: cannot read config {path}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_a_false_positive_naming_the_one_agent_every_tick_exits_1_naming_the_sensor(tmp_path, capsys):
    # with one agent, p_false_positive 1 makes q = 1, where the clutter odds q/(1 - q) are unbounded
    doc = _noiseless_doc()
    doc["sensors"][0]["p_false_positive"] = 1.0
    path = tmp_path / "always.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 1
    assert "sensor cam's false positive names the one agent every tick" in capsys.readouterr().err
    assert not out.exists()
    doc["agents"].append({**doc["agents"][0], "id": 1, "home": 1})  # two agents: q = 1/2
    path.write_text(json.dumps(doc))
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 0


def test_same_invocation_twice_writes_identical_trajectories(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out_a / "trajectories.jsonl").read_bytes() == (out_b / "trajectories.jsonl").read_bytes()


def test_stage_out_of_order_exits_2_naming_the_stage(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fuse", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "observe" in err  # the missing prerequisite stage is named


def test_pipeline_demo_produces_complete_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(CONFIGS / "demo.json"), "--out", str(out)]) == 0
    manifest = RunManifest.load(out)
    assert manifest.seed == 42
    listed = [out / rel for files in manifest.outputs.values() for rel in files.values()]
    assert listed and all(p.exists() for p in listed)
    assert set(manifest.outputs) == {"simulate", "observe", "fuse", "decode", "analyze", "graph"}


def test_seed_override_is_recorded_in_manifest(config_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "777"]) == 0
    assert RunManifest.load(out).seed == 777


def test_a_stage_under_another_seed_starts_a_fresh_manifest(config_path, tmp_path, capsys, caplog):
    # the simulate outputs of seed 1 are not observe's input under seed 2, so observe finds none
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "1"]) == 0
    capsys.readouterr()
    with caplog.at_level(logging.INFO, logger="officelab.pipeline"):
        assert main(["observe", "--config", str(config_path), "--out", str(out), "--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert "manifest lists no 'trajectories_csv' output for stage 'simulate'; run it first" in err
    assert "seed changed from 1 to 2; starting a fresh manifest" in caplog.messages
    assert RunManifest.load(out).seed == 1  # the failed stage saved no manifest


def test_negative_seed_override_exits_1_naming_rng_seed(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "-3"]) == 1
    assert "rng_seed must be an integer >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def _demo_with_agent_id(agent_id: int) -> dict:
    """configs/demo.json with its first agent renamed to ``agent_id``."""
    doc = json.loads((CONFIGS / "demo.json").read_text())
    old, doc["agents"][0]["id"] = doc["agents"][0]["id"], agent_id
    home_of = doc["floor_plan"]["home_of"]
    doc["floor_plan"]["home_of"] = {loc: [agent_id if a == old else a for a in ids] for loc, ids in home_of.items()}
    return doc


@pytest.mark.parametrize("agent_id", [2**63 - 1, -(2**63)], ids=("int64_max", "int64_min"))
def test_agent_ids_at_the_int64_bounds_run_stage_by_stage(tmp_path, agent_id):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_demo_with_agent_id(agent_id)))
    out = tmp_path / "run"
    for stage in ("simulate", "observe", "fuse", "decode", "analyze", "graph"):
        extra = ["--analytics-source", "decoded"] if stage in ("analyze", "graph") else []
        assert main([stage, "--config", str(config), "--out", str(out), *extra]) == 0
    assert f"\n{agent_id},0,0," in (out / "decoded_paths.csv").read_text()


@pytest.mark.parametrize("agent_id", [2**63, -(2**63) - 1], ids=("above_int64", "below_int64"))
def test_an_agent_id_outside_int64_exits_1_naming_it(tmp_path, capsys, agent_id):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_demo_with_agent_id(agent_id)))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 1
    assert f"agent id {agent_id} is outside the 64-bit range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "{}",
        "[]",
        json.dumps({"config_path": "c.json", "seed": 123, "tool_version": "0", "created_at": "", "updated_at": ""}),
        json.dumps(
            {"config_path": "c.json", "seed": 123, "tool_version": "0", "created_at": "", "updated_at": "",
             "outputs": {}, "elapsed": {}}
        ),
        json.dumps(
            {"config_path": "c.json", "seed": 123, "tool_version": "0", "created_at": "", "updated_at": "",
             "outputs": []}
        ),
    ],
    ids=("invalid_json", "empty", "array", "missing_key", "extra_key", "outputs_list"),
)
def test_malformed_manifest_exits_2_naming_the_file(config_path, tmp_path, capsys, text):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    (out / "manifest.json").write_text(text)
    capsys.readouterr()
    assert main(["observe", "--config", str(config_path), "--out", str(out)]) == 2
    assert str(out / "manifest.json") in capsys.readouterr().err


def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_truth_and_decoded_analytics_agree_under_noiseless_sensors(tmp_path):
    cfg = tmp_path / "noiseless.json"
    cfg.write_text(json.dumps(_noiseless_doc()))
    out_truth, out_decoded = tmp_path / "truth", tmp_path / "decoded"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out_truth), "--analytics-source", "truth"]) == 0
    assert main(["pipeline", "--config", str(cfg), "--out", str(out_decoded), "--analytics-source", "decoded"]) == 0
    assert _data_lines(out_truth / "surprise.csv") == _data_lines(out_decoded / "surprise.csv")
    assert _data_lines(out_truth / "occupancy.csv") == _data_lines(out_decoded / "occupancy.csv")


def test_stage_by_stage_rerun_matches_pipeline(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_noiseless_doc()))
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["pipeline", "--config", str(cfg), "--out", str(full)]) == 0
    for stage in ("simulate", "observe", "fuse", "decode", "analyze", "graph"):
        assert main([stage, "--config", str(cfg), "--out", str(staged)]) == 0
    for name in ("trajectories.jsonl", "events.jsonl", "beliefs.csv", "decoded_paths.csv", "surprise.csv", "contacts.dot"):
        assert (full / name).read_bytes() == (staged / name).read_bytes()


DATA_FILES = 15  # every file a demo run writes except the manifest

# the manifest's outputs of a demo run: stages in run order, each stage's files in write order
DEMO_MANIFEST_OUTPUTS = {
    "simulate": {"trajectories": "trajectories.jsonl", "trajectories_csv": "trajectories.csv"},
    "observe": {"events": "events.jsonl"},
    "fuse": {"beliefs": "beliefs.csv", "argmax_paths": "argmax_paths.csv"},
    "decode": {"decoded_paths": "decoded_paths.csv", "decode_scores": "decode_scores.csv"},
    "analyze": {
        "occupancy": "occupancy.csv",
        "surprise": "surprise.csv",
        "patterns": "patterns.csv",
        "fig_panels": "fig_panels.csv",
    },
    "graph": {
        "dot": "contacts.dot",
        "edges": "contact_edges.csv",
        "node_metrics": "node_metrics.csv",
        "department_matrix": "department_matrix.csv",
    },
}


@pytest.mark.parametrize("source", ["truth", "decoded"])
def test_stage_by_stage_rerun_matches_pipeline_on_demo(tmp_path, source):
    # demo's sensors miss, report false positives and confuse identities, so
    # the in-memory handoffs of a pipeline run meet every kind of event
    config = ["--config", str(CONFIGS / "demo.json")]
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["pipeline", *config, "--out", str(full), "--analytics-source", source]) == 0
    for stage in ("simulate", "observe", "fuse", "decode", "analyze", "graph"):
        extra = ["--analytics-source", source] if stage in ("analyze", "graph") else []
        assert main([stage, *config, "--out", str(staged), *extra]) == 0
    names = sorted(p.name for p in full.iterdir() if p.name != "manifest.json")
    assert len(names) == DATA_FILES
    assert names == sorted(p.name for p in staged.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (full / name).read_bytes() == (staged / name).read_bytes(), name
    for out in (full, staged):
        # compared as JSON text, which keeps the order that dict equality ignores
        assert json.dumps(RunManifest.load(out).outputs) == json.dumps(DEMO_MANIFEST_OUTPUTS)


@pytest.mark.parametrize("stage", ["fuse", "decode"])
def test_events_from_a_stale_config_exit_2_naming_the_sensor(tmp_path, capsys, stage):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(CONFIGS / "demo.json"), "--out", str(out)]) == 0
    doc = json.loads((CONFIGS / "demo.json").read_text())
    doc["sensors"] = [s for s in doc["sensors"] if not s["id"].startswith("tag")]
    fewer = tmp_path / "fewer_sensors.json"
    fewer.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([stage, "--config", str(fewer), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage {stage} failed" in err and "sensor 'tag" in err


def _truncate_last_line(text: str) -> str:
    return text[: len(text) - 1 - len(text.splitlines()[-1]) // 2]


def _append_non_integer_row(text: str) -> str:
    return text + "0,0,x,1\n"


def _swap_header_columns(text: str) -> str:
    return text.replace("agent,day,tick,location", "day,agent,tick,location", 1)


def _swap_last_two_rows(text: str) -> str:
    *head, a, b = text.splitlines(keepends=True)
    return "".join([*head, b, a])


def _repeat_last_row(text: str) -> str:
    return text + text.splitlines(keepends=True)[-1]


def _last_location_off_the_plan(text: str) -> str:
    # the location is the last number of a row
    *head, last = text.splitlines(keepends=True)
    return "".join([*head, re.sub(r"\d+(\D*)$", r"99\1", last)])


# line: the line the error names, counted from the end when negative (-1 is the last line)
@pytest.mark.parametrize(
    "stage, name, corrupt, line",
    [
        ("fuse", "events.jsonl", _truncate_last_line, -1),
        ("observe", "trajectories.csv", _truncate_last_line, -1),
        ("analyze", "decoded_paths.csv", _append_non_integer_row, -1),
        ("analyze", "trajectories.csv", _swap_header_columns, 1),
        ("analyze", "decoded_paths.csv", _swap_last_two_rows, -2),
        ("analyze", "decoded_paths.csv", _repeat_last_row, -1),
        ("analyze", "decoded_paths.csv", _last_location_off_the_plan, -1),
        ("graph", "decoded_paths.csv", _last_location_off_the_plan, -1),
        ("observe", "trajectories.csv", _last_location_off_the_plan, -1),
        ("observe", "trajectories.csv", _repeat_last_row, -1),
    ],
    ids=(
        "events",
        "trajectories",
        "decoded_paths",
        "trajectories_csv_header",
        "decoded_paths_swapped_rows",
        "decoded_paths_repeated_row",
        "decoded_paths_location_analyze",
        "decoded_paths_location_graph",
        "trajectories_location",
        "trajectories_repeated_line",
    ),
)
def test_malformed_handoff_file_exits_2_naming_file_and_line(tmp_path, capsys, stage, name, corrupt, line):
    out = tmp_path / "run"
    config = ["--config", str(CONFIGS / "demo.json"), "--out", str(out)]
    assert main(["pipeline", *config, "--analytics-source", "decoded"]) == 0
    path = out / name
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    source = ["--analytics-source", "decoded"] if name == "decoded_paths.csv" else []  # analyze reads truth by default
    assert main([stage, *config, *source]) == 2
    err = capsys.readouterr().err
    assert f"stage {stage} failed" in err
    if line < 0:
        line += len(path.read_text().splitlines()) + 1
    assert f"{name} line {line} is malformed" in err


@pytest.mark.parametrize(
    "stage, name",
    [("fuse", "events.jsonl"), ("observe", "trajectories.csv"), ("analyze", "decoded_paths.csv")],
)
def test_missing_handoff_file_exits_2_naming_the_stage_and_file(tmp_path, capsys, stage, name):
    out = tmp_path / "run"
    config = ["--config", str(CONFIGS / "demo.json"), "--out", str(out)]
    assert main(["pipeline", *config]) == 0
    (out / name).unlink()
    capsys.readouterr()
    source = ["--analytics-source", "decoded"] if name == "decoded_paths.csv" else []
    assert main([stage, *config, *source]) == 2
    err = capsys.readouterr().err
    assert f"stage {stage} failed" in err and str(out / name) in err


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_out_naming_a_regular_file_exits_2_naming_it(config_path, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
    assert f"cannot open the output directory {out}" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_trajectories_lacking_an_agent_tick_exit_2_naming_it(tmp_path, capsys):
    out = tmp_path / "run"
    config = ["--config", str(CONFIGS / "demo.json"), "--out", str(out)]
    assert main(["pipeline", *config]) == 0
    path = out / "trajectories.csv"
    lines = path.read_text().splitlines(keepends=True)
    agent, day, tick, _ = lines[10].split(",")
    path.write_text("".join(lines[:10] + lines[11:]))
    capsys.readouterr()
    assert main(["observe", *config]) == 2
    err = capsys.readouterr().err
    assert "stage observe failed" in err
    assert f"no record of agent {agent} at day {day} tick {tick}" in err


def _drop_agent(agent: int):
    return lambda text: "".join(row for row in text.splitlines(keepends=True) if not row.startswith(f"{agent},"))


def _drop_day(agent: int, day: int):
    return lambda text: "".join(row for row in text.splitlines(keepends=True) if not row.startswith(f"{agent},{day},"))


# demo has agents 0, 1 and 2, days 0..4 and ticks 0..119
@pytest.mark.parametrize("stage", ["analyze", "graph"])
@pytest.mark.parametrize(
    "corrupt, named",
    [
        (_drop_agent(2), "has no record of agent 2 at day 0 tick 0"),
        (_drop_day(0, 4), "has no record of agent 0 at day 4 tick 0"),
        (lambda text: text + "7,0,0,1\n", "line 1802 is malformed: ValueError('agent 7 at day 0 is not configured')"),
        (lambda text: text + "2,4,120,1\n", "line 1802 is malformed: ValueError(\"tick 120 of agent 2 at day 4 is outside"),
    ],
    ids=("lacks_agent", "lacks_day", "unconfigured_agent", "tick_past_the_day"),
)
def test_decoded_paths_off_the_configured_agent_ticks_exit_2_naming_them(tmp_path, capsys, stage, corrupt, named):
    out = tmp_path / "run"
    config = ["--config", str(CONFIGS / "demo.json"), "--out", str(out), "--analytics-source", "decoded"]
    assert main(["pipeline", *config]) == 0
    path = out / "decoded_paths.csv"
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    assert main([stage, *config]) == 2
    err = capsys.readouterr().err
    assert f"stage {stage} failed" in err
    assert f"decoded_paths.csv {named}" in err
