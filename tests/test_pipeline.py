from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import officelab
from officelab.config import dump_config, load_config, parse_config
from officelab.errors import ValidationError
from officelab.formats import read_paths_csv, write_events_jsonl, write_trajectories_jsonl
from officelab.fusion import LikelihoodModel, event_columns
from officelab.pipeline import Run, RunManifest, StageError, open_manifest, run_pipeline, run_stage
from officelab.presets import full_scale_config
from officelab.simulate import run_simulation

from conftest import decode_day, simulated_events

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# demo's trajectories and events hold only integers chosen by RNG draws (no
# BLAS, no float formatting), so their digests pin the draw order of the
# simulate and observe substreams and the bytes of both JSONL writers
DEMO_RNG_OUTPUTS_SHA256 = {
    "trajectories.jsonl": "d94621ccccb2e8a0f5c015c14d852bf13d2909fbcaa0d5862b7b2a59f72a77b6",
    "events.jsonl": "65351596bd6e778bf6d9f4a2d2d843fc3591ed2dc413d2ed872208ac5dabbcfb",
}


def test_demo_rng_outputs_are_pinned(tmp_path):
    config = load_config(CONFIGS / "demo.json")
    run = Run(config, tmp_path, open_manifest(config, str(CONFIGS / "demo.json"), tmp_path))
    for stage in ("simulate", "observe"):
        run_stage(stage, run)
    for name, digest in DEMO_RNG_OUTPUTS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# demo's files made from the ground-truth trajectories alone: these digests pin the
# trajectories CSV writer and every analytics and graph file on the truth source,
# which c9 only compares between two runs of the same code
DEMO_TRUTH_OUTPUTS_SHA256 = {
    "trajectories.csv": "f57aef350bad5b80568370b0c04e3c19fa01c7984cac19c10424a355cbc7f707",
    "occupancy.csv": "1c30966c15f4359e7c650e57cc08fe42849db7b68dcfb0ba9aed05c883f92628",
    "patterns.csv": "6eee62fbb781aebe64ce3c4ee810340e01750eeb9ea589c01bbd5a68749b5285",
    "contacts.dot": "4154df6d9688e93e0d172a0d1565785f1697b39d48d7ae9ae9de3e0e54ac0192",
    "contact_edges.csv": "a26d5ebc96df3a212acb9e12a27bafdaf6916aca76f07de7aa5f2c87d775e067",
    "node_metrics.csv": "26ea2b71685db6886a2b50a4c142a7362a46fa78c9e1310f2e9adb273ee66861",
    "department_matrix.csv": "3336867998dfdfe75a589092081457aec6966e09df2be168f4b5e0c879eabe7d",
}


@pytest.mark.parametrize("handoff", [False, True], ids=["stages", "pipeline"])
def test_demo_truth_outputs_are_pinned(tmp_path, handoff):
    config = load_config(CONFIGS / "demo.json")
    if handoff:
        run_pipeline(config, str(CONFIGS / "demo.json"), tmp_path, source="truth")
    else:
        run = Run(config, tmp_path, open_manifest(config, str(CONFIGS / "demo.json"), tmp_path), source="truth")
        for stage in ("simulate", "analyze", "graph"):
            run_stage(stage, run)
    for name, digest in DEMO_TRUTH_OUTPUTS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# decode's paths come from Viterbi, which uses no BLAS (the file was the same under five
# OPENBLAS_CORETYPE kernels, where beliefs.csv was not), so this digest pins the agent-major
# rows of write_paths_csv, which no other digest covers
DEMO_DECODED_PATHS_SHA256 = "5e540f245ee1723c0d6c508ba8544d4d6fda9c720309a3604664d3a5a87cd08c"

# the decoded paths' log scores, the same under the default, Haswell and Prescott kernels:
# this digest pins the Viterbi recursion's arithmetic, all days batched, and the scores writer
DEMO_DECODE_SCORES_SHA256 = "6d3215b52db0b752b24871dda910b2e348a9c6b30601d7a3efba12d48f21dbc1"


# the beliefs' argmax and the analytics and graph files on the decoded source (the files
# DEMO_TRUTH_OUTPUTS_SHA256 pins on the truth source): each was the same under the default,
# Haswell and Prescott kernels, where beliefs.csv itself was not
DEMO_DECODED_OUTPUTS_SHA256 = {
    "argmax_paths.csv": "eb418a5b065c13327d0e0d55de39285c91b841b6ca9c6ff44904853f6f26d4bc",
    "occupancy.csv": "56fdea1b7f9ab6c38cdea5a8cf785c778f78f753d80bcec90f8fb3a8d635bd26",
    "patterns.csv": "3ac7f73eb371020de6eaa6f93be09cc94dc53b009d208d1ba1f04961fe1daade",
    "contacts.dot": "838a28b4a0c574026b756e4af680d869720761bbb086b846d07fc1efc7eb8f57",
    "contact_edges.csv": "234184a710a354f968c96896463ac01d7d9f03b52a47709ec0987c9173a445b6",
    "node_metrics.csv": "1b7a1e8665de7d04d7ef4867a26e8211eb16b5bcceb6d03849d95c13e3efb89c",
    "department_matrix.csv": "817ef64821f7f4be77339e9e7b3522298570a07e98cfd226f604ac3933cd5340",
}


def test_demo_decoded_paths_are_pinned(tmp_path):
    config = load_config(CONFIGS / "demo.json")
    run_pipeline(config, str(CONFIGS / "demo.json"), tmp_path, source="decoded")
    digest = hashlib.sha256((tmp_path / "decoded_paths.csv").read_bytes()).hexdigest()
    assert digest == DEMO_DECODED_PATHS_SHA256
    assert hashlib.sha256((tmp_path / "decode_scores.csv").read_bytes()).hexdigest() == DEMO_DECODE_SCORES_SHA256
    for name, digest in DEMO_DECODED_OUTPUTS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_demo_data_files_do_not_depend_on_the_blas_kernel(tmp_path):
    # every data file but beliefs.csv: the filter's matrix products round in the kernel's own
    # order, so beliefs.csv is the one known exception (ROADMAP item 8); it read cd4b6e0d...
    # under Haswell and 947793fe... under Prescott
    src = str(Path(officelab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    written = []
    for kernel in ("Haswell", "Prescott"):
        out = tmp_path / kernel
        argv = ["pipeline", "--config", str(CONFIGS / "demo.json"), "--out", str(out), "--analytics-source", "decoded"]
        proc = subprocess.run(
            [sys.executable, "-m", "officelab.cli", *argv],
            env={**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        files = [f for f in out.iterdir() if f.name not in ("manifest.json", "beliefs.csv")]
        written.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files})
    assert len(written[0]) == 14
    assert written[0] == written[1]


def test_report_files_do_not_depend_on_the_config_agent_order(tmp_path):
    config = load_config(CONFIGS / "demo.json")
    locations = run_simulation(config)
    reversed_config = dataclasses.replace(config, agents=config.agents[::-1])
    written = []
    for name, cfg, paths in (("listed", config, locations), ("reversed", reversed_config, locations[:, :, ::-1])):
        out = tmp_path / name
        run = Run(cfg, out, open_manifest(cfg, str(CONFIGS / "demo.json"), out), products={"paths": paths})
        for stage in ("analyze", "graph"):
            run_stage(stage, run)
        written.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert len(written[0]) == 8
    assert written[0] == written[1]


# 20 agents with delta_p > 0 meet in meeting rooms, the lunch area and the
# corridor of the 50-location floor, so this digest also pins co-presence
# counting and corridor traffic, which demo's three agents barely exercise
FULL_SCALE_20_TRAJECTORIES_SHA256 = "da5a4e1d68bbd99c89098bac127bb66f8bc87e1d0526be27913c80a73dd38775"


# the same run's events: thousands of confusions and false positives, where demo's
# pin sees few, so this digest pins the observe draw layout where most of its draws decide an event
FULL_SCALE_20_EVENTS_SHA256 = "b4ddccd8ee6b82775097c9c2192906ca691d73e83187fbbeb15d285bb57be185"


def test_full_scale_20_agent_trajectories_are_pinned(tmp_path):
    config = parse_config(full_scale_config(seed=3, n_agents=20, days=2, ticks_per_day=300))
    write_trajectories_jsonl(run_simulation(config), [a.id for a in config.agents], tmp_path / "trajectories.jsonl")
    digest = hashlib.sha256((tmp_path / "trajectories.jsonl").read_bytes()).hexdigest()
    assert digest == FULL_SCALE_20_TRAJECTORIES_SHA256


def test_full_scale_20_agent_events_are_pinned(tmp_path):
    config = parse_config(full_scale_config(seed=3, n_agents=20, days=2, ticks_per_day=300))
    write_events_jsonl(event_columns(simulated_events(config), config), tmp_path / "e.jsonl", config)
    assert hashlib.sha256((tmp_path / "e.jsonl").read_bytes()).hexdigest() == FULL_SCALE_20_EVENTS_SHA256


def test_decode_day_survives_contradictory_evidence():
    # evidence pinned to location 3 at tick 1 is unreachable from the
    # point-mass start at 0 under a line-graph kernel
    kernel = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.25, 0.5, 0.25, 0.0],
            [0.0, 0.25, 0.5, 0.25],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    initial = np.array([1.0, 0.0, 0.0, 0.0])
    evidence = np.array(
        [
            [1.0, 0.1, 0.1, 0.1],
            [0.0, 0.0, 0.0, 1.0],  # contradicts reachability
            [1.0, 0.1, 0.1, 0.1],
        ]
    )
    decoded = decode_day(initial, kernel, evidence, agent=0, day=0)
    assert len(decoded.path) == 3
    assert decoded.path[0] == 0  # initial point mass still binds
    for a, b in zip(decoded.path, decoded.path[1:]):
        assert kernel[a][b] > 0  # fallback keeps adjacency hard


def test_full_scale_pipeline_end_to_end(tmp_path):
    config = dataclasses.replace(load_config(CONFIGS / "full_scale.json"), days=1)
    config_path = tmp_path / "full_scale_1day.json"
    config_path.write_text(json.dumps(dump_config(config)))
    out = tmp_path / "run"
    manifest = run_pipeline(config, str(config_path), out, source="truth")
    assert set(manifest.outputs) == {"simulate", "observe", "fuse", "decode", "analyze", "graph"}

    truth = read_paths_csv(out / "trajectories.csv", config)
    decoded = read_paths_csv(out / "decoded_paths.csv", config)
    # decoded paths should track ground truth closely under the default sensors
    assert np.count_nonzero(decoded == truth) / truth.size > 0.9


def test_config_without_agents_fuses_and_decodes_to_empty_outputs(tmp_path):
    config = dataclasses.replace(load_config(CONFIGS / "demo.json"), agents=())
    run = Run(config, tmp_path, open_manifest(config, str(CONFIGS / "demo.json"), tmp_path))
    for stage in ("simulate", "observe", "fuse", "decode"):
        run_stage(stage, run)
    assert (tmp_path / "events.jsonl").read_text() == ""
    assert (tmp_path / "beliefs.csv").read_text() == "day,tick,agent,location,probability\n"
    assert read_paths_csv(tmp_path / "argmax_paths.csv", config).shape == (config.days, config.ticks_per_day, 0)
    assert read_paths_csv(tmp_path / "decoded_paths.csv", config).shape == (config.days, config.ticks_per_day, 0)
    assert (tmp_path / "decode_scores.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("source", ["truth", "decoded"])
def test_pipeline_reads_none_of_its_handoffs_and_builds_evidence_once(tmp_path, source):
    config = load_config(CONFIGS / "demo.json")
    evidence_into = LikelihoodModel.evidence_into
    calls = []

    def counted(self, columns, out):
        calls.append(out.shape)
        return evidence_into(self, columns, out)

    def unread(path, *args):
        raise AssertionError(f"the pipeline read back {path}")

    with (
        mock.patch("officelab.pipeline.read_events_jsonl", unread),
        mock.patch("officelab.pipeline.read_paths_csv", unread),
        mock.patch.object(LikelihoodModel, "evidence_into", counted),
    ):
        run_pipeline(config, str(CONFIGS / "demo.json"), tmp_path, source=source)
    assert calls == [(config.days, config.ticks_per_day, len(config.agents), config.floor_plan.n)]
    assert len([p for p in tmp_path.iterdir() if p.name != "manifest.json"]) == 15


def test_each_stage_logs_one_info_line_with_its_wall_time(tmp_path, caplog):
    config = load_config(CONFIGS / "demo.json")
    with caplog.at_level(logging.INFO, logger="officelab.pipeline"):
        run_pipeline(config, str(CONFIGS / "demo.json"), tmp_path)
    lines = [r.getMessage() for r in caplog.records if r.name == "officelab.pipeline" and r.levelno == logging.INFO]
    assert [line.split(":")[0] for line in lines] == ["simulate", "observe", "fuse", "decode", "analyze", "graph"]
    assert all(re.fullmatch(r"\w+: .+ in \d+\.\d\d s", line) for line in lines), lines


def test_unknown_analytics_source_fails_before_any_stage_runs(tmp_path):
    config = load_config(CONFIGS / "demo.json")
    out = tmp_path / "run"
    with pytest.raises(StageError, match="unknown analytics source 'bogus'"):
        run_pipeline(config, str(CONFIGS / "demo.json"), out, source="bogus")
    assert list(out.iterdir()) == []  # neither a data file nor a manifest


def test_manifest_is_saved_once_per_stage_and_lists_the_stages_that_finished(tmp_path):
    config = load_config(CONFIGS / "demo.json")
    with mock.patch.object(RunManifest, "save", autospec=True, side_effect=RunManifest.save) as save:
        run_pipeline(config, str(CONFIGS / "demo.json"), tmp_path / "full")
    assert save.call_count == 6

    def broken(graph):
        raise ValidationError("no metrics")

    out = tmp_path / "broken"
    with (
        mock.patch("officelab.pipeline.graph_metrics", broken),
        pytest.raises(StageError, match="stage graph failed: no metrics"),
    ):
        run_pipeline(config, str(CONFIGS / "demo.json"), out)
    assert list(RunManifest.load(out).outputs) == ["simulate", "observe", "fuse", "decode", "analyze"]
