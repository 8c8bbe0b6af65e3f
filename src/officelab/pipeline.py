"""Pipeline: simulate -> observe -> fuse -> decode -> analyze -> graph.

Every stage writes its files into one output directory and records them in a
manifest, so every stage can be rerun in isolation with identical results: a
stage run on its own reads its inputs back from those files, checked line by
line against the config (observe reads trajectories.csv; trajectories.jsonl
is an export, read by no stage). Within one run_pipeline call the stages hand
their products on in memory instead (a Handoff): simulate's locations go to
observe, observe's event column table to fuse, which filters and decodes in
one pass over the evidence, and the analytics source's locations to analyze
and graph; nothing is read back. Every agent-tick table, simulated, read back
or decoded, is one ``locations[day, tick, a]`` array, agent column a in config
agent order. All randomness flows from the config seed through named
substreams.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import mine_frequent_patterns, surprise_by_day
from .config import WorldConfig
from .contacts import export_graph, extract_contacts, graph_metrics
from .errors import OfficeLabError
from .formats import (
    read_events_jsonl,
    read_paths_csv,
    write_beliefs_csv,
    write_decode_scores_csv,
    write_department_matrix_csv,
    write_events_jsonl,
    write_fig_panels_csv,
    write_node_metrics_csv,
    write_occupancy_csv,
    write_paths_csv,
    write_patterns_csv,
    write_surprise_csv,
    write_trajectories_csv,
    write_trajectories_jsonl,
)
from .fusion import Tracks, track_run
from .sensors import EventColumns, observe
from .simulate import run_simulation

log = logging.getLogger("officelab.pipeline")

MANIFEST_NAME = "manifest.json"


class StageError(OfficeLabError):
    """A pipeline stage failed; message names the stage."""


@dataclass
class RunManifest:
    config_path: str
    seed: int
    tool_version: str = __version__
    created_at: str = ""
    updated_at: str = ""
    outputs: dict[str, dict[str, str]] = field(default_factory=dict)

    def record(self, stage: str, **files: str) -> None:
        self.outputs.setdefault(stage, {}).update(files)
        self.updated_at = _now()

    def path_of(self, stage: str, name: str, out_dir: Path) -> Path:
        try:
            return out_dir / self.outputs[stage][name]
        except KeyError:
            raise StageError(f"manifest lists no {name!r} output for stage {stage!r}; run it first") from None

    def save(self, out_dir: Path) -> None:
        (out_dir / MANIFEST_NAME).write_text(json.dumps(asdict(self), indent=2) + "\n")

    @staticmethod
    def load(out_dir: Path) -> RunManifest:
        """The manifest in ``out_dir``; StageError naming the file unless it holds exactly the typed fields."""
        path = out_dir / MANIFEST_NAME
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            raise StageError(f"{path} is not valid JSON: {exc}") from None
        names = [f.name for f in fields(RunManifest)]
        if not isinstance(doc, dict) or sorted(doc) != sorted(names):
            raise StageError(f"{path} is not a run manifest: expected the keys {names}")
        outputs = doc["outputs"]
        if not (
            all(isinstance(doc[name], str) for name in ("config_path", "tool_version", "created_at", "updated_at"))
            and type(doc["seed"]) is int  # bool is not a seed
            and isinstance(outputs, dict)
            and all(
                isinstance(files, dict) and all(isinstance(f, str) for f in files.values()) for files in outputs.values()
            )
        ):
            raise StageError(f"{path} is not a run manifest: expected string fields, an integer seed and string outputs")
        return RunManifest(**doc)


@dataclass
class Handoff:
    """What the stages of one run_pipeline call pass on in memory instead of reading back their files.

    Each consumer clears the field it takes, so nothing is held past its last use; the paths,
    which analyze and graph share, go when the run ends.
    """

    source: str  # the analytics source: whose paths go to analyze and graph
    locations: np.ndarray | None = None  # simulate -> observe
    events: EventColumns | None = None  # observe -> fuse
    decoded: Tracks | None = None  # fuse's decoded half (one pass over the evidence) -> decode
    paths: np.ndarray | None = None  # simulate's or decode's locations -> analyze and graph


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def open_manifest(config: WorldConfig, config_path: str, out_dir: Path) -> RunManifest:
    out_dir.mkdir(parents=True, exist_ok=True)
    if (out_dir / MANIFEST_NAME).exists():
        manifest = RunManifest.load(out_dir)
        if manifest.seed != config.rng_seed:
            log.info("seed changed from %d to %d; starting a fresh manifest", manifest.seed, config.rng_seed)
            manifest = RunManifest(config_path=config_path, seed=config.rng_seed, created_at=_now())
        return manifest
    return RunManifest(config_path=config_path, seed=config.rng_seed, created_at=_now())


def stage_simulate(config: WorldConfig, out_dir: Path, manifest: RunManifest, handoff: Handoff | None = None) -> str:
    locations = run_simulation(config)
    agents = [a.id for a in config.agents]
    write_trajectories_jsonl(locations, agents, out_dir / "trajectories.jsonl")
    write_trajectories_csv(locations, agents, out_dir / "trajectories.csv")
    manifest.record("simulate", trajectories="trajectories.jsonl", trajectories_csv="trajectories.csv")
    manifest.save(out_dir)
    if handoff is not None:
        handoff.locations = locations
        if handoff.source == "truth":
            handoff.paths = locations
    return f"{locations.size} agent-ticks"


def stage_observe(config: WorldConfig, out_dir: Path, manifest: RunManifest, handoff: Handoff | None = None) -> str:
    if handoff is None:
        locations = read_paths_csv(manifest.path_of("simulate", "trajectories_csv", out_dir), config)
    else:
        locations, handoff.locations = handoff.locations, None
    events = observe(locations, [a.id for a in config.agents], config.sensors, config.rng_seed)
    write_events_jsonl(events, out_dir / "events.jsonl", config)
    manifest.record("observe", events="events.jsonl")
    manifest.save(out_dir)
    if handoff is not None:
        handoff.events = events
    return f"{len(events.sensor)} events from {len(config.sensors)} sensors"


def stage_fuse(config: WorldConfig, out_dir: Path, manifest: RunManifest, handoff: Handoff | None = None) -> str:
    if handoff is None:
        events = read_events_jsonl(manifest.path_of("observe", "events", out_dir), config)
    else:
        events, handoff.events = handoff.events, None
    tracks = track_run(events, config, decode=handoff is not None)
    also = ""
    if handoff is not None:  # decode's half of the same pass over the evidence goes on to stage_decode
        handoff.decoded = replace(tracks, beliefs=None, predict_only=None)
        also = f" and {tracks.scores.size} decoded agent-days"
    agents = [a.id for a in config.agents]
    write_beliefs_csv(tracks.beliefs, agents, out_dir / "beliefs.csv")
    write_paths_csv(tracks.beliefs.argmax(axis=3), agents, out_dir / "argmax_paths.csv")
    manifest.record("fuse", beliefs="beliefs.csv", argmax_paths="argmax_paths.csv")
    manifest.save(out_dir)
    return f"{tracks.predict_only.size} ticks of beliefs{also}, {tracks.predict_only.sum()} predict-only agent-ticks"


def stage_decode(config: WorldConfig, out_dir: Path, manifest: RunManifest, handoff: Handoff | None = None) -> str:
    if handoff is None:
        events = read_events_jsonl(manifest.path_of("observe", "events", out_dir), config)
        tracks = track_run(events, config, fuse=False)
    else:
        tracks, handoff.decoded = handoff.decoded, None
    agents = [a.id for a in config.agents]
    write_paths_csv(tracks.paths, agents, out_dir / "decoded_paths.csv")
    write_decode_scores_csv(tracks.scores, agents, out_dir / "decode_scores.csv")
    manifest.record("decode", decoded_paths="decoded_paths.csv", decode_scores="decode_scores.csv")
    manifest.save(out_dir)
    if handoff is not None and handoff.source == "decoded":
        handoff.paths = tracks.paths
    return f"{tracks.scores.size} agent-days, {tracks.retries} leak retries"


def _paths_for_source(
    config: WorldConfig, out_dir: Path, manifest: RunManifest, source: str, handoff: Handoff | None
) -> np.ndarray:
    files = {"truth": ("simulate", "trajectories_csv"), "decoded": ("decode", "decoded_paths")}
    if source not in files:
        raise StageError(f"unknown analytics source {source!r}")
    if handoff is not None:
        return handoff.paths
    return read_paths_csv(manifest.path_of(*files[source], out_dir), config)


def stage_analyze(
    config: WorldConfig, out_dir: Path, manifest: RunManifest, source: str = "truth", handoff: Handoff | None = None
) -> str:
    paths = _paths_for_source(config, out_dir, manifest, source, handoff)
    settings = config.analytics
    baselines = {}
    day_dists = {}
    all_scores = {}
    reports = []
    for a, profile in enumerate(config.agents):
        agent_paths = paths[:, :, a]
        baseline, dists, scores = surprise_by_day(
            profile.id,
            agent_paths,
            config.floor_plan,
            baseline_alpha=settings.baseline_alpha,
            day_alpha=settings.day_alpha,
        )
        baselines[profile.id] = baseline
        day_dists[profile.id] = dists
        all_scores[profile.id] = scores
        reports.append(
            mine_frequent_patterns(
                profile.id, agent_paths, settings.min_support, settings.min_len, settings.max_len
            )
        )
    occ = [baselines[a] for a in sorted(baselines)]
    occ += [day_dists[a][d] for a in sorted(day_dists) for d in sorted(day_dists[a])]
    write_occupancy_csv(occ, out_dir / "occupancy.csv", source)
    write_surprise_csv([s for a in sorted(all_scores) for s in all_scores[a].values()], out_dir / "surprise.csv", source)
    write_patterns_csv(reports, out_dir / "patterns.csv", source)
    write_fig_panels_csv(baselines, day_dists, all_scores, out_dir / "fig_panels.csv", source)
    manifest.record(
        "analyze",
        occupancy="occupancy.csv",
        surprise="surprise.csv",
        patterns="patterns.csv",
        fig_panels="fig_panels.csv",
    )
    manifest.save(out_dir)
    return f"{len(baselines)} agents from {source} paths"


def stage_graph(
    config: WorldConfig, out_dir: Path, manifest: RunManifest, source: str = "truth", handoff: Handoff | None = None
) -> str:
    paths = _paths_for_source(config, out_dir, manifest, source, handoff)
    agents = [a.id for a in config.agents]
    departments = {a.id: a.department for a in config.agents}
    graph = extract_contacts(paths, agents, config.floor_plan, config.contact_rule, departments)
    (out_dir / "contacts.dot").write_text(export_graph(graph, "dot"))
    (out_dir / "contact_edges.csv").write_text(export_graph(graph, "edge_csv"))
    metrics = graph_metrics(graph)
    write_node_metrics_csv(metrics, out_dir / "node_metrics.csv")
    write_department_matrix_csv(metrics, out_dir / "department_matrix.csv")
    manifest.record(
        "graph",
        dot="contacts.dot",
        edges="contact_edges.csv",
        node_metrics="node_metrics.csv",
        department_matrix="department_matrix.csv",
    )
    manifest.save(out_dir)
    return f"{len(graph.nodes)} nodes, {len(graph.edges)} edges"


STAGES = {
    "simulate": stage_simulate,
    "observe": stage_observe,
    "fuse": stage_fuse,
    "decode": stage_decode,
    "analyze": stage_analyze,
    "graph": stage_graph,
}


def run_stage(
    name: str,
    config: WorldConfig,
    out_dir: Path,
    manifest: RunManifest,
    source: str = "truth",
    handoff: Handoff | None = None,
) -> None:
    """Run one stage; without a ``handoff`` it reads its inputs from the files the manifest names."""
    stage = STAGES[name]
    start = time.perf_counter()
    try:
        if name in ("analyze", "graph"):
            summary = stage(config, out_dir, manifest, source=source, handoff=handoff)
        else:
            summary = stage(config, out_dir, manifest, handoff=handoff)
    except StageError:
        raise
    except OfficeLabError as exc:
        raise StageError(f"stage {name} failed: {exc}") from exc
    log.info("%s: %s in %.2f s", name, summary, time.perf_counter() - start)


def run_pipeline(
    config: WorldConfig, config_path: str, out_dir: Path, source: str = "truth"
) -> RunManifest:
    """Every stage in order, each handing its products to the next in memory; every file is still written."""
    manifest = open_manifest(config, config_path, out_dir)
    handoff = Handoff(source)
    for name in STAGES:
        run_stage(name, config, out_dir, manifest, source=source, handoff=handoff)
    return manifest
