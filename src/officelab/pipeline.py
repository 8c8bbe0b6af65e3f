"""Pipeline: simulate -> observe -> fuse -> decode -> analyze -> graph.

Every stage writes its files into one output directory and records them in a
manifest, so every stage can be rerun in isolation with identical results.
A stage is ``stage(run) -> summary``. It names each file where it writes it,
through ``run.output(name, file)``, gets its inputs only through
``run.take(product)`` and passes its products on through
``run.give(product, value)``: simulate's ``locations``, observe's ``events``
(the event column table), fuse's ``decoded`` (within a pipeline fuse also
decodes, in the same pass over the evidence) and decode's ``decoded_paths``.
Analyze and graph take the product that SOURCES names for the analytics source.
Within one run_pipeline call the Run holds the products in memory, so nothing
is read back. A stage run on its own has no products, and ``take`` reads each
input back through ``_read_back``, the one place a stage input is read from
disk: the file the manifest names, checked against the config by its formats
reader (trajectories.jsonl is an export, read by no stage). Every agent-tick
table is one ``locations[day, tick, a]`` array, agent column a in config agent
order. All randomness flows from the config seed through named substreams.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

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
from .fusion import track_run
from .sensors import observe
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
        (out_dir / MANIFEST_NAME).write_text(json.dumps(vars(self), indent=2) + "\n")

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


# the analytics source -> the product (an agent-tick table) that analyze and graph take
SOURCES = {"truth": "locations", "decoded": "decoded_paths"}

# each product held in a file -> the (stage, output) the manifest lists it under
HANDOFFS = {
    "locations": ("simulate", "trajectories_csv"),
    "events": ("observe", "events"),
    "decoded_paths": ("decode", "decoded_paths"),
}


@dataclass
class Run:
    """What a stage works on: the config, the output directory and its manifest, and the analytics source.

    ``products`` is what the earlier stages of one run_pipeline call passed on in memory, by product name,
    and None for a stage run on its own, which reads its inputs back from the files the manifest names
    instead. ``written`` maps each output the running stage named through ``output`` to its file.
    """

    config: WorldConfig
    out_dir: Path
    manifest: RunManifest
    source: str = "truth"
    products: dict[str, object] | None = None
    written: dict[str, str] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise StageError(f"unknown analytics source {self.source!r}; expected one of {sorted(SOURCES)}")

    def take(self, name: str):
        """The input ``name``: handed on by an earlier stage, or read back from its file."""
        if self.products is None:
            return _read_back(self, name)
        # analyze and graph share the analytics source's table; every other product has one consumer
        return self.products[name] if name == SOURCES[self.source] else self.products.pop(name)

    def give(self, name: str, value: object) -> None:
        """Hand ``value`` on to a later stage of the same run_pipeline call."""
        if self.products is not None:
            self.products[name] = value

    def output(self, name: str, file: str) -> Path:
        """The path to write ``file`` at, recorded as the running stage's output ``name``."""
        self.written[name] = file
        return self.out_dir / file


def _read_back(run: Run, name: str):
    """Product ``name`` read from the file the manifest names for it, checked against the config.

    ``decoded`` is held in no file: it is the decoding half of the tracker run on the events.
    """
    if name == "decoded":
        return track_run(_read_back(run, "events"), run.config, fuse=False)
    path = run.manifest.path_of(*HANDOFFS[name], run.out_dir)
    # the readers are looked up at each call, so a wrapper set on this module's names sees every read
    return read_events_jsonl(path, run.config) if name == "events" else read_paths_csv(path, run.config)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def open_manifest(config: WorldConfig, config_path: str, out_dir: Path) -> RunManifest:
    """The manifest of ``out_dir`` (made, with the directory, if there is none or its seed differs)."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if (out_dir / MANIFEST_NAME).exists():
            manifest = RunManifest.load(out_dir)
            if manifest.seed == config.rng_seed:
                return manifest
            log.info("seed changed from %d to %d; starting a fresh manifest", manifest.seed, config.rng_seed)
    except OSError as exc:
        raise StageError(f"cannot open the output directory {out_dir}: {exc}") from None
    return RunManifest(config_path=config_path, seed=config.rng_seed, created_at=_now())


def stage_simulate(run: Run) -> str:
    locations = run_simulation(run.config)
    agents = [a.id for a in run.config.agents]
    write_trajectories_jsonl(locations, agents, run.output("trajectories", "trajectories.jsonl"))
    write_trajectories_csv(locations, agents, run.output("trajectories_csv", "trajectories.csv"))
    run.give("locations", locations)
    return f"{locations.size} agent-ticks"


def stage_observe(run: Run) -> str:
    config = run.config
    events = observe(run.take("locations"), [a.id for a in config.agents], config.sensors, config.rng_seed)
    write_events_jsonl(events, run.output("events", "events.jsonl"), config)
    run.give("events", events)
    return f"{len(events.sensor)} events from {len(config.sensors)} sensors"


def stage_fuse(run: Run) -> str:
    # within a pipeline the tracker also decodes in the same pass over the evidence, for stage_decode
    in_pipeline = run.products is not None
    tracks = track_run(run.take("events"), run.config, decode=in_pipeline)
    also = ""
    if in_pipeline:
        run.give("decoded", replace(tracks, beliefs=None, predict_only=None))
        also = f" and {tracks.scores.size} decoded agent-days"
    agents = [a.id for a in run.config.agents]
    write_beliefs_csv(tracks.beliefs, agents, run.output("beliefs", "beliefs.csv"))
    write_paths_csv(tracks.beliefs.argmax(axis=3), agents, run.output("argmax_paths", "argmax_paths.csv"))
    return f"{tracks.predict_only.size} ticks of beliefs{also}, {tracks.predict_only.sum()} predict-only agent-ticks"


def stage_decode(run: Run) -> str:
    tracks = run.take("decoded")
    agents = [a.id for a in run.config.agents]
    write_paths_csv(tracks.paths, agents, run.output("decoded_paths", "decoded_paths.csv"))
    write_decode_scores_csv(tracks.scores, agents, run.output("decode_scores", "decode_scores.csv"))
    run.give("decoded_paths", tracks.paths)
    return f"{tracks.scores.size} agent-days, {tracks.retries} leak retries"


def stage_analyze(run: Run) -> str:
    config, source = run.config, run.source
    paths = run.take(SOURCES[source])
    settings, plan = config.analytics, config.floor_plan
    by_id = sorted((profile.id, a) for a, profile in enumerate(config.agents))  # the row order of every file
    results = [
        surprise_by_day(agent, paths[:, :, a], plan, settings.baseline_alpha, settings.day_alpha) for agent, a in by_id
    ]
    reports = [
        mine_frequent_patterns(agent, paths[:, :, a], settings.min_support, settings.min_len, settings.max_len)
        for agent, a in by_id
    ]
    write_occupancy_csv(results, run.output("occupancy", "occupancy.csv"), source)
    write_surprise_csv(results, run.output("surprise", "surprise.csv"), source)
    write_patterns_csv(reports, run.output("patterns", "patterns.csv"), source)
    write_fig_panels_csv(results, run.output("fig_panels", "fig_panels.csv"), source)
    return f"{len(results)} agents from {source} paths"


def stage_graph(run: Run) -> str:
    config = run.config
    agents = [a.id for a in config.agents]
    departments = {a.id: a.department for a in config.agents}
    graph = extract_contacts(run.take(SOURCES[run.source]), agents, config.floor_plan, config.contact_rule, departments)
    run.output("dot", "contacts.dot").write_text(export_graph(graph, "dot"))
    run.output("edges", "contact_edges.csv").write_text(export_graph(graph, "edge_csv"))
    metrics = graph_metrics(graph)
    write_node_metrics_csv(metrics, run.output("node_metrics", "node_metrics.csv"))
    write_department_matrix_csv(metrics, run.output("department_matrix", "department_matrix.csv"))
    return f"{len(graph.nodes)} nodes, {len(graph.edges)} edges"


STAGES = {
    "simulate": stage_simulate,
    "observe": stage_observe,
    "fuse": stage_fuse,
    "decode": stage_decode,
    "analyze": stage_analyze,
    "graph": stage_graph,
}


def run_stage(name: str, run: Run) -> None:
    """Run one stage and record the files it named in the manifest, which is saved once per stage."""
    start = time.perf_counter()
    run.written.clear()
    try:
        summary = STAGES[name](run)
        run.manifest.record(name, **run.written)
        run.manifest.save(run.out_dir)
    except StageError:
        raise
    except (OfficeLabError, OSError) as exc:  # OSError: a missing or unreadable input, an unwritable output
        raise StageError(f"stage {name} failed: {exc}") from exc
    log.info("%s: %s in %.2f s", name, summary, time.perf_counter() - start)


def run_pipeline(
    config: WorldConfig, config_path: str, out_dir: Path, source: str = "truth"
) -> RunManifest:
    """Every stage in order, each handing its products to the next in memory; every file is still written."""
    run = Run(config, out_dir, open_manifest(config, config_path, out_dir), source, products={})
    for name in STAGES:
        run_stage(name, run)
    return run.manifest
