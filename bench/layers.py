"""officelab's layers as the traced run sees them: entry points and per-layer metrics.

Each entry point is wrapped where its caller looks it up, so a call counts
once, at the boundary the caller crosses. See README.md for which
end-to-end figure each metric should move, and on which workload.
"""

from __future__ import annotations

import os

from spans import EntryPoint, SpanIndex

STAGES = ("simulate", "observe", "fuse", "decode", "analyze", "graph")


def _size_of(pos: int):
    def note(args, kwargs, result):
        return os.path.getsize(args[pos])

    return note


def _len_of_result(args, kwargs, result):
    return len(result)


# Stage spans come from the pipeline's own stage table, which both the
# `pipeline` command and the single-stage commands dispatch through.
STAGE_POINTS = [EntryPoint(f"officelab.pipeline.STAGES.{s}", f"pipeline.{s}") for s in STAGES]

LAYER_POINTS = STAGE_POINTS + [
    EntryPoint("officelab.cli.load_config", "config.load"),
    EntryPoint("officelab.config.load_config", "config.load"),
    EntryPoint("officelab.simulate.shortest_path", "world.shortest_path"),
    EntryPoint("officelab.world.stationary_distribution", "world.oracle"),
    EntryPoint("officelab.pipeline.run_simulation", "simulate.run"),
    EntryPoint("officelab.pipeline.generate_event_log", "sensors.generate", _len_of_result),
    EntryPoint("officelab.sensors.observe_tick", "sensors.observe_tick"),
    EntryPoint("officelab.pipeline.write_events_jsonl", "formats.events_write", _size_of(1)),
    EntryPoint("officelab.pipeline.read_events_jsonl", "formats.events_read", _size_of(0)),
    EntryPoint("officelab.pipeline.write_trajectories_jsonl", "formats.trajectories_write"),
    EntryPoint("officelab.pipeline.write_trajectories_csv", "formats.trajectories_write"),
    EntryPoint("officelab.pipeline.read_trajectories_jsonl", "formats.trajectories_read"),
    EntryPoint("officelab.pipeline.write_beliefs_csv", "formats.beliefs_write"),
    EntryPoint("officelab.pipeline.write_paths_csv", "formats.paths_write"),
    EntryPoint("officelab.pipeline.read_paths_csv", "formats.paths_read"),
    EntryPoint("officelab.pipeline.motion_model_for", "fusion.motion_model"),
    EntryPoint("officelab.fusion.motion_model_for", "fusion.motion_model"),
    EntryPoint("officelab.fusion.LikelihoodModel.tick_likelihood", "fusion.tick_likelihood"),
    EntryPoint("officelab.pipeline.fuse_run", "fusion.filter"),
    EntryPoint("officelab.fusion.update", "fusion.update"),
    EntryPoint("officelab.pipeline.viterbi_decode", "decoding.viterbi"),
    EntryPoint("officelab.pipeline.RunManifest.save", "pipeline.manifest_save"),
    EntryPoint("officelab.pipeline.RunManifest.load", "pipeline.manifest_load"),
    EntryPoint("officelab.pipeline.surprise_by_day", "analytics.surprise"),
    EntryPoint("officelab.pipeline.mine_frequent_patterns", "analytics.patterns"),
    EntryPoint("officelab.pipeline.extract_contacts", "contacts.extract"),
    EntryPoint("officelab.pipeline.graph_metrics", "contacts.metrics"),
    EntryPoint("officelab.pipeline.export_graph", "contacts.export"),
]


def absent_spans(absent_targets: list[str], points: list[EntryPoint] = LAYER_POINTS) -> set[str]:
    """Span names none of whose entry points resolved."""
    present = {p.span for p in points if p.target not in absent_targets}
    return {p.span for p in points} - present


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ix: SpanIndex, bases: dict[str, int], gone: set[str]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from one traced iteration.

    ``bases`` holds the workload's own counts (agent_ticks, ticks,
    tracked_agent_ticks, agent_days). A metric that depends on a span in
    ``gone`` reads 0 and is listed as absent.
    """
    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name: str, unit: str, value: float, *spans: str) -> None:
        if any(s in gone for s in spans):
            out[name] = (0, unit)
            absent.append(name)
        else:
            out[name] = (value, unit)

    def calls_and_s(prefix: str, span: str) -> None:
        put(f"{prefix}_calls", "count", ix.count(span), span)
        put(f"{prefix}_s", "s", ix.total_s(span), span)

    calls_and_s("config.load", "config.load")
    calls_and_s("world.shortest_path", "world.shortest_path")

    agent_ticks = bases["agent_ticks"]
    put("simulate.agent_ticks", "count", agent_ticks)
    put("simulate.run_s", "s", ix.total_s("simulate.run"), "simulate.run")
    put("simulate.us_per_agent_tick", "us", _ratio(ix.total_s("simulate.run") * 1e6, agent_ticks), "simulate.run")

    ticks = bases["observed_ticks"]
    observe = ix.total_s("sensors.generate")
    put("sensors.ticks", "count", ticks)
    put("sensors.observe_s", "s", observe, "sensors.generate")
    put("sensors.us_per_tick", "us", _ratio(observe * 1e6, ticks), "sensors.generate")
    put("sensors.observe_tick_calls", "count", ix.count("sensors.observe_tick"), "sensors.observe_tick")
    put("sensors.events", "count", sum(ix.notes("sensors.generate")), "sensors.generate")

    for verb in ("write", "read"):
        span = f"formats.events_{verb}"
        seconds = ix.total_s(span)
        nbytes = sum(ix.notes(span))
        if verb == "read":
            put("formats.events_read_calls", "count", ix.count(span), span)
        put(f"formats.events_{verb}_s", "s", seconds, span)
        put(f"formats.events_{verb}_bytes", "bytes", nbytes, span)
        put(f"formats.events_{verb}_mb_per_s", "MB/s", _ratio(nbytes / 1e6, seconds), span)
    for kind in ("trajectories_write", "trajectories_read", "beliefs_write", "paths_write", "paths_read"):
        put(f"formats.{kind}_s", "s", ix.total_s(f"formats.{kind}"), f"formats.{kind}")

    calls_and_s("fusion.motion_model", "fusion.motion_model")
    tracked = bases["tracked_agent_ticks"]
    put("fusion.agent_ticks", "count", tracked)
    put("fusion.tick_likelihood_calls", "count", ix.count("fusion.tick_likelihood"), "fusion.tick_likelihood")
    put("fusion.likelihood_s", "s", ix.total_s("fusion.tick_likelihood"), "fusion.tick_likelihood")
    put(
        "fusion.filter_us_per_agent_tick", "us",
        _ratio(ix.self_s("fusion.filter") * 1e6, tracked), "fusion.filter",
    )
    put("fusion.update_calls", "count", ix.count("fusion.update"), "fusion.update")
    degenerate = sum(1 for n in ix.notes("fusion.update") if n == "DegenerateEvidenceError")
    put("fusion.degenerate_updates", "count", degenerate, "fusion.update")

    days = bases["agent_days"]
    calls = ix.count("decoding.viterbi")
    viterbi_s = ix.total_s("decoding.viterbi")
    put("decoding.agent_days", "count", days)
    put("decoding.viterbi_calls", "count", calls, "decoding.viterbi")
    put("decoding.viterbi_s", "s", viterbi_s, "decoding.viterbi")
    put("decoding.leak_retries", "count", calls - days, "decoding.viterbi")
    put("decoding.useful_ratio", "share", _ratio(days, calls), "decoding.viterbi")
    put("decoding.ms_per_agent_day", "ms", _ratio(viterbi_s * 1e3, days), "decoding.viterbi")

    for stage in STAGES:
        put(f"pipeline.{stage}.self_s", "s", ix.self_s(f"pipeline.{stage}"), f"pipeline.{stage}")
    put("pipeline.manifest_saves", "count", ix.count("pipeline.manifest_save"), "pipeline.manifest_save")
    put(
        "pipeline.manifest_s", "s",
        ix.total_s("pipeline.manifest_save") + ix.total_s("pipeline.manifest_load"),
        "pipeline.manifest_save", "pipeline.manifest_load",
    )

    put("cli.self_s", "s", sum(ix.self_s(n) for n in ix.names() if n.startswith("op.")))
    put("analytics.surprise_s", "s", ix.total_s("analytics.surprise"), "analytics.surprise")
    put("analytics.patterns_s", "s", ix.total_s("analytics.patterns"), "analytics.patterns")
    for part in ("extract", "metrics", "export"):
        put(f"contacts.{part}_s", "s", ix.total_s(f"contacts.{part}"), f"contacts.{part}")
    return out, absent
