#!/usr/bin/env python3
"""Time the handoff formats and the tracker of one or two checkouts in one process; print one JSON record.

    python3 scripts/bench_layers.py [--src A_SRC_DIR [--src B_SRC_DIR]]

Each ``--src`` (a checkout's ``src/``, this checkout's by default) loads as
its own package, ``officelab_a`` and ``officelab_b``, so two checkouts run
side by side in one process; only public officelab names are used.
Workloads: configs/demo.json and bench/workloads.py's full_scale_20 and
long_walk documents for seed 17, made once with this checkout's bench/ and
src/ and parsed by each side.

Every row is timed repeat by repeat, the sides in ABBA order (A then B, B
then A, ...), so a drift of the host's speed falls on both. Per side a row
gives the median wall time of its repeats; with two sides it also gives
``b_over_a``, the median of the per-repeat B/A ratios, and ``b_lower``,
"k/N": the repeats in which B took less time than A.

``formats`` (7 repeats): on demo and full_scale_20, each writer rewrites a
``run_pipeline`` file from the arrays read back, and each reader reads it;
on long_walk, the two trajectory writers and the trajectories.csv read, on
simulated locations. Also as µs per row (headers not counted) and MB/s.

``tracker`` (15 repeats after one warm-up call per side): on demo and
full_scale_20, the simulated events (``run_simulation``, ``sensors.observe``)
through ``track_run`` with both halves, ``fuse_only``, ``decode_only``, and
``evidence``: ``LikelihoodModel.evidence_into`` alone into a fresh run-wide
buffer. Also as µs per agent-tick, and ``peak_mb``, the tracemalloc peak of
one more call in MB (10^6 bytes), taken one side at a time.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

FORMAT_REPEATS = 7
TRACKER_REPEATS = 15
SEED = 17
REPO = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")
MODULES = ("config", "formats", "fusion", "pipeline", "sensors", "simulate")


def load(src: Path, side: str) -> SimpleNamespace:
    """The officelab modules under ``src`` as package ``officelab_<side>``; its relative imports stay inside it."""
    name, init = f"officelab_{side}", src / "officelab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def paired(calls: list, repeats: int) -> list[list[float]]:
    """Per side, the wall times of ``repeats`` calls of ``calls[side]``, the sides taking turns in ABBA order."""
    times: list[list[float]] = [[] for _ in calls]
    for i in range(repeats):
        for side in range(len(calls))[:: 1 if i % 2 == 0 else -1]:
            start = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - start)
    return times


def row(figures: list[dict], times: list[list[float]]) -> dict:
    """Each side's ``figures`` under its name; with two sides, the median B/A ratio and how often B was lower."""
    out = {side: f for side, f in zip(SIDES, figures)}
    if len(times) == 2:
        ratios = [b / a for a, b in zip(*times)]
        out["b_over_a"] = round(statistics.median(ratios), 4)
        out["b_lower"] = f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}"
    return out


def format_calls(lab: SimpleNamespace, config, out: Path, pipeline: bool) -> dict:
    """name -> (the file it writes or reads, the call on a path). With ``pipeline``, every writer and reader on
    the files of one pipeline run; else the trajectory writers and the trajectories.csv read on simulated locations."""
    formats = lab.formats
    agents = [a.id for a in config.agents]
    if pipeline:
        lab.pipeline.run_pipeline(config, "bench_layers", out, source="decoded")
        locations = formats.read_paths_csv(out / "trajectories.csv", config)
    else:
        locations = lab.simulate.run_simulation(config)
        formats.write_trajectories_csv(locations, agents, out / "trajectories.csv")
    calls = {
        "write_trajectories_jsonl": (
            "trajectories.jsonl",
            lambda p: formats.write_trajectories_jsonl(locations, agents, p),
        ),
        "write_trajectories_csv": ("trajectories.csv", lambda p: formats.write_trajectories_csv(locations, agents, p)),
        "read_paths_csv trajectories.csv": ("trajectories.csv", lambda p: formats.read_paths_csv(p, config)),
    }
    if not pipeline:
        return calls
    decoded = formats.read_paths_csv(out / "decoded_paths.csv", config)
    events = formats.read_events_jsonl(out / "events.jsonl", config)
    beliefs = lab.fusion.track_run(events, config, decode=False).beliefs
    return calls | {
        "write_events_jsonl": ("events.jsonl", lambda p: formats.write_events_jsonl(events, p, config)),
        "write_beliefs_csv": ("beliefs.csv", lambda p: formats.write_beliefs_csv(beliefs, agents, p)),
        "write_paths_csv": ("decoded_paths.csv", lambda p: formats.write_paths_csv(decoded, agents, p)),
        "read_events_jsonl": ("events.jsonl", lambda p: formats.read_events_jsonl(p, config)),
        "read_paths_csv decoded_paths.csv": ("decoded_paths.csv", lambda p: formats.read_paths_csv(p, config)),
    }


def format_figures(labs: list, doc: dict, out: Path, pipeline: bool) -> dict:
    sides = []
    for side, lab in zip(SIDES, labs):
        (out / side / "rewrite").mkdir(parents=True)
        sides.append(format_calls(lab, lab.config.parse_config(doc), out / side, pipeline))
    result = {}
    for name, (file, _) in sides[0].items():
        paths = [out / side / "rewrite" / file if name.startswith("write") else out / side / file for side in SIDES]
        times = paired([lambda c=calls[name][1], p=p: c(p) for calls, p in zip(sides, paths)], FORMAT_REPEATS)
        figures = []
        for path, side_times in zip(paths, times):
            seconds, data = statistics.median(side_times), path.read_bytes()
            rows = data.count(b"\n") - (not file.endswith(".jsonl"))  # a CSV's header is not a row
            figures.append({
                "rows": rows,
                "bytes": len(data),
                "median_s": round(seconds, 6),
                "us_per_row": round(seconds / max(rows, 1) * 1e6, 4),
                "mb_per_s": round(len(data) / 1e6 / seconds, 2),
            })
        result[name] = {"file": file} | row(figures, times)
    return result


def tracker_modes(lab: SimpleNamespace, config) -> dict:
    """mode -> the call it times, on ``config``'s simulated events."""
    fusion = lab.fusion
    agents = [a.id for a in config.agents]
    events = lab.sensors.observe(lab.simulate.run_simulation(config), agents, config.sensors, config.rng_seed)
    model = fusion.LikelihoodModel(config.sensors, config.floor_plan, n_agents=len(agents))
    shape = (config.days, config.ticks_per_day, len(agents), config.floor_plan.n)
    return {
        "track_run": lambda: fusion.track_run(events, config),
        "fuse_only": lambda: fusion.track_run(events, config, decode=False),
        "decode_only": lambda: fusion.track_run(events, config, fuse=False),
        "evidence": lambda: model.evidence_into(events, np.empty(shape)),
    }


def tracker_figures(labs: list, doc: dict) -> dict:
    configs = [lab.config.parse_config(doc) for lab in labs]
    sides = [tracker_modes(lab, config) for lab, config in zip(labs, configs)]
    agent_ticks = configs[0].days * configs[0].ticks_per_day * len(configs[0].agents)
    result = {}
    for mode in sides[0]:
        calls = [modes[mode] for modes in sides]
        for call in calls:
            call()
        times = paired(calls, TRACKER_REPEATS)
        figures = []
        for call, side_times in zip(calls, times):  # both copies share one heap, so one side at a time
            tracemalloc.start()
            call()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            seconds = statistics.median(side_times)
            figures.append({
                "median_s": round(seconds, 6),
                "us_per_agent_tick": round(seconds / max(agent_ticks, 1) * 1e6, 4),
                "peak_mb": round(peak / 1e6, 2),
            })
        result[mode] = {"agent_ticks": agent_ticks} | row(figures, times)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, action="append", help="a src/ directory whose officelab is timed (at most twice)")
    args = ap.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [REPO / "src"]]
    if len(srcs) > 2:
        ap.error("give --src at most twice")
    sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
    from machine import machine_record
    from workloads import WORKLOADS

    labs = [load(src, side) for src, side in zip(srcs, SIDES)]
    docs = {"demo": json.loads((REPO / "configs" / "demo.json").read_text())}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("full_scale_20", "long_walk"):
            docs[name] = WORKLOADS[name](REPO, Path(tmp), SEED).documents()[name]
        formats = {w: format_figures(labs, doc, Path(tmp, w), w != "long_walk") for w, doc in docs.items()}
    tracker = {w: tracker_figures(labs, docs[w]) for w in ("demo", "full_scale_20")}
    record = {
        "machine": machine_record(srcs[-1].parent),
        "src": dict(zip(SIDES, map(str, srcs))),
        "formats": {"repeats": FORMAT_REPEATS, "workloads": formats},
        "tracker": {"repeats": TRACKER_REPEATS, "workloads": tracker},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
