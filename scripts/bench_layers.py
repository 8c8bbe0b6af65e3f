#!/usr/bin/env python3
"""Time the handoff formats and the tracker in process; print one JSON record.

    python3 scripts/bench_layers.py [--src SRC_DIR]

Workloads: configs/demo.json and bench/workloads.py's full_scale_20 and
long_walk documents for seed 17. Only public officelab names are used, so
``--src`` can be any checkout's ``src/`` and one script times both sides of
a change. A figure is the median wall time of its repeats.

``formats`` (7 repeats): on demo and full_scale_20, each writer rewrites a
``run_pipeline`` file from the arrays read back, and each reader reads it;
on long_walk, the two trajectory writers and the trajectories.csv read, on
simulated locations. Also as µs per row (headers not counted) and MB/s.

``tracker`` (15 repeats after one warm-up call): on demo and full_scale_20,
the simulated events (``run_simulation``, ``sensors.observe``) through
``track_run`` with both halves, ``fuse_only``, ``decode_only``, and
``evidence``: ``LikelihoodModel.evidence_into`` alone into a fresh run-wide
buffer. Also as µs per agent-tick, and ``peak_mb``, the tracemalloc peak of
one more call in MB (10^6 bytes).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

FORMAT_REPEATS = 7
TRACKER_REPEATS = 15
SEED = 17
REPO = Path(__file__).resolve().parent.parent


def median_s(call, repeats: int) -> float:
    """The median wall time of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def format_calls(config, out: Path, pipeline: bool) -> dict:
    """name -> (the file it writes or reads, the call on a path). With ``pipeline``, every writer and reader on
    the files of one pipeline run; else the trajectory writers and the trajectories.csv read on simulated locations."""
    from officelab import formats
    from officelab.fusion import track_run
    from officelab.pipeline import run_pipeline
    from officelab.simulate import run_simulation

    agents = [a.id for a in config.agents]
    if pipeline:
        run_pipeline(config, "bench_layers", out, source="decoded")
        locations = formats.read_paths_csv(out / "trajectories.csv", config)
    else:
        locations = run_simulation(config)
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
    beliefs = track_run(events, config, decode=False).beliefs
    return calls | {
        "write_events_jsonl": ("events.jsonl", lambda p: formats.write_events_jsonl(events, p, config)),
        "write_beliefs_csv": ("beliefs.csv", lambda p: formats.write_beliefs_csv(beliefs, agents, p)),
        "write_paths_csv": ("decoded_paths.csv", lambda p: formats.write_paths_csv(decoded, agents, p)),
        "read_events_jsonl": ("events.jsonl", lambda p: formats.read_events_jsonl(p, config)),
        "read_paths_csv decoded_paths.csv": ("decoded_paths.csv", lambda p: formats.read_paths_csv(p, config)),
    }


def format_figures(config, out: Path, pipeline: bool) -> dict:
    (out / "rewrite").mkdir(parents=True)
    result = {}
    for name, (file, call) in format_calls(config, out, pipeline).items():
        path = out / "rewrite" / file if name.startswith("write") else out / file
        seconds = median_s(lambda: call(path), FORMAT_REPEATS)
        data = path.read_bytes()
        rows = data.count(b"\n") - (not file.endswith(".jsonl"))  # a CSV's header is not a row
        result[name] = {
            "file": file,
            "rows": rows,
            "bytes": len(data),
            "median_s": round(seconds, 6),
            "us_per_row": round(seconds / max(rows, 1) * 1e6, 4),
            "mb_per_s": round(len(data) / 1e6 / seconds, 2),
        }
    return result


def tracker_figures(config) -> dict:
    from officelab.fusion import LikelihoodModel, track_run
    from officelab.sensors import observe
    from officelab.simulate import run_simulation

    agents = [a.id for a in config.agents]
    events = observe(run_simulation(config), agents, config.sensors, config.rng_seed)
    model = LikelihoodModel(config.sensors, config.floor_plan, n_agents=len(agents))
    shape = (config.days, config.ticks_per_day, len(agents), config.floor_plan.n)
    modes = {
        "track_run": lambda: track_run(events, config),
        "fuse_only": lambda: track_run(events, config, decode=False),
        "decode_only": lambda: track_run(events, config, fuse=False),
        "evidence": lambda: model.evidence_into(events, np.empty(shape)),
    }
    agent_ticks = config.days * config.ticks_per_day * len(agents)
    result = {}
    for name, call in modes.items():
        call()
        seconds = median_s(call, TRACKER_REPEATS)
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        result[name] = {
            "agent_ticks": agent_ticks,
            "median_s": round(seconds, 6),
            "us_per_agent_tick": round(seconds / max(agent_ticks, 1) * 1e6, 4),
            "peak_mb": round(peak / 1e6, 2),
        }
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=REPO / "src", help="the src/ directory whose officelab is timed")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(REPO / "bench")]
    from machine import machine_record
    from workloads import WORKLOADS

    from officelab.config import load_config, parse_config

    with tempfile.TemporaryDirectory() as tmp:
        configs = {"demo": load_config(REPO / "configs" / "demo.json")}
        for name in ("full_scale_20", "long_walk"):
            configs[name] = parse_config(WORKLOADS[name](REPO, Path(tmp), SEED).documents()[name])
        formats = {w: format_figures(config, Path(tmp, w), w != "long_walk") for w, config in configs.items()}
    tracker = {w: tracker_figures(configs[w]) for w in ("demo", "full_scale_20")}
    record = {
        "machine": machine_record(src.parent),
        "formats": {"repeats": FORMAT_REPEATS, "workloads": formats},
        "tracker": {"repeats": TRACKER_REPEATS, "workloads": tracker},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
