#!/usr/bin/env python3
"""Time the handoff readers and writers in process; print one JSON record.

    python3 scripts/bench_formats.py [--src SRC_DIR]

For configs/demo.json and for full_scale_20 (full_scale_config with seed 17,
20 agents and 5 days of 300 ticks, as bench/workloads.py builds it), one
``run_pipeline`` call writes every file into a temporary directory. Each
writer then rewrites its file from the arrays read back, and each reader
reads the file, REPEATS (7) times. For long_walk (bench/workloads.py's one
agent without schedule or sensors over one day of 100,000 ticks, seed 17),
``run_simulation`` gives the locations, and only the two trajectory writers
and the read of trajectories.csv are timed. A figure is the median of those
wall times, also given as µs per row (a CSV row or a JSON line, headers not
counted) and MB/s of the file. Only the public names of
``officelab.formats`` and ``run_simulation`` are used, so ``--src`` can
point at any checkout's ``src/`` and one script times both sides of a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 7
REPO = Path(__file__).resolve().parent.parent


def timed(call) -> float:
    """The median wall time of REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def long_walk_document(seed: int) -> dict:
    """bench/workloads.py's long_walk config: full_scale's fourth agent alone, without schedule or sensors."""
    from officelab.presets import full_scale_config

    doc = full_scale_config(seed=seed, days=1, ticks_per_day=100_000, n_agents=4)
    agent = dict(doc["agents"][3], schedule=[])
    doc.update(agents=[agent], sensors=[])
    doc["floor_plan"]["home_of"] = {str(agent["home"]): [agent["id"]]}
    return doc


def trajectory_calls(config, out: Path) -> dict:
    """The two trajectory writers and the trajectories.csv read, on simulated locations."""
    from officelab import formats
    from officelab.simulate import run_simulation

    locations, agents = run_simulation(config), [a.id for a in config.agents]
    formats.write_trajectories_csv(locations, agents, out / "trajectories.csv")
    return {  # name -> (the file it writes or reads, the call on a path)
        "write_trajectories_jsonl": (
            "trajectories.jsonl",
            lambda p: formats.write_trajectories_jsonl(locations, agents, p),
        ),
        "write_trajectories_csv": ("trajectories.csv", lambda p: formats.write_trajectories_csv(locations, agents, p)),
        "read_paths_csv trajectories.csv": ("trajectories.csv", lambda p: formats.read_paths_csv(p, config)),
    }


def pipeline_calls(config, out: Path) -> dict:
    """Every writer and reader, on the files of one pipeline run."""
    from officelab import formats
    from officelab.fusion import track_run
    from officelab.pipeline import run_pipeline

    run_pipeline(config, "bench_formats", out, source="decoded")
    agents = [a.id for a in config.agents]
    locations = formats.read_paths_csv(out / "trajectories.csv", config)
    decoded = formats.read_paths_csv(out / "decoded_paths.csv", config)
    events = formats.read_events_jsonl(out / "events.jsonl", config)
    beliefs = track_run(events, config, decode=False).beliefs
    return {  # name -> (the file it writes or reads, the call on a path)
        "write_trajectories_jsonl": (
            "trajectories.jsonl",
            lambda p: formats.write_trajectories_jsonl(locations, agents, p),
        ),
        "write_trajectories_csv": ("trajectories.csv", lambda p: formats.write_trajectories_csv(locations, agents, p)),
        "write_events_jsonl": ("events.jsonl", lambda p: formats.write_events_jsonl(events, p, config)),
        "write_beliefs_csv": ("beliefs.csv", lambda p: formats.write_beliefs_csv(beliefs, agents, p)),
        "write_paths_csv": ("decoded_paths.csv", lambda p: formats.write_paths_csv(decoded, agents, p)),
        "read_events_jsonl": ("events.jsonl", lambda p: formats.read_events_jsonl(p, config)),
        "read_paths_csv trajectories.csv": ("trajectories.csv", lambda p: formats.read_paths_csv(p, config)),
        "read_paths_csv decoded_paths.csv": ("decoded_paths.csv", lambda p: formats.read_paths_csv(p, config)),
    }


def figures(make_calls, config, out: Path) -> dict:
    out.mkdir()
    calls = make_calls(config, out)
    scratch = out / "rewrite"
    scratch.mkdir()
    result = {}
    for name, (file, call) in calls.items():
        path = (scratch if name.startswith("write") else out) / file
        seconds = timed(lambda: call(path))
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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=REPO / "src", help="the src/ directory whose officelab is timed")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy

    from officelab.config import load_config, parse_config
    from officelab.presets import full_scale_config

    workloads = {  # name -> (what it times, its config)
        "demo": (pipeline_calls, load_config(REPO / "configs" / "demo.json")),
        "full_scale_20": (pipeline_calls, parse_config(full_scale_config(seed=17, n_agents=20, days=5))),
        "long_walk": (trajectory_calls, parse_config(long_walk_document(seed=17))),
    }
    record: dict = {
        "repeats": REPEATS,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        record["workloads"] = {name: figures(calls, config, out / name) for name, (calls, config) in workloads.items()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
