#!/usr/bin/env python3
"""Time the tracker (fusion.track_run) in process; print one JSON record.

    python3 scripts/bench_tracker.py [--src SRC_DIR]

For configs/demo.json and for full_scale_20 (full_scale_config with seed 17,
20 agents and 5 days of 300 ticks, as bench/workloads.py builds it), the
simulated run's events (``run_simulation`` then ``sensors.observe``) are
tracked REPEATS (15) times in each of three modes: both halves
(``track_run``), the filter alone (``fuse_only``, as the fuse stage run on
its own) and the decoder alone (``decode_only``, as the decode stage run on
its own). A figure is the median of those wall times, also given as µs per
agent-tick. One more untimed call per mode, under tracemalloc, gives
``peak_mb``, the largest traced allocation in MB (10^6 bytes). Only
``track_run``, ``run_simulation``, ``observe`` and the config loaders are
used, so ``--src`` can point at any checkout's ``src/`` and one script times
both sides of a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPEATS = 15
REPO = Path(__file__).resolve().parent.parent
MODES = {"track_run": (True, True), "fuse_only": (True, False), "decode_only": (False, True)}  # name -> fuse, decode


def figures(config) -> dict:
    from officelab.fusion import track_run
    from officelab.sensors import observe
    from officelab.simulate import run_simulation

    events = observe(run_simulation(config), [a.id for a in config.agents], config.sensors, config.rng_seed)
    agent_ticks = config.days * config.ticks_per_day * len(config.agents)
    result = {}
    for name, (fuse, decode) in MODES.items():
        track_run(events, config, fuse=fuse, decode=decode)  # warm-up, untimed
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            track_run(events, config, fuse=fuse, decode=decode)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        track_run(events, config, fuse=fuse, decode=decode)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        seconds = statistics.median(times)
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
    sys.path.insert(0, str(args.src.resolve()))
    import numpy

    from officelab.config import load_config, parse_config
    from officelab.presets import full_scale_config

    workloads = {
        "demo": load_config(REPO / "configs" / "demo.json"),
        "full_scale_20": parse_config(full_scale_config(seed=17, n_agents=20, days=5)),
    }
    record = {
        "repeats": REPEATS,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "workloads": {name: figures(config) for name, config in workloads.items()},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
