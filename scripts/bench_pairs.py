#!/usr/bin/env python3
"""Compare two source checkouts on the benchmark in alternating pairs; write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pr N [--what TEXT]

Each checkout runs its own ``bench/run.py`` (so each side builds from its own
``src/``) for the benchmark's 36 s. Pair i of a workload runs both sides on
seed 17 + i, one after the other; the side that runs first alternates from
pair to pair, starting with the parent; every workload gets 10 pairs. Before
each pair, the side that runs first makes one untimed 5 s run of the same
workload and seed and discards its result: without it, the side that ran
first was the slower one in each of 6 demo_stages pairs. Every run reports
its own median over its repeats; the file gives, per side, the median and
quartiles (numpy linear) of those run medians, how many pairs the change
won, and its relative change of the medians. Then 3 alternating pairs of
traced runs (``--trace 1``) of every workload on seed 17, each after its
warm-up run, give the per-layer figures, with the metrics each side reported
absent. The runs go one at a time. The file also gives each side's
``src_lines``, the total line count of its ``src/**/*.py``, and under
``formats`` and ``tracker`` the in-process reader, writer and tracker
figures of scripts/bench_layers.py (this checkout's), which times both
sides' ``src/`` in one process, repeat by repeat in ABBA order: side ``a``
is the parent and ``b`` the change, so ``b_over_a`` is the median
per-repeat ratio of the change to the parent and ``b_lower`` the repeats
in which the change took less time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

END_TO_END = ("total_s", "setup_s", "peak_rss_mb")
TRACED = (
    "observe_s",
    "pipeline.observe.self_s",
    "sensors.observe_s",
    "sensors.events",
    "formats.events_write_s",
    "formats.events_read_s",
    "simulate_s",
    "simulate.run_s",
    "simulate.us_per_agent_tick",
    "formats.trajectories_write_s",
    "oracle_s",
    "fuse_s",
    "decode_s",
    "formats.beliefs_write_s",
    "formats.paths_write_s",
    "formats.paths_read_s",
    "pipeline.fuse.self_s",
    "pipeline.decode.self_s",
    "report_s",
    "contacts.extract_s",
    "cli.self_s",
    "trace.untraced_total_s",
    "pipeline.manifest_saves",
    "trace.absent_entry_points",
)
SIDES = ("parent", "change")
WORKLOADS = ("full_scale_20", "demo_stages", "long_walk")
PAIRS = 10
TRACED_PAIRS = 3
SECONDS = 36.0  # BENCHMARK.json's run_seconds
WARM_UP_SECONDS = 5.0
FIRST_SEED = 17


def run(checkout: Path, workload: str, seed: int, trace: int, seconds: float = SECONDS) -> tuple[dict, dict]:
    """The last stdout line of one bench/run.py call in ``checkout``, and the full record it wrote."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    record = checkout / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "runs": [round(v, 4) for v in values]}


def order(i: int) -> tuple[str, str]:
    return SIDES if i % 2 == 0 else SIDES[::-1]


def warm_up(dirs: dict[str, Path], i: int, workload: str, seed: int) -> None:
    """One untimed run of pair ``i``'s first side; its result is discarded."""
    run(dirs[order(i)[0]], workload, seed, trace=0, seconds=WARM_UP_SECONDS)


def compare(dirs: dict[str, Path], workload: str, machine: dict) -> dict:
    seeds = [FIRST_SEED + i for i in range(PAIRS)]
    values = {side: {m: [] for m in END_TO_END} for side in SIDES}
    counts = {side: {"failed": 0, "attempted": 0} for side in SIDES}
    for i, seed in enumerate(seeds):
        warm_up(dirs, i, workload, seed)
        for side in order(i):
            result, record = run(dirs[side], workload, seed, trace=0)
            machine.update(record["machine"])
            for m in END_TO_END:
                values[side][m].append(result["metrics"][m]["value"])
            counts[side]["failed"] += result["failed"]
            counts[side]["attempted"] += result["attempted"]
            print(f"{workload} seed {seed} {side}: total_s {values[side]['total_s'][-1]:.3f}", file=sys.stderr)
    out: dict = {"seeds": seeds, "pairs": PAIRS, "first_in_pair": [order(i)[0] for i in range(PAIRS)]}
    for side in SIDES:
        out[side] = {m: summary(values[side][m]) for m in END_TO_END} | counts[side]
    out["change_lower_in_pairs"] = {
        m: f"{sum(c < p for p, c in zip(values['parent'][m], values['change'][m]))}/{PAIRS}" for m in END_TO_END
    }
    out["change_vs_parent_median"] = {
        m: round(out["change"][m]["median"] / out["parent"][m]["median"] - 1.0, 4) for m in END_TO_END
    }
    return out


def traced(dirs: dict[str, Path], workload: str, machine: dict) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first: dict[str, dict] = {}
    absent: dict[str, list] = {}
    for i in range(TRACED_PAIRS):
        warm_up(dirs, i, workload, FIRST_SEED)
        for side in order(i):
            result, record = run(dirs[side], workload, FIRST_SEED, trace=1)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            first.setdefault(side, metrics)
            absent[side] = record["absent_metrics"]
            machine.update(record["machine"])
            runs[side].append({k: metrics.get(k, 0.0) for k in TRACED})
            print(f"traced {workload} {side}: simulate_s {metrics.get('simulate_s', 0.0):.3f}", file=sys.stderr)
    out = {
        side: {
            "seed": FIRST_SEED,
            "n": len(runs[side]),
            "absent_metrics": absent[side],
            "median": {k: float(np.median([r[k] for r in runs[side]])) for k in TRACED},
            "runs": runs[side],
            "metrics": first[side],
        }
        for side in SIDES
    }
    return out


def in_process(dirs: dict[str, Path]) -> dict:
    """scripts/bench_layers.py on the parent's src/ (side a) and the change's (side b), in one process."""
    path = Path(__file__).with_name("bench_layers.py")
    cmd = [sys.executable, str(path), "--src", str(dirs["parent"] / "src"), "--src", str(dirs["change"] / "src")]
    record = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    return {"formats": record["formats"], "tracker": record["tracker"]}


def commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src").rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--what", default="")
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    machine: dict = {}
    report: dict = {
        "pr": args.pr,
        "what": args.what,
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {SECONDS:g} --trace 0",
        "method": "alternating pairs on the same seed, the side that runs first alternating from pair to pair "
        f"and making one untimed {WARM_UP_SECONDS:g} s warm-up run before each pair; "
        "each run reports its own median over its repeats; below are the median and quartiles (numpy linear) "
        "of those run medians",
        "parent_commit": commit(dirs["parent"]),
        "change_commit": commit(dirs["change"]),
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
        "workloads": {w: compare(dirs, w, machine) for w in WORKLOADS},
        "traced": {w: traced(dirs, w, machine) for w in WORKLOADS},
    } | in_process(dirs)
    report["machine"] = machine
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
