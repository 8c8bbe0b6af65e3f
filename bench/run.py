#!/usr/bin/env python3
"""officelab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; officelab is imported from src/.
Repeats the workload for about S seconds and reports medians over the
repeats. --trace 0 reports the end-to-end metrics; --trace 1 repeats the
workload untraced for S/2 seconds, then traced for S/2 seconds, and reports
the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A fuller record (machine,
every repeat, failures, absent entry points) goes to .bench_out/, and the
spans of the last traced repeat to .bench_out/spans-<workload>.csv.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYER_POINTS, STAGE_POINTS, absent_spans, layer_metrics
from machine import machine_record
from spans import END, PARENT, START, SpanIndex, Tracer, patched, write_spans_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5  # at least this many set-up samples per untraced run


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)  # one timed set-up, in a child
    return ap.parse_args(argv)


def timed_setup(workload, out: Path) -> float:
    """Wall time of a fresh process that imports officelab, writes the config and loads it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload.name, "--seed", str(workload.seed),
           "--setup-only", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"bench: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def repeat(workload, seconds: float, traced: bool, setups: list[float] | None = None, least: int = 1) -> list[tuple]:
    """(Iteration, Tracer, absent targets) per repeat, for about ``seconds``; at least ``least`` repeats.

    A repeat starts only if it is expected to end in time. With ``setups``,
    one timed set-up runs before each repeat, so the set-up samples spread
    over the whole run like the repeats do.
    """
    done = []
    start = time.perf_counter()
    while True:
        if setups is not None:
            setups.append(timed_setup(workload, workload.work / f"setup{len(setups)}"))
        gc.collect()
        tracer = Tracer()
        with patched(tracer, LAYER_POINTS if traced else STAGE_POINTS) as absent:
            it = workload.iterate(tracer, traced)
        done.append((it, tracer, absent))
        elapsed = time.perf_counter() - start
        if len(done) >= least and elapsed + elapsed / len(done) > seconds:
            return done


def median_of(values) -> float:
    return statistics.median(list(values))


def end_to_end(setups: list[float], plain: list[tuple]) -> dict:
    its = [r[0] for r in plain]
    return {
        "setup_s": (median_of(setups), "s"),
        "total_s": (median_of(it.total_s for it in its), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, plain: list[tuple], traced: list[tuple]) -> tuple[dict, list[str]]:
    its = [r[0] for r in plain]

    def stage(*names: str) -> float:
        return median_of(sum(it.stage_s[n] for n in names) for it in its)

    quality = its[0].quality  # the first repeat of each seed is the one scored
    scored = quality.get("scored_agent_ticks", 0)
    attempted = sum(r[0].ops for r in plain + traced)
    failed = sum(len(r[0].failures) for r in plain + traced)
    metrics = {
        "simulate_s": (stage("simulate"), "s"),
        "observe_s": (stage("observe"), "s"),
        "fuse_s": (stage("fuse"), "s"),
        "decode_s": (stage("decode"), "s"),
        "report_s": (stage("analyze", "graph"), "s"),
        "oracle_s": (stage("oracle"), "s"),
        "oracle_cold_s": (its[0].stage_s["oracle"], "s"),
        "tracking.agent_ticks": (scored, "count"),
        "argmax_accuracy": (quality.get("argmax_matches", 0) / scored if scored else 0.0, "share"),
        "decoded_accuracy": (quality.get("decoded_matches", 0) / scored if scored else 0.0, "share"),
        "ops.attempted": (attempted, "count"),
        "error_rate": (failed / attempted, "share"),
    }

    per_repeat = []
    absent: list[str] = []
    for it, tracer, gone_targets in traced:
        ix = SpanIndex(tracer.spans)
        values, absent = layer_metrics(ix, workload.bases(), absent_spans(gone_targets))
        values["world.oracle_peak_mb"] = (it.extra.get("oracle_peak_mb", 0.0), "MB")
        values["formats.beliefs_rows"] = (it.extra.get("beliefs_rows", 0), "count")
        values["formats.bytes_written"] = (it.extra.get("bytes_written", 0), "bytes")
        root_ns = sum(rec[END] - rec[START] for rec in tracer.spans if rec[PARENT] < 0)
        values["trace.accounted_share"] = (sum(ix.self_ns) / root_ns if root_ns else 0.0, "share")
        values["trace.spans"] = (len(tracer.spans), "count")
        values["trace.absent_entry_points"] = (len(gone_targets), "count")
        per_repeat.append(values)
    for name, (_, unit) in per_repeat[0].items():
        metrics[name] = (median_of(v[name][0] for v in per_repeat), unit)

    plain_total = median_of(r[0].total_s for r in plain)
    traced_total = median_of(r[0].total_s for r in traced)
    metrics["trace.untraced_total_s"] = (plain_total, "s")
    metrics["trace.total_s"] = (traced_total, "s")
    metrics["trace.overhead_s"] = (traced_total - plain_total, "s")
    return metrics, absent


def repeat_record(r: tuple) -> dict:
    it, tracer, gone = r
    return {"total_s": it.total_s, "stage_s": it.stage_s, "ops": it.ops, "failures": it.failures,
            "quality": it.quality, "extra": it.extra, "spans": len(tracer.spans), "absent_targets": gone}


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "officelab" / "__init__.py").is_file():
        sys.exit(f"bench: no officelab sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from officelab.config import load_config
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    out_root = ROOT / ".bench_out"
    work = Path(args.setup_only) if args.setup_only else out_root / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    if args.setup_only:
        load_config(workload.prepare())
        return 0

    setups: list[float] = []
    try:
        workload.prepare()
        if args.trace:
            plain = repeat(workload, args.seconds / 2, traced=False)
            traced = repeat(workload, args.seconds / 2, traced=True)
            metrics, absent = per_layer(workload, plain, traced)
            write_spans_csv(traced[-1][1].spans, out_root / f"spans-{args.workload}.csv")
        else:
            # two repeats at least, so that determinism is always checked
            plain, traced, absent = repeat(workload, args.seconds, traced=False, setups=setups, least=2), [], []
            while len(setups) < SETUP_REPEATS:
                setups.append(timed_setup(workload, work / f"setup{len(setups)}"))
            metrics = end_to_end(setups, plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = plain + traced
    failures = {op: reason for r in runs for op, reason in r[0].failures.items()}
    result = {
        "correct": not failures,
        "attempted": sum(r[0].ops for r in runs),
        "failed": sum(len(r[0].failures) for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(ROOT), "bases": workload.bases(),
        "setup_s_samples": setups,
        "repeats_untraced": [repeat_record(r) for r in plain],
        "repeats_traced": [repeat_record(r) for r in traced],
        "absent_metrics": absent, "failures": failures, "result": result,
    }
    report = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(record, indent=1) + "\n")

    for op, reason in sorted(failures.items()):
        print(f"bench: FAILED {op}: {reason}", file=sys.stderr)
    if absent:
        print(f"bench: absent (entry point gone, reported as 0): {', '.join(absent)}")
    print(f"bench: {len(plain)} untraced and {len(traced)} traced repeats; record in {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
