#!/usr/bin/env python3
"""Check that two source checkouts write byte-identical data files; exit 1 on any difference.

    python3 scripts/check_identity.py --src A/src --src B/src

For configs/demo.json and for full_scale_20 (bench/workloads.py's document
for seed 17: 20 agents, 5 days), each ``--src`` (a checkout's ``src/``
directory, as scripts/bench_layers.py takes it) runs
every stage in order, one ``python3 -m officelab.cli`` call each, once under
each analytics source. The stages and the sources are this checkout's
``officelab.pipeline.STAGES`` and ``SOURCES``. Every file a run
writes except ``manifest.json`` (which records wall times) is compared by
sha256 between the two sides: 15 files a run, 60 a side. The config
documents are written once, from this checkout's bench/ and src/, so both
sides read the same input.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_stages(src: Path, stages: list[str], config: Path, out: Path, source: str) -> dict[str, str]:
    """Each data file's sha256 after ``stages`` ran on ``config`` through the CLI of the officelab in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for stage in stages:
        argv = [sys.executable, "-m", "officelab.cli", stage, "--config", str(config), "--out", str(out)]
        if stage in ("analyze", "graph"):
            argv += ["--analytics-source", source]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{src}: officelab {stage} on {config.name} exited {proc.returncode}: {proc.stderr}")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, action="append", required=True, help="a checkout's src/ directory (twice)")
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("give --src exactly twice")
    sides = [src.resolve() for src in args.src]
    sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
    from officelab.pipeline import SOURCES, STAGES
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        full_scale_20 = WORKLOADS["full_scale_20"](REPO, work, 17).prepare()  # writes its document
        configs = {"demo": REPO / "configs" / "demo.json", "full_scale_20": full_scale_20}
        compared, differ = 0, []
        for name, config in configs.items():
            for source in SOURCES:
                a, b = (
                    run_stages(src, list(STAGES), config, work / f"{side}-{name}-{source}", source)
                    for side, src in enumerate(sides)
                )
                for file in sorted(a.keys() | b.keys()):
                    compared += 1
                    if a.get(file) != b.get(file):
                        differ.append(f"{name} --analytics-source {source}: {file}")
    for line in differ:
        print(f"differs: {line}")
    print(f"{compared - len(differ)} of {compared} data files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
