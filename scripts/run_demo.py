#!/usr/bin/env python3
"""Run the full pipeline on the shipped demo config and summarize the outputs."""

import argparse
import sys
from pathlib import Path

from officelab.config import load_config
from officelab.pipeline import SOURCES, run_pipeline

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "demo.json"))
    ap.add_argument("--out", default="demo_run")
    ap.add_argument("--analytics-source", choices=sorted(SOURCES), default="truth")
    args = ap.parse_args()

    config = load_config(args.config)
    out_dir = Path(args.out)
    manifest = run_pipeline(config, args.config, out_dir, source=args.analytics_source)
    print(f"pipeline complete (seed {manifest.seed}); outputs in {out_dir}/:")
    for stage, files in manifest.outputs.items():
        print(f"  {stage}: {', '.join(sorted(files.values()))}")

    surprise = (out_dir / "surprise.csv").read_text().splitlines()
    print("\nper-day surprise (bits):")
    for line in surprise:
        if not line.startswith("#"):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
