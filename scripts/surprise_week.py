#!/usr/bin/env python3
"""Surprise-peak experiment: a five-day week whose last day breaks routine.

Simulates the surprise_week scenario over many seeds and reports per-day
surprise, the day-4 margin over the routine days, and how often the
anomalous day is the clear peak.
"""

import argparse
import sys

import numpy as np

from officelab.analytics import surprise_by_day
from officelab.config import parse_config
from officelab.presets import surprise_week_config
from officelab.simulate import run_simulation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--margin", type=float, default=0.2, help="required peak margin in bits")
    args = ap.parse_args()

    margins = []
    for seed in range(args.seeds):
        config = parse_config(surprise_week_config(seed))
        _, _, scores = surprise_by_day(0, run_simulation(config)[:, :, 0], config.floor_plan)
        bits = [scores[d].bits for d in sorted(scores)]
        margins.append(bits[-1] - max(bits[:-1]))
        if seed < 3:
            print(f"seed {seed}: " + "  ".join(f"day{d}={b:.3f}" for d, b in enumerate(bits)))

    margins = np.array(margins)
    hits = int((margins >= args.margin).sum())
    print(f"\nday-4 margin over days 0-3: mean {margins.mean():.3f} bits, min {margins.min():.3f}")
    print(f"peak with margin >= {args.margin}: {hits}/{args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
