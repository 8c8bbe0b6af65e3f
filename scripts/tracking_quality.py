#!/usr/bin/env python3
"""Tracking quality over a fixed sweep of full-scale runs.

Runs full_scale at 10 and 20 agents x 5 days, p_detect 0.6, 0.9 and 0.95,
seeds 3, 11 and 23, through simulate, observe and one tracking pass
(fusion.track_run), and prints per cell the agent-days that needed the
Viterbi leak retry, the predict-only agent-ticks of the forward filter, and
the share of agent-ticks where the per-tick argmax and the decoded path
match the ground truth; then the means over the cells. Takes about 7 s on
one core of a 2-core Xeon (Python 3.11, numpy 2.4).

    PYTHONPATH=src python scripts/tracking_quality.py
"""

import sys

import numpy as np

from officelab.config import parse_config
from officelab.fusion import track_run
from officelab.presets import full_scale_config
from officelab.sensors import observe
from officelab.simulate import run_simulation

AGENTS = (10, 20)
P_DETECT = (0.6, 0.9, 0.95)
SEEDS = (3, 11, 23)
DAYS = 5


def _accuracy(locations: np.ndarray, truth: np.ndarray) -> float:
    return np.count_nonzero(locations == truth) / truth.size


def main() -> int:
    print("agents p_detect seed  leak_retries predict_only argmax_acc decoded_acc")
    rows = []
    for n_agents in AGENTS:
        for p_detect in P_DETECT:
            for seed in SEEDS:
                config = parse_config(full_scale_config(seed=seed, p_detect=p_detect, days=DAYS, n_agents=n_agents))
                truth = run_simulation(config)
                events = observe(truth, [a.id for a in config.agents], config.sensors, config.rng_seed)
                tracks = track_run(events, config)
                row = (
                    tracks.retries,
                    int(tracks.predict_only.sum()),
                    _accuracy(tracks.beliefs.argmax(axis=3), truth),
                    _accuracy(tracks.paths, truth),
                )
                rows.append(row)
                print(f"{n_agents:6d} {p_detect:8.2f} {seed:4d}  {row[0]:12d} {row[1]:12d} {row[2]:10.4f} {row[3]:11.4f}")
    retries, predict_only, argmax_acc, decoded_acc = np.mean(rows, axis=0)
    print(f"mean over {len(rows)} cells: {retries:.2f} {predict_only:.2f} {argmax_acc:.4f} {decoded_acc:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
