"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria with stated
runtime budgets assert them.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from officelab.analytics import chain_combine, surprise, surprise_by_day
from officelab.config import WorldConfig, parse_config
from officelab.contacts import ContactRule, extract_contacts
from officelab.decoding import brute_force_decode, viterbi_decode
from officelab.fusion import LikelihoodModel, fuse_run, likelihood_of_events, motion_model_for
from officelab.pipeline import run_pipeline
from officelab.presets import full_scale_config, surprise_week_config
from officelab.sensors import SensorSpec, generate_event_log
from officelab.simulate import run_simulation
from officelab.world import AgentProfile, FloorPlan, ScheduleEvent, StayProbs, stationary_distribution

from test_analytics import _dist

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(name: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS")


# --- 1. surprise peak ---------------------------------------------------------


def test_c1_surprise_peak_on_the_anomalous_day():
    start = time.monotonic()
    hits = 0
    for seed in range(20):
        config = parse_config(surprise_week_config(seed))
        _, _, scores = surprise_by_day(0, run_simulation(config)[:, :, 0], config.floor_plan)
        bits = [scores[d].bits for d in sorted(scores)]
        assert len(bits) == 5
        if bits[4] - max(bits[:4]) >= 0.2:
            hits += 1
    elapsed = time.monotonic() - start
    assert hits >= 18, f"peak with >= 0.2 bit margin on only {hits}/20 seeds"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(f"1 surprise-peak ({hits}/20 seeds, {elapsed:.1f}s)")


# --- 2. surprise correctness ----------------------------------------------------


def test_c2_surprise_examples_and_chain_rule():
    assert surprise(_dist([0.5, 0.5]), _dist([0.5, 0.5], scope="baseline")).bits == pytest.approx(0.0, abs=1e-4)
    assert surprise(_dist([1.0, 0.0]), _dist([0.5, 0.5], scope="baseline")).bits == pytest.approx(1.0, abs=1e-4)
    assert surprise(_dist([0.75, 0.25]), _dist([0.5, 0.5], scope="baseline")).bits == pytest.approx(0.18872, abs=1e-4)

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        joint_day = rng.uniform(0.02, 1.0, (nx, ny))
        joint_day /= joint_day.sum()
        joint_base = rng.uniform(0.02, 1.0, (nx, ny))
        joint_base /= joint_base.sum()

        lhs = surprise(_dist(joint_day.ravel()), _dist(joint_base.ravel(), scope="baseline"))
        assert lhs.bits >= 0.0
        px_day, px_base = joint_day.sum(axis=1), joint_base.sum(axis=1)
        parts = [surprise(_dist(px_day), _dist(px_base, scope="baseline"))]
        conditional = 0.0
        for x in range(nx):
            conditional += px_day[x] * surprise(
                _dist(joint_day[x] / px_day[x]), _dist(joint_base[x] / px_base[x], scope="baseline")
            ).bits
        parts.append(type(parts[0])(agent=parts[0].agent, day=parts[0].day, bits=conditional))
        assert lhs.bits == pytest.approx(chain_combine(parts).bits, abs=1e-9)
    _report("2 surprise-correctness (3 examples @1e-4, 1000 tables @1e-9)")


# --- 3. decoder oracle equivalence ----------------------------------------------


def test_c3_viterbi_matches_brute_force_on_500_instances():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    for i in range(500):
        n = int(rng.integers(2, 6))
        ticks = int(rng.integers(1, 9))
        init = rng.uniform(0.05, 1.0, n)
        init /= init.sum()
        K = rng.uniform(0.05, 1.0, (n, n))
        if i % 3 == 0:  # exercise hard zeros
            K *= rng.random((n, n)) > 0.25
            K += np.eye(n) * 0.05
        K /= K.sum(axis=1, keepdims=True)
        ev = rng.uniform(0.05, 1.0, (ticks, n))
        v = viterbi_decode(init, K, ev)
        b = brute_force_decode(init, K, ev)
        assert v.path == b.path
        assert v.log_score == pytest.approx(b.log_score, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(f"3 decoder-equivalence (500 instances, {elapsed:.1f}s)")


# --- 4. fusion normalization and exactness ---------------------------------------


def _forward_enumeration(init, K, evidence):
    T, n = evidence.shape
    weights = {(x,): init[x] * evidence[0][x] for x in range(n)}
    out = []
    for t in range(T):
        if t > 0:
            weights = {
                path + (x,): w * K[path[-1], x] * evidence[t][x]
                for path, w in weights.items()
                for x in range(n)
            }
        marginal = np.zeros(n)
        for path, w in weights.items():
            marginal[path[-1]] += w
        out.append(marginal / marginal.sum())
    return out


def test_c4_fusion_normalization_and_forward_exactness():
    # normalization over a 10^4-tick run
    plan = FloorPlan((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    prof = AgentProfile(0, 0, StayProbs(default=0.5), {0: 0.4, 1: 0.3, 2: 0.3})
    sensors = (
        SensorSpec("cam", "camera", (0, 1, 2), p_detect=0.85, p_false_positive=0.05, p_confuse=0.1),
        SensorSpec("tag", "tag_reader", (1,), p_detect=0.7, p_false_positive=0.01, p_confuse=0.0),
    )
    cfg = WorldConfig(floor_plan=plan, agents=(prof,), ticks_per_day=10_000, days=1, rng_seed=8, sensors=sensors)
    events = generate_event_log(run_simulation(cfg), [0], cfg.sensors, cfg.rng_seed)
    beliefs = fuse_run(events, cfg)
    assert len(beliefs) == 10_000
    worst = max(abs(m.probs[0].sum() - 1.0) for m in beliefs)
    assert worst < 1e-9, f"row-sum drift {worst:.2e}"

    # exactness against exhaustive forward enumeration on small worlds
    for seed, n, ticks in ((0, 3, 6), (1, 4, 6), (2, 4, 5), (3, 2, 6)):
        plan = FloorPlan(tuple(range(n)), frozenset((i, i + 1) for i in range(n - 1)))
        prof = AgentProfile(0, 0, StayProbs(default=0.4), {x: 1.0 / n for x in range(n)})
        sensors = (
            SensorSpec("cam", "camera", tuple(range(n)), p_detect=0.8, p_false_positive=0.05, p_confuse=0.1),
        )
        cfg = WorldConfig(
            floor_plan=plan, agents=(prof,), ticks_per_day=ticks, days=1, rng_seed=seed,
            fluctuation_rate=0.0, sensors=sensors,
        )
        events = generate_event_log(run_simulation(cfg), [0], cfg.sensors, cfg.rng_seed)
        motion = motion_model_for(cfg)
        evidence = np.stack(
            [
                likelihood_of_events([e for e in events if e.tick == t], 0, cfg.sensors, plan, n_agents=1)
                for t in range(ticks)
            ]
        )
        init = np.zeros(n)
        init[0] = 1.0
        expected = _forward_enumeration(init, motion.kernel(0), evidence)
        for m, ref in zip(fuse_run(events, cfg, motion), expected):
            assert np.abs(m.probs[0] - ref).max() < 1e-9
    _report("4 fusion-normalization-and-exactness")


# --- 5. noiseless recovery --------------------------------------------------------


def _random_noiseless_config(seed: int) -> WorldConfig:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    perm = rng.permutation(n)
    edges = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    plan = FloorPlan(tuple(range(n)), frozenset(edges))

    agents = []
    for aid in range(int(rng.integers(1, 3))):
        home = int(rng.integers(0, n))
        default = float(rng.uniform(0.1, 0.6))
        dests = rng.uniform(0.05, 1.0, n) * (rng.random(n) < 0.7)
        dests[home] += 0.5
        dests /= dests.sum()
        schedule = ()
        if rng.random() < 0.5:
            schedule = (
                ScheduleEvent(window=(5, 20), target=int(rng.integers(0, n)), probability=float(rng.uniform(0.5, 1.0))),
            )
        agents.append(
            AgentProfile(
                aid, home,
                StayProbs(default=default, by_location={home: float(rng.uniform(default, 0.9))}),
                {x: float(p) for x, p in enumerate(dests) if p > 0},
                delta_p=float(rng.uniform(0.0, 0.2)),
                schedule=schedule,
            )
        )
    sensors = (SensorSpec("cam", "camera", tuple(range(n)), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),)
    return WorldConfig(
        floor_plan=plan,
        agents=tuple(agents),
        ticks_per_day=int(rng.integers(20, 60)),
        days=2,
        rng_seed=seed,
        fluctuation_rate=float(rng.choice([0.0, 0.05, 0.1])),
        sensors=sensors,
    )


def test_c5_noiseless_recovery_is_exact_on_random_configs():
    for seed in range(10):
        cfg = _random_noiseless_config(seed)
        truth = run_simulation(cfg)
        events = generate_event_log(truth, [a.id for a in cfg.agents], cfg.sensors, cfg.rng_seed)
        motion = motion_model_for(cfg)
        reports: dict[tuple[int, int, int], dict[str, list[int]]] = {}
        for ev in events:
            reports.setdefault((ev.day, ev.tick, ev.reported_agent), {}).setdefault(ev.sensor, []).append(ev.location)
        for a, profile in enumerate(cfg.agents):
            model = LikelihoodModel(cfg.sensors, cfg.floor_plan, n_agents=len(cfg.agents))
            init = np.zeros(cfg.floor_plan.n)
            init[profile.home] = 1.0
            for day in range(cfg.days):
                evidence = np.stack(
                    [
                        model.tick_likelihood(reports.get((day, t, profile.id), {}))
                        for t in range(cfg.ticks_per_day)
                    ]
                )
                decoded = viterbi_decode(init, motion.kernel(profile.id), evidence, agent=profile.id, day=day)
                assert list(decoded.path) == truth[day, :, a].tolist(), f"seed {seed}, agent {profile.id}, day {day}"
    _report("5 noiseless-recovery (10 random configs)")


# --- 6. sensor-quality monotonicity -----------------------------------------------


def _full_scale_accuracy(p_detect: float, seed: int) -> float:
    cfg = parse_config(full_scale_config(seed=seed, p_detect=p_detect, days=1, ticks_per_day=300))
    assert cfg.floor_plan.n == 50 and len(cfg.sensors) == 120
    truth = run_simulation(cfg)  # truth[day, tick, i]: where the agent of belief row i stands
    events = generate_event_log(truth, [a.id for a in cfg.agents], cfg.sensors, cfg.rng_seed)
    beliefs = fuse_run(events, cfg, motion_model_for(cfg))
    hits = total = 0
    for m in beliefs:
        for i in range(len(m.agents)):
            hits += int(m.probs[i].argmax()) == truth[m.day, m.tick, i]
            total += 1
    return hits / total


def test_c6_tracking_accuracy_monotone_in_sensor_quality():
    start = time.monotonic()
    good = np.mean([_full_scale_accuracy(0.95, seed) for seed in range(10)])
    poor = np.mean([_full_scale_accuracy(0.6, seed) for seed in range(10)])
    elapsed = time.monotonic() - start
    assert good > poor, f"acc(0.95)={good:.4f} not above acc(0.6)={poor:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(f"6 sensor-quality-monotonicity (acc {good:.4f} > {poor:.4f}, {elapsed:.1f}s)")


# --- 7. simulator stationarity ------------------------------------------------------


def test_c7_occupancy_matches_stationary_oracle():
    plan = FloorPlan((0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    prof = AgentProfile(0, 0, StayProbs(default=0.5, by_location={0: 0.7}), {0: 0.4, 1: 0.2, 2: 0.4})
    fluct = 0.05
    target = stationary_distribution(plan, prof, fluctuation_rate=fluct)
    occupancies = []
    for seed in range(5):
        cfg = WorldConfig(
            floor_plan=plan, agents=(prof,), ticks_per_day=100_000, days=1, rng_seed=seed,
            fluctuation_rate=fluct,
        )
        counts = np.bincount(run_simulation(cfg).ravel(), minlength=plan.n)
        occupancies.append(counts / counts.sum())
    mean_occupancy = np.mean(occupancies, axis=0)
    l1_of_mean = np.abs(mean_occupancy - target).sum()
    mean_of_l1 = np.mean([np.abs(o - target).sum() for o in occupancies])
    assert l1_of_mean < 0.02, f"L1 of seed-averaged occupancy {l1_of_mean:.4f}"
    assert mean_of_l1 < 0.02, f"seed-averaged L1 {mean_of_l1:.4f}"
    _report(f"7 simulator-stationarity (L1 {l1_of_mean:.4f})")


# --- 8. contact-graph rules -----------------------------------------------------------


def test_c8_contact_rules_and_threshold_monotonicity():
    plan = FloorPlan(
        (0, 1, 2, 3),
        frozenset({(0, 3), (1, 3), (2, 3)}),
        tags={0: "office", 1: "office", 2: "printer", 3: "corridor"},
        home_of={0: (0,), 1: (1,)},
    )
    rule = ContactRule(10, frozenset({"printer"}), True)

    # locations[day, tick, agent] of one day, agents 0 and 1
    visit = np.array([[1] * 12 + [0] * 4, [1] * 16]).T[None]
    graph = extract_contacts(visit, [0, 1], plan, rule)
    assert graph.weight(0, 1) == 12 and graph.weight(1, 0) == 0

    printer = np.array([[2] * 12 + [0] * 4, [2] * 12 + [1] * 4]).T[None]
    assert extract_contacts(printer, [0, 1], plan, rule).edges == {}

    short = np.array([[1] * 9 + [0] * 7, [1] * 16]).T[None]
    assert extract_contacts(short, [0, 1], plan, rule).edges == {}

    rng = np.random.default_rng(17)
    paths = np.stack([rng.integers(0, 4, size=400) for agent in range(3)], axis=-1)[None]
    sweep = {
        t: extract_contacts(paths, [0, 1, 2], plan, ContactRule(t, frozenset({"printer"}), True)).edges
        for t in (1, 5, 10, 20)
    }
    for lo, hi in zip((1, 5, 10), (5, 10, 20)):
        assert set(sweep[hi]) <= set(sweep[lo])
        for edge, w in sweep[hi].items():
            assert w <= sweep[lo][edge]
    _report("8 contact-rules (3 examples exact, sweep monotone)")


# --- 9. end-to-end determinism ----------------------------------------------------------


def test_c9_pipeline_runs_are_byte_identical(tmp_path):
    from officelab.config import load_config

    config_path = CONFIGS / "demo.json"
    config = load_config(config_path)
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        run_pipeline(config, str(config_path), out, source="truth")
        outputs.append(out)
    a, b = outputs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    compared = 0
    for name in names:
        if name == "manifest.json":  # carries wall-clock timestamps by design
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
        compared += 1
    assert compared >= 15
    _report(f"9 end-to-end-determinism ({compared} files byte-identical)")
