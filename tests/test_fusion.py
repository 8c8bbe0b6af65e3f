from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from officelab.config import WorldConfig, dump_config, parse_config
from officelab.errors import ValidationError
from officelab.fusion import (
    BELIEF_FLOOR,
    LikelihoodModel,
    _checked_columns,
    event_columns,
    fuse_run,
    likelihood_of_events,
    motion_model_for,
    track_run,
)
from officelab.presets import full_scale_config
from officelab.sensors import ObservationEvent, SensorSpec, generate_event_log
from officelab.simulate import run_simulation
from officelab.world import AgentProfile, FloorPlan, StayProbs

from conftest import decode_day, line_plan, minimal_config_doc, simulated_events, uniform_agent

# --- evidence likelihoods ----------------------------------------------------


def _pattern_probability(spec: SensorSpec, x: int, pattern: list[int], n_agents: int) -> float:
    """Independent oracle: enumerate every way one sensor can produce the
    given agent-naming report pattern when the agent stands at x. Each report
    is either the true detection (at most one, and only at x) or clutter,
    whose intensity at a covered y is q*u/(1-q), the odds of one false
    positive there."""
    d = spec.p_detect * (1.0 - spec.p_confuse) if x in spec.coverage else 0.0
    q = spec.p_false_positive / n_agents
    u = 1.0 / len(spec.coverage)
    total = 0.0
    for true_report in (None, *range(len(pattern))):
        if true_report is not None and pattern[true_report] != x:
            continue
        p = (1.0 - d if true_report is None else d) * (1.0 - q)
        for r, y in enumerate(pattern):
            if r != true_report:
                p *= q * u / (1.0 - q) if y in spec.coverage else 0.0
        total += p
    return total


def test_likelihood_matches_pattern_enumeration_oracle():
    plan = line_plan(4)
    specs = [
        SensorSpec("cam", "camera", (0, 1), p_detect=0.9, p_false_positive=0.08, p_confuse=0.1),
        SensorSpec("tag", "tag_reader", (2,), p_detect=0.7, p_false_positive=0.03, p_confuse=0.0),
        # certain detection: silence is impossible at 1 and 3
        SensorSpec("door", "tag_reader", (1, 3), p_detect=1.0, p_false_positive=0.04, p_confuse=0.0),
    ]
    patterns = [
        [],
        [ObservationEvent("cam", 0, 0, 0, 1)],
        [ObservationEvent("cam", 0, 0, 0, 0), ObservationEvent("cam", 0, 0, 0, 1)],
        [ObservationEvent("tag", 0, 0, 0, 2)],
        [ObservationEvent("cam", 0, 0, 0, 1), ObservationEvent("tag", 0, 0, 0, 2)],
        [ObservationEvent("door", 0, 0, 0, 3)],
        [ObservationEvent("door", 0, 0, 0, 1), ObservationEvent("door", 0, 0, 0, 3)],
        [ObservationEvent("cam", 0, 0, 0, 1), ObservationEvent("door", 0, 0, 0, 1)],
        [ObservationEvent("cam", 0, 0, 0, 1), ObservationEvent("cam", 0, 0, 0, 0), ObservationEvent("cam", 0, 0, 0, 1)],
    ]
    for events in patterns:
        weights = likelihood_of_events(events, agent=0, sensors=specs, plan=plan, n_agents=3)
        for x in range(plan.n):
            expected = 1.0
            for spec in specs:
                locs = [e.location for e in events if e.sensor == spec.id]
                expected *= _pattern_probability(spec, x, locs, n_agents=3)
            assert weights[x] == pytest.approx(expected, abs=1e-12)


def test_missed_detection_weights_derived_by_hand():
    # one sensor covering location 0 only, no events, single agent:
    # at 0 the silence means a miss (0.1 * (1-q)); at 1 it is just no-false-positive
    plan = line_plan(2)
    spec = SensorSpec("cam", "camera", (0,), p_detect=0.9, p_false_positive=0.02, p_confuse=0.0)
    w = likelihood_of_events([], agent=0, sensors=[spec], plan=plan, n_agents=1)
    assert w[0] == pytest.approx(0.1 * 0.98, abs=1e-12)
    assert w[1] == pytest.approx(1.0 * 0.98, abs=1e-12)


def test_noiseless_report_concentrates_weight():
    plan = line_plan(3)
    spec = SensorSpec("cam", "camera", (0, 1, 2), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0)
    w = likelihood_of_events([ObservationEvent("cam", 0, 0, 0, 1)], 0, [spec], plan, n_agents=1)
    assert w[1] > 0
    assert w[0] == 0 and w[2] == 0


def test_two_sensor_reports_multiply():
    plan = line_plan(3)
    a = SensorSpec("a", "camera", (0, 1, 2), p_detect=0.8, p_false_positive=0.05, p_confuse=0.0)
    b = SensorSpec("b", "tag_reader", (1, 2), p_detect=0.6, p_false_positive=0.01, p_confuse=0.0)
    ev_a = [ObservationEvent("a", 0, 0, 0, 1)]
    ev_b = [ObservationEvent("b", 0, 0, 0, 1)]
    joint = likelihood_of_events(ev_a + ev_b, 0, [a, b], plan, n_agents=2)
    wa = likelihood_of_events(ev_a, 0, [a], plan, n_agents=2)
    wb = likelihood_of_events(ev_b, 0, [b], plan, n_agents=2)
    assert np.allclose(joint, wa * wb, atol=1e-12)


def test_a_sensor_whose_false_positive_always_names_the_agent_is_rejected():
    # q = 1: the clutter odds q/(1 - q) are unbounded, so no intensity can stand for them
    plan = line_plan(3)
    spec = SensorSpec("cam", "camera", (0, 1), p_detect=0.9, p_false_positive=1.0, p_confuse=0.0)
    events = [ObservationEvent("cam", 0, 0, 0, y) for y in (0, 1)]
    for build in (
        lambda: LikelihoodModel([spec], plan, n_agents=1),
        lambda: LikelihoodModel([spec], plan, n_agents=0),
        lambda: likelihood_of_events(events, 0, [spec], plan, n_agents=1),
    ):
        with pytest.raises(ValidationError, match="sensor cam's false positive names the one agent every tick"):
            build()
    assert (likelihood_of_events(events, 0, [spec], plan, n_agents=2)[:2] > 0).all()


def test_unknown_sensor_or_agent_in_reports_is_named():
    plan = line_plan(2)
    model = LikelihoodModel([SensorSpec("cam", "camera", (0, 1))], plan, n_agents=1)
    with pytest.raises(ValidationError, match="sensor 'tag0'"):
        model.tick_likelihood({"tag0": [0]})
    cases = [
        (ObservationEvent("cam", 0, 0, 9, 1), "agent 9"),
        (ObservationEvent("cam", 0, 3, 0, 1), "agent 0 at tick 3"),
        (ObservationEvent("cam", 9, 0, 0, 1), "day 9"),
        (ObservationEvent("cam", 0, 0, 0, 2), "location 2"),
        (ObservationEvent("cam", 0, 0.5, 0, 1), "tick that is not an integer"),
        (ObservationEvent("cam", "0", 0, 0, 1), "day that is not an integer"),
    ]
    for event, named in cases:
        with pytest.raises(ValidationError, match=named):
            _checked_columns([ObservationEvent("cam", 0, 0, 0, 0), event], ["cam"], (0,), 5, 1, plan.n)


@pytest.mark.parametrize(
    "events,match",
    [
        # 1.0 == 1, so the check comes before the agent's reports are picked; 2.0 names another agent
        ([ObservationEvent("cam0", 0, 0, 1.0, 0)], "reported_agent that is not an integer"),
        ([ObservationEvent("cam0", 0, 0, 2.0, 0)], "reported_agent that is not an integer"),
        (
            [ObservationEvent("cam0", 0, 0, 1, 0), ObservationEvent("cam0", 0, 1, 1, 0)],
            r"events span several ticks: \[\(0, 0\), \(0, 1\)\]",
        ),
    ],
)
def test_likelihood_of_events_rejects_malformed_events(events, match):
    with pytest.raises(ValidationError, match=match):
        likelihood_of_events(events, 1, [SensorSpec("cam0", "camera", (0, 1))], line_plan(2), n_agents=2)


@pytest.mark.parametrize(
    "events,named",
    [
        ([ObservationEvent("cam0", 0.5, 0, 1, 0)], "day that is not an integer"),
        ([ObservationEvent("cam0", -3, 70, 1, 0)], "day -3"),
        # another agent's event is checked too, though only agent 1's reports are evidence
        ([ObservationEvent("cam0", 0, 0, 1, 0), ObservationEvent("tag9", 0, 0, 2, 5)], "sensor 'tag9'"),
    ],
)
def test_likelihood_of_events_checks_every_event_at_its_own_day_and_tick(events, named):
    with pytest.raises(ValidationError, match=named):
        likelihood_of_events(events, 1, [SensorSpec("cam0", "camera", (0, 1))], line_plan(2), n_agents=2)


def _reference_day_evidence(sensors, n: int, events, day: int, ticks: int, agents) -> np.ndarray:
    """The per-report loop: group by (tick, agent) then sensor, multiply each
    report factor over its silence term in order of first appearance, then
    zero certain sensors' silences."""
    params, silent, certain = [], [], {}
    for i, s in enumerate(sensors):
        mask = np.isin(np.arange(n), s.coverage).astype(float)
        d = s.p_detect * (1.0 - s.p_confuse) * mask
        q = s.p_false_positive / len(agents)
        params.append((d, q, mask * (q / len(s.coverage))))
        term = (1.0 - d) * (1.0 - q)
        if not term.all():
            certain[i] = term == 0.0
            term[certain[i]] = 1.0
        silent.append(term)
    grouped: dict[tuple[int, int], dict[str, list[int]]] = {}
    for ev in events:
        if ev.day == day:
            grouped.setdefault((ev.tick, ev.reported_agent), {}).setdefault(ev.sensor, []).append(ev.location)
    index = {s.id: i for i, s in enumerate(sensors)}
    block = np.tile(np.prod(np.stack(silent), axis=0), (ticks, len(agents), 1))
    silent_at = {i: np.ones((ticks, len(agents)), dtype=bool) for i in certain}
    for (tick, agent), by_sensor in grouped.items():
        for sensor_id, locs in by_sensor.items():
            i = index[sensor_id]
            d, q, fp_at = params[i]
            if len(locs) == 1:
                f = (1.0 - d) * fp_at[locs[0]]
                f[locs[0]] += d[locs[0]] * (1.0 - q)
            else:  # count form: others[r] is the product of the other reports' clutter intensities
                clutter = [fp_at[y] / (1.0 - q) for y in locs]
                nonzero = [c if c else 1.0 for c in clutter]
                product = nonzero[0]
                for c in nonzero[1:]:
                    product *= c
                zeros = sum(c == 0.0 for c in clutter)
                others = [0.0 if zeros > (c == 0.0) else product / z for c, z in zip(clutter, nonzero)]
                f = (1.0 - d) * (fp_at[locs[0]] * others[0])
                for y, other in zip(locs, others):
                    f[y] += d[y] * (1.0 - q) * other
            block[tick, agents.index(agent)] *= f / silent[i]
            if i in silent_at:
                silent_at[i][tick, agents.index(agent)] = False
    for i, mask in silent_at.items():
        block[mask[:, :, None] & certain[i]] = 0.0
    return block


@given(st.integers(0, 10_000), st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_evidence_equals_per_report_loop_bit_for_bit(seed, n_agents, certain):
    # reports from sensors listed out of id order, 1-, 2- and 3-report groups,
    # confusions and false positives, certain sensors whose silence zeroes, and
    # zero clutter intensities: a sensor without false positives, and reports
    # off their sensor's coverage
    rng = np.random.default_rng(seed)
    plan = line_plan(5)
    sensors = [
        SensorSpec("z_cam", "camera", (0, 1, 3), p_detect=0.8, p_false_positive=0.3, p_confuse=0.2),
        SensorSpec("a_tag", "tag_reader", (2,), p_detect=1.0 if certain else 0.7, p_false_positive=0.2, p_confuse=0.0),
        SensorSpec("m_cam", "camera", (1, 2, 3, 4), p_detect=0.9, p_false_positive=0.1, p_confuse=0.1),
        SensorSpec("door", "tag_reader", (4,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),
    ]
    agents = tuple(range(10, 10 + n_agents))
    days, ticks = 2, 6
    events = []
    for _ in range(int(rng.integers(0, 80))):
        s = sensors[int(rng.integers(len(sensors)))]
        events.append(
            ObservationEvent(
                s.id, int(rng.integers(days)), int(rng.integers(ticks)), agents[int(rng.integers(n_agents))],
                int(s.coverage[int(rng.integers(len(s.coverage)))]) if rng.random() < 0.9 else int(rng.integers(plan.n)),
            )
        )
    model = LikelihoodModel(sensors, plan, n_agents=n_agents)
    columns = _checked_columns(events, [s.id for s in sensors], agents, days, ticks, plan.n)
    blocks = model.evidence_into(columns, np.empty((days, ticks, n_agents, plan.n)))
    with mock.patch("officelab.fusion.EVIDENCE_CHUNK", 3):  # factors applied a few groups at a time
        chunked = model.evidence_into(columns, np.empty((days, ticks, n_agents, plan.n)))
    assert len(blocks) == len(chunked) == days
    for day, block in enumerate(blocks):
        ref = _reference_day_evidence(sensors, plan.n, events, day, ticks, agents)
        assert block.shape == ref.shape
        assert np.array_equal(block, ref)
        assert np.array_equal(chunked[day], ref)


@pytest.mark.parametrize("chunk", [2, 3, 4])
def test_rank_passes_apply_every_group_of_an_agent_tick_that_a_chunk_boundary_splits(chunk):
    # groups in multiplication order: (tick 0, agent 10); four at (tick 2, agent 11), one per sensor; (tick 3,
    # agent 10). A chunk of 2, 3 or 4 groups ends inside the four, so they span two chunks and two rank passes.
    plan = line_plan(5)
    sensors = [
        SensorSpec("z_cam", "camera", (0, 1, 3), p_detect=0.8, p_false_positive=0.3, p_confuse=0.2),
        SensorSpec("a_tag", "tag_reader", (2,), p_detect=0.7, p_false_positive=0.2, p_confuse=0.0),
        SensorSpec("m_cam", "camera", (1, 2, 3, 4), p_detect=0.9, p_false_positive=0.1, p_confuse=0.1),
        SensorSpec("door", "tag_reader", (4,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),
    ]
    agents, ticks = (10, 11), 4
    events = [
        ObservationEvent("z_cam", 0, 0, 10, 1),
        ObservationEvent("m_cam", 0, 2, 11, 2),
        ObservationEvent("door", 0, 2, 11, 4),
        ObservationEvent("z_cam", 0, 2, 11, 3),
        ObservationEvent("m_cam", 0, 2, 11, 3),
        ObservationEvent("a_tag", 0, 2, 11, 2),
        ObservationEvent("a_tag", 0, 3, 10, 2),
    ]
    model = LikelihoodModel(sensors, plan, n_agents=len(agents))
    columns = _checked_columns(events, [s.id for s in sensors], agents, 1, ticks, plan.n)
    with mock.patch("officelab.fusion.EVIDENCE_CHUNK", chunk):
        block = model.evidence_into(columns, np.empty((1, ticks, len(agents), plan.n)))[0]
    assert np.array_equal(block, _reference_day_evidence(sensors, plan.n, events, 0, ticks, agents))


def test_three_reports_from_one_sensor_peak_where_two_agree():
    plan = line_plan(4)
    spec = SensorSpec("cam", "camera", (0, 1, 2, 3), p_detect=0.9, p_false_positive=0.05, p_confuse=0.05)
    events = [ObservationEvent("cam", 0, 0, 0, y) for y in (2, 0, 2)]
    w = likelihood_of_events(events, 0, [spec], plan, n_agents=3)
    assert (w > 0).all()
    assert w.argmax() == 2 and w[2] > w[0] > w[1] == w[3]


def test_full_scale_run_needs_no_fallback():
    # at 20 agents, reports naming one agent from one sensor often come in two
    # and sometimes in three; the clutter model explains every one of them
    cfg = parse_config(full_scale_config(seed=3, p_detect=0.9, days=1, ticks_per_day=300, n_agents=20))
    events = simulated_events(cfg)
    tracks = track_run(event_columns(events, cfg), cfg)
    assert tracks.retries == 0
    assert tracks.predict_only.sum() == 0


# --- motion models ------------------------------------------------------------


def test_motion_model_other_than_simulator_is_rejected_by_name():
    doc = minimal_config_doc()
    doc["motion_model"] = "uniform_adjacent"
    with pytest.raises(ValidationError, match="motion_model 'uniform_adjacent'"):
        parse_config(doc)
    doc["motion_model"] = "simulator"  # the one prior, still accepted when named
    assert "motion_model" not in dump_config(parse_config(doc))


def test_motion_kernels_are_valid_and_cover_adjacency():
    plan = line_plan(5)
    prof = AgentProfile(0, 0, StayProbs(default=0.6), {0: 0.5, 4: 0.5})
    cfg = WorldConfig(floor_plan=plan, agents=(prof,), ticks_per_day=5, days=1, rng_seed=0, fluctuation_rate=0.0)
    model = motion_model_for(cfg)
    assert model.agents == (0,) and model.kernels.shape == (1, plan.n, plan.n)
    K = model.kernel(0)
    assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-9
    for x in plan.locations:
        support = {x, *plan.neighbors[x]}
        assert set(np.flatnonzero(K[x]).tolist()) == support  # no mass leaves adjacency
        assert K[x, x] > 0  # staying is always possible (planning ticks)
        for y in plan.neighbors[x]:  # every physically possible move has positive mass
            assert K[x, y] > 0


# --- fuse_run ----------------------------------------------------------------


def _small_world_config(seed: int = 1, sensors=(), ticks: int = 6, n: int = 3) -> WorldConfig:
    plan = line_plan(n)
    prof = uniform_agent(0, 0, n, stay=0.5)
    return WorldConfig(
        floor_plan=plan,
        agents=(prof,),
        ticks_per_day=ticks,
        days=1,
        rng_seed=seed,
        fluctuation_rate=0.0,
        sensors=tuple(sensors),
    )


def test_zero_sensors_mean_pure_motion_diffusion():
    cfg = _small_world_config(ticks=5)
    motion = motion_model_for(cfg)
    beliefs = fuse_run([], cfg, motion)
    expected = np.zeros(cfg.floor_plan.n)
    expected[0] = 1.0
    for m in beliefs:
        if m.tick > 0:
            expected = expected @ motion.kernel(0)
        assert np.allclose(m.probs[0], expected, atol=1e-9)


def _forward_enumeration(init, K, evidence):
    """Exhaustive filtered marginals: sum path weights over every sequence."""
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


def test_fused_beliefs_match_exhaustive_forward_enumeration():
    # two agents with different homes and kernels: each belief row must match
    # its own agent's enumeration, which pins agent indexing in the filter
    sensors = (
        SensorSpec("cam", "camera", (0, 1), p_detect=0.8, p_false_positive=0.05, p_confuse=0.1),
        SensorSpec("tag", "tag_reader", (2,), p_detect=0.7, p_false_positive=0.02, p_confuse=0.0),
    )
    plan = line_plan(3)
    agents = (uniform_agent(0, 0, 3, stay=0.5), uniform_agent(1, 2, 3, stay=0.7))
    for seed in range(5):
        cfg = WorldConfig(
            floor_plan=plan, agents=agents, ticks_per_day=6, days=1, rng_seed=seed,
            fluctuation_rate=0.0, sensors=sensors,
        )
        events = simulated_events(cfg)
        motion = motion_model_for(cfg)
        beliefs = fuse_run(events, cfg, motion)

        for i, profile in enumerate(agents):
            evidence = np.stack(
                [
                    likelihood_of_events(
                        [e for e in events if e.tick == t], profile.id, sensors, plan, n_agents=2
                    )
                    for t in range(cfg.ticks_per_day)
                ]
            )
            init = np.zeros(3)
            init[profile.home] = 1.0
            expected = _forward_enumeration(init, motion.kernel(profile.id), evidence)
            for m, ref in zip(beliefs, expected):
                assert np.abs(m.probs[i] - ref).max() < 1e-9


def test_single_tick_matches_manual_predict_update_chain():
    sensors = [SensorSpec("cam", "camera", (0, 1), p_detect=0.9, p_false_positive=0.0, p_confuse=0.0)]
    cfg = _small_world_config(sensors=sensors, ticks=1, n=2)
    events = [ObservationEvent("cam", 0, 0, 0, 0)]
    beliefs = fuse_run(events, cfg)
    init = np.zeros(2)
    init[0] = 1.0
    L = likelihood_of_events(events, 0, cfg.sensors, cfg.floor_plan, n_agents=1)
    assert np.allclose(beliefs[0].probs[0], init * L / (init * L).sum(), atol=1e-9)


def test_noiseless_full_coverage_argmax_recovers_truth():
    plan = line_plan(4)
    prof = uniform_agent(0, 0, 4, stay=0.4)
    sensors = (SensorSpec("cam", "camera", (0, 1, 2, 3), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),)
    cfg = WorldConfig(
        floor_plan=plan, agents=(prof,), ticks_per_day=60, days=2, rng_seed=3,
        fluctuation_rate=0.05, sensors=sensors,
    )
    locations = run_simulation(cfg)
    events = generate_event_log(locations, [0], cfg.sensors, cfg.rng_seed)
    beliefs = track_run(event_columns(events, cfg), cfg, decode=False).beliefs
    assert np.array_equal(beliefs.argmax(axis=3), locations)


def test_degenerate_evidence_falls_back_to_prediction():
    # p_detect = 1 sensor covering home stays silent while a conflicting
    # report pins the agent elsewhere: zero posterior mass everywhere
    plan = line_plan(2)
    prof = uniform_agent(0, 0, 2, stay=0.5)
    sensors = (
        SensorSpec("home", "tag_reader", (0,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),
        SensorSpec("far", "tag_reader", (1,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),
    )
    cfg = WorldConfig(floor_plan=plan, agents=(prof,), ticks_per_day=1, days=1, rng_seed=0, sensors=sensors)
    events = [ObservationEvent("far", 0, 0, 0, 1)]  # contradicts the point-mass prior at home
    beliefs = fuse_run(events, cfg)
    row = beliefs[0].probs[0]
    assert row.argmax() == 0  # fell back to the prior instead of crashing
    assert abs(row.sum() - 1.0) < 1e-9


def test_belief_rows_stay_normalized_on_long_runs():
    sensors = (
        SensorSpec("cam", "camera", (0, 1, 2), p_detect=0.8, p_false_positive=0.05, p_confuse=0.1),
    )
    cfg = _small_world_config(seed=5, sensors=sensors, ticks=2000, n=3)
    for m in fuse_run(simulated_events(cfg), cfg):
        assert abs(m.probs[0].sum() - 1.0) < 1e-9
        assert (m.probs[0] >= BELIEF_FLOOR / 2).all()


def _tracking_accuracy(p_detect: float, seed: int) -> float:
    plan = line_plan(5)
    prof = uniform_agent(0, 0, 5, stay=0.5)
    sensors = tuple(
        SensorSpec(f"tag{x}", "tag_reader", (x,), p_detect=p_detect, p_false_positive=0.01, p_confuse=0.05)
        for x in range(5)
    )
    cfg = WorldConfig(
        floor_plan=plan, agents=(prof,), ticks_per_day=400, days=1, rng_seed=seed,
        fluctuation_rate=0.05, sensors=sensors,
    )
    locations = run_simulation(cfg)
    beliefs = fuse_run(generate_event_log(locations, [0], cfg.sensors, cfg.rng_seed), cfg)
    truth = locations[0, :, 0].tolist()
    guesses = [int(m.probs[0].argmax()) for m in beliefs]
    return float(np.mean([g == t for g, t in zip(guesses, truth)]))


def test_tracking_accuracy_is_monotone_in_sensor_quality():
    good = np.mean([_tracking_accuracy(0.95, s) for s in range(5)])
    poor = np.mean([_tracking_accuracy(0.6, s) for s in range(5)])
    assert good > poor


# --- the decoded half and the shared day loop -----------------------------------


def test_decoded_half_equals_decode_day_on_evidence_blocks_including_a_leaked_row():
    plan = line_plan(4)
    agents = (uniform_agent(0, 0, 4, stay=0.5), uniform_agent(1, 3, 4, stay=0.7))
    sensors = (
        SensorSpec("cam", "camera", (0, 1, 2, 3), p_detect=0.8, p_false_positive=0.05, p_confuse=0.1),
        SensorSpec("far", "tag_reader", (3,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),
    )
    cfg = WorldConfig(
        floor_plan=plan, agents=agents, ticks_per_day=8, days=2, rng_seed=4, fluctuation_rate=0.0, sensors=sensors
    )
    events = simulated_events(cfg)
    # agent 0 starts day 1 at home 0; a certain report at 3 one tick later admits no path
    events.append(ObservationEvent("far", 1, 1, 0, 3))
    motion = motion_model_for(cfg)
    tracks = track_run(event_columns(events, cfg), cfg, fuse=False)
    assert tracks.retries == 1
    assert tracks.paths.shape == (2, 8, 2) and tracks.paths.dtype == np.int64 and tracks.scores.shape == (2, 2)
    blocks = LikelihoodModel(sensors, plan, n_agents=2).evidence_into(
        event_columns(events, cfg), np.empty((cfg.days, cfg.ticks_per_day, 2, plan.n))
    )
    for day, block in enumerate(blocks):
        for i, profile in enumerate(agents):
            init = np.zeros(plan.n)
            init[profile.home] = 1.0
            expected = decode_day(init, motion.kernel(profile.id), block[:, i], agent=profile.id, day=day)
            assert tuple(tracks.paths[day, :, i].tolist()) == expected.path
            assert tracks.scores[day, i] == expected.log_score


def test_one_tracking_pass_equals_fuse_run_and_the_decoded_half():
    plan = line_plan(4)
    agents = (uniform_agent(0, 0, 4, stay=0.5), uniform_agent(1, 3, 4, stay=0.7))
    sensors = (
        SensorSpec("cam", "camera", (0, 1, 2, 3), p_detect=0.8, p_false_positive=0.05, p_confuse=0.1),
        SensorSpec("far", "tag_reader", (3,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),
    )
    cfg = WorldConfig(
        floor_plan=plan, agents=agents, ticks_per_day=8, days=3, rng_seed=5, fluctuation_rate=0.0, sensors=sensors
    )
    events = simulated_events(cfg)
    events.append(ObservationEvent("far", 1, 1, 0, 3))  # a leak retry on day 1
    columns = event_columns(events, cfg)
    tracks = track_run(columns, cfg)
    fused = fuse_run(events, cfg)
    assert [(m.day, m.tick) for m in fused] == [(day, tick) for day in range(3) for tick in range(8)]
    assert all(np.array_equal(m.probs, tracks.beliefs[m.day, m.tick]) for m in fused)
    assert [m.predict_only for m in fused] == tracks.predict_only.ravel().tolist()
    decoded = track_run(columns, cfg, fuse=False)
    assert np.array_equal(tracks.paths, decoded.paths) and np.array_equal(tracks.scores, decoded.scores)
    assert tracks.retries == decoded.retries == 1
    # a half switched off allocates nothing for its arrays
    assert decoded.beliefs is None and decoded.predict_only is None
    filtered = track_run(columns, cfg, decode=False)
    assert filtered.paths is None and filtered.scores is None and filtered.retries == 0


def _reference_filter_day(start, kernels, evidence):
    """One day's (ticks, agents, n) evidence filtered on its own, a BLAS predict per agent as in the batch."""
    beliefs, predict_only, rows = np.empty_like(evidence), [], start
    for tick in range(len(evidence)):
        if tick > 0:
            rows = (rows[:, None, :] @ kernels)[:, 0]
        post = rows * evidence[tick]
        total = post.sum(axis=1)
        stuck = np.flatnonzero(total <= 0.0)
        post[stuck], total[stuck] = rows[stuck], 1.0
        floored = np.maximum(post / total[:, None], BELIEF_FLOOR)
        rows = beliefs[tick] = floored / floored.sum(axis=1, keepdims=True)
        predict_only.append(len(stuck))
    return beliefs, predict_only


def test_run_wide_tracker_equals_a_per_day_reference_bit_for_bit():
    plan = line_plan(4)
    agents = (uniform_agent(0, 0, 4, stay=0.5), uniform_agent(1, 3, 4, stay=0.7))
    sensors = (
        SensorSpec("cam", "camera", (0, 1, 2, 3), p_detect=0.8, p_false_positive=0.05, p_confuse=0.1),
        SensorSpec("far", "tag_reader", (3,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),
    )
    cfg = WorldConfig(
        floor_plan=plan, agents=agents, ticks_per_day=8, days=3, rng_seed=6, fluctuation_rate=0.0, sensors=sensors
    )
    events = simulated_events(cfg)
    # agent 0 starts day 1 at home 0; a certain report at 3 on that tick is a
    # predict-only tick for the filter and a leaked row for the decoder, on the middle day alone
    odd = events + [ObservationEvent("far", 1, 0, 0, 3)]
    tracks = track_run(event_columns(odd, cfg), cfg)
    assert tracks.retries == 1 and tracks.predict_only[1, 0] == 1
    assert tracks.predict_only[[0, 2]].sum() == 0

    motion = motion_model_for(cfg)
    start = np.zeros((2, plan.n))
    start[[0, 1], [0, 3]] = 1.0
    for day in range(cfg.days):
        evidence = _reference_day_evidence(sensors, plan.n, odd, day, cfg.ticks_per_day, (0, 1))
        beliefs, predict_only = _reference_filter_day(start, motion.kernels, evidence)
        assert np.array_equal(tracks.beliefs[day], beliefs)
        assert tracks.predict_only[day].tolist() == predict_only
        for i, profile in enumerate(agents):
            expected = decode_day(start[i], motion.kernel(profile.id), evidence[:, i], agent=profile.id, day=day)
            assert tuple(tracks.paths[day, :, i].tolist()) == expected.path
            assert tracks.scores[day, i] == expected.log_score

    # the other days are untouched by the middle day's contradiction
    plain = track_run(event_columns(events, cfg), cfg)
    assert plain.retries == 0 and plain.predict_only.sum() == 0
    for name in ("beliefs", "paths", "scores"):
        assert np.array_equal(getattr(tracks, name)[[0, 2]], getattr(plain, name)[[0, 2]]), name
    assert tracks.scores[1, 0] < plain.scores[1, 0]  # the leaked row's score carries the leak


def test_decoded_path_crosses_a_hub_whose_support_is_wider_than_255():
    # a hub with 299 spokes: from the hub the kernel reaches 300 locations, so a
    # back-pointer into that support needs offsets up to 299
    n = 300
    plan = FloorPlan(tuple(range(n)), frozenset((0, k) for k in range(1, n)), {}, {})
    sensors = (SensorSpec("far", "tag_reader", (n - 1,), p_detect=1.0, p_false_positive=0.0, p_confuse=0.0),)
    cfg = WorldConfig(
        floor_plan=plan, agents=(uniform_agent(0, 1, n, stay=0.5),), ticks_per_day=4, days=2, rng_seed=0,
        fluctuation_rate=0.0, sensors=sensors,
    )
    events = [ObservationEvent("far", 1, 2, 0, n - 1)]  # day 1: home, hub, the last spoke, back to the hub
    tracks = track_run(event_columns(events, cfg), cfg, fuse=False)
    assert tracks.paths[1, :, 0].tolist() == [1, 0, n - 1, 0]
    kernel = motion_model_for(cfg).kernel(0)
    assert np.count_nonzero(kernel[0]) == n
    evidence = LikelihoodModel(sensors, plan, n_agents=1).evidence_into(
        event_columns(events, cfg), np.empty((2, 4, 1, n))
    )
    start = np.zeros(n)
    start[1] = 1.0
    for day in range(2):
        path, score = _dense_viterbi(start, kernel, evidence[day, :, 0])
        assert tuple(tracks.paths[day, :, 0].tolist()) == path
        assert tracks.scores[day, 0] == score


def _dense_viterbi(initial, kernel, evidence):
    """Log-space Viterbi with each max over every location, not the kernel's support; lowest id on ties."""
    with np.errstate(divide="ignore"):
        log_k, log_ev = np.log(kernel), np.log(evidence)
        suffix, pointers = log_ev[-1], []
        for t in range(len(evidence) - 2, -1, -1):
            step = log_k + suffix  # step[i, j]: from i at tick t to j at tick t + 1
            pointers.append(step.argmax(axis=1))
            suffix = log_ev[t] + step.max(axis=1)
        head = np.log(initial) + suffix
    path = [int(head.argmax())]
    for best in reversed(pointers):
        path.append(int(best[path[-1]]))
    return tuple(path), float(head.max())


def test_kernels_stack_in_config_agent_order():
    # ids (7, 3): neither sorted nor positional, and the two kernels differ,
    # so stacking in any other order misplaces a kernel
    plan = line_plan(4)
    agents = (
        uniform_agent(7, 0, 4, stay=0.2),
        AgentProfile(3, 3, StayProbs(default=0.9), {3: 0.7, 0: 0.3}),
    )
    sensors = (SensorSpec("cam", "camera", (0, 1, 2), p_detect=0.8, p_false_positive=0.05, p_confuse=0.1),)
    cfg = WorldConfig(
        floor_plan=plan, agents=agents, ticks_per_day=6, days=1, rng_seed=2, fluctuation_rate=0.0, sensors=sensors
    )
    motion = motion_model_for(cfg)
    assert motion.agents == (7, 3)
    for i, profile in enumerate(agents):
        alone = motion_model_for(replace(cfg, agents=(profile,)))
        assert np.array_equal(motion.kernel(profile.id), alone.kernels[0])
        assert np.array_equal(motion.kernels[i], alone.kernels[0])
    assert not np.allclose(motion.kernel(7), motion.kernel(3))

    events = simulated_events(cfg)
    beliefs = fuse_run(events, cfg, motion)
    decoded = track_run(event_columns(events, cfg), cfg, fuse=False).paths
    assert all(m.agents == (7, 3) for m in beliefs)
    for i, profile in enumerate(agents):
        evidence = np.stack(
            [
                likelihood_of_events([e for e in events if e.tick == t], profile.id, sensors, plan, n_agents=2)
                for t in range(cfg.ticks_per_day)
            ]
        )
        init = np.zeros(plan.n)
        init[profile.home] = 1.0
        for m, ref in zip(beliefs, _forward_enumeration(init, motion.kernel(profile.id), evidence)):
            assert np.abs(m.probs[i] - ref).max() < 1e-9
        assert tuple(decoded[0, :, i].tolist()) == decode_day(init, motion.kernel(profile.id), evidence, profile.id, 0).path

    swapped = motion_model_for(replace(cfg, agents=agents[::-1]))
    with pytest.raises(ValidationError, match=r"agents \[3, 7\]; the config has \[7, 3\]"):
        fuse_run(events, cfg, swapped)
