"""Tests of the benchmark's own arithmetic: self time, scoring, leak retries.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
import types

import pytest

import checks
from layers import LAYER_POINTS, absent_spans, layer_metrics
from spans import EntryPoint, SpanIndex, Tracer, covered_ns, patched, self_times_ns

BASES = {"agent_ticks": 40, "observed_ticks": 10, "tracked_agent_ticks": 40, "agent_days": 4}


def span(name, parent, start, end, note=None):
    return [name, parent, start, end, note]


# --- self time --------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 20), (30, 40)]) == 20
    assert covered_ns(0, 100, [(10, 30), (20, 40)]) == 30  # overlap counted once
    assert covered_ns(0, 100, [(20, 40), (10, 30)]) == 30  # order does not matter
    assert covered_ns(10, 50, [(0, 20), (40, 90)]) == 20  # clipped to [10, 50)
    assert covered_ns(0, 100, [(0, 100), (10, 20)]) == 100


def test_self_time_is_duration_minus_children():
    spans = [
        span("op", -1, 0, 100),
        span("stage", 0, 10, 90),
        span("layer", 1, 20, 30),
        span("layer", 1, 40, 70),
        span("leaf", 3, 50, 60),
    ]
    assert self_times_ns(spans) == [20, 40, 10, 20, 10]
    # self times of a properly nested tree add up to the root's duration
    assert sum(self_times_ns(spans)) == 100


def test_outermost_totals_do_not_double_count_nested_calls_of_one_name():
    spans = [span("f", -1, 0, 100), span("f", 0, 10, 50), span("g", -1, 200, 230)]
    ix = SpanIndex(spans)
    assert ix.count("f") == 2
    assert ix.total_s("f") == pytest.approx(100e-9)
    assert ix.self_s("f") == pytest.approx(100e-9)
    assert ix.total_s("g") == pytest.approx(30e-9)
    assert ix.total_s("missing") == 0 and ix.count("missing") == 0


# --- layer metrics ----------------------------------------------------------


def _decode_spans(calls: int) -> list[list]:
    out = [span("op.decode", -1, 0, 10_000_000)]
    for k in range(calls):
        out.append(span("decoding.viterbi", 0, 1_000 * k, 1_000 * k + 500))
    return out


def test_leak_retries_and_useful_ratio_from_hand_built_spans():
    values, absent = layer_metrics(SpanIndex(_decode_spans(5)), BASES, set())
    assert absent == []
    assert values["decoding.viterbi_calls"] == (5, "count")
    assert values["decoding.leak_retries"] == (1, "count")  # 5 calls for 4 agent-days
    assert values["decoding.useful_ratio"][0] == pytest.approx(4 / 5)
    assert values["decoding.ms_per_agent_day"][0] == pytest.approx(5 * 500e-9 * 1e3 / 4)
    assert values["decoding.agent_days"] == (4, "count")


def test_no_retries_when_every_agent_day_decodes_once():
    values, _ = layer_metrics(SpanIndex(_decode_spans(4)), BASES, set())
    assert values["decoding.leak_retries"][0] == 0
    assert values["decoding.useful_ratio"][0] == 1.0


def test_filter_cost_is_self_time_per_tracked_agent_tick():
    spans = [
        span("fusion.filter", -1, 0, 4_000),
        span("fusion.tick_likelihood", 0, 0, 1_000),
        span("fusion.update", 0, 1_000, 1_500, "DegenerateEvidenceError"),
        span("fusion.update", 0, 1_500, 2_000),
    ]
    values, _ = layer_metrics(SpanIndex(spans), BASES, set())
    assert values["fusion.filter_us_per_agent_tick"][0] == pytest.approx(2_000e-9 * 1e6 / 40)
    assert values["fusion.degenerate_updates"][0] == 1
    assert values["fusion.update_calls"][0] == 2


def test_ratios_with_a_zero_base_read_zero():
    values, _ = layer_metrics(SpanIndex([]), dict.fromkeys(BASES, 0), set())
    assert values["decoding.useful_ratio"][0] == 0.0
    assert values["sensors.us_per_tick"][0] == 0.0


def test_metrics_of_a_gone_entry_point_are_zero_and_listed_absent():
    gone = absent_spans(["officelab.pipeline.viterbi_decode"])
    assert gone == {"decoding.viterbi"}
    values, absent = layer_metrics(SpanIndex(_decode_spans(5)), BASES, gone)
    assert "decoding.leak_retries" in absent and values["decoding.leak_retries"][0] == 0
    assert "decoding.agent_days" not in absent  # a base does not depend on a span
    # a span stays present while any of its entry points resolves
    assert absent_spans(["officelab.fusion.motion_model_for"]) == set()
    assert {p.span for p in LAYER_POINTS} >= {"fusion.motion_model", "decoding.viterbi"}


# --- patching entry points --------------------------------------------------


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_target")

    def double(x):
        return 2 * x

    class Box:
        @staticmethod
        def make(x):
            return [x]

        def size(self):
            return 3

    mod.double, mod.Box, mod.TABLE = double, Box, {"k": double}
    sys.modules["fake_target"] = mod
    yield mod
    del sys.modules["fake_target"]


def test_patched_wraps_functions_methods_and_dict_entries_and_restores_them(fake_module):
    original = fake_module.double
    tracer = Tracer()
    points = [
        EntryPoint("fake_target.double", "double"),
        EntryPoint("fake_target.Box.make", "make", lambda a, kw, r: len(r)),
        EntryPoint("fake_target.Box.size", "size"),
        EntryPoint("fake_target.TABLE.k", "table"),
        EntryPoint("fake_target.gone", "gone"),
        EntryPoint("fake_target.Box.gone", "gone"),
    ]
    with patched(tracer, points) as absent:
        with tracer.span("root"):
            assert fake_module.double(2) == 4
            assert fake_module.Box.make(1) == [1]
            assert fake_module.Box().size() == 3
            assert fake_module.TABLE["k"](5) == 10
    assert absent == ["fake_target.gone", "fake_target.Box.gone"]
    names = [rec[0] for rec in tracer.spans]
    assert names == ["root", "double", "make", "size", "table"]
    assert all(rec[1] == 0 for rec in tracer.spans[1:])
    assert tracer.spans[2][4] == 1  # the note saw the result
    assert fake_module.double is original and fake_module.TABLE["k"] is original
    assert isinstance(fake_module.Box.__dict__["make"], staticmethod)


def test_a_raising_call_is_closed_and_notes_the_exception(fake_module):
    def boom():
        raise ValueError("x")

    fake_module.boom = boom
    tracer = Tracer()
    with patched(tracer, [EntryPoint("fake_target.boom", "boom")]):
        with pytest.raises(ValueError):
            fake_module.boom()
    assert tracer.spans[0][4] == "ValueError" and tracer.spans[0][3] >= tracer.spans[0][2]


# --- output checks and scoring ---------------------------------------------


def _table(rows):
    return {(a, d, t): loc for a, d, t, loc in rows}


def test_accuracy_counts_agent_ticks_equal_to_the_truth():
    truth = _table([(0, 0, 0, 1), (0, 0, 1, 2), (1, 0, 0, 3), (1, 0, 1, 3)])
    guess = _table([(0, 0, 0, 1), (0, 0, 1, 1), (1, 0, 0, 3), (1, 0, 1, 3)])
    assert checks.matches(guess, truth) == 3
    assert checks.matches({}, truth) == 0


def test_read_table_and_row_completeness(tmp_path):
    path = tmp_path / "paths.csv"
    path.write_text("agent,day,tick,location\n0,0,0,1\n0,0,1,2\n1,0,0,3\n1,0,1,3\n")
    table, rows = checks.read_table(path)
    assert rows == 4 and table[(0, 0, 1)] == 2
    assert checks.complete(table, rows, [0, 1], 1, 2)
    assert not checks.complete(table, rows, [0, 1], 1, 3)  # a tick short
    assert not checks.complete(table, rows + 1, [0, 1], 1, 2)  # a repeated row
    # columns are found by name
    path.write_text("tick,agent,location,day\n1,0,7,0\n")
    assert checks.read_table(path)[0] == {(0, 0, 1): 7}


def test_steps_must_stay_or_go_to_a_neighbour():
    nbrs = checks.neighbours_of([[0, 1], [1, 2]])
    ok = _table([(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 2, 1), (0, 0, 3, 2)])
    assert checks.bad_steps(ok, nbrs) == 0
    jump = _table([(0, 0, 0, 0), (0, 0, 1, 2)])
    assert checks.bad_steps(jump, nbrs) == 1
    # a new day may start anywhere
    days = _table([(0, 0, 0, 0), (0, 1, 0, 2)])
    assert checks.bad_steps(days, nbrs) == 0


def test_distribution_problems_and_l1():
    assert checks.distribution_problem([0.25, 0.75], 2) is None
    assert "negative" in checks.distribution_problem([-0.1, 1.1], 2)
    assert "sums" in checks.distribution_problem([0.5, 0.4], 2)
    assert "entries" in checks.distribution_problem([1.0], 2)
    assert checks.l1([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.5)
    assert checks.occupancy(_table([(0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 2, 0)]), 3) == [1 / 3, 2 / 3, 0.0]


def test_digest_mismatches_name_changed_and_missing_files(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    (tmp_path / "manifest.json").write_text("{}")
    first = checks.data_digests(tmp_path)
    assert set(first) == {"a.csv"}
    (tmp_path / "manifest.json").write_text('{"t": 1}')
    assert checks.digest_mismatches(first, checks.data_digests(tmp_path)) == []
    (tmp_path / "a.csv").write_text("y\n")
    (tmp_path / "b.csv").write_text("z\n")
    assert checks.digest_mismatches(first, checks.data_digests(tmp_path)) == ["a.csv", "b.csv"]
