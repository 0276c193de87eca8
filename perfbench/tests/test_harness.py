"""Tests for the benchmark harness itself (not for the library it measures).

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import random
from pathlib import Path

import pytest

import inputs
import oracles
import run
import stats
import tracing
from tracing import Span


# --- tail percentile rule ---------------------------------------------------

def test_tail_of_one_hundred_samples_is_p90():
    percentile, value = stats.tail([float(v) for v in range(1, 101)])
    assert percentile == 90.0
    assert value == 90.0


@pytest.mark.parametrize("n", [11, 12, 37, 100, 241])
def test_tail_leaves_exactly_ten_distinct_samples_beyond(n):
    values = random.Random(n).sample(range(10_000), n)
    percentile, value = stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_spread_is_interquartile_range_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# --- self-time arithmetic ---------------------------------------------------

def _span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, 0, name, start, end)


def test_self_time_subtracts_children_and_sums_to_op_time():
    spans = [
        _span(0, None, 0, 100, "op"),
        _span(1, 0, 10, 30),
        _span(2, 0, 40, 70),
        _span(3, 2, 50, 60),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 50, 1: 20, 2: 20, 3: 10}
    assert sum(selfs.values()) == 100


def test_covered_time_merges_overlaps_and_clips_to_parent():
    assert tracing.covered_ns(0, 100, [(10, 30), (20, 40)]) == 30
    assert tracing.covered_ns(0, 100, [(90, 130), (-5, 5)]) == 15
    assert tracing.covered_ns(0, 100, []) == 0


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = tracing.Tracer()
    tracer.op = 7
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    spans = tracer.finished()
    assert [(s.name, s.parent, s.op) for s in spans] == [
        ("op", None, 7), ("a", 0, 7), ("b", 1, 7), ("c", 0, 7)]
    root = spans[0]
    assert sum(tracing.self_times(spans).values()) == root.end_ns - root.start_ns


def test_per_layer_shares_add_up_and_overhead_is_the_pair_median():
    # Two ops after a one-op warm-up cycle, each run traced then untraced.
    ref = run.REFERENCE_S
    records = [run.OpRecord(0, 100, ref, True, False), run.OpRecord(0, 90, ref, False, False),
               run.OpRecord(1, 100, ref, True, False), run.OpRecord(1, 97, ref, False, False),
               run.OpRecord(2, 200, ref, False, False), run.OpRecord(2, 203, ref, True, False)]
    spans = [Span(0, None, 1, "op", 0, 100), Span(1, 0, 1, "engine.route_tier1", 10, 70),
             Span(2, None, 2, "op", 500, 703), Span(3, 2, 2, "engine.route_tier1", 510, 610),
             Span(4, 2, 2, "prefix.scan_registry", 620, 700)]
    metrics, meta = run.per_layer(records, {}, spans, cycle=1)
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)
    assert meta["self_time_sum_ns"] == meta["op_time_sum_ns"] == 303
    assert metrics["engine.route_tier1.ms"] == pytest.approx(80 / 1e6)
    assert metrics["trace.overhead_ms"] == pytest.approx(3 / 1e6)


def test_whole_cycles_drop_the_warm_up_and_a_cut_off_last_cycle():
    records = [run.OpRecord(i, 1, run.REFERENCE_S, False, False) for i in range(11)]
    assert [r.index for r in run.whole_cycles(records, cycle=4)] == [4, 5, 6, 7]
    assert run.whole_cycles(records[:7], cycle=4) == []


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    # A host at half the reference speed: the reference around each op takes twice as long.
    records = [run.OpRecord(i, 20_000_000, 2 * run.REFERENCE_S, False, False) for i in range(40)]
    counts = {i: {"bytes_read": 1, "tokens": 1} for i in range(4)}
    metrics, meta = run.end_to_end(records, counts, counted_ops=4, cycle=4, setup_s=[0.5])
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["latency_tail_ms"] == pytest.approx(10.0)
    assert metrics["ops_per_s"] == pytest.approx(100.0)
    assert meta["wall_latency_p50_ms"] == pytest.approx(20.0)


# --- scoring oracle -------------------------------------------------------------

def test_scoring_oracle_credits_secondaries_only_with_the_primary_right():
    key = [(1, "alpha", "beta"), (2, "gamma", None), (3, "delta", "beta"), (4, "eps", None)]
    selections = {1: ("alpha ", "beta"), 2: ("gamma", "beta"), 3: ("beta", "delta")}
    rows, total, maximum = oracles.score(key, selections)
    assert rows == [(1, True, True, 1.5), (2, True, False, 1.0),
                    (3, False, False, 0.0), (4, False, False, 0.0)]
    assert (total, maximum) == (2.5, 5.0)
    # The keyed secondary may sit in the primary slot too.
    assert oracles.score([(1, "alpha", "alpha")], {1: ("alpha", None)})[1] == 1.5


# --- seed determinism of the generators ---------------------------------------

FIXTURES = Path(__file__).resolve().parents[2] / "fixtures"


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_route_inputs_are_byte_identical_for_one_seed(tmp_path):
    first = inputs.write_route_inputs(5, tmp_path / "a")
    second = inputs.write_route_inputs(5, tmp_path / "b")
    assert first.digest == second.digest
    assert first.queries == second.queries
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert inputs.write_route_inputs(6, tmp_path / "c").digest != first.digest


def test_route_registry_sizes_follow_the_plan_not_the_seed(tmp_path):
    sizes = {}
    for seed in (1, 2):
        inputs.write_route_inputs(seed, tmp_path / str(seed))
        sizes[seed] = [len(b) for b in _files(tmp_path / str(seed)).values()]
    assert len(sizes[1]) == inputs.ROUTE_FILES
    assert min(sizes[1]) < 16 * 1024 and max(sizes[1]) > 900 * 1024
    assert sum(sizes[1]) == pytest.approx(sum(sizes[2]), rel=0.01)


def test_sweep_inputs_are_deterministic():
    first = inputs.sweep_inputs(3, FIXTURES)
    assert first == inputs.sweep_inputs(3, FIXTURES)
    assert [len(lib.categories) for _, lib in first.rounds] == [36, 60, 120, 180, 240]
    assert inputs.sweep_inputs(4, FIXTURES).digest != first.digest


def test_churn_inputs_are_deterministic(tmp_path):
    first = inputs.write_churn_slots(9, tmp_path / "a")
    assert first == inputs.write_churn_slots(9, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert inputs.churn_build(9, 40) == inputs.churn_build(9, 40)
    assert inputs.churn_document(9, 40) == inputs.churn_document(9, 40)
    assert inputs.churn_build(9, 40) != inputs.churn_build(10, 40)


def test_tagged_word_sources_never_share_a_word():
    a = inputs.WordSource(random.Random(1), tag=16)
    b = inputs.WordSource(random.Random(1), tag=17)
    assert not set(a.many(500)) & set(b.many(500))
    assert not set(inputs.FILLER) & set(a.used)
