"""Tests of the benchmark's measurement helpers (no program run needed).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import serve_load  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles with a supported tail
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))  # 1..1000
    pct, value, n = stats.tail_percentile(values)
    assert (pct, value, n) == (99.0, 990, 1000)
    assert sum(v > value for v in values) == 10


def test_smaller_sample_falls_back_to_a_lower_percentile():
    values = list(range(1, 1000))  # 999 samples: p99 has only 9 beyond
    pct, value, n = stats.tail_percentile(values)
    assert pct == 98.0 and n == 999
    assert sum(v > value for v in values) >= 10


def test_p99_is_the_highest_reported():
    assert stats.supported_percentile(100_000) == 99.0


def test_too_small_a_sample_is_refused():
    with pytest.raises(ValueError):
        stats.tail_percentile(range(19))
    assert stats.tail_percentile(range(20))[0] == 50.0


def test_nearest_rank_is_order_statistic():
    values = [1.0, 2.0, 3.0, 4.0]
    assert stats.nearest_rank(values, 50) == 2.0
    assert stats.nearest_rank(values, 100) == 4.0
    assert stats.nearest_rank(values, 0) == 1.0


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------
def test_latency_is_timed_from_the_due_time():
    # Request 1 was due at 1.0 but only sent at 1.5 (generator stall);
    # its latency includes the stall.  Request 2 never came back.
    due = [0.0, 1.0, 2.0]
    done = [0.1, 1.6, None]
    latency = stats.due_latencies(due, done)
    assert latency[:2] == pytest.approx([0.1, 0.6]) and latency[2] is None


def test_due_latencies_reject_misaligned_input():
    with pytest.raises(ValueError):
        stats.due_latencies([0.0], [])


def test_replay_minima_keep_recurring_costs_and_failures():
    calm = [0.002, 0.020, 0.002, 0.002]
    noisy = [0.009, 0.021, 0.002, None]
    assert stats.replay_minima([calm, noisy]) == [0.002, 0.020, 0.002, None]
    with pytest.raises(ValueError):
        stats.replay_minima([calm, calm[:2]])


def test_backlog_detection():
    steady = [0.002] * 100
    growing = [0.001 * i for i in range(100)]
    assert not stats.backlog_grew(steady, limit_s=0.01)
    assert stats.backlog_grew(growing, limit_s=0.01)
    assert stats.backlog_grew(steady[:80] + [None] * 20, limit_s=0.01)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_union_of_overlapping_nested_and_disjoint_intervals():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 2), (1, 3)]) == 3
    assert stats.union_length([(0, 10), (2, 3)]) == 10
    assert stats.union_length([(5, 6), (0, 1)]) == 2


def test_self_time_subtracts_the_union_of_children():
    # Children overlap (two threads): counted once, not twice.
    assert stats.self_time(0, 10, [(1, 4), (3, 5), (8, 9)]) == pytest.approx(5)
    assert stats.self_time(0, 10, []) == 10


def test_children_are_clipped_to_the_parent():
    assert stats.self_time(0, 10, [(8, 15), (-3, 1)]) == pytest.approx(7)
    assert stats.self_time(0, 10, [(-5, 20)]) == 0


def test_geomean():
    assert stats.geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_rescale_uses_the_probes_around_each_time():
    # Probes at t=0 (cost 1), t=10 (cost 3): a time between them is
    # scaled by reference / mean(1, 3); times outside use the one probe.
    scaled = stats.rescale([5.0, -1.0, 12.0], [4.0, 4.0, 4.0], [0.0, 10.0], [1.0, 3.0], 2.0)
    assert scaled == pytest.approx([4.0, 8.0, 8.0 / 3.0])


def test_rescale_cancels_a_uniform_slowdown():
    fast = stats.rescale([1.0, 2.0], [1.0, 3.0], [0.0, 5.0], [0.5, 0.5], 0.5)
    slow = stats.rescale([1.0, 2.0], [1.6, 4.8], [0.0, 5.0], [0.8, 0.8], 0.5)
    assert slow == pytest.approx(fast)


def test_rescale_needs_a_probe():
    with pytest.raises(ValueError):
        stats.rescale([1.0], [1.0], [], [], 1.0)
    with pytest.raises(ValueError):
        stats.rescale([1.0, 2.0], [1.0], [0.0], [1.0], 1.0)


def test_speedometer_probes_at_most_every_interval():
    meter = speed.Speedometer(every_s=3600.0)
    meter.tick()
    meter.tick()
    meter.take()
    assert len(meter.stamps) == len(meter.costs) == 2
    assert meter.stamps == sorted(meter.stamps)
    assert all(0.0 < cost < 1.0 for cost in meter.costs)


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_recorder_nesting_self_time_and_coverage(monkeypatch):
    monkeypatch.setattr(tracer.time, "perf_counter", FakeClock([0, 1, 3, 4, 6, 8]))
    rec = tracer.Recorder()
    outer = rec.open("controller.run_epoch")  # t=0
    inner = rec.open("solver.solve")  # t=1
    rec.close(inner)  # t=3
    second = rec.open("solver.solve")  # t=4
    rec.close(second)  # t=6
    rec.close(outer)  # t=8
    assert rec.parents == [-1, outer, outer]
    totals = rec.totals()
    assert totals["controller.run_epoch"]["self_s"] == pytest.approx(4)
    assert totals["solver.solve"] == {"calls": 2, "total_s": 4, "self_s": 4}
    assert rec.coverage(0, 10) == pytest.approx(0.8)


def test_solver_tags_feed_the_layer_metrics():
    rec = tracer.Recorder()
    for i, (k, hit, method, polished) in enumerate(
        [(2, False, "slsqp", True), (2, False, "kkt", True), (3, True, "cached", False)]
    ):
        rec.add("solver.solve", float(i), i + 0.5)
        rec.tags[i] = {"k": k, "hit": hit, "method": method, "polished": polished}
    layers = tracer.layer_metrics(rec)
    assert layers["solver.cache_hit_ratio"] == pytest.approx(1 / 3)
    assert layers["solver.polish_win_ratio"] == pytest.approx(0.5)
    assert layers["solver.method.slsqp"] == 1 and layers["solver.method.cached"] == 1
    assert layers["solver.solve.us_per_call.k3"] == pytest.approx(5e5)
    assert layers["shift.plan.ms_per_call"] == 0.0  # absent layer reads zero


# ----------------------------------------------------------------------
# Serve load: schedule, validation, ladder
# ----------------------------------------------------------------------
def test_schedule_is_a_function_of_the_seed():
    a = serve_load.build_schedule(3, rate=500, seconds=4)
    assert a == serve_load.build_schedule(3, rate=500, seconds=4)
    assert a != serve_load.build_schedule(4, rate=500, seconds=4)
    assert len(a) == 2000 and a[1].due == pytest.approx(1 / 500)
    share = {op: sum(r.op == op for r in a) / len(a) for op in ("allocate", "step")}
    assert 0.55 < share["allocate"] < 0.65 and 0.0 < share["step"] < 0.03
    levels = serve_load.hot_levels(3)
    allocates = [r for r in a if r.op == "allocate"]
    hot = [r for r in allocates if dict(r.params)["budget_w"] in levels[r.rack]]
    assert 0.6 < len(hot) / len(allocates) < 0.73  # two thirds, cache-hot


def _allocate(budget=800.0):
    return serve_load.Request(0.0, "allocate", "rack0", (("budget_w", budget),))


def _answer(**result):
    base = {"rack": "rack0", "ratios": [0.5, 0.4], "group_budgets_w": [400.0, 320.0]}
    return {"id": 7, "ok": True, "result": {**base, **result}}


def test_valid_allocate_passes():
    assert serve_load.validate(_allocate(), 7, _answer()) is None


@pytest.mark.parametrize(
    "response",
    [
        {**_answer(), "id": 8},
        {"id": 7, "ok": False, "error": "boom"},
        _answer(ratios=[0.7, 0.4]),
        _answer(group_budgets_w=[500.0, 300.001]),
        _answer(rack="rack1"),
    ],
)
def test_invalid_allocate_is_caught(response):
    assert serve_load.validate(_allocate(), 7, response) is not None


def _rung(rate, p99, failed=0, backlog=False):
    return {"rate": rate, "p99_ms": p99, "failed": failed, "backlog": backlog}


def test_max_rate_interpolates_the_crossing():
    limit = serve_load.LIMIT_S * 1e3
    rungs = [_rung(400, limit / 4), _rung(800, limit / 2), _rung(1000, limit * 2)]
    # log-scale: halfway from limit/2 to 2*limit is the limit itself.
    assert run.max_rate(rungs) == pytest.approx(900)


def test_max_rate_stops_at_a_failed_or_backlogged_rung():
    limit = serve_load.LIMIT_S * 1e3
    assert run.max_rate([_rung(400, 1), _rung(600, limit / 2, failed=1)]) == 400
    assert run.max_rate([_rung(400, 1), _rung(600, limit / 2, backlog=True)]) == 400
    assert run.max_rate([_rung(400, 1), _rung(600, 2)]) == 600
    assert run.max_rate([_rung(400, limit * 2)]) == pytest.approx(200)


def test_exposition_parsing():
    text = (
        '# HELP x h\nrepro_serve_request_seconds_sum{op="step"} 0.5\n'
        'repro_serve_request_seconds_count{op="step"} 4\n'
    )
    assert run.service_ms(text)["step"] == (0.5, 4.0)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints
# ----------------------------------------------------------------------
def test_benchmark_manifest_matches_the_runner():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
