"""The built-in instrumentation on solver/scheduler/sim/shift hot paths.

These tests read *deltas* of the process-wide default registry, so they
stay correct regardless of what other tests already recorded.
"""

import pytest

from repro.core.database import PerfPowerFit
from repro.core.policies import make_policy
from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel, PARSolver
from repro.obs.metrics import REGISTRY, obs_enabled, set_enabled
from repro.servers.rack import Rack
from repro.shift.planner import PlanInputs, ShiftPlanner
from repro.shift.queue import JobQueue, ShiftJob
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.traces.nrel import Weather
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def enabled():
    before = obs_enabled()
    set_enabled(True)
    yield
    set_enabled(before)


def counter_value(name, *labels):
    return REGISTRY.get(name).labels(*labels).value


def hist_count(name, *labels):
    return REGISTRY.get(name).labels(*labels).count


def concave_group(name="A"):
    fit = PerfPowerFit(coefficients=(-0.033, 9.9, -642.5), min_power_w=95.0,
                       max_power_w=150.0)
    return GroupModel(name=name, count=5, fit=fit)


class TestSolverInstrumentation:
    def test_solve_times_and_counts(self, enabled):
        before = hist_count("repro_solver_solve_seconds")
        PARSolver(safety_margin=0.0).solve([concave_group()], 600.0)
        assert hist_count("repro_solver_solve_seconds") == before + 1

    def test_cache_hit_and_miss_counters(self, enabled):
        solver = PARSolver(safety_margin=0.0)
        hits0 = counter_value("repro_solver_cache_lookups_total", "hit")
        miss0 = counter_value("repro_solver_cache_lookups_total", "miss")
        solver.solve([concave_group()], 600.0)
        solver.solve([concave_group()], 600.0)  # identical program: hit
        assert counter_value("repro_solver_cache_lookups_total", "miss") == miss0 + 1
        assert counter_value("repro_solver_cache_lookups_total", "hit") == hits0 + 1

    def test_per_instance_cache_info_unchanged(self, enabled):
        # The obs counters are additive; the per-solver ints the tests
        # and the daemon's cache-stats op rely on keep exact semantics.
        solver = PARSolver(safety_margin=0.0)
        solver.solve([concave_group()], 600.0)
        solver.solve([concave_group()], 600.0)
        info = solver.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_disabled_does_not_count(self, enabled):
        set_enabled(False)
        before = hist_count("repro_solver_solve_seconds")
        PARSolver(safety_margin=0.0).solve([concave_group()], 600.0)
        assert hist_count("repro_solver_solve_seconds") == before


class TestPredictorInstrumentation:
    def test_fit_counted_and_timed(self, enabled):
        fits0 = counter_value("repro_predictor_fits_total")
        secs0 = hist_count("repro_predictor_fit_seconds")
        HoltPredictor.fit([10.0, 12.0, 14.0, 17.0, 19.0])
        assert counter_value("repro_predictor_fits_total") == fits0 + 1
        assert hist_count("repro_predictor_fit_seconds") == secs0 + 1


class TestSimulationInstrumentation:
    def test_epochs_spans_and_histograms(self, enabled):
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"),
            rack=Rack([("E5-2620", 2), ("i5-4460", 2)], "SPECjbb"),
            weather=Weather.HIGH,
            clock=SimClock(start_s=SECONDS_PER_DAY, duration_s=3 * 900.0),
            seed=7,
        )
        epoch0 = hist_count("repro_sim_epoch_seconds")
        phase0 = {
            phase: hist_count("repro_span_seconds", phase)
            for phase in ("controller.epoch", "scheduler.forecast",
                          "scheduler.select", "scheduler.solve")
        }
        log = sim.run()
        assert len(log) == 3
        assert hist_count("repro_sim_epoch_seconds") == epoch0 + 3
        for phase, before in phase0.items():
            assert hist_count("repro_span_seconds", phase) == before + 3, phase


    def test_assemble_and_pretrain_spans(self, enabled):
        spans = REGISTRY.get("repro_span_seconds")
        names = ("sim.assemble", "sim.pretrain")
        count0 = {name: spans.labels(name).count for name in names}
        sum0 = {name: spans.labels(name).sum for name in names}
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"),
            rack=Rack([("E5-2620", 2), ("i5-4460", 2)], "SPECjbb"),
            clock=SimClock(start_s=SECONDS_PER_DAY, duration_s=2 * 900.0),
            seed=7,
        )
        for name in names:
            assert spans.labels(name).count == count0[name] + 1, name
        assemble_s = spans.labels("sim.assemble").sum - sum0["sim.assemble"]
        pretrain_s = spans.labels("sim.pretrain").sum - sum0["sim.pretrain"]
        # Pretraining is part of set-up, so its span nests inside assemble's.
        assert 0.0 < pretrain_s <= assemble_s
        # Set-up spans only: stepping adds none.
        sim.run()
        for name in names:
            assert spans.labels(name).count == count0[name] + 1, name


class TestShiftInstrumentation:
    def test_plan_counts_candidates_and_placements(self, enabled):
        queue = JobQueue()
        queue.submit(ShiftJob(
            job_id="j0", energy_wh=75.0, power_w=300.0,
            earliest_start_s=0.0, deadline_s=8 * 900.0, value=1.0,
        ))
        inputs = PlanInputs(
            time_s=0.0,
            epoch_s=900.0,
            renewable_w=(400.0,) * 8,
            interactive_w=(0.0,) * 8,
            committed_w=(),
            batch_capacity_w=1000.0,
            battery_usable_wh=0.0,
            battery_max_discharge_w=0.0,
            grid_budget_w=1000.0,
            batch_models=(),
        )
        plans0 = counter_value("repro_shift_plans_total", "exhaustive")
        cand0 = counter_value("repro_shift_candidates_total")
        placed0 = counter_value("repro_shift_placements_total")
        secs0 = hist_count("repro_shift_plan_seconds")
        plan = ShiftPlanner(horizon=8).plan(queue, inputs)
        assert plan.method == "exhaustive"
        assert counter_value("repro_shift_plans_total", "exhaustive") == plans0 + 1
        assert counter_value("repro_shift_candidates_total") > cand0
        assert counter_value("repro_shift_placements_total") == placed0 + len(plan.placements)
        assert hist_count("repro_shift_plan_seconds") == secs0 + 1
