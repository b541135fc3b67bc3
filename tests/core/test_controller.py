"""The GreenHetero rack controller: one epoch end to end."""

import pytest

from repro.core.controller import GreenHeteroController, N_SUBSTEPS
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.core.sources import PowerCase
from repro.errors import ConfigurationError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.traces.nrel import Weather, synthesize_irradiance

NOON = 12 * 3600.0
MIDNIGHT = 0.0


def make_controller(policy_name="GreenHetero", solar_peak=1900.0, grid_w=1000.0, seed=3):
    rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
    trace = synthesize_irradiance(days=2, weather=Weather.HIGH, seed=seed)
    pdu = PDU(
        SolarFarm.sized_for(trace, solar_peak),
        BatteryBank(),
        GridSource(budget_w=grid_w),
    )
    return GreenHeteroController(
        rack=rack, pdu=pdu, policy=make_policy(policy_name), monitor=Monitor(seed=seed)
    )


class TestEpochExecution:
    def test_record_fields_consistent(self):
        ctl = make_controller()
        record = ctl.run_epoch(NOON)
        assert record.time_s == NOON
        assert record.case in (PowerCase.A, PowerCase.B, PowerCase.C)
        assert 0.0 <= record.epu <= 1.0
        assert record.throughput >= 0.0
        assert len(record.ratios) == 2
        assert sum(record.ratios) <= 1.0 + 1e-9
        assert record.group_budgets_w == pytest.approx(
            tuple(r * record.budget_w for r in record.ratios)
        )

    def test_first_epoch_runs_training(self):
        ctl = make_controller("GreenHetero")
        record = ctl.run_epoch(NOON)
        assert set(record.trained_pairs) == {
            ("E5-2620", "SPECjbb"),
            ("i5-4460", "SPECjbb"),
        }

    def test_training_only_once(self):
        ctl = make_controller("GreenHetero")
        ctl.run_epoch(NOON)
        record = ctl.run_epoch(NOON + 900.0)
        assert record.trained_pairs == ()

    def test_uniform_policy_never_trains(self):
        ctl = make_controller("Uniform")
        record = ctl.run_epoch(NOON)
        assert record.trained_pairs == ()
        assert len(ctl.scheduler.database) == 0

    def test_manual_policy_gets_oracle(self):
        ctl = make_controller("Manual")
        record = ctl.run_epoch(NOON)
        assert sum(record.ratios) == pytest.approx(1.0)

    def test_database_grows_under_adaptive_policy(self):
        ctl = make_controller("GreenHetero")
        ctl.run_epoch(NOON)
        key = ("E5-2620", "SPECjbb")
        after_training = ctl.scheduler.database.sample_count(key)
        ctl.run_epoch(NOON + 900.0)
        assert ctl.scheduler.database.sample_count(key) > after_training

    def test_database_frozen_under_static_policy(self):
        ctl = make_controller("GreenHetero-a")
        ctl.run_epoch(NOON)
        key = ("E5-2620", "SPECjbb")
        after_training = ctl.scheduler.database.sample_count(key)
        ctl.run_epoch(NOON + 900.0)
        assert ctl.scheduler.database.sample_count(key) == after_training

    def test_night_uses_battery(self):
        ctl = make_controller()
        record = ctl.run_epoch(MIDNIGHT)
        assert record.case is PowerCase.C
        assert record.battery_to_load_w > 0.0

    def test_noon_uses_renewable(self):
        ctl = make_controller()
        record = ctl.run_epoch(NOON)
        assert record.renewable_to_load_w > 0.0

    def test_bad_load_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            make_controller().run_epoch(NOON, load_fraction=1.5)

    def test_bad_epoch_length_rejected(self):
        rack = Rack([("i5-4460", 2)], "SPECjbb")
        trace = synthesize_irradiance(days=1, seed=1)
        pdu = PDU(SolarFarm.sized_for(trace, 300.0), BatteryBank(), GridSource())
        with pytest.raises(ConfigurationError):
            GreenHeteroController(rack, pdu, make_policy("Uniform"), epoch_s=0.0)


class TestEnergyAccounting:
    def test_epu_consistent_with_useful_power(self):
        ctl = make_controller()
        record = ctl.run_epoch(NOON)
        if record.budget_w > 0:
            assert record.epu == pytest.approx(
                min(record.useful_power_w / record.budget_w, 1.0)
            )

    def test_battery_soc_decreases_overnight(self):
        ctl = make_controller()
        before = ctl.pdu.battery.soc_wh
        record = ctl.run_epoch(MIDNIGHT)
        assert record.battery_soc_wh < before

    def test_budget_override_forces_budget(self):
        ctl = make_controller()
        ctl.budget_override = lambda t, d: 700.0
        record = ctl.run_epoch(NOON)
        assert record.budget_w == 700.0
        assert record.case is PowerCase.B


class TestSubsteps:
    """The noise-free rack samples are computed once per epoch."""

    def spy_samples(self, ctl):
        calls = []
        original = ctl._samples_for_states

        def spy(*args, **kwargs):
            samples = original(*args, **kwargs)
            calls.append(samples)
            return samples

        ctl._samples_for_states = spy
        return calls

    def test_samples_once_per_epoch(self):
        ctl = make_controller("GreenHetero")
        calls = self.spy_samples(ctl)
        for i in range(3):
            ctl.run_epoch(NOON + i * 900.0, load_fraction=0.7)
            assert len(calls) == i + 1

    def test_forced_brownout_scales_each_substep(self):
        # Night, one small battery, no grid, and a budget far above what
        # the battery can deliver: every substep browns out.
        rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
        trace = synthesize_irradiance(days=2, weather=Weather.HIGH, seed=3)
        pdu = PDU(
            SolarFarm.sized_for(trace, 1900.0),
            BatteryBank(count=1, initial_soc_fraction=0.62),
            GridSource(budget_w=0.0),
        )
        ctl = GreenHeteroController(
            rack=rack, pdu=pdu, policy=make_policy("GreenHetero"), monitor=Monitor(seed=3)
        )
        ctl.budget_override = lambda t, d: 900.0
        calls = self.spy_samples(ctl)
        delivered = []
        apply = ctl.enforcer.psc.apply

        def spy_apply(decision, draw_w, time_s, duration_s):
            flows = apply(decision, draw_w, time_s, duration_s)
            delivered.append((flows.delivered_w, draw_w))
            return flows

        ctl.enforcer.psc.apply = spy_apply
        record = ctl.run_epoch(MIDNIGHT, load_fraction=0.8)

        assert record.brownout
        assert len(calls) == 1 and len(delivered) == N_SUBSTEPS
        counts = record.powered_counts or [g.count for g in rack.groups]
        rack_perf = sum(n * s.throughput for n, s in zip(counts, calls[0]))
        assert rack_perf > 0.0
        assert all(d < draw for d, draw in delivered)
        expected = sum(rack_perf * (d / draw) for d, draw in delivered) / N_SUBSTEPS
        assert record.throughput == pytest.approx(expected, rel=1e-12)
        assert record.throughput < rack_perf


class TestLoadBalancing:
    def test_offered_load_reroutes_to_survivors(self):
        # At a budget where uniform sleeps the Xeons, interactive load
        # must still be served by the i5s (low offered load).
        ctl = make_controller("Uniform")
        ctl.budget_override = lambda t, d: 700.0  # 70 W/server: E5s sleep
        record = ctl.run_epoch(NOON, load_fraction=0.2)
        assert record.throughput > 0.0

    def test_measure_rack_matches_manual_oracle_shape(self):
        ctl = make_controller("GreenHetero")
        full = ctl._measure_rack((5 * 150.0, 5 * 80.0), 1.0)
        half = ctl._measure_rack((5 * 150.0, 5 * 80.0), 0.4)
        assert 0.0 < half < full


class ConstantSource:
    """A renewable source with flat output (PDU duck-types power_at)."""

    def __init__(self, power_w: float) -> None:
        self.power_w = power_w

    def power_at(self, time_s: float) -> float:
        return self.power_w


class TestPredictorFeedback:
    """The renewable feedback is metered per substep, jittered once.

    Regression for a double-jitter bug: the controller used to feed the
    predictor ``observe_renewable(record.renewable_w)`` — re-metering an
    epoch *mean* that conceptually already passed through the sensor —
    which both mis-scaled the noise (a mean of 6 readings has sigma/sqrt(6))
    and consumed an extra RNG draw.
    """

    PV_W = 500.0

    def make_controller(self, seed=42):
        import numpy as np

        rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
        pdu = PDU(ConstantSource(self.PV_W), BatteryBank(), GridSource(budget_w=1000.0))
        monitor = Monitor(
            power_noise=0.0, perf_noise=0.0, renewable_noise=0.01, seed=seed
        )
        ctl = GreenHeteroController(
            rack=rack, pdu=pdu, policy=make_policy("Uniform"), monitor=monitor
        )
        ctl.prime_predictors([self.PV_W] * 96, [1000.0] * 96)
        return ctl, np.random.default_rng(seed)

    def expected_readings(self, rng, n):
        # With only renewable_noise non-zero, the Monitor's RNG advances
        # exactly once per observe_renewable call; replay it.
        return [
            max(0.0, self.PV_W * (1.0 + 0.01 * float(rng.standard_normal())))
            for _ in range(n)
        ]

    def test_feedback_is_mean_of_substep_meter_readings(self):
        ctl, rng = self.make_controller()
        fed = []
        original = ctl.scheduler.observe

        def spy(renewable_w, demand_w):
            fed.append(renewable_w)
            original(renewable_w, demand_w)

        ctl.scheduler.observe = spy
        record = ctl.run_epoch(NOON)

        # Draw 1 is the epoch-start reading; draws 2..7 are the six
        # substeps whose mean is the one-and-only predictor feedback.
        readings = self.expected_readings(rng, 1 + N_SUBSTEPS)
        expected = sum(readings[1:]) / N_SUBSTEPS
        assert fed == [pytest.approx(expected, rel=1e-12)]
        assert record.renewable_metered_w == pytest.approx(expected, rel=1e-12)
        # The noise-free channel is untouched by the metering.
        assert record.renewable_w == pytest.approx(self.PV_W)

    def test_no_second_jitter_of_the_epoch_mean(self):
        ctl, rng = self.make_controller()
        record = ctl.run_epoch(NOON)
        readings = self.expected_readings(rng, 1 + N_SUBSTEPS)
        # The buggy path would consume an 8th draw to re-jitter the mean;
        # the RNG must sit exactly at draw 7 afterwards.
        next_value = float(rng.standard_normal())
        actual_next = float(ctl.monitor._rng.standard_normal())
        assert actual_next == next_value
        assert record.renewable_metered_w == pytest.approx(
            sum(readings[1:]) / N_SUBSTEPS, rel=1e-12
        )
