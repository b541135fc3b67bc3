"""Diurnal rack-load pattern ([13]'s typical datacenter demand)."""

import pytest

from repro.errors import TraceError
from repro.traces.datacenter_load import DiurnalLoadPattern
from repro.units import SECONDS_PER_DAY, hours


@pytest.fixture
def pattern():
    return DiurnalLoadPattern()


class TestShape:
    def test_bounded(self, pattern):
        for h in range(0, 24):
            v = pattern.at(hours(h))
            assert pattern.trough - 1e-9 <= v <= 1.0 + 1e-9

    def test_peak_is_one(self, pattern):
        peak_hour = pattern.daily_peak_hour()
        assert pattern.at(hours(peak_hour)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"evening_peak_hour": 19.97},
            {"morning_peak_hour": 9.04, "evening_weight": 0.5},
            # A bump narrower than the 0.1 h sampling, centred off it.
            {"evening_peak_hour": 20.05, "evening_width_h": 0.02},
        ],
    )
    def test_never_above_one_on_a_dense_grid(self, overrides):
        # The 0.1 h sampling alone misses the maximiser (the default
        # pattern reached 1.00002 at 19.976 h).
        pattern = DiurnalLoadPattern(**overrides)
        n = 24_000
        dense = max(pattern.at(i * SECONDS_PER_DAY / n) for i in range(n))
        assert dense <= 1.0 + 1e-12
        assert pattern.at(hours(pattern.daily_peak_hour())) == pytest.approx(1.0, abs=1e-12)

    def test_evening_peak(self, pattern):
        # The evening bump is the daily maximum, per the paper's Fig. 6.
        assert 18.0 <= pattern.daily_peak_hour() <= 22.0

    def test_overnight_trough(self, pattern):
        assert pattern.at(hours(3)) < 0.65

    def test_morning_activity(self, pattern):
        assert pattern.at(hours(10)) > pattern.at(hours(3))

    def test_wraps_daily(self, pattern):
        assert pattern.at(hours(5)) == pytest.approx(
            pattern.at(hours(5) + SECONDS_PER_DAY)
        )

    def test_continuous_at_midnight(self, pattern):
        before = pattern.at(hours(23.99))
        after = pattern.at(hours(0.01))
        assert abs(before - after) < 0.01

    def test_callable(self, pattern):
        assert pattern(hours(12)) == pattern.at(hours(12))


class TestPeakCache:
    def test_peak_is_computed_once_per_pattern(self, monkeypatch):
        calls = 0
        raw = DiurnalLoadPattern._raw

        def counting(self, hour):
            nonlocal calls
            calls += 1
            return raw(self, hour)

        monkeypatch.setattr(DiurnalLoadPattern, "_raw", counting)
        pattern = DiurnalLoadPattern()
        n = 1000
        for i in range(n):
            pattern.at(i * 86.4)
        assert calls <= 2 * n + 300

    def test_cached_peak_keeps_value_equality(self, pattern):
        fresh = DiurnalLoadPattern()
        pattern.at(hours(12))  # populates the cache on one side only
        assert pattern == fresh
        assert hash(pattern) == hash(fresh)
        assert pattern.at(hours(7)) == fresh.at(hours(7))


class TestValidation:
    def test_bad_trough(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(trough=1.0)

    def test_bad_width(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(morning_width_h=0.0)

    def test_bad_weight(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(evening_weight=-1.0)

    def test_custom_trough(self):
        pattern = DiurnalLoadPattern(trough=0.3)
        assert min(pattern.at(hours(h)) for h in range(24)) >= 0.3 - 1e-9


class TestWeeklyStructure:
    def test_default_has_no_weekend_dip(self, pattern):
        from repro.units import SECONDS_PER_DAY

        weekday = pattern.at(2 * SECONDS_PER_DAY + 12 * 3600.0)
        weekend = pattern.at(5 * SECONDS_PER_DAY + 12 * 3600.0)
        assert weekday == pytest.approx(weekend)

    def test_weekend_scale_applies_on_days_5_and_6(self):
        from repro.units import SECONDS_PER_DAY

        p = DiurnalLoadPattern(weekend_scale=0.7)
        noon = 12 * 3600.0
        weekday = p.at(2 * SECONDS_PER_DAY + noon)
        saturday = p.at(5 * SECONDS_PER_DAY + noon)
        sunday = p.at(6 * SECONDS_PER_DAY + noon)
        monday = p.at(7 * SECONDS_PER_DAY + noon)
        assert saturday == pytest.approx(0.7 * weekday)
        assert sunday == pytest.approx(0.7 * weekday)
        assert monday == pytest.approx(weekday)

    def test_bad_weekend_scale_rejected(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(weekend_scale=0.0)
        with pytest.raises(TraceError):
            DiurnalLoadPattern(weekend_scale=1.2)
