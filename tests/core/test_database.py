"""Profiling database and curve fitting (Fig. 7, Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import FitKind, PerfPowerFit, ProfilingDatabase
from repro.errors import ConfigurationError, DatabaseMissError

KEY = ("E5-2620", "SPECjbb")


def quad_samples(l=-2.0, m=600.0, n=-20000.0, powers=(100, 110, 120, 135, 150)):
    """Noise-free samples from a known quadratic."""
    return [(float(p), l * p * p + m * p + n) for p in powers]


class TestPerfPowerFit:
    def _fit(self, **overrides):
        base = dict(
            coefficients=(-2.0, 600.0, -20000.0),
            min_power_w=95.0,
            max_power_w=150.0,
        )
        base.update(overrides)
        return PerfPowerFit(**base)

    def test_paper_coefficients(self):
        fit = self._fit()
        assert fit.l == -2.0
        assert fit.m == 600.0
        assert fit.n == -20000.0

    def test_linear_fit_has_zero_l(self):
        fit = self._fit(coefficients=(10.0, 50.0), kind=FitKind.LINEAR)
        assert fit.l == 0.0
        assert fit.m == 10.0
        assert fit.n == 50.0

    def test_cubic_and_empty_fits_rejected(self):
        # The PAR solver is exact for degree <= 2 only.
        for coefficients in ((1e-4, -2.0, 600.0, -20000.0), ()):
            with pytest.raises(ConfigurationError):
                self._fit(coefficients=coefficients)

    def test_zero_below_min(self):
        assert self._fit().predict(90.0) == 0.0

    def test_plateau_above_max(self):
        fit = self._fit()
        assert fit.predict(200.0) == fit.predict(150.0)

    def test_quadratic_inside_range(self):
        fit = self._fit()
        p = 120.0
        assert fit.predict(p) == pytest.approx(-2 * p * p + 600 * p - 20000)

    def test_clamped_at_zero(self):
        fit = self._fit(coefficients=(0.0, 1.0, -1000.0))
        assert fit.predict(100.0) == 0.0

    def test_derivative(self):
        fit = self._fit()
        assert fit.derivative(100.0) == pytest.approx(-2 * 2 * 100 + 600)

    def test_efficiency(self):
        fit = self._fit()
        assert fit.efficiency() == pytest.approx(fit.predict(150.0) / 150.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            self._fit(min_power_w=150.0, max_power_w=150.0)

    def test_negative_min_rejected(self):
        with pytest.raises(ConfigurationError):
            self._fit(min_power_w=-1.0)


_COEFFICIENT = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(
    coefficients=st.lists(_COEFFICIENT, min_size=1, max_size=3),
    power_w=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_raw_is_bit_identical_to_polyval(coefficients, power_w):
    # `raw` is a pure-Python Horner loop; it must agree with numpy's
    # exactly, not approximately, or the solver's answers would move.
    fit = PerfPowerFit(coefficients=tuple(coefficients), min_power_w=0.0, max_power_w=1.0)
    assert fit.raw(power_w) == float(np.polyval(fit.coefficients, power_w))


class TestTrainingRun:
    def test_ingest_creates_projection(self):
        db = ProfilingDatabase()
        assert not db.has(*KEY)
        db.ingest_training_run(KEY, idle_power_w=88.0, samples=quad_samples())
        assert db.has(*KEY)
        assert KEY in db

    def test_fit_recovers_known_quadratic(self):
        db = ProfilingDatabase()
        fit = db.ingest_training_run(KEY, 88.0, quad_samples())
        assert fit.l == pytest.approx(-2.0, rel=0.01)
        assert fit.m == pytest.approx(600.0, rel=0.01)
        assert fit.n == pytest.approx(-20000.0, rel=0.01)

    def test_min_power_from_lowest_active_sample(self):
        db = ProfilingDatabase()
        fit = db.ingest_training_run(KEY, 88.0, quad_samples())
        assert fit.min_power_w == pytest.approx(100.0)

    def test_max_power_from_highest_sample(self):
        db = ProfilingDatabase()
        fit = db.ingest_training_run(KEY, 88.0, quad_samples())
        assert fit.max_power_w == pytest.approx(150.0)

    def test_too_few_samples_rejected(self):
        db = ProfilingDatabase()
        with pytest.raises(ConfigurationError):
            db.ingest_training_run(KEY, 88.0, [(100.0, 5.0)])

    def test_projection_miss_raises(self):
        db = ProfilingDatabase()
        with pytest.raises(DatabaseMissError):
            db.projection(KEY)

    def test_degree_degrades_with_few_distinct_levels(self):
        db = ProfilingDatabase(fit_kind=FitKind.QUADRATIC)
        samples = [(100.0, 500.0), (100.0, 510.0), (120.0, 700.0)]
        fit = db.ingest_training_run(KEY, 88.0, samples)
        assert fit.kind is FitKind.LINEAR


class TestOnlineUpdate:
    """Algorithm 1 lines 8-10."""

    def test_feedback_sharpens_fit(self):
        rng = np.random.default_rng(0)
        true = lambda p: -2.0 * p * p + 600.0 * p - 20000.0  # noqa: E731
        db = ProfilingDatabase()
        # Noisy, clustered training run (top of the range only).
        train = [(p, true(p) * (1 + 0.05 * rng.standard_normal())) for p in (135, 140, 145, 148, 150)]
        db.ingest_training_run(KEY, 88.0, train)
        initial_err = abs(db.projection(KEY).predict(105.0) - true(105.0))
        # Online feedback at the low-power operating points.
        for p in np.linspace(100, 150, 40):
            db.add_sample(KEY, float(p), true(float(p)))
        db.refit(KEY)
        final_err = abs(db.projection(KEY).predict(105.0) - true(105.0))
        assert final_err < initial_err

    def test_max_power_widens_with_feedback(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.add_sample(KEY, 160.0, 25000.0)
        fit = db.refit(KEY)
        assert fit.max_power_w == pytest.approx(160.0)

    def test_min_power_narrows_with_feedback(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.add_sample(KEY, 96.0, 2000.0)
        fit = db.refit(KEY)
        assert fit.min_power_w == pytest.approx(96.0)

    def test_zero_perf_samples_do_not_move_boundaries(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.add_sample(KEY, 50.0, 0.0)
        fit = db.refit(KEY)
        assert fit.min_power_w == pytest.approx(100.0)

    def test_ring_buffer_caps_history(self):
        db = ProfilingDatabase(max_samples=10)
        db.ingest_training_run(KEY, 88.0, quad_samples())
        for i in range(50):
            db.add_sample(KEY, 120.0 + i * 0.1, 15000.0)
        assert db.sample_count(KEY) == 10

    def test_sample_to_unknown_key_rejected(self):
        db = ProfilingDatabase()
        with pytest.raises(DatabaseMissError):
            db.add_sample(("x", "y"), 100.0, 10.0)

    def test_negative_sample_rejected(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        with pytest.raises(ConfigurationError):
            db.add_sample(KEY, -1.0, 10.0)


class TestQueries:
    def test_keys_and_len(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.ingest_training_run(("i5-4460", "SPECjbb"), 47.0, quad_samples(powers=(55, 60, 70, 75, 79)))
        assert len(db) == 2
        assert KEY in db.keys()

    def test_efficiency_query(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        fit = db.projection(KEY)
        assert db.efficiency(KEY) == pytest.approx(fit.efficiency())

    def test_fit_kinds(self):
        for kind in FitKind:
            db = ProfilingDatabase(fit_kind=kind)
            fit = db.ingest_training_run(KEY, 88.0, quad_samples())
            assert len(fit.coefficients) == kind.value + 1

    def test_bad_max_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfilingDatabase(max_samples=2)

    def test_ensure_entry_validates_envelope(self):
        db = ProfilingDatabase()
        with pytest.raises(ConfigurationError):
            db.ensure_entry(KEY, idle_power_w=100.0, max_power_w=90.0)


class TestSnapshotApi:
    @pytest.fixture
    def db(self):
        out = ProfilingDatabase()
        out.ingest_training_run(KEY, 88.0, quad_samples())
        out.ingest_training_run(
            ("i5-4460", "SPECjbb"), 47.0,
            [(55.0, 7300.0), (67.0, 12800.0), (80.0, 16600.0)],
        )
        return out

    def test_entry_is_immutable_view(self, db):
        entry = db.entry(KEY)
        assert entry.key == KEY
        assert entry.idle_power_w == 88.0
        assert entry.powers == tuple(p for p, _ in quad_samples())
        with pytest.raises(AttributeError):
            entry.idle_power_w = 1.0

    def test_entry_miss_raises(self, db):
        with pytest.raises(DatabaseMissError):
            db.entry(("Xeon-Phi", "SPECjbb"))

    def test_snapshot_insertion_order(self, db):
        keys = [entry.key for entry in db.snapshot()]
        assert keys == [KEY, ("i5-4460", "SPECjbb")]

    def test_restore_entry_round_trip(self, db):
        entry = db.entry(KEY)
        fresh = ProfilingDatabase()
        fresh.restore_entry(entry)
        restored = fresh.entry(KEY)
        assert restored == entry
        # The fit is installed verbatim, not refitted.
        assert restored.fit.coefficients == entry.fit.coefficients

    def test_restore_entry_replaces_existing(self, db):
        entry = db.entry(KEY)
        db.ingest_training_run(KEY, 88.0, quad_samples(powers=(101, 111, 121)))
        assert db.entry(KEY) != entry
        db.restore_entry(entry)
        assert db.entry(KEY) == entry

    def test_restore_rejects_bad_envelope(self, db):
        import dataclasses

        bad = dataclasses.replace(db.entry(KEY), max_power_w=10.0)
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().restore_entry(bad)

    def test_restore_rejects_mismatched_samples(self, db):
        import dataclasses

        bad = dataclasses.replace(db.entry(KEY), perfs=(1.0,))
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().restore_entry(bad)

    def test_restored_entry_keeps_learning(self, db):
        fresh = ProfilingDatabase()
        fresh.restore_entry(db.entry(KEY))
        fresh.add_sample(KEY, 140.0, 23000.0)
        assert len(fresh.entry(KEY).powers) == len(db.entry(KEY).powers) + 1
