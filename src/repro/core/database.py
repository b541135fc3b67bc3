"""The performance-power profiling database (paper Fig. 7, Algorithm 1).

The database is the scheduler's only knowledge of the heterogeneous
hardware: for every (server configuration, workload type) pair it keeps
the observed (power, performance) samples and a fitted relational
equation ``Perf = f(Power)``.

* **Training run** — the first time a pair is seen, the server runs for
  ~10 minutes with ample power under the ondemand governor, and a
  (power, perf) sample is recorded every 2 minutes (Section IV-B.2).
  Those few samples seed the first curve fit.
* **Curve fitting** — the paper fits a *quadratic* within the power
  demand range: cheap for the solver, and accurate enough because the
  true response is concave with a plateau at the workload's maximum
  draw.  A linear fit is kept for the ablation bench; the PAR solver is
  exact for both families.
* **Online update (Algorithm 1)** — at every subsequent epoch the
  feedback samples from actual execution are appended and the equation
  is re-fit from both new and old profiling data, so the projection
  sharpens around the operating points the solver actually visits.

Entries also record the pair's power envelope (idle power and maximum
observed draw): predictions are zero below idle and plateau beyond the
maximum draw, the two boundary behaviours Section IV-B.3 specifies.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DatabaseMissError

#: (platform name, workload name) — the database key.
PairKey = tuple[str, str]


class FitKind(enum.Enum):
    """Polynomial degree of the relational equation (quadratic in the paper).

    The PAR solver's KKT enumeration is exact for exactly these families.
    """

    LINEAR = 1
    QUADRATIC = 2


@dataclass(frozen=True)
class PerfPowerFit:
    """A fitted relational equation ``Perf = f(Power)`` with its validity box.

    Attributes
    ----------
    coefficients:
        Polynomial coefficients, highest power first (``np.polyval``
        convention).
    min_power_w:
        Below this (the server's idle power) performance is zero.
    max_power_w:
        Beyond this (the workload's maximum draw) performance plateaus.
    kind:
        The polynomial family used.
    n_samples:
        How many profiling samples produced this fit.
    """

    coefficients: tuple[float, ...]
    min_power_w: float
    max_power_w: float
    kind: FitKind = FitKind.QUADRATIC
    n_samples: int = 0

    def __post_init__(self) -> None:
        if not 1 <= len(self.coefficients) <= 3:
            raise ConfigurationError(
                "a fit is a polynomial of degree at most 2 (linear or quadratic)"
            )
        if self.min_power_w < 0:
            raise ConfigurationError("min power must be non-negative")
        if self.max_power_w <= self.min_power_w:
            raise ConfigurationError("max power must exceed min power")

    # Quadratic convenience accessors (the paper's l, m, n of Eq. 6-7).
    @property
    def l(self) -> float:  # noqa: E743 - paper notation
        """Quadratic coefficient (0 for a linear fit)."""
        pad = 3 - len(self.coefficients)
        return 0.0 if pad > 0 else self.coefficients[-3]

    @property
    def m(self) -> float:
        pad = 2 - len(self.coefficients)
        return 0.0 if pad > 0 else self.coefficients[-2]

    @property
    def n(self) -> float:
        return self.coefficients[-1]

    def raw(self, power_w: float) -> float:
        """Unclamped polynomial value (internal solver use).

        Horner's rule from 0.0, the same float operations in the same
        order as ``np.polyval``, so the result is bit-identical to it
        without numpy's per-call overhead on a scalar.
        """
        value = 0.0
        for c in self.coefficients:
            value = value * power_w + c
        return float(value)

    def predict(self, power_w: float) -> float:
        """Projected performance at an allocated ``power_w`` (Section IV-B.3).

        Zero below the idle boundary, plateau above the maximum draw,
        clamped at zero everywhere (a fitted parabola can dip negative
        near the boundary of sparse training data).
        """
        if power_w < self.min_power_w:
            return 0.0
        clamped = min(power_w, self.max_power_w)
        return max(0.0, self.raw(clamped))

    def derivative(self, power_w: float) -> float:
        """d(perf)/d(power) of the unclamped polynomial."""
        deriv = np.polyder(np.asarray(self.coefficients))
        return float(np.polyval(deriv, power_w))

    def efficiency(self) -> float:
        """Throughput per watt at the maximum draw (GreenHetero-p's sort key)."""
        return self.predict(self.max_power_w) / self.max_power_w


@dataclass
class _Entry:
    """Mutable per-pair record: envelope, samples, and the current fit."""

    idle_power_w: float
    max_power_w: float
    #: Lowest power ever observed to produce throughput — the empirical
    #: power-on boundary (below it the projection is zero).
    min_active_power_w: float = float("inf")
    powers: deque[float] = field(default_factory=deque)
    perfs: deque[float] = field(default_factory=deque)
    fit: PerfPowerFit | None = None


@dataclass(frozen=True)
class DatabaseEntry:
    """Immutable public view of one (platform, workload) record.

    The snapshot carries everything a serialiser or checkpointer needs —
    envelope, retained samples, and the current fit — without exposing
    the database's mutable internals.  :meth:`ProfilingDatabase.entry`
    produces these and :meth:`ProfilingDatabase.restore_entry` rebuilds a
    record from one bit-for-bit.

    Attributes
    ----------
    key:
        (platform, workload).
    idle_power_w / max_power_w:
        The pair's power envelope.
    min_active_power_w:
        Empirical power-on boundary; ``inf`` when no active sample has
        ever been observed.
    powers / perfs:
        The retained profiling samples, oldest first.
    fit:
        The current relational equation, or ``None`` before any refit.
    """

    key: PairKey
    idle_power_w: float
    max_power_w: float
    min_active_power_w: float
    powers: tuple[float, ...]
    perfs: tuple[float, ...]
    fit: PerfPowerFit | None


class ProfilingDatabase:
    """Performance-power projections for every pair ever executed.

    Parameters
    ----------
    fit_kind:
        Polynomial family (paper: quadratic).
    max_samples:
        Ring-buffer cap on retained samples per pair.  Training samples
        plus the most recent feedback; old feedback ages out, which keeps
        re-fitting O(1) per epoch.
    """

    def __init__(self, fit_kind: FitKind = FitKind.QUADRATIC, max_samples: int = 256) -> None:
        if max_samples < 4:
            raise ConfigurationError("max_samples must be at least 4")
        self.fit_kind = fit_kind
        self.max_samples = max_samples
        self._entries: dict[PairKey, _Entry] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __contains__(self, key: PairKey) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.fit is not None

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> tuple[PairKey, ...]:
        return tuple(self._entries)

    def has(self, platform: str, workload: str) -> bool:
        """Algorithm 1 line 3: does a relational equation exist?"""
        return (platform, workload) in self

    def sample_count(self, key: PairKey) -> int:
        entry = self._entries.get(key)
        return 0 if entry is None else len(entry.powers)

    # ------------------------------------------------------------------
    # Snapshots (the public serialisation surface)
    # ------------------------------------------------------------------
    def entry(self, key: PairKey) -> DatabaseEntry:
        """Immutable snapshot of one pair's record.

        Raises
        ------
        DatabaseMissError
            When the pair has never been seen (no :meth:`ensure_entry`).
        """
        entry = self._entries.get(key)
        if entry is None:
            raise DatabaseMissError(*key)
        return DatabaseEntry(
            key=key,
            idle_power_w=entry.idle_power_w,
            max_power_w=entry.max_power_w,
            min_active_power_w=entry.min_active_power_w,
            powers=tuple(entry.powers),
            perfs=tuple(entry.perfs),
            fit=entry.fit,
        )

    def snapshot(self) -> tuple[DatabaseEntry, ...]:
        """Snapshots of every record, in insertion order."""
        return tuple(self.entry(key) for key in self._entries)

    def restore_entry(self, snapshot: DatabaseEntry) -> None:
        """Rebuild one record exactly as captured by :meth:`entry`.

        The snapshot's samples, envelope, and fit are installed verbatim
        (no refit), so a save → restore round trip is bit-identical.  An
        existing record under the same key is replaced.
        """
        if snapshot.max_power_w <= snapshot.idle_power_w:
            raise ConfigurationError(
                f"{snapshot.key}: max power ({snapshot.max_power_w}) must "
                f"exceed idle ({snapshot.idle_power_w})"
            )
        if len(snapshot.powers) != len(snapshot.perfs):
            raise ConfigurationError(
                f"{snapshot.key}: powers and perfs must have equal length"
            )
        self._entries[snapshot.key] = _Entry(
            idle_power_w=float(snapshot.idle_power_w),
            max_power_w=float(snapshot.max_power_w),
            min_active_power_w=float(snapshot.min_active_power_w),
            powers=deque(float(p) for p in snapshot.powers),
            perfs=deque(float(p) for p in snapshot.perfs),
            fit=snapshot.fit,
        )

    # ------------------------------------------------------------------
    # Population and updating
    # ------------------------------------------------------------------
    def ensure_entry(self, key: PairKey, idle_power_w: float, max_power_w: float) -> None:
        """Create the pair's record with its measured power envelope."""
        if max_power_w <= idle_power_w:
            raise ConfigurationError(
                f"{key}: max power ({max_power_w}) must exceed idle ({idle_power_w})"
            )
        if key not in self._entries:
            self._entries[key] = _Entry(idle_power_w=idle_power_w, max_power_w=max_power_w)

    def add_sample(self, key: PairKey, power_w: float, perf: float) -> None:
        """Append one observed (power, performance) point.

        The entry must have been created with :meth:`ensure_entry` first
        (the Monitor knows the envelope before any sample arrives).
        """
        entry = self._entries.get(key)
        if entry is None:
            raise DatabaseMissError(*key)
        if power_w < 0 or perf < 0:
            raise ConfigurationError("samples must be non-negative")
        entry.powers.append(float(power_w))
        entry.perfs.append(float(perf))
        while len(entry.powers) > self.max_samples:
            entry.powers.popleft()
            entry.perfs.popleft()
        # Feedback can reveal a wider active power range than the initial
        # envelope guess; track both boundaries so the projection's
        # power-on cliff and plateau follow reality.
        if perf > 0:
            if power_w > entry.max_power_w:
                entry.max_power_w = float(power_w)
            if power_w < entry.min_active_power_w:
                entry.min_active_power_w = float(power_w)

    def refit(self, key: PairKey) -> PerfPowerFit:
        """Reconstruct the relational equation from all retained samples
        (Algorithm 1 line 9).

        Falls back to a lower polynomial degree when there are too few
        distinct power levels to identify the requested one.
        """
        entry = self._entries.get(key)
        if entry is None or not entry.powers:
            raise DatabaseMissError(*key)
        powers = np.asarray(entry.powers)
        perfs = np.asarray(entry.perfs)
        # Only points inside the active range inform the curve; zero-perf
        # points below idle would drag the parabola down artificially.
        mask = perfs > 0
        if mask.sum() < 2:
            raise DatabaseMissError(*key)
        x, y = powers[mask], perfs[mask]
        degree = min(self.fit_kind.value, max(1, len(np.unique(np.round(x, 6))) - 1))
        coeffs = np.polyfit(x, y, degree)
        min_power = (
            entry.min_active_power_w
            if np.isfinite(entry.min_active_power_w)
            else entry.idle_power_w
        )
        fit = PerfPowerFit(
            coefficients=tuple(float(c) for c in coeffs),
            min_power_w=min_power,
            max_power_w=entry.max_power_w,
            kind=FitKind(degree),
            n_samples=int(mask.sum()),
        )
        entry.fit = fit
        return fit

    def ingest_training_run(
        self,
        key: PairKey,
        idle_power_w: float,
        samples: list[tuple[float, float]],
    ) -> PerfPowerFit:
        """Algorithm 1 lines 4-5: absorb a training run and fit the pair.

        Parameters
        ----------
        key:
            (platform, workload).
        idle_power_w:
            The platform's measured idle power (the zero boundary).
        samples:
            (power, perf) points collected every 2 minutes during the
            ~10-minute training run.
        """
        if len(samples) < 2:
            raise ConfigurationError("a training run needs at least 2 samples")
        max_power = max(p for p, _ in samples)
        self.ensure_entry(key, idle_power_w, max_power)
        for power_w, perf in samples:
            self.add_sample(key, power_w, perf)
        return self.refit(key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def projection(self, key: PairKey) -> PerfPowerFit:
        """The current relational equation for ``key``.

        Raises
        ------
        DatabaseMissError
            When no training run has populated the pair yet (Algorithm 1
            line 3 takes the training branch in that case).
        """
        entry = self._entries.get(key)
        if entry is None or entry.fit is None:
            raise DatabaseMissError(*key)
        return entry.fit

    def efficiency(self, key: PairKey) -> float:
        """Peak throughput-per-watt projection (GreenHetero-p's ordering)."""
        return self.projection(key).efficiency()
