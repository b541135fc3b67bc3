"""The "typical datacenter server rack power pattern" (paper Fig. 6, [13]).

Interactive datacenter demand follows a well-documented diurnal shape: a
morning ramp, a broad daytime plateau, an evening peak, and a deep
overnight trough.  The SIGMETRICS 2012 energy-storage study the paper
cites ([13]) reports rack utilisation swinging between roughly 55% and
100% of peak over a day.  :class:`DiurnalLoadPattern` reproduces that
shape as a smooth, deterministic function of time-of-day built from two
Gaussian bumps over a base level, normalised so the daily maximum is
exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.errors import TraceError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Golden-section step, 1/phi.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DiurnalLoadPattern:
    """Normalised diurnal load: ``at(t)`` in ``[trough, 1]``.

    Attributes
    ----------
    trough:
        Overnight minimum as a fraction of peak (default 0.55, per [13]).
    morning_peak_hour / evening_peak_hour:
        Centres of the two activity bumps.
    morning_width_h / evening_width_h:
        Gaussian widths of the bumps, in hours.
    evening_weight:
        Relative height of the evening bump vs the morning one (> 1 makes
        the evening the daily maximum, as in the paper's figure).
    weekend_scale:
        Multiplier applied on days 5 and 6 of each simulated week
        (Saturday/Sunday with day 0 = Monday); production interactive
        traffic drops at weekends.  1.0 (default) disables the weekly
        structure, matching the paper's single-day pattern.
    """

    trough: float = 0.55
    morning_peak_hour: float = 10.0
    evening_peak_hour: float = 20.0
    morning_width_h: float = 3.0
    evening_width_h: float = 2.5
    evening_weight: float = 1.15
    weekend_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trough < 1.0:
            raise TraceError(f"trough must be in [0, 1), got {self.trough}")
        if self.morning_width_h <= 0 or self.evening_width_h <= 0:
            raise TraceError("bump widths must be positive")
        if self.evening_weight <= 0:
            raise TraceError("evening weight must be positive")
        if not 0.0 < self.weekend_scale <= 1.0:
            raise TraceError("weekend scale must be in (0, 1]")

    def _raw(self, hour: float) -> float:
        """Un-normalised bump mixture at ``hour`` (cyclic distance)."""
        # Cyclic hour distances, so the curve is continuous at midnight.
        # Inlined: this runs once per load sample.
        dm = abs(hour - self.morning_peak_hour)
        if dm > 12.0:
            dm = 24.0 - dm
        de = abs(hour - self.evening_peak_hour)
        if de > 12.0:
            de = 24.0 - de
        return math.exp(-0.5 * (dm / self.morning_width_h) ** 2) + (
            self.evening_weight * math.exp(-0.5 * (de / self.evening_width_h) ** 2)
        )

    @cached_property
    def _peak(self) -> tuple[float, float]:
        """``(hour, raw value)`` of the mixture's daily maximum.

        The best of a 0.1-hour sampling (and the two bump centres) is
        refined by a golden-section maximisation of :meth:`_raw` within
        ±0.1 h of it: the sampling alone can miss the maximiser by up to
        0.05 h and put ``at()`` up to 5e-5 above 1.  The pattern is
        frozen, so this runs once per instance.
        """
        start = max(
            [tenth / 10.0 for tenth in range(240)]
            + [self.morning_peak_hour, self.evening_peak_hour],
            key=self._raw,
        )
        lo, hi = start - 0.1, start + 0.1
        c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
        fc, fd = self._raw(c), self._raw(d)
        while hi - lo > 1e-9:
            if fc >= fd:
                hi, d, fd = d, c, fc
                c = hi - _INV_PHI * (hi - lo)
                fc = self._raw(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INV_PHI * (hi - lo)
                fd = self._raw(d)
        value, hour = max((self._raw(start), start), (fc, c), (fd, d))
        return hour % 24.0, value

    def at(self, time_s: float) -> float:
        """Load fraction at simulation time ``time_s`` (wraps weekly)."""
        hour = (time_s % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        raw = self._raw(hour)
        value = self.trough + (1.0 - self.trough) * raw / self._peak[1]
        day_of_week = int(time_s // SECONDS_PER_DAY) % 7
        if day_of_week >= 5:
            value *= self.weekend_scale
        return value

    def __call__(self, time_s: float) -> float:
        return self.at(time_s)

    def daily_peak_hour(self) -> float:
        """Hour of day at which the pattern attains its maximum."""
        return self._peak[0]
