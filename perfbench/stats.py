"""Measurement helpers shared by every workload of the benchmark.

Pure functions over plain numbers, so they are unit-tested in
``perfbench/tests`` without running the program:

* :func:`tail_percentile` — the highest percentile a sample supports
  (at least ``beyond`` samples strictly above it), with the sample count;
* :func:`due_latencies` — open-loop latency, timed from each request's
  *due* time rather than its send time, and :func:`replay_minima`, its
  host-noise filter over replays of one schedule;
* :func:`self_time` / :func:`union_length` — a span's duration minus the
  part of its interval covered by its children;
* :func:`rescale` — host times scaled to a reference host speed, from
  the probes of :mod:`speed` taken beside them.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Iterable, Sequence

#: The percentiles a tail is reported at, highest first.
TAIL_LADDER: tuple[float, ...] = (99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of a sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def supported_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest percentile on :data:`TAIL_LADDER` with at least ``beyond``
    of ``n`` samples strictly above its rank; ``None`` when not even the
    median is supported."""
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= beyond:
            return pct
    return None


def tail_percentile(values: Iterable[float], beyond: int = 10) -> tuple[float, float, int]:
    """``(pct, value, n)``: the highest supported percentile (99 at
    most), its value, and the sample count.

    Raises ``ValueError`` when the sample is too small to support even
    the median with ``beyond`` samples above it.
    """
    ordered = sorted(values)
    pct = supported_percentile(len(ordered), beyond)
    if pct is None:
        raise ValueError(
            f"{len(ordered)} samples support no percentile with {beyond} beyond it"
        )
    return pct, nearest_rank(ordered, pct), len(ordered)


def due_latencies(due: Sequence[float], done: Sequence[float | None]) -> list[float | None]:
    """Open-loop latency of each request, from its due time.

    ``done[i]`` is when request ``i``'s response arrived, ``None`` when it
    never did (a failure, so its latency stays ``None``).  Timing from
    the due time instead of the send time charges a stalled generator or
    a stalled connection to every request it delayed.
    """
    if len(due) != len(done):
        raise ValueError("due and done must align")
    return [None if end is None else end - start for start, end in zip(due, done)]


def replay_minima(replays: Sequence[Sequence[float | None]]) -> list[float | None]:
    """Each request's lowest latency over replays of one schedule.

    Host interference only ever adds latency, while the program's own
    costs recur in every replay, so the per-request minimum keeps the
    latter and drops the former (the per-epoch minima estimator of
    ``repro.obs.bench``, per request).  A request that failed in any
    replay stays failed (``None``).
    """
    if len({len(r) for r in replays}) > 1:
        raise ValueError("replays must cover the same schedule")
    return [
        None if any(w is None for w in waits) else min(waits) for waits in zip(*replays)
    ]


def backlog_grew(latencies: Sequence[float | None], limit_s: float, tail: float = 0.2) -> bool:
    """Whether the last ``tail`` share of a schedule waited past the limit.

    A rate the system cannot sustain queues work, so the median due-time
    latency of the final requests exceeds the limit even when the p99 of
    the whole phase does not yet show it.  Failed requests (``None``)
    count as missing the limit.
    """
    n = len(latencies)
    window = [math.inf if w is None else w for w in latencies[int(n * (1.0 - tail)):]]
    return bool(window) and statistics.median(window) > limit_s


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first, so a child that
    outlives its parent (an executor thread finishing late) never drives
    self time negative.
    """
    clipped = [
        (max(start, c0), min(end, c1)) for c0, c1 in children if c1 > start and c0 < end
    ]
    return (end - start) - union_length(clipped)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rescale(
    stamps: Sequence[float],
    times: Sequence[float],
    probe_stamps: Sequence[float],
    probe_costs: Sequence[float],
    reference: float,
) -> list[float]:
    """Each time scaled by ``reference / probe cost`` around its stamp.

    ``stamps[i]`` is when ``times[i]`` was measured; the probe cost there
    is the mean of the last probe at or before it and the first after it
    (the one probe on that side when the other has none).  Probe stamps
    must be sorted.
    """
    if len(stamps) != len(times):
        raise ValueError("stamps and times must align")
    if not probe_stamps or len(probe_stamps) != len(probe_costs):
        raise ValueError("need at least one probe, with a cost for each stamp")
    out = []
    for stamp, value in zip(stamps, times):
        after = bisect.bisect_right(probe_stamps, stamp)
        near = [probe_costs[j] for j in (after - 1, after) if 0 <= j < len(probe_costs)]
        out.append(value * reference * len(near) / sum(near))
    return out
