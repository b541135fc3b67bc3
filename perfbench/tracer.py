"""In-memory span recorder wrapped around the program's layer entry points.

The benchmark never edits the program: :func:`install` replaces public
functions of each layer module with thin wrappers, from this file, that
record a span (name, start, end, parent, thread) per call.  Spans stay
in memory while the workload runs; :meth:`Recorder.summary` turns them
into the per-layer metrics and :meth:`Recorder.dump` writes them out at
the end.

Names follow ``<module>.<function>``: ``solver.solve``,
``controller.run_epoch``, ``traces.diurnal_at`` and so on.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

from stats import self_time, union_length


class Recorder:
    """Collects spans per thread; parents are the enclosing open span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: dict[int, dict[str, Any]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.parents.append(stack[-1] if stack else -1)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already finished root span."""
        with self._lock:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(-1)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(index)
        return kids

    def totals(self) -> dict[str, dict[str, float]]:
        """``{name: {calls, total_s, self_s}}`` over every closed span."""
        kids = self.children()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, name in enumerate(self.names):
            start, end = self.starts[index], self.ends[index]
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_time(
                start, end, [(self.starts[k], self.ends[k]) for k in kids.get(index, ())]
            )
        return dict(out)

    def coverage(self, begin: float, end: float) -> float:
        """Share of ``[begin, end]`` covered by root spans of any thread."""
        roots = [
            (max(begin, self.starts[i]), min(end, self.ends[i]))
            for i, parent in enumerate(self.parents)
            if parent < 0 and self.ends[i] > begin and self.starts[i] < end
        ]
        return union_length(roots) / (end - begin)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (start/end relative to the first)."""
        origin = min(self.starts) if self.starts else 0.0
        with open(path, "w") as out:
            for index, name in enumerate(self.names):
                record = {
                    "id": index,
                    "name": name,
                    "parent": self.parents[index],
                    "start_us": round((self.starts[index] - origin) * 1e6, 1),
                    "end_us": round((self.ends[index] - origin) * 1e6, 1),
                    **self.tags.get(index, {}),
                }
                out.write(json.dumps(record) + "\n")


def _wrap_function(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _wrap_attr(recorder: Recorder, owner: Any, attr: str, name: str) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap_function(recorder, name, raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(_wrap_function(recorder, name, raw.__func__)))
    else:
        setattr(owner, attr, _wrap_function(recorder, name, raw))


def _wrap_solver(recorder: Recorder, solver_cls: Any) -> None:
    """``PARSolver.solve`` with its outcome tagged on the span.

    Tags: group count ``k``, whether the memo cache answered (``hit``,
    read from the instance's own counter), the winning ``method``, and
    whether the SLSQP polish ran (every miss whose best score is
    positive, when the instance polishes).
    """
    solve = solver_cls.__dict__["solve"]

    @functools.wraps(solve)
    def wrapper(self, groups, total_power_w):
        hits = self.cache_hits
        index = recorder.open("solver.solve")
        try:
            solution = solve(self, groups, total_power_w)
        finally:
            recorder.close(index)
        hit = self.cache_hits > hits
        recorder.tags[index] = {
            "k": len(groups),
            "hit": hit,
            "method": "cached" if hit else solution.method,
            "polished": (not hit) and self.scipy_polish and solution.expected_perf > 0.0,
        }
        return solution

    solver_cls.solve = wrapper


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.sim.engine as engine
    import repro.traces.nrel as nrel
    from repro.core.controller import GreenHeteroController
    from repro.core.database import ProfilingDatabase
    from repro.core.policies import ManualPolicy
    from repro.core.predictor import HoltPredictor
    from repro.core.scheduler import AdaptiveScheduler
    from repro.core.solver import PARSolver
    from repro.power.pdu import PDU
    from repro.shift.planner import ShiftPlanner
    from repro.shift.runtime import ShiftRuntime
    from repro.sim.engine import Simulation
    from repro.traces.datacenter_load import DiurnalLoadPattern
    from repro.verify.auditor import InvariantAuditor

    synthesize = _wrap_function(recorder, "traces.synthesize", nrel.synthesize_irradiance)
    nrel.synthesize_irradiance = synthesize
    engine.synthesize_irradiance = synthesize  # imported by name there
    for owner, attr, name in (
        (DiurnalLoadPattern, "at", "traces.diurnal_at"),
        (Simulation, "assemble", "sim.assemble"),
        (Simulation, "step", "sim.step"),
        (HoltPredictor, "fit", "predictor.fit"),
        (ManualPolicy, "allocate", "policies.manual"),
        (PDU, "supply", "pdu.supply"),
        (AdaptiveScheduler, "plan_sources", "scheduler.plan_sources"),
        (ProfilingDatabase, "refit", "database.refit"),
        (InvariantAuditor, "audit", "verify.audit"),
        (GreenHeteroController, "run_epoch", "controller.run_epoch"),
        (ShiftPlanner, "plan", "shift.plan"),
        (ShiftRuntime, "execute_epoch", "shift.execute_epoch"),
    ):
        _wrap_attr(recorder, owner, attr, name)
    _wrap_solver(recorder, PARSolver)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _per_call(total_s: float, calls: float, scale: float) -> float:
    return total_s * scale / calls if calls else 0.0


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics one traced process contributes."""
    totals = recorder.totals()

    def get(name: str) -> dict[str, float]:
        return totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out: dict[str, float] = {}
    for name, stat, key, scale in (
        ("traces.diurnal_at", "us_per_call", "total_s", 1e6),
        ("predictor.fit", "ms_per_call", "total_s", 1e3),
        ("policies.manual", "ms_per_call", "total_s", 1e3),
        ("pdu.supply", "us_per_call", "total_s", 1e6),
        ("scheduler.plan_sources", "us_per_call", "total_s", 1e6),
        ("database.refit", "us_per_call", "total_s", 1e6),
        ("verify.audit", "us_per_call", "total_s", 1e6),
        ("controller.run_epoch", "self_us", "self_s", 1e6),
        ("shift.plan", "ms_per_call", "total_s", 1e3),
        ("shift.execute_epoch", "self_us", "self_s", 1e6),
    ):
        entry = get(name)
        out[f"{name}.{stat}"] = _per_call(entry[key], entry["calls"], scale)
    for name in ("traces.diurnal_at", "predictor.fit", "database.refit", "shift.plan",
                 "solver.solve"):
        out[f"{name}.calls"] = get(name)["calls"]
    out["traces.synthesize.ms"] = get("traces.synthesize")["total_s"] * 1e3
    out["sim.assemble.self_ms"] = get("sim.assemble")["self_s"] * 1e3

    solves = [i for i, name in enumerate(recorder.names) if name == "solver.solve"]
    groups: dict[str, list[float]] = defaultdict(list)
    methods: dict[str, int] = defaultdict(int)
    polished = 0
    for i in solves:
        tag = recorder.tags.get(i)
        if tag is None:
            continue
        duration = recorder.ends[i] - recorder.starts[i]
        groups[f"k{tag['k']}"].append(duration)
        groups["hit" if tag["hit"] else "miss"].append(duration)
        methods[tag["method"]] += 1
        polished += tag["polished"]
    for key in ("k2", "k3", "hit", "miss"):
        values = groups.get(key, [])
        out[f"solver.solve.us_per_call.{key}"] = _per_call(sum(values), len(values), 1e6)
    lookups = len(groups.get("hit", [])) + len(groups.get("miss", []))
    out["solver.cache_hit_ratio"] = len(groups.get("hit", [])) / lookups if lookups else 0.0
    for method in ("kkt", "grid", "slsqp", "cached"):
        out[f"solver.method.{method}"] = methods.get(method, 0)
    out["solver.polish_win_ratio"] = methods.get("slsqp", 0) / polished if polished else 0.0
    return out
