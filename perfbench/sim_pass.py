"""One pass of a simulation workload, in a fresh interpreter.

Usage (the runner spawns it; ``SPAWNED`` is ``time.monotonic()`` in the
parent just before the spawn, so set-up time includes interpreter start):

    python3 perfbench/sim_pass.py WORKLOAD SEED SPAWNED [SPANS_FILE]

It sets up every run of the workload (traces, then every
``Simulation.assemble``), steps them all epoch by epoch, does both again
(``ROUNDS`` in all), and prints one JSON object: the first round's
set-up time, per-epoch host latencies of every round (all epochs, and
GreenHetero's own), a digest of every round's ``EpochRecord`` streams,
the invariant-audit failures, the simulated outcomes and the peak RSS.
Host times are scaled to the reference host speed by the probes of
:mod:`speed`: set-up time by one probe at the script's start and one
after set-up, each epoch by the probes around it.  With ``SPANS_FILE``
the layer entry points are wrapped by :mod:`tracer`, the spans are
written there and the per-layer metrics join the output.
"""

from __future__ import annotations

import time

SCRIPT_START = time.monotonic()
SCRIPT_START_PC = time.perf_counter()

from speed import REFERENCE_PROBE_S, Speedometer, probe  # noqa: E402

START_PROBE = probe()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from repro.core.policies import make_policy  # noqa: E402
from repro.power.battery import BatteryBank  # noqa: E402
from repro.shift import bench as shift_bench  # noqa: E402
from repro.shift.planner import ShiftPlanner  # noqa: E402
from repro.shift.runtime import ShiftRuntime  # noqa: E402
from repro.sim.clock import SimClock  # noqa: E402
from repro.sim.engine import Simulation  # noqa: E402
from repro.sim.experiment import ExperimentConfig, ExperimentResult  # noqa: E402
from repro.traces.nrel import Weather  # noqa: E402
from repro.units import SECONDS_PER_DAY  # noqa: E402
from repro.workloads import FIG9_WORKLOADS  # noqa: E402
from stats import geomean, rescale  # noqa: E402

IMPORTED = time.monotonic()
IMPORTED_PC = time.perf_counter()

WORKLOADS = ("day-dynamic", "sweep-constrained")
#: Times an untraced pass sets up and steps the whole workload.
ROUNDS = 2


@dataclass
class Stream:
    """One assembled single-policy run and what it produced."""

    label: str
    sim: Simulation
    stamps: list[float] = field(default_factory=list)
    epoch_ms: list[float] = field(default_factory=list)
    failed: int = 0


def configs_for(workload: str, seed: int) -> list:
    """The experiment configs a workload replays, every policy each."""
    if workload == "day-dynamic":
        return [
            ExperimentConfig.fig8_default(seed=seed),
            ExperimentConfig.fig11_low_trace(seed=seed),
        ]
    return [ExperimentConfig.insufficient_supply(w, seed=seed) for w in FIG9_WORKLOADS] + [
        ExperimentConfig.combination_sweep("Comb5", workload="Streamcluster", seed=seed),
        ExperimentConfig.combination_sweep("Comb6", workload="Srad_v1", seed=seed),
    ]


def assemble_policy(config, policy: str, trace):
    """The runner's serial path (one policy of one config), set-up only."""
    return Simulation.assemble(
        policy=make_policy(policy),
        rack=config.build_rack(),
        weather=config.weather,
        clock=config.build_clock(),
        solar_scale=config.solar_scale,
        grid_budget_w=config.grid_budget_w,
        diurnal_load=config.diurnal_load,
        seed=config.seed,
        fit_kind=config.fit_kind,
        trace=trace,
        supply_fractions=config.supply_fractions,
        budget_reference_w=config.budget_reference_w,
        strict=config.strict,
    )


def assemble_shift_arms(seed: int) -> dict[str, Simulation]:
    """Both arms of the bundled ``repro.shift.bench`` scenario, set up."""
    clock = SimClock(start_s=SECONDS_PER_DAY, duration_s=SECONDS_PER_DAY)
    trace = Simulation.default_trace(clock, Weather.HIGH, seed)
    arms = {}
    for policy in ("shift", "no_shift"):
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"),
            rack=shift_bench.build_bench_rack(),
            weather=Weather.HIGH,
            clock=SimClock(start_s=clock.start_s, duration_s=clock.duration_s),
            seed=seed,
            trace=trace,
            battery=BatteryBank(count=shift_bench.BENCH_BATTERY_COUNT),
        )
        runtime = ShiftRuntime(
            planner=ShiftPlanner(
                policy=policy,
                grid_penalty_per_kwh=shift_bench.BENCH_GRID_PENALTY_PER_KWH,
                battery_penalty_per_kwh=shift_bench.BENCH_BATTERY_PENALTY_PER_KWH,
            )
        )
        capacity = runtime.batch_capacity_w(sim.controller)
        for job in shift_bench.bench_jobs(clock, capacity, n_jobs=6):
            runtime.submit(job)
        sim.shift = runtime
        arms[policy] = sim
    return arms


def step_all(stream: Stream, digest, speed: Speedometer) -> None:
    sim = stream.sim
    while len(sim.log) < sim.clock.n_epochs:
        before = len(sim.auditor.violations) if sim.auditor is not None else 0
        speed.tick()
        start = time.perf_counter()
        record = sim.step()
        stream.stamps.append(start)
        stream.epoch_ms.append((time.perf_counter() - start) * 1e3)
        if len(sim.auditor.violations) > before:
            stream.failed += 1
        # The dataclass repr spells every field exactly (floats round-trip).
        digest.update(repr(record).encode())


def outcomes(workload: str, configs, sims: dict, arms: dict) -> dict[str, float]:
    """GreenHetero/Uniform gains (geometric mean over configs) and energy."""
    results = []
    for i, config in enumerate(configs):
        result = ExperimentResult(config=config)
        for policy in config.policies:
            result.logs[policy] = sims[(i, policy)].log
        results.append(result)
    out = {
        "perf_gain": geomean([r.gain("GreenHetero") for r in results]),
        "epu_gain": geomean([r.gain("GreenHetero", "epu") for r in results]),
    }
    if workload == "day-dynamic":
        wh = sum(r.summary("GreenHetero").grid_energy_wh for r in results)
        wh += arms["shift"].log.grid_energy_wh(arms["shift"].clock.epoch_s)
    else:
        # The sweep disables the grid; the constrained supply that stands
        # in for it delivers through the battery port.
        wh = sum(
            float(r.log("GreenHetero").series("battery_to_load_w").sum())
            * r.config.epoch_s / 3600.0
            for r in results
        )
    out["grid_kwh"] = wh / 1000.0
    return out


def run_round(workload: str, seed: int, recorder: tracer.Recorder | None) -> dict:
    """Set up every run of the workload, step them all, compute outcomes."""
    configs = configs_for(workload, seed)
    sims: dict = {}
    for i, config in enumerate(configs):
        trace = Simulation.default_trace(config.build_clock(), config.weather, config.seed)
        for policy in config.policies:
            sims[(i, policy)] = assemble_policy(config, policy, trace)
    arms = assemble_shift_arms(seed) if workload == "day-dynamic" else {}
    setup_done = time.monotonic()

    streams = [Stream(f"{configs[i].workload}/{configs[i].weather.name}/{p}", s)
               for (i, p), s in sims.items()]
    streams += [Stream(f"shift/{arm}", sim) for arm, sim in arms.items()]
    digests = {}
    speed = Speedometer()
    speed.take()
    for stream in streams:
        digest = hashlib.sha256()
        step_all(stream, digest, speed)
        digests[stream.label] = digest.hexdigest()
    speed.take()
    for stream in streams:
        stream.epoch_ms = rescale(stream.stamps, stream.epoch_ms, speed.stamps,
                                  speed.costs, REFERENCE_PROBE_S)

    if recorder:
        with recorder.span("analysis.outcomes"):
            result = outcomes(workload, configs, sims, arms)
    else:
        result = outcomes(workload, configs, sims, arms)
    return {
        "setup_done": setup_done,
        "setup_probe": speed.costs[0],
        "epoch_ms": [ms for s in streams for ms in s.epoch_ms],
        # GreenHetero's own control decisions (the shift arms run it too);
        # the baseline policies only feed the gains.
        "decision_ms": [
            ms for s in streams if s.label.endswith("/GreenHetero") or s.label.startswith("shift/")
            for ms in s.epoch_ms
        ],
        "failed": sum(s.failed for s in streams),
        "digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        **result,
    }


def main(argv: list[str]) -> int:
    workload, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown simulation workload {workload!r}")
    recorder = tracer.Recorder() if spans_path else None
    if recorder:
        # Everything since this script started, including its own imports.
        recorder.add("setup.import", SCRIPT_START_PC, IMPORTED_PC)
        tracer.install(recorder)

    first = run_round(workload, seed, recorder)
    # Untraced passes step everything again in the same interpreter: more
    # samples for the per-epoch minima at a fraction of a fresh pass's cost.
    rounds = [first] + [run_round(workload, seed, None) for _ in range(ROUNDS - 1 if not recorder else 0)]
    payload = {
        "setup_s": (first["setup_done"] - spawned) * REFERENCE_PROBE_S
        / ((START_PROBE + first["setup_probe"]) / 2.0),
        "import_s": IMPORTED - SCRIPT_START,
        "epochs": sum(len(r["epoch_ms"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "epoch_ms": [r["epoch_ms"] for r in rounds],
        "decision_ms": [r["decision_ms"] for r in rounds],
        "digests": [r["digest"] for r in rounds],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{key: [r[key] for r in rounds] for key in ("perf_gain", "epu_gain", "grid_kwh")},
    }
    if recorder:
        layers = tracer.layer_metrics(recorder)
        layers["setup.import_s"] = payload["import_s"]
        layers["trace.span_coverage"] = recorder.coverage(SCRIPT_START_PC, time.perf_counter())
        payload["layers"] = layers
        recorder.dump(spans_path)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
