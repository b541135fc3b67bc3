"""The repository's benchmark: three workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload day-dynamic --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (and the tracing overhead against untraced passes).  Every
metric is printed with its unit, the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, result records
go to ``.perfbench_out/``, and the exit code is non-zero when an output
check fails.  See ``perfbench/README.md`` for the workloads, the metric
definitions and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import serve_load  # noqa: E402
from stats import (  # noqa: E402
    backlog_grew,
    due_latencies,
    nearest_rank,
    replay_minima,
    tail_percentile,
)

SIM_WORKLOADS = ("day-dynamic", "sweep-constrained")
WORKLOADS = (*SIM_WORKLOADS, "serve-mixed")

#: The seed later gain claims must also hold on (never used for tuning).
HELD_OUT_SEED = 1009

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "epochs_per_s": "1/s",
    "allocate_p50_ms": "ms",
    "allocate_p99_ms": "ms",
    "max_rate_qps": "1/s",
    "perf_gain": "ratio",
    "epu_gain": "ratio",
    "grid_kwh": "kWh",
}

PER_LAYER: dict[str, str] = {
    "setup.import_s": "s",
    "traces.synthesize.ms": "ms",
    "traces.diurnal_at.calls": "count",
    "traces.diurnal_at.us_per_call": "us",
    "sim.assemble.self_ms": "ms",
    "predictor.fit.calls": "count",
    "predictor.fit.ms_per_call": "ms",
    "solver.solve.calls": "count",
    "solver.solve.us_per_call.k2": "us",
    "solver.solve.us_per_call.k3": "us",
    "solver.solve.us_per_call.hit": "us",
    "solver.solve.us_per_call.miss": "us",
    "solver.cache_hit_ratio": "ratio",
    "solver.method.kkt": "count",
    "solver.method.grid": "count",
    "solver.method.slsqp": "count",
    "solver.method.cached": "count",
    "solver.polish_win_ratio": "ratio",
    "policies.manual.ms_per_call": "ms",
    "pdu.supply.us_per_call": "us",
    "scheduler.plan_sources.us_per_call": "us",
    "database.refit.calls": "count",
    "database.refit.us_per_call": "us",
    "verify.audit.us_per_call": "us",
    "controller.run_epoch.self_us": "us",
    "shift.plan.calls": "count",
    "shift.plan.ms_per_call": "ms",
    "shift.execute_epoch.self_us": "us",
    "serve.allocate.service_ms": "ms",
    "serve.forecast.service_ms": "ms",
    "serve.observe.service_ms": "ms",
    "serve.step.service_ms": "ms",
    "serve.status.service_ms": "ms",
    "serve.coalesced_ratio": "ratio",
    "serve.solver_cache_hit_ratio": "ratio",
    "loadgen.queue_wait_ms": "ms",
    "loadgen.lag_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
}

#: Serve: every session is a fresh daemon replaying one reference phase
#: at a rate well below capacity (the allocate latencies are the
#: per-request minima over the sessions) and a closed-loop burst of
#: ``step``s, then climbing the fixed ladder behind ``max_rate_qps``
#: until a rate misses the limit (the best session's rate counts).  At
#: half the rate the tail moves far less with the host's speed than at
#: 600 req/s.
SESSIONS = 4
REFERENCE_QPS = 300.0
LADDER_QPS = tuple(float(rate) for rate in range(800, 2001, 100))
#: Shares of ``--seconds`` given to each reference phase and each rung
#: (at 30 s: 6 s, about 1070 allocates, enough for a p99; and 1.05 s).
REFERENCE_SHARE = 0.2
RUNG_SHARE = 0.035
#: Closed-loop ``step`` requests per rack after each reference phase.
BURST_EPOCHS = 40
#: Budgets (shares of the rack peak) the served-vs-Uniform gain is
#: judged at; fixed, so only the learned fits depend on the seed.
GAIN_LEVELS = tuple(0.5 + 0.05 * i for i in range(10))
#: Simulation passes per run, at least (the per-epoch minima need a few).
MIN_PASSES = 3
#: A simulation pass that has not finished after this long has failed.
PASS_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def sim_pass(workload: str, seed: int, spans: Path | None) -> dict[str, Any]:
    """One pass in a fresh interpreter; its JSON report."""
    cmd = [sys.executable, str(HERE / "sim_pass.py"), workload, str(seed)]
    spawned = time.monotonic()
    cmd.append(repr(spawned))
    if spans is not None:
        cmd.append(str(spans))
    env = serve_load.program_env(ROOT)
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT, env=env
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.monotonic() - spawned
    return report


def run_sims(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Passes while another fits in ``seconds`` (three at least).

    Epoch times arrive scaled to the reference host speed (``speed.py``).
    Every pass (and every round within one) replays the same epochs, so
    what host noise is left is filtered the way ``repro.obs.bench`` does
    it: each epoch's cost is its minimum over all of them, and stepping
    time and latency percentiles are taken over those per-epoch minima.
    The traced run alternates untraced and traced passes so the overhead
    compares neighbours.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    begin = time.monotonic()
    while True:
        done = plain + traced
        elapsed = time.monotonic() - begin
        typical = statistics.median(p["wall_s"] for p in done) if done else 0.0
        if len(done) >= MIN_PASSES and elapsed + typical > seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        spans = out / "spans.jsonl" if use_trace else None
        (traced if use_trace else plain).append(sim_pass(workload, seed, spans))
    passes = plain + traced

    digests = {d for p in passes for d in p["digests"]}
    failed = sum(p["failed"] for p in passes)
    notes = []
    if len(digests) != 1:
        notes.append(f"EpochRecord digests disagree across passes: {sorted(digests)}")
    for key in ("perf_gain", "epu_gain", "grid_kwh"):
        if len({v for p in passes for v in p[key]}) != 1:
            notes.append(f"{key} differs across passes")
    report = {
        "attempted": sum(p["epochs"] for p in passes),
        "failed": failed,
        "correct": not notes and failed == 0,
        "notes": notes,
    }
    if trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        # Stepping time of each pass's first round, at reference host speed.
        layers["trace.overhead_ratio"] = statistics.median(
            sum(p["epoch_ms"][0]) for p in traced
        ) / statistics.median(sum(p["epoch_ms"][0]) for p in plain)
        report["layers"] = layers
        report["n"] = {name: len(traced) for name in layers}
        return report

    epoch_ms = [min(costs) for costs in zip(*(r for p in plain for r in p["epoch_ms"]))]
    decision_ms = [min(costs) for costs in zip(*(r for p in plain for r in p["decision_ms"]))]
    pct, p99, n = tail_percentile(decision_ms)
    report["metrics"] = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "epochs_per_s": len(epoch_ms) / (sum(epoch_ms) / 1e3),
        "allocate_p50_ms": nearest_rank(sorted(decision_ms), 50.0),
        "allocate_p99_ms": p99,
        # Decisions arrive back to back here, so the highest sustainable
        # rate is one over GreenHetero's mean decision cost.
        "max_rate_qps": len(decision_ms) / (sum(decision_ms) / 1e3),
        "perf_gain": plain[0]["perf_gain"][0],
        "epu_gain": plain[0]["epu_gain"][0],
        "grid_kwh": plain[0]["grid_kwh"][0],
    }
    report["n"] = {name: len(plain) for name in report["metrics"]}
    report["n"].update(epochs_per_s=len(epoch_ms), allocate_p50_ms=n, allocate_p99_ms=n,
                       max_rate_qps=n)
    report["percentile"] = {"allocate_p99_ms": pct}
    return report


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
def phase_stats(*replays: serve_load.PhaseResult) -> dict[str, Any]:
    """Allocate latency from due time, plus the ladder verdict.

    Given several replays of one schedule (same seed and rate, each on a
    fresh daemon), every request is costed at its lowest latency over
    the replays (:func:`stats.replay_minima`).
    """
    latency = replay_minima([
        due_latencies([p.due(i) for i in range(len(p.requests))],
                      [None if e is not None else d for d, e in zip(p.done, p.errors)])
        for p in replays
    ])
    first = replays[0]
    allocate = [w for w, req in zip(latency, first.requests)
                if req.op == "allocate" and w is not None]
    pct, p99, n = tail_percentile(allocate)
    return {
        "rate": first.rate,
        "p50_ms": nearest_rank(sorted(allocate), 50.0) * 1e3,
        "p99_ms": p99 * 1e3,
        "pct": pct,
        "n": n,
        "failed": sum(p.failed for p in replays),
        "backlog": backlog_grew(latency, serve_load.LIMIT_S),
        "lag_ms": statistics.fmean(
            p.sent[i] - p.due(i) for p in replays for i in range(len(p.requests))
        ) * 1e3,
        "queue_wait_ms": statistics.fmean(w for p in replays for w in p.queue_wait) * 1e3,
    }


def meets_limit(rung: dict[str, Any]) -> bool:
    return rung["failed"] == 0 and not rung["backlog"] and rung["p99_ms"] <= serve_load.LIMIT_S * 1e3


def max_rate(rungs: list[dict[str, Any]]) -> float:
    """Highest rate meeting the limit, interpolated toward the first miss.

    The limit is crossed somewhere between the last passing rung and the
    first failing one; the crossing is placed by interpolating the p99
    on a log scale.  A failed request or a growing backlog fails a rung
    outright (at the passing rate when the failing rung's tail is short).
    """
    limit_ms = serve_load.LIMIT_S * 1e3
    passed = None
    for rung in rungs:
        if not meets_limit(rung):
            if passed is None:
                return rung["rate"] * min(1.0, limit_ms / rung["p99_ms"])
            if rung["p99_ms"] <= max(limit_ms, passed["p99_ms"]):
                return passed["rate"]  # failed or backlogged with a short tail
            share = math.log(limit_ms / passed["p99_ms"]) / math.log(
                rung["p99_ms"] / passed["p99_ms"]
            )
            return passed["rate"] + share * (rung["rate"] - passed["rate"])
        passed = rung
    return rungs[-1]["rate"]


def service_ms(metrics_text: str) -> dict[str, tuple[float, float]]:
    """Daemon-side ``(total seconds, requests)`` per verb, from its own histogram."""
    samples = serve_load.parse_exposition(metrics_text)
    out = {}
    for op in ("allocate", "forecast", "observe", "step", "status"):
        label = f'op="{op}"'
        count = samples.get(("repro_serve_request_seconds_count", label), 0.0)
        total = samples.get(("repro_serve_request_seconds_sum", label), 0.0)
        out[op] = (total, count)
    return out


def served_gains(checkpoint: Path) -> dict[str, float]:
    """GreenHetero/Uniform gains the racks deliver with their served allocations.

    Restores the checkpointed state and, over :data:`GAIN_LEVELS` on
    every rack, runs the allocation the rack serves and a Uniform split
    of the same budget through the rack's own response curves (what its
    servers deliver under those power caps at full load), then compares
    throughput and effective power utilisation (the share of the budget
    drawn by servers that produce output) as ratios of means, like
    ``ExperimentResult.gain``.  The learned fits only choose the served
    allocation; judging it with them as well would let one badly fitted
    rack swing the gain by a third between seeds.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.policies import AllocationContext, UniformPolicy
    from repro.serve.state import ServeState

    state = ServeState.build(checkpoint_dir=checkpoint)
    served, uniform = [0.0, 0.0], [0.0, 0.0]
    for host in state.racks.values():
        groups = tuple(host.controller.groups)
        database = host.controller.scheduler.database
        curves = [host.controller.rack.curve(i) for i in range(len(groups))]

        def deliver(ratios, budget, totals):
            for g, curve, ratio in zip(groups, curves, ratios):
                sample = curve.perf_at_power(ratio * budget / g.count)
                totals[0] += g.count * sample.throughput
                if sample.throughput > 0.0:
                    totals[1] += g.count * sample.power_w / budget

        for level in GAIN_LEVELS:
            budget = level * serve_load.RACK_PEAK_W
            deliver(host.allocate(budget)["ratios"], budget, served)
            split = UniformPolicy().allocate(AllocationContext(budget, groups, database))
            deliver(split, budget, uniform)
    return {"perf_gain": served[0] / uniform[0], "epu_gain": served[1] / uniform[1]}


def serve_session(seed: int, workdir: Path, reference_s: float, rung_s: float | None = None,
                  spans: Path | None = None, burst: bool = False,
                  keep_fits: bool = False) -> dict[str, Any]:
    """One fresh daemon: the reference phase, then optionally the step
    burst, a copy of the learned fits and (given ``rung_s``) the ladder."""
    daemon = serve_load.start_daemon(ROOT, seed, workdir, spans)
    steps = fits = None
    try:
        phases = [serve_phase(daemon.port, seed, REFERENCE_QPS, reference_s)]
        if burst:
            steps = serve_load.step_burst(daemon.port, daemon.proc.pid, BURST_EPOCHS)
        if keep_fits:
            saved = serve_load.query(daemon.port, "checkpoint")["checkpoint_dir"]
            fits = workdir / "fits"
            shutil.copytree(saved, fits)
        for rate in LADDER_QPS if rung_s is not None else ():
            phases.append(serve_phase(daemon.port, seed, rate, rung_s))
            if not meets_limit(phases[-1][1]):
                break
        metrics = serve_load.query(daemon.port, "metrics")["text"]
        cache = serve_load.query(daemon.port, "cache-stats")
    finally:
        serve_load.stop_daemon(daemon)
    return {"phases": phases, "setup_s": daemon.setup_s, "service": service_ms(metrics),
            "cache": cache, "steps": steps, "fits": fits}


def serve_phase(port: int, seed: int, rate: float, seconds: float):
    """One open-loop phase of the seed's schedule, with its statistics."""
    phase = serve_load.run_phase(port, serve_load.build_schedule(seed, rate, seconds), rate)
    return phase, phase_stats(phase)


def serve_layers(plain: dict, traced: dict, summary: Path) -> dict[str, float]:
    """Per-layer metrics of the traced daemon, beside an untraced twin."""
    (phase, stats_), = traced["phases"]
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(json.loads(summary.read_text()))
    for op, (total, count) in traced["service"].items():
        layers[f"serve.{op}.service_ms"] = total * 1e3 / count if count else 0.0
    allocates = sum(1 for r in phase.requests if r.op == "allocate")
    layers["serve.coalesced_ratio"] = traced["cache"]["coalesced"] / allocates
    obs = traced["cache"]["obs"]
    lookups = obs["solver_cache_hits"] + obs["solver_cache_misses"]
    layers["serve.solver_cache_hit_ratio"] = obs["solver_cache_hits"] / lookups
    layers["loadgen.queue_wait_ms"] = stats_["queue_wait_ms"]
    layers["loadgen.lag_ms"] = stats_["lag_ms"]
    layers["trace.overhead_ratio"] = stats_["p50_ms"] / plain["phases"][0][1]["p50_ms"]
    return layers


def run_serve(seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Measuring sessions, or (traced) an untraced and a traced reference phase."""
    if trace:
        # Half the time each: the reference phase untraced, then traced.
        plain = serve_session(seed, out / "plain", seconds / 2)
        summary = out / "daemon-layers.json"
        traced = serve_session(seed, out / "traced", seconds / 2, spans=summary)
        sessions = [plain, traced]
    else:
        sessions = [
            serve_session(seed, out / f"session{i}", seconds * REFERENCE_SHARE,
                          seconds * RUNG_SHARE,
                          burst=True, keep_fits=i == 0)
            for i in range(SESSIONS)
        ]

    phases = [phase for session in sessions for phase, _ in session["phases"]]
    bursts = [s["steps"] for s in sessions if s["steps"] is not None]
    errors = sorted({e for p in phases for e in p.errors if e is not None})
    failed = sum(p.failed for p in phases) + sum(bad for _, _, bad in bursts)
    report = {
        "attempted": sum(len(p.requests) for p in phases)
        + sum(len(events) + bad for _, events, bad in bursts),
        "failed": failed,
        "correct": failed == 0,
        "notes": errors[:5],
    }
    if trace:
        report["layers"] = serve_layers(plain, traced, summary)
        report["n"] = {name: 1 for name in report["layers"]}
        return report

    reference = phase_stats(*(session["phases"][0][0] for session in sessions))
    step_s = [min(costs) for costs in zip(*(times for times, _, _ in bursts))]
    energy = [
        sum(e["grid_to_load_w"] + e["battery_to_load_w"] for e in events)
        * serve_load.EPOCH_S / 3.6e6
        for _, events, _ in bursts
    ]
    ladders = [[stats_ for _, stats_ in s["phases"]] for s in sessions]
    setups = [s["setup_s"] for s in sessions]
    report["metrics"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "epochs_per_s": len(step_s) / sum(step_s),
        "allocate_p50_ms": reference["p50_ms"],
        "allocate_p99_ms": reference["p99_ms"],
        # Host interference only lowers a session's ladder, so the best
        # session is the estimate, like the per-request minima above.
        "max_rate_qps": max(max_rate(rungs) for rungs in ladders),
        **served_gains(sessions[0]["fits"]),
        "grid_kwh": statistics.median(energy),
    }
    report["n"] = {name: 1 for name in report["metrics"]}
    report["n"].update(
        setup_s=len(setups), epochs_per_s=len(step_s),
        allocate_p50_ms=reference["n"], allocate_p99_ms=reference["n"],
        max_rate_qps=sum(len(rungs) for rungs in ladders), perf_gain=2 * len(GAIN_LEVELS),
        epu_gain=2 * len(GAIN_LEVELS), grid_kwh=len(step_s),
    )
    report["percentile"] = {"allocate_p99_ms": reference["pct"]}
    report["rates"] = [
        f"reference, minima over {len(sessions)} replays: {REFERENCE_QPS:g}/s p50 "
        f"{reference['p50_ms']:.2f} ms p{reference['pct']:g} {reference['p99_ms']:.2f} ms"
    ] + [
        f"session {i}: " + ", ".join(
            f"{r['rate']:g}/s p50 {r['p50_ms']:.2f} ms p{r['pct']:g} {r['p99_ms']:.2f} ms"
            + (" backlog" if r["backlog"] else "")
            for r in rungs
        )
        for i, rungs in enumerate(ladders)
    ]
    return report


# ----------------------------------------------------------------------
# Records and output
# ----------------------------------------------------------------------
def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def records(workload: str, seed: int, values: dict[str, float], units: dict[str, str],
            n: dict[str, int]) -> list[dict[str, Any]]:
    """One result record per metric, in the repository's BENCH schema."""
    context = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }
    return [
        {
            "bench": workload,
            "layer": "end_to_end" if name in END_TO_END else name.split(".")[0],
            "metric": name,
            "value": values[name],
            "unit": units[name],
            "n": n.get(name, 1),
            **context,
        }
        for name in units
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # A daemon restores from a checkpoint it finds, so start from nothing.
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.workload in SIM_WORKLOADS:
        report = run_sims(args.workload, args.seed, args.seconds, trace, out)
    else:
        report = run_serve(args.seed, args.seconds, trace, out)

    units = PER_LAYER if trace else END_TO_END
    values = report["layers"] if trace else report["metrics"]
    values = {name: float(values.get(name, 0.0)) for name in units}
    rows = records(args.workload, args.seed, values, units, report["n"])
    with open(out / "records.jsonl", "w") as sink:
        for row in rows:
            sink.write(json.dumps(row) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for row in rows:
        pct = report.get("percentile", {}).get(row["metric"])
        extra = f" (p{pct:g})" if pct is not None and not trace else ""
        print(f"{row['metric']:40s} {row['value']:14.6g} {row['unit']:6s} n={row['n']}{extra}")
    for line in report.get("rates", []):
        print(line)
    for note in report["notes"]:
        print(f"CHECK FAILED: {note}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
