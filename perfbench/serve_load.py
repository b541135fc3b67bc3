"""Open-loop load against a ``repro serve`` daemon subprocess.

One process (this one) generates the load: a single asyncio thread that
sends every request at its due time over :data:`CONNECTIONS` pipelined
NDJSON connections, whatever the daemon's progress.  Each request is
timed from its due time, so a stalled generator or a request stuck
behind a slow one on its connection is charged to every request it
delayed.

The request mix (per request, drawn from the workload seed):

* 60% ``allocate`` — two thirds at one of four fixed budget levels per
  rack (cache-hot until the next ``step`` refits the database), one
  third at a uniformly random budget (a cache miss);
* 20% ``forecast``, 10% ``observe``, 9% ``status``;
* every hundredth request a ``step`` — the write path: it refits the
  rack's database, invalidates its cached programs and holds the rack
  lock.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from speed import REFERENCE_PROBE_S, Speedometer
from stats import rescale

#: Connections the generator spreads requests over (the reference host's 2 cores).
CONNECTIONS = 2
#: Racks the daemon hosts (``repro serve --racks``).
RACKS = 2
#: Peak draw of the default ``repro serve`` rack (five E5-2620 at 178 W
#: plus five i5-4460 at 96 W); budgets are drawn as shares of it.
RACK_PEAK_W = 5 * 178.0 + 5 * 96.0
#: Fixed (cache-hot) budget levels per rack.
HOT_LEVELS = 4
#: Simulated length of one ``repro serve`` epoch (its default).
EPOCH_S = 900.0
#: One request in this many is a ``step``.
STEP_EVERY = 100
#: Latency limit a ladder rate must meet at the allocate p99.  It sits
#: where the p99-vs-rate curve turns steep on a 2-core host: below it
#: the tail is set by rare expensive solves and steps and barely moves
#: with load, so a lower limit would make the ladder verdict a coin toss.
LIMIT_S = 0.050
#: A request unanswered this long after its due time has failed.
TIMEOUT_S = 10.0
#: Slack allowed on ``sum(group budgets) <= budget``.
BUDGET_SLACK_W = 1e-6

_READY = re.compile(r"serving \d+ rack\(s\) on ([\d.]+):(\d+)")
_SAMPLE = re.compile(r'^([a-z_]+)(?:\{([^}]*)\})? (\S+)$')
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    due: float  # seconds after the phase start
    op: str
    rack: str
    params: tuple[tuple[str, float], ...] = ()


def hot_levels(seed: int) -> dict[str, list[float]]:
    """The fixed budget levels of each rack, drawn from the seed.

    Half the rack peak and up: every level powers at least the i5 group
    under a Uniform split, so the served-vs-Uniform gain is finite.
    """
    rng = random.Random(f"levels-{seed}")
    return {
        f"rack{r}": sorted(rng.uniform(0.5, 0.95) * RACK_PEAK_W for _ in range(HOT_LEVELS))
        for r in range(RACKS)
    }


def build_schedule(seed: int, rate: float, seconds: float) -> list[Request]:
    """A fixed, evenly spaced schedule of ``rate * seconds`` requests.

    Every hundredth request is a ``step`` (alternating racks), so each
    phase writes equally often whatever the seed; the rest are drawn.
    """
    rng = random.Random(f"schedule-{seed}-{rate}")
    levels = hot_levels(seed)
    out = []
    for i in range(int(rate * seconds)):
        due = i / rate
        if i % STEP_EVERY == STEP_EVERY - 1:
            out.append(Request(due, "step", f"rack{(i // STEP_EVERY) % RACKS}"))
            continue
        rack = f"rack{rng.randrange(RACKS)}"
        u = rng.random()
        if u < 0.60:
            if rng.random() < 2.0 / 3.0:
                budget = rng.choice(levels[rack])
            else:
                budget = rng.uniform(0.3, 1.0) * RACK_PEAK_W
            out.append(Request(due, "allocate", rack, (("budget_w", budget),)))
        elif u < 0.80:
            out.append(Request(due, "forecast", rack))
        elif u < 0.90:
            params = (
                ("renewable_w", rng.uniform(0.0, 1.4 * RACK_PEAK_W)),
                ("demand_w", rng.uniform(0.3, 1.0) * RACK_PEAK_W),
            )
            out.append(Request(due, "observe", rack, params))
        else:
            out.append(Request(due, "status", rack))
    return out


# ----------------------------------------------------------------------
# Response validation
# ----------------------------------------------------------------------
def validate(request: Request, request_id: int, response: dict[str, Any]) -> str | None:
    """Why ``response`` is wrong for ``request``, or ``None`` if it is right."""
    if response.get("id") != request_id:
        return f"id {response.get('id')!r} != {request_id}"
    if response.get("ok") is not True:
        return f"error response: {response.get('error')}"
    result = response.get("result", {})
    if request.op == "allocate":
        budget = dict(request.params)["budget_w"]
        ratios = result.get("ratios") or []
        budgets = result.get("group_budgets_w") or []
        if result.get("rack") != request.rack:
            return "allocate answered for another rack"
        if len(ratios) != 2 or len(budgets) != 2:
            return "allocate returned the wrong group count"
        if min(ratios) < 0.0 or sum(ratios) > 1.0 + 1e-9:
            return f"ratios {ratios} outside the simplex"
        if sum(budgets) > budget + BUDGET_SLACK_W:
            return f"group budgets {sum(budgets)} W exceed the {budget} W budget"
    elif request.op in ("forecast", "observe"):
        if result.get("case") not in ("A", "B", "C") or result.get("budget_w", -1) < 0:
            return f"malformed forecast {result}"
    elif request.op == "step":
        if result.get("rack") != request.rack or result.get("event") != "epoch":
            return "step answered for another rack"
        if result.get("grid_to_load_w", -1) < 0 or result.get("battery_to_load_w", -1) < 0:
            return "step reported negative flows"
    elif request.op == "status":
        if "counters" not in result:
            return "status without counters"
    return None


# ----------------------------------------------------------------------
# One open-loop phase
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    rate: float
    requests: list[Request]
    sent: list[float | None] = field(default_factory=list)
    done: list[float | None] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    queue_wait: list[float] = field(default_factory=list)
    start: float = 0.0

    def due(self, i: int) -> float:
        return self.start + self.requests[i].due

    @property
    def failed(self) -> int:
        return sum(1 for e in self.errors if e is not None)


async def _phase(port: int, requests: list[Request], rate: float) -> PhaseResult:
    result = PhaseResult(rate=rate, requests=requests)
    n = len(requests)
    result.sent = [None] * n
    result.done = [None] * n
    result.errors = ["no response"] * n
    conns = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
        for _ in range(CONNECTIONS)
    ]
    pending: list[deque[int]] = [deque() for _ in conns]
    lines: list[bytes | None] = [None] * n
    # Encoded up front so the send loop does no work beyond the write.
    encoded = [
        json.dumps(
            {"id": i, "op": r.op, "rack": r.rack, **dict(r.params)}, separators=(",", ":")
        ).encode() + b"\n"
        for i, r in enumerate(requests)
    ]
    last_done = [0.0] * len(conns)

    async def reader(c: int, stream: asyncio.StreamReader) -> None:
        while True:
            line = await stream.readline()
            if not line:
                return
            now = time.perf_counter()
            i = pending[c].popleft()
            # Head-of-line wait: the request could not start before the
            # previous response on its connection had gone out.
            result.queue_wait.append(max(0.0, last_done[c] - result.sent[i]))
            last_done[c] = now
            result.done[i] = now
            lines[i] = line

    readers = [
        asyncio.ensure_future(reader(c, stream)) for c, (stream, _) in enumerate(conns)
    ]
    result.start = time.perf_counter() + 0.05
    for i, req in enumerate(requests):
        due = result.start + req.due
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        c = i % len(conns)
        result.sent[i] = time.perf_counter()
        pending[c].append(i)
        conns[c][1].write(encoded[i])
    for _, writer in conns:
        await writer.drain()
    deadline = result.start + (requests[-1].due if requests else 0.0) + TIMEOUT_S
    while any(pending) and time.perf_counter() < deadline:
        await asyncio.sleep(0.01)
    for _, writer in conns:
        writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    # Responses are checked after the phase, off the timed path.
    for i, line in enumerate(lines):
        if line is None:
            continue
        if result.done[i] - result.due(i) > TIMEOUT_S:
            result.errors[i] = "timed out"
            continue
        try:
            response = json.loads(line)
        except json.JSONDecodeError:
            result.errors[i] = "unparsable response"
            continue
        result.errors[i] = validate(requests[i], i, response)
    return result


def run_phase(port: int, requests: list[Request], rate: float) -> PhaseResult:
    """Drive one open-loop phase; the collector stays off while it runs."""
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_phase(port, requests, rate))
    finally:
        gc.enable()


def query(port: int, op: str) -> dict[str, Any]:
    """One blocking request/response on a fresh connection."""

    async def ask() -> dict[str, Any]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        writer.write(json.dumps({"id": 0, "op": op}).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        writer.close()
        await writer.wait_closed()
        return json.loads(line)["result"]

    return asyncio.run(ask())


def step_burst(
    port: int, daemon_pid: int, epochs_per_rack: int
) -> tuple[list[float], list[dict[str, Any]], int]:
    """Closed-loop ``step`` requests, one at a time, alternating racks.

    Returns each step's host seconds at the reference host speed, the
    validated epoch events and the number of invalid responses.  The
    host-speed probe runs before every step, while the daemon waits; for
    it to see the speed the daemon steps at, this process and every
    thread of the daemon share one CPU during the burst (a 2-vCPU host's
    CPUs slow down independently).
    """
    requests = [Request(0.0, "step", f"rack{i % RACKS}") for i in range(epochs_per_rack * RACKS)]

    async def drive() -> tuple[list[float], list[dict[str, Any]], int]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
        stamps, times, events, bad = [], [], [], 0
        for i, req in enumerate(requests):
            speed.take()
            start = time.perf_counter()
            stamps.append(start)
            writer.write(json.dumps({"id": i, "op": "step", "rack": req.rack}).encode() + b"\n")
            line = await reader.readline()
            times.append(time.perf_counter() - start)
            response = json.loads(line)
            if validate(req, i, response) is None:
                events.append(response["result"])
            else:
                bad += 1
        speed.take()
        writer.close()
        await writer.wait_closed()
        scaled = rescale(stamps, times, speed.stamps, speed.costs, REFERENCE_PROBE_S)
        return scaled, events, bad

    speed = Speedometer()
    cpus = os.sched_getaffinity(0)
    pin([os.getpid(), daemon_pid], {min(cpus)})
    try:
        return asyncio.run(drive())
    finally:
        pin([os.getpid(), daemon_pid], cpus)


def pin(pids: list[int], cpus: set[int]) -> None:
    """Restrict every thread of each process to ``cpus``."""
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(tid), cpus)


def parse_exposition(text: str) -> dict[tuple[str, str], float]:
    """``{(sample name, label string): value}`` from Prometheus text."""
    out = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return out


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    setup_s: float


def program_env(root: Path) -> dict[str, str]:
    """Environment of every program process: the checkout's sources, and
    one BLAS thread (an idle OpenBLAS worker spins, and on a 2-core host
    it competes with the measured thread)."""
    return {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def start_daemon(
    root: Path, seed: int, workdir: Path, spans: Path | None = None
) -> Daemon:
    """Spawn ``repro serve --racks 2`` and wait for its readiness line.

    With ``spans`` the daemon runs under the benchmark's span recorder
    (``perfbench/traced_daemon.py``), which writes its per-layer
    summary there on exit.
    """
    args = ["serve", "--port", "0", "--racks", str(RACKS), "--seed", str(seed),
            "--checkpoint", str(workdir / "checkpoint")]
    if spans is None:
        cmd = [sys.executable, "-m", "repro.cli", *args]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("traced_daemon.py")),
               str(spans), *args]
    env = program_env(root)
    begin = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=root, env=env,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        line = proc.stdout.readline()
        if not line or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"daemon did not become ready: {line.strip()!r}")
        match = _READY.match(line.strip())
        if match:
            return Daemon(proc, int(match.group(2)), time.perf_counter() - begin)


def stop_daemon(daemon: Daemon) -> None:
    """SIGTERM, then wait for the checkpoint-and-exit (kill on timeout)."""
    daemon.proc.send_signal(signal.SIGTERM)
    try:
        daemon.proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        daemon.proc.kill()
        daemon.proc.wait()
        raise RuntimeError("daemon ignored SIGTERM")
    finally:
        if daemon.proc.stdout is not None:
            daemon.proc.stdout.read()
            daemon.proc.stdout.close()
    if daemon.proc.returncode != 0:
        raise RuntimeError(f"daemon exited with {daemon.proc.returncode}")
