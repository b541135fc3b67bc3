"""The trace-driven simulation engine.

:class:`Simulation` assembles one policy's full stack — rack, solar farm,
battery bank, grid feed, PDU, monitor, adaptive scheduler, controller —
and replays it over the clock's epoch timeline, producing a
:class:`~repro.sim.telemetry.TelemetryLog`.

The engine is where the paper's experimental methodology is encoded:

* the solar farm is sized relative to the rack's maximum draw so the
  High trace is sufficient around midday and insufficient at the edges;
* interactive workloads see the diurnal offered-load pattern, batch and
  HPC workloads saturate;
* Holt predictors are pre-trained on the day of history preceding the
  simulated window ("training the past renewable power generation
  records", Section IV-B.1);
* the battery starts full, exactly as in Section V-B.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller import EpochRecord, GreenHeteroController
from repro.core.database import FitKind, ProfilingDatabase
from repro.core.monitor import Monitor
from repro.core.policies import Policy
from repro.core.scheduler import AdaptiveScheduler
from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.obs.tracing import trace as _trace
from repro.power.battery import BatteryBank, UnlimitedSupply
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.schedule import WorkloadSchedule
from repro.shift.runtime import ShiftRuntime
from repro.sim.telemetry import TelemetryLog
from repro.traces.datacenter_load import DiurnalLoadPattern
from repro.traces.nrel import IrradianceTrace, Weather, synthesize_irradiance
from repro.verify.auditor import AuditContext, InvariantAuditor
from repro.workloads.generator import LoadGenerator
from repro.workloads.models import response_for

_EPOCH_SECONDS_HIST = _REGISTRY.histogram(
    "repro_sim_epoch_seconds", "Wall time of one Simulation.step epoch"
)


@dataclass
class Simulation:
    """A fully assembled single-policy run.

    Build directly for full control, or through :meth:`assemble` for the
    paper's standard methodology.
    """

    controller: GreenHeteroController
    clock: SimClock
    load_generator: LoadGenerator
    log: TelemetryLog = field(default_factory=TelemetryLog)
    #: Optional fault schedule applied at every epoch boundary
    #: (see :mod:`repro.sim.faults`).
    faults: "FaultInjector | None" = None
    #: Optional daily workload rotation (see :mod:`repro.sim.schedule`);
    #: phase changes call :meth:`GreenHeteroController.switch_workload`.
    workload_schedule: "WorkloadSchedule | None" = None
    #: Optional temporal-shifting runtime (see :mod:`repro.shift`); when
    #: set, each epoch routes through it so planner decisions gate the
    #: rack's deferrable groups and shift telemetry accrues in
    #: ``shift.log``.
    shift: "ShiftRuntime | None" = None
    #: Remembered assembly knobs so workload switches can rebuild the
    #: offered-load generator consistently.
    diurnal_load: bool = True
    seed: int = 2021
    #: When True, any invariant violation raises
    #: :class:`~repro.errors.InvariantViolation` at the offending epoch;
    #: otherwise violations only accumulate on :attr:`auditor` and in the
    #: ``repro_verify_violations_total`` metric.
    strict: bool = False
    #: The per-epoch invariant auditor; built on first step when omitted
    #: (pass one to customize the check suite).
    auditor: "InvariantAuditor | None" = None

    @classmethod
    @_trace("sim.assemble")
    def assemble(
        cls,
        policy: Policy,
        rack: Rack,
        weather: Weather = Weather.HIGH,
        clock: SimClock | None = None,
        solar_scale: float = 1.4,
        grid_budget_w: float | None = None,
        battery: BatteryBank | None = None,
        diurnal_load: bool = True,
        seed: int = 2021,
        fit_kind: FitKind = FitKind.QUADRATIC,
        trace: IrradianceTrace | None = None,
        supply_fractions: tuple[float, ...] | None = None,
        budget_reference_w: float | None = None,
        strict: bool = False,
    ) -> "Simulation":
        """Assemble the paper's standard experimental stack.

        Parameters
        ----------
        policy:
            The allocation policy under test.
        rack:
            The heterogeneous rack.
        weather:
            High or Low solar regime (ignored when ``trace`` is given).
        clock:
            Epoch timeline; defaults to a 24-hour run starting one day
            into a one-week trace.
        solar_scale:
            PV clear-sky peak as a multiple of the rack's maximum draw.
        grid_budget_w:
            Grid cap; ``None`` picks 75% of the rack's maximum draw,
            matching the paper's deliberately under-provisioned 1000 W
            for its ~1.3 kW rack.  Mutually exclusive with
            ``supply_fractions`` (which disables the grid).
        battery:
            Battery bank; the paper's 10 x 12 V x 100 Ah default when
            omitted.  Mutually exclusive with ``supply_fractions``
            (which fixes an effectively unlimited bank).
        diurnal_load:
            Whether interactive workloads follow the diurnal pattern.
        seed:
            Master seed for trace synthesis and measurement noise.
        fit_kind:
            Database curve-fit family (quadratic in the paper; linear
            for the ablation).
        supply_fractions:
            Constrained-supply mode (the Section III-B fixed-budget
            methodology): each epoch's rack budget is forced to
            ``fraction * rack hardware envelope`` (capped at the
            workload's demand), cycling through the given fractions.
            The battery is made effectively unlimited and the grid
            disabled, so scarcity comes solely from the budget — this is
            the regime the Fig. 9/10/13/14 comparisons isolate.  The
            envelope reference makes the sweep workload-independent,
            like the paper's fixed testbed: power-hungry workloads are
            shorted deeply, light ones barely.
        strict:
            Raise :class:`~repro.errors.InvariantViolation` at the first
            epoch whose physics accounting fails an invariant audit
            (otherwise violations only count; see :mod:`repro.verify`).
        """
        if solar_scale <= 0:
            raise ConfigurationError("solar scale must be positive")
        clock = clock or SimClock()
        if trace is None:
            trace = cls.default_trace(clock, weather, seed)
        solar = SolarFarm.sized_for(trace, peak_power_w=solar_scale * rack.max_draw_w)
        if supply_fractions is not None:
            if not supply_fractions or any(f <= 0 for f in supply_fractions):
                raise ConfigurationError("supply fractions must be positive")
            if battery is not None or grid_budget_w is not None:
                raise ConfigurationError(
                    "supply_fractions fixes the battery (unlimited) and the "
                    "grid (disabled); a caller-supplied battery or "
                    "grid_budget_w would be silently discarded — drop them "
                    "or drop supply_fractions"
                )
            # Constrained-supply mode: a truly unlimited supply sentinel
            # and no grid — the override below is the only scarcity.  A
            # merely oversized BatteryBank would still hit its DoD floor
            # on long horizons and pollute cycle/lifetime telemetry.
            battery = UnlimitedSupply()
            grid = GridSource(budget_w=0.0)
        else:
            battery = battery if battery is not None else BatteryBank()
            budget = grid_budget_w if grid_budget_w is not None else 0.75 * rack.max_draw_w
            grid = GridSource(budget_w=budget)
        pdu = PDU(solar, battery, grid)
        monitor = Monitor(seed=seed + 1)
        scheduler = AdaptiveScheduler(policy, database=ProfilingDatabase(fit_kind=fit_kind))
        controller = GreenHeteroController(
            rack=rack, pdu=pdu, policy=policy, monitor=monitor,
            scheduler=scheduler, epoch_s=clock.epoch_s,
        )

        generator = cls._build_generator(rack, diurnal_load, seed)
        pattern = generator.pattern

        if supply_fractions is not None:
            fractions = tuple(supply_fractions)
            epoch_s = clock.epoch_s
            start_s = clock.start_s
            reference_w = (
                budget_reference_w if budget_reference_w is not None else rack.envelope_w
            )

            def override(time_s: float, demand_w: float) -> float:
                index = int(round((time_s - start_s) / epoch_s))
                return min(fractions[index % len(fractions)] * reference_w, demand_w)

            controller.budget_override = override

        sim = cls(
            controller=controller,
            clock=clock,
            load_generator=generator,
            diurnal_load=diurnal_load,
            seed=seed,
            strict=strict,
        )
        sim._pretrain(pattern)
        return sim

    # ------------------------------------------------------------------
    @staticmethod
    def default_trace(clock: SimClock, weather: Weather, seed: int) -> IrradianceTrace:
        """The standard irradiance trace for a run on ``clock``.

        Long enough to cover the simulated window plus the pretraining
        history (at least the paper's one-week trace).  Factored out so
        the experiment runner can synthesize it once and share it across
        every policy of a config instead of re-deriving it per policy.
        """
        n_days = max(7.0, (clock.start_s + clock.duration_s) / 86400.0)
        return synthesize_irradiance(days=n_days, weather=weather, seed=seed)

    # ------------------------------------------------------------------
    @staticmethod
    def _lead_workload(rack: Rack):
        """The workload whose offered load drives the generator.

        The diurnal request stream only exists for interactive services,
        so on co-located racks the lead is the *first interactive* group's
        workload, wherever it sits in PAR order; all-batch racks fall
        back to group 0 (saturating load either way).  When several
        interactive workloads co-locate, the first one's diurnal pattern
        drives them all — `_samples_for_states` balances each workload's
        groups separately against that shared offered fraction.
        """
        for group in rack.groups:
            if group.workload.is_interactive:
                return group.workload
        return rack.groups[0].workload

    @classmethod
    def _build_generator(cls, rack: Rack, diurnal_load: bool, seed: int) -> LoadGenerator:
        """Offered-load generator for the rack's (current) lead workload.

        Interactive workloads follow the diurnal pattern scaled by their
        typical datacenter utilisation; batch workloads ignore it.
        """
        workload = cls._lead_workload(rack)
        util = response_for(workload).utilization_scale
        pattern = None
        if diurnal_load:
            base_pattern = DiurnalLoadPattern()
            pattern = lambda t: util * base_pattern.at(t)  # noqa: E731
        return LoadGenerator(workload, pattern=pattern, seed=seed + 2)

    def _apply_schedule(self, time_s: float) -> None:
        """Switch the rack's workload if the schedule's phase changed."""
        if self.workload_schedule is None:
            return
        spec = self.workload_schedule.workload_at(time_s)
        wanted = [spec] * len(self.controller.rack.groups) if isinstance(spec, str) else list(spec)
        current = [g.workload.name for g in self.controller.rack.groups]
        if wanted != current:
            self.controller.switch_workload(spec)
            self.load_generator = self._build_generator(
                self.controller.rack, self.diurnal_load, self.seed
            )

    @_trace("sim.pretrain")
    def _pretrain(self, pattern) -> None:
        """Prime the Holt predictors on the preceding day of history."""
        history_times = self.clock.history_times(
            n_epochs=max(8, int(86400.0 // self.clock.epoch_s))
        )
        solar = self.controller.pdu.renewable
        rack = self.controller.rack
        renewable_history = [solar.power_at(t) for t in history_times]
        if pattern is not None and self._lead_workload(rack).is_interactive:
            demand_history = [rack.demand_at_load(pattern(t)) for t in history_times]
        else:
            demand_history = [rack.demand_at_load(1.0) for _ in history_times]
        self.controller.prime_predictors(renewable_history, demand_history)

    # ------------------------------------------------------------------
    def run(self) -> TelemetryLog:
        """Execute every remaining epoch on the clock; returns the log.

        Stepping and running share one per-epoch code path: a run is
        exactly ``n_epochs`` calls to :meth:`step`, so a partially
        stepped simulation can be completed with :meth:`run`.
        """
        while len(self.log) < self.clock.n_epochs:
            self.step()
        return self.log

    def step(self) -> "EpochRecord":
        """Run a single epoch (for incremental/driving use).

        Returns the epoch's :class:`~repro.core.controller.EpochRecord`
        (also appended to :attr:`log`).
        """
        if len(self.log) >= self.clock.n_epochs:
            raise ConfigurationError("simulation already complete")
        if self.auditor is None:
            self.auditor = InvariantAuditor(strict=self.strict)
        with _EPOCH_SECONDS_HIST.time():
            t = self.clock.start_s + len(self.log) * self.clock.epoch_s
            if self.faults is not None:
                self.faults.apply(self.controller, t)
            self._apply_schedule(t)
            # Captured after fault injection so the audit's SoC delta
            # reflects only the epoch's own flows.
            soc_before = self.controller.pdu.battery.soc_wh
            load = self.load_generator.at(t)
            if self.shift is not None:
                record = self.shift.execute_epoch(
                    self.controller, t, load_fraction=load.fraction
                )
                gating_active = self.shift.activated
            else:
                record = self.controller.run_epoch(t, load_fraction=load.fraction)
                gating_active = False
            self.log.append(record)
            self.auditor.audit(
                AuditContext(
                    record=record,
                    controller=self.controller,
                    epoch_s=self.clock.epoch_s,
                    soc_before_wh=soc_before,
                    gating_active=gating_active,
                )
            )
        return record
