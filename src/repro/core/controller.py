"""The GreenHetero Controller (paper Fig. 4): Monitor + Scheduler + Enforcer.

One controller instance manages one rack and its power tree, exactly as
the paper deploys it ("the GreenHetero Controller at the rack level in a
distributed deployment", Section IV-A).  Each call to :meth:`run_epoch`
executes one 15-minute scheduling epoch:

1. meter renewable output and rack demand (Monitor);
2. run a training run for any (configuration, workload) pair the
   database has never seen (Algorithm 1, lines 3-5);
3. forecast next-epoch supply/demand and select power sources
   (Cases A/B/C);
4. obtain the PAR vector from the active policy and enforce it — group
   shares split evenly per server, each server's budget mapped to a DVFS
   state (SPC);
5. execute the epoch in 2.5-minute sub-steps, metering (power, perf)
   samples, flowing energy through the PDU, and accounting EPU;
6. feed execution samples back into the database and re-fit when the
   policy enables the runtime optimisation (Algorithm 1, lines 8-10).

The returned :class:`EpochRecord` carries everything the telemetry layer
and the paper's figures need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.enforcer import Enforcer
from repro.core.monitor import Monitor, ServerObservation
from repro.core.policies import GroupInfo, Policy
from repro.core.scheduler import AdaptiveScheduler
from repro.core.sources import PowerCase, SourceDecision
from repro.errors import ConfigurationError
from repro.obs.tracing import trace
from repro.power.pdu import PDU
from repro.power.sources import ChargeSource
from repro.servers.rack import Rack
from repro.units import EPOCH_SECONDS

#: Sub-steps per epoch; 15 min / 6 = 2.5 min, matching the paper's
#: ~2-minute profiling cadence.
N_SUBSTEPS = 6

#: Power levels sampled during a training run.  The ~10-minute training
#: run yields a handful of samples (one every 2 minutes).
TRAINING_SAMPLES = 5

#: Fraction of the DVFS ladder the training run's lowest sample reaches.
#: The training run executes under the *ondemand* governor at full load
#: (Section IV-B.2), so the sampled operating points cluster in the upper
#: half of the frequency range — the initial fit extrapolates below that,
#: which is exactly the inaccuracy the online update (GreenHetero vs
#: GreenHetero-a) exists to repair.
TRAINING_LADDER_FLOOR = 0.5


@dataclass(frozen=True)
class EpochRecord:
    """Telemetry for one scheduling epoch.

    Power values are epoch-mean watts; throughput is the epoch-mean
    aggregate rack performance in the workload's metric.
    """

    time_s: float
    case: PowerCase
    budget_w: float
    demand_w: float
    renewable_w: float
    load_fraction: float
    ratios: tuple[float, ...]
    group_budgets_w: tuple[float, ...]
    state_indices: tuple[int, ...]
    throughput: float
    epu: float
    useful_power_w: float
    renewable_to_load_w: float
    battery_to_load_w: float
    grid_to_load_w: float
    charge_w: float
    charge_source: ChargeSource
    battery_soc_wh: float
    curtailed_w: float
    trained_pairs: tuple[tuple[str, str], ...]
    brownout: bool
    #: Epoch-mean of the Monitor's per-substep renewable meter readings —
    #: the value the predictor feedback consumes (``renewable_w`` is the
    #: noise-free mean).  Defaults to 0.0 for records built by hand.
    renewable_metered_w: float = 0.0
    #: Servers powered per group (the partial-group extension); ``None``
    #: means all servers shared their group's budget.
    powered_counts: tuple[int, ...] | None = None
    #: The database-projected performance of the chosen allocation
    #: (solver policies only); compare against ``throughput`` to measure
    #: projection quality.
    projected_perf: float | None = None


class GreenHeteroController:
    """Rack-level controller binding a policy to a rack and its PDU.

    Parameters
    ----------
    rack:
        The heterogeneous rack to manage.
    pdu:
        The rack's power tree (solar + battery + grid).
    policy:
        Any Table III policy.
    monitor:
        Sensing layer; a default seeded Monitor is created when omitted.
    scheduler:
        The adaptive scheduler; constructed around ``policy`` by default.
    epoch_s:
        Scheduling epoch length (paper: 15 minutes).
    """

    def __init__(
        self,
        rack: Rack,
        pdu: PDU,
        policy: Policy,
        monitor: Monitor | None = None,
        scheduler: AdaptiveScheduler | None = None,
        epoch_s: float = EPOCH_SECONDS,
    ) -> None:
        if epoch_s <= 0:
            raise ConfigurationError("epoch length must be positive")
        self.rack = rack
        self.pdu = pdu
        self.policy = policy
        self.monitor = monitor or Monitor()
        self.scheduler = scheduler or AdaptiveScheduler(policy)
        self.enforcer = Enforcer(pdu)
        self.epoch_s = epoch_s
        self.servers = rack.build_servers()
        self.groups = tuple(
            GroupInfo(name=g.spec.name, count=g.count, key=g.key) for g in rack.groups
        )
        #: Optional constrained-supply hook ``(time_s, demand_w) -> budget_w``.
        #: When set, the epoch's rack budget is forced to its return value
        #: (the Section III-B fixed-budget methodology, used by the
        #: Fig. 9/10/13/14 sweeps); source dynamics are bypassed.
        self.budget_override: Callable[[float, float], float] | None = None
        #: Optional per-group power caps (W), one entry per group;
        #: ``math.inf`` leaves a group uncapped.  Caps shape both the
        #: metered demand and the enforced group budgets — the shift
        #: runtime sets them each epoch to gate deferrable groups to
        #: their planned draw while interactive groups run untouched.
        self.group_caps_w: tuple[float, ...] | None = None

    # ------------------------------------------------------------------
    # Workload switching (Algorithm 1's arrival path over time)
    # ------------------------------------------------------------------
    def switch_workload(self, workload) -> None:
        """Swap the rack's workload(s) at an epoch boundary.

        The database persists across switches — it holds projections for
        "all workloads and server configurations it has ever executed"
        (Section IV-B.2) — so returning to a previously-seen workload
        skips the training run, while a new (platform, workload) pair
        triggers one at the next epoch (Algorithm 1, line 3).

        Parameters
        ----------
        workload:
            A workload name/object shared by all groups, or a list with
            one entry per group (co-location).
        """
        self.rack = Rack(
            [(g.spec.name, g.count) for g in self.rack.groups], workload
        )
        self.servers = self.rack.build_servers()
        self.groups = tuple(
            GroupInfo(name=g.spec.name, count=g.count, key=g.key)
            for g in self.rack.groups
        )

    # ------------------------------------------------------------------
    # Priming
    # ------------------------------------------------------------------
    def prime_predictors(
        self, renewable_history: list[float], demand_history: list[float]
    ) -> None:
        """Train the Holt constants on past records (Eq. 5)."""
        self.scheduler.pretrain_predictors(renewable_history, demand_history)

    # ------------------------------------------------------------------
    # Training run (Algorithm 1, lines 4-5)
    # ------------------------------------------------------------------
    def _training_run(self, group_index: int, time_s: float) -> None:
        """Profile one group across its DVFS ladder and seed the database.

        The paper's training run executes the workload under the
        ondemand governor with ample power for ~10 minutes, logging a
        (power, perf) sample every 2 minutes; at full load the governor
        keeps to the upper frequency range, so we sample
        :data:`TRAINING_SAMPLES` states from the top half of the ladder
        (the initial fit must extrapolate below — see
        :data:`TRAINING_LADDER_FLOOR`).
        """
        curve = self.rack.curve(group_index)
        states = curve.states.active_states
        lo = TRAINING_LADDER_FLOOR * (len(states) - 1)
        picks = np.unique(
            np.linspace(lo, len(states) - 1, TRAINING_SAMPLES).round().astype(int)
        )
        samples: list[tuple[float, float]] = []
        for idx in picks:
            raw = curve.sample_at_state(states[int(idx)], load_fraction=1.0)
            obs = self.monitor.observe_server(raw, group_index, time_s)
            samples.append((obs.power_w, obs.throughput))
        self.scheduler.ingest_training_run(
            self.groups[group_index].key, curve.idle_power_w, samples
        )

    def ensure_profiled(self, time_s: float = 0.0) -> tuple[tuple[str, str], ...]:
        """Run training runs for every pair the database has never seen.

        Algorithm 1, line 3, factored out of the epoch loop so a serving
        deployment (:mod:`repro.serve`) can answer allocation queries
        before its first epoch executes.  No-op for policies that do not
        consult the database.  Returns the pairs that were trained.
        """
        if not self.policy.uses_database:
            return ()
        with trace("scheduler.profile"):
            missing = self.scheduler.missing_pairs(self.groups)
            for key in missing:
                group_index = next(
                    i for i, g in enumerate(self.groups) if g.key == key
                )
                self._training_run(group_index, time_s)
            return tuple(missing)

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def _capped_demand(self, load_fraction: float) -> float:
        """Rack demand with the per-group caps applied."""
        demands = self.rack.group_demands_at_load(load_fraction)
        if self.group_caps_w is None:
            return sum(demands)
        if len(self.group_caps_w) != len(demands):
            raise ConfigurationError(
                f"group_caps_w has {len(self.group_caps_w)} entries for "
                f"{len(demands)} groups"
            )
        return sum(min(d, cap) for d, cap in zip(demands, self.group_caps_w))

    @trace("controller.epoch")
    def run_epoch(self, time_s: float, load_fraction: float = 1.0) -> EpochRecord:
        """Execute one scheduling epoch starting at ``time_s``."""
        if not 0.0 <= load_fraction <= 1.0:
            raise ConfigurationError("load fraction must be in [0, 1]")

        demand_now = self.monitor.observe_demand(self._capped_demand(load_fraction))
        renewable_now = self.monitor.observe_renewable(self.pdu.renewable.power_at(time_s))
        if not self.scheduler.renewable_predictor.ready:
            # First epoch with no history: seed the predictors with the
            # current metered values so a forecast exists.
            self.scheduler.observe(renewable_now, demand_now)

        # Algorithm 1, line 3: unseen pairs trigger a training run.
        trained = self.ensure_profiled(time_s)

        decision = self.scheduler.plan_sources(
            self.pdu.battery, self.pdu.grid, self.epoch_s
        )
        if self.budget_override is not None:
            decision = replace(
                decision,
                case=PowerCase.B,
                rack_budget_w=self.budget_override(time_s, demand_now),
                use_battery=True,
                grid_charges_battery=False,
            )
        budget_w = decision.rack_budget_w

        oracle = self._make_oracle(budget_w, load_fraction) if self.policy.requires_oracle else None
        plan = self.scheduler.allocate_plan(budget_w, self.groups, oracle)
        ratios = plan.ratios
        group_budgets = tuple(r * budget_w for r in ratios)
        if self.group_caps_w is not None:
            group_budgets = tuple(
                min(b, cap) for b, cap in zip(group_budgets, self.group_caps_w)
            )
            ratios = tuple(
                b / budget_w if budget_w > 0 else 0.0 for b in group_budgets
            )
        enforced = self.enforcer.spc.apply(
            self.servers, group_budgets, plan.powered_counts
        )

        record = self._execute_substeps(
            time_s, load_fraction, decision, budget_w, ratios, group_budgets,
            enforced.state_indices, trained, plan.powered_counts,
            plan.projected_perf,
        )

        # End-of-epoch observation feeds the next forecast.  Each substep
        # was metered exactly once inside `_execute_substeps`; feeding the
        # mean of those readings avoids jittering an already-averaged
        # value a second time.
        self.scheduler.observe(record.renewable_metered_w, demand_now)
        return record

    # ------------------------------------------------------------------
    # Rack execution with load balancing
    # ------------------------------------------------------------------
    def _effective_counts(self, powered_counts: tuple[int, ...] | None) -> list[int]:
        """Servers actually executing per group this epoch."""
        if powered_counts is None:
            return [g.count for g in self.rack.groups]
        return list(powered_counts)

    def _samples_for_states(self, states, load_fraction: float, counts=None):
        """One noise-free sample per group at the given power states.

        Batch/HPC workloads saturate every powered server.  Interactive
        workloads see the rack's offered request rate, which a load
        balancer routes proportionally to each server's SLO-compliant
        capacity — so load from powered-down servers is absorbed by the
        survivors when they have headroom (this is what bounds the gains
        on low-utilisation services like Memcached).  Mixed racks are
        supported: balancing happens within each interactive workload's
        groups; batch groups are independent.
        """
        n = len(self.rack.groups)
        if counts is None:
            counts = [g.count for g in self.rack.groups]
        curves = [self.rack.curve(g) for g in range(n)]
        samples: list = [None] * n
        interactive_groups: dict[str, list[int]] = {}
        for g, group in enumerate(self.rack.groups):
            if group.workload.is_interactive:
                interactive_groups.setdefault(group.workload.name, []).append(g)
            else:
                samples[g] = curves[g].serve(states[g], math.inf)
        for indices in interactive_groups.values():
            caps = {g: curves[g].deliverable_capacity(states[g]) for g in indices}
            total_cap = sum(caps[g] * counts[g] for g in indices)
            # Offered load is sized against the rack's nominal capacity
            # (all servers) — powering fewer servers does not shrink the
            # request stream, only the capacity serving it.
            offered = load_fraction * sum(
                curves[g].max_throughput * self.rack.groups[g].count for g in indices
            )
            frac = 1.0 if total_cap <= 0 else min(1.0, offered / total_cap)
            for g in indices:
                samples[g] = curves[g].serve(states[g], caps[g] * frac)
        return samples

    def _measure_rack(
        self, group_budgets_w: tuple[float, ...], load_fraction: float
    ) -> float:
        """Aggregate rack throughput if ``group_budgets_w`` were enforced."""
        states = [
            self.rack.curve(i).state_for_budget(budget / group.count)
            for i, (group, budget) in enumerate(zip(self.rack.groups, group_budgets_w))
        ]
        samples = self._samples_for_states(states, load_fraction)
        return sum(
            group.count * sample.throughput
            for group, sample in zip(self.rack.groups, samples)
        )

    def _make_oracle(self, budget_w: float, load_fraction: float):
        """The Manual policy's physical trial run: enforce, run, meter.

        Like the paper's physical trials, the measurement carries the
        Monitor's throughput noise.
        """

        def measure(ratios: tuple[float, ...]) -> float:
            budgets = tuple(r * budget_w for r in ratios)
            return self.monitor.observe_throughput(
                self._measure_rack(budgets, load_fraction)
            )

        return measure

    def _execute_substeps(
        self,
        time_s: float,
        load_fraction: float,
        decision: SourceDecision,
        budget_w: float,
        ratios: tuple[float, ...],
        group_budgets: tuple[float, ...],
        state_indices: tuple[int, ...],
        trained: tuple[tuple[str, str], ...],
        powered_counts: tuple[int, ...] | None = None,
        projected_perf: float | None = None,
    ) -> EpochRecord:
        sub_s = self.epoch_s / N_SUBSTEPS
        observations: list[ServerObservation] = []
        perf_sum = 0.0
        useful_sum = 0.0
        renewable_sum = 0.0
        metered_renewable_sum = 0.0
        r2l = b2l = g2l = charge = curtailed = 0.0
        charge_source = ChargeSource.NONE
        brownout = False
        soc_wh = self.pdu.battery.soc_wh

        # States, load and powered counts are fixed for the epoch, so the
        # noise-free samples and the rack totals are too; only metering
        # and the PDU flows differ between substeps.
        states = [group_servers[0].state for group_servers in self.servers]
        effective = self._effective_counts(powered_counts)
        samples = self._samples_for_states(states, load_fraction, effective)
        draw_total = 0.0
        rack_perf = 0.0
        rack_useful = 0.0
        for g, sample in enumerate(samples):
            count = effective[g]
            draw_total += count * sample.power_w
            rack_perf += count * sample.throughput
            if sample.throughput > 0.0:
                rack_useful += count * sample.power_w * sample.utilization
        for i in range(N_SUBSTEPS):
            t_sub = time_s + i * sub_s
            perf_total = rack_perf
            useful = rack_useful
            for g, sample in enumerate(samples):
                observations.append(
                    self.monitor.observe_server(sample, g, t_sub)
                )
            flows = self.enforcer.psc.apply(decision, draw_total, t_sub, sub_s)
            if flows.delivered_w < draw_total - 1e-6:
                # Sources under-delivered against the plan (forecast
                # error): the rack browns out proportionally.
                scale = flows.delivered_w / draw_total if draw_total > 0 else 0.0
                perf_total *= scale
                useful *= scale
                brownout = True
            perf_sum += perf_total
            useful_sum += useful
            renewable_sum += flows.renewable_available_w
            # The PV sensor is read once per substep, like every other
            # meter; the epoch aggregate is the mean of those readings.
            metered_renewable_sum += self.monitor.observe_renewable(
                flows.renewable_available_w
            )
            r2l += flows.breakdown.renewable_to_load_w
            b2l += flows.breakdown.battery_to_load_w
            g2l += flows.breakdown.grid_to_load_w
            charge += flows.breakdown.charge_w
            curtailed += flows.curtailed_w
            if flows.breakdown.charge_source is not ChargeSource.NONE:
                charge_source = flows.breakdown.charge_source
            soc_wh = flows.battery_soc_wh

        self.scheduler.feed_back(observations, self.groups)

        n = float(N_SUBSTEPS)
        useful_mean = useful_sum / n
        epu = 0.0 if budget_w <= 0 else min(useful_mean / budget_w, 1.0)
        return EpochRecord(
            time_s=time_s,
            case=decision.case,
            budget_w=budget_w,
            demand_w=decision.predicted_demand_w,
            renewable_w=renewable_sum / n,
            load_fraction=load_fraction,
            ratios=ratios,
            group_budgets_w=group_budgets,
            state_indices=state_indices,
            throughput=perf_sum / n,
            epu=epu,
            useful_power_w=useful_mean,
            renewable_to_load_w=r2l / n,
            battery_to_load_w=b2l / n,
            grid_to_load_w=g2l / n,
            charge_w=charge / n,
            charge_source=charge_source,
            battery_soc_wh=soc_wh,
            curtailed_w=curtailed / n,
            trained_pairs=trained,
            brownout=brownout,
            renewable_metered_w=metered_renewable_sum / n,
            powered_counts=powered_counts,
            projected_perf=projected_perf,
        )
