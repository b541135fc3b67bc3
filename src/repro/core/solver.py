"""The PAR problem solver (paper Section IV-B.3, Eq. 6-8).

Given the profiling database's quadratic projections
``Perf_i = f(l_i, m_i, n_i, Power_i)`` for each server group, the solver
finds the power allocation ratio (PAR) vector that maximises aggregate
rack performance:

    maximize   sum_i  count_i * f_i(eta_i * P / count_i)
    subject to sum_i eta_i <= 1,  eta_i >= 0

with the paper's boundary semantics baked into every projection: a server
allocated less than its idle power produces nothing, and performance
plateaus beyond the workload's maximum draw.  Power the solver leaves
unallocated (``1 - sum eta_i``) flows to the battery when the renewable
supply is sufficient (Section IV-B.3).

Equal shares within a group are implicit — the paper distributes the same
power to same-type servers — so the decision variable is the *per-server*
power ``p_i`` in the box ``[min_i, max_i]``, with group totals
``count_i * p_i`` bounded by the budget.

The solver is exact for every fit family the profiling database produces
(linear and quadratic — the paper picks a quadratic precisely so that the
program stays a QP with an analytic solution):

1. **Subset enumeration** — powering a server below idle wastes the whole
   allocation, so the solver explicitly considers switching entire groups
   off (all 2^k - 1 non-empty subsets; the paper bounds k at 3).
2. **KKT candidate enumeration** — inside a subset the objective is a
   separable quadratic over a box intersected with one budget halfspace,
   so some maximiser is a KKT point: each group is at its lower bound,
   upper bound, or free with equal marginal throughput-per-watt (the
   water-filling condition ``f_i'(p_i) = lambda``).  Every such point is
   the solution of a tiny linear system.  A free *linear* group fixes
   ``lambda`` to its slope and takes whatever budget the others leave;
   two free linear groups with equal slopes can trade power at no cost
   until one meets a bound, so that assignment adds nothing new.  Concave,
   convex and linear fits are all covered; candidates are scored on the
   clamped projections and the best wins.

The paper's Manual baseline — every PAR composition at 10% granularity
scored on the *measured* objective — is :meth:`PARSolver.exhaustive`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.database import PerfPowerFit
from repro.errors import SolverError
from repro.obs.metrics import REGISTRY as _REGISTRY

# Process-wide solver telemetry (per-instance counters stay authoritative
# for cache_info(); these aggregate across every solver in the process).
_SOLVE_SECONDS = _REGISTRY.histogram(
    "repro_solver_solve_seconds", "PARSolver.solve wall time (cache hits included)"
)
_SOLVES_TOTAL = _REGISTRY.counter(
    "repro_solver_solves_total", "Solves by winning mechanism", labelnames=("method",)
)
_CACHE_LOOKUPS = _REGISTRY.counter(
    "repro_solver_cache_lookups_total", "Solve-cache lookups", labelnames=("result",)
)
_CACHE_HIT = _CACHE_LOOKUPS.labels("hit")
_CACHE_MISS = _CACHE_LOOKUPS.labels("miss")

#: Feasibility slack: a solution may exceed the budget by at most this many
#: watts (floating-point headroom, far below meter noise).
FEASIBILITY_SLACK_W = 1e-6


@dataclass(frozen=True)
class GroupModel:
    """One server group as the solver sees it.

    Attributes
    ----------
    name:
        Group label (platform name) for reporting.
    count:
        Number of identical servers in the group.
    fit:
        The database projection for (platform, workload).
    """

    name: str
    count: int
    fit: PerfPowerFit

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SolverError(f"group {self.name}: count must be >= 1")


@dataclass(frozen=True)
class PARSolution:
    """A solved allocation.

    Attributes
    ----------
    ratios:
        PAR vector: fraction of the total budget granted to each group
        (``sum <= 1``; the remainder is unallocated).
    per_server_w:
        Power cap for each server in each group (W).
    expected_perf:
        Projected aggregate performance under the database fits.
    method:
        Which solver produced it: ``"kkt"`` (:class:`PARSolver`) or
        ``"kkt-partial"`` (:class:`PartialGroupSolver`).
    """

    ratios: tuple[float, ...]
    per_server_w: tuple[float, ...]
    expected_perf: float
    method: str
    #: How many of each group's servers are powered; ``None`` means all
    #: (the paper's same-power-per-type rule).  Set by
    #: :class:`PartialGroupSolver`.
    powered_counts: tuple[int, ...] | None = None

    @property
    def allocated_fraction(self) -> float:
        """Share of the budget actually handed to servers."""
        return sum(self.ratios)


class PARSolver:
    """Finds the optimal PAR for up to a handful of server groups.

    Parameters
    ----------
    max_groups:
        Sanity bound; the paper's rack-level deployment caps at 3 types.
    safety_margin:
        Relative padding above each fit's power-on boundary (see
        :meth:`_lo`).
    cache_size:
        Capacity of the per-instance solve memoization cache (``0``
        disables it).  Solutions are keyed on the group fits'
        coefficients and bounds, the group counts, and the exact budget
        — so the cyclic budgets of a constrained-supply sweep, which
        re-pose the exact same program dozens of times per run, solve
        once, and a hit is always the answer to the program posed.
    """

    #: The solver has no numerical polish stage; kept as a read-only
    #: attribute for instrumentation that tags polished solves.
    scipy_polish = False

    def __init__(
        self,
        max_groups: int = 4,
        safety_margin: float = 0.05,
        cache_size: int = 1024,
    ) -> None:
        if safety_margin < 0:
            raise SolverError("safety margin must be non-negative")
        if cache_size < 0:
            raise SolverError("cache size must be non-negative")
        self.max_groups = max_groups
        self.safety_margin = safety_margin
        self.cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: dict[tuple, PARSolution] = {}

    def _lo(self, fit: PerfPowerFit) -> float:
        """Effective lower power bound for allocation decisions.

        The database's power-on boundary is learned from noisy meter
        samples; allocating *exactly* at it risks landing just below the
        server's true lowest active draw and wasting the whole share (the
        power-on cliff).  A small relative margin keeps allocations
        safely above the cliff.
        """
        return min(fit.min_power_w * (1.0 + self.safety_margin), fit.max_power_w)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, groups: Sequence[GroupModel], total_power_w: float) -> PARSolution:
        """Maximise projected rack performance under ``total_power_w``.

        Solutions are memoized per instance (see ``cache_size``): a call
        whose groups carry the same fitted coefficients/bounds and counts
        under the same budget returns the cached :class:`PARSolution`
        (frozen, so sharing is safe) without re-running the enumeration.

        Raises
        ------
        SolverError
            On empty input, too many groups, or a negative or non-finite
            budget.
        """
        self._validate_inputs(groups, total_power_w)
        start = perf_counter()
        try:
            if self.cache_size == 0:
                solution = self._solve_impl(groups, total_power_w)
                _SOLVES_TOTAL.labels(solution.method).inc()
                return solution
            key = self._cache_key(groups, total_power_w)
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                _CACHE_HIT.inc()
                _SOLVES_TOTAL.labels("cached").inc()
                return cached
            self.cache_misses += 1
            _CACHE_MISS.inc()
            solution = self._solve_impl(groups, total_power_w)
            _SOLVES_TOTAL.labels(solution.method).inc()
            if len(self._cache) >= self.cache_size:
                # FIFO eviction: dict preserves insertion order and the
                # adaptive policies retire old fits monotonically.
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = solution
            return solution
        finally:
            _SOLVE_SECONDS.observe(perf_counter() - start)

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def _validate_inputs(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> None:
        if not groups:
            raise SolverError("need at least one group")
        if len(groups) > self.max_groups:
            raise SolverError(
                f"{len(groups)} groups exceeds max_groups={self.max_groups}"
            )
        if not (math.isfinite(total_power_w) and total_power_w >= 0):
            raise SolverError(
                f"budget must be finite and non-negative, got {total_power_w}"
            )

    @staticmethod
    def _cache_key(groups: Sequence[GroupModel], total_power_w: float) -> tuple:
        return (
            tuple(
                (g.count, g.fit.coefficients, g.fit.min_power_w, g.fit.max_power_w)
                for g in groups
            ),
            total_power_w,
        )

    def cache_info(self) -> dict[str, float]:
        """Hit/miss counters and the current hit rate of the solve cache."""
        total = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "hit_rate": self.cache_hits / total if total else 0.0,
        }

    def clear_cache(self) -> None:
        """Drop all memoized solutions and reset the counters."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def _solve_impl(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> PARSolution:
        k = len(groups)
        best_p: tuple[float, ...] = (0.0,) * k
        best_score = 0.0
        if total_power_w > 0:
            for candidate in self._kkt_candidates(groups, total_power_w):
                score = self._score(groups, candidate)
                if score > best_score:
                    best_p, best_score = candidate, score
        if best_score <= 0.0:
            return PARSolution((0.0,) * k, (0.0,) * k, 0.0, "kkt")
        return self._to_solution(groups, best_p, best_score, "kkt", total_power_w)

    @staticmethod
    def compositions(k: int, granularity: float = 0.1) -> list[tuple[float, ...]]:
        """All PAR vectors summing to exactly 1 at ``granularity`` steps.

        This is the search space of the paper's Manual baseline (10%
        granularity, Table III).
        """
        if k < 1:
            raise SolverError("k must be >= 1")
        steps = round(1.0 / granularity)
        if abs(steps * granularity - 1.0) > 1e-9:
            raise SolverError("granularity must divide 1 evenly")
        out: list[tuple[float, ...]] = []
        for combo in itertools.combinations_with_replacement(range(k), steps):
            counts = [0] * k
            for idx in combo:
                counts[idx] += 1
            out.append(tuple(c * granularity for c in counts))
        return out

    @classmethod
    def exhaustive(
        cls,
        k: int,
        objective: Callable[[tuple[float, ...]], float],
        granularity: float = 0.1,
    ) -> tuple[tuple[float, ...], float]:
        """Try every composition and return the best (Manual's procedure).

        ``objective`` receives a PAR vector and returns measured rack
        performance; in the paper this is a physical trial run.
        """
        best_ratios: tuple[float, ...] | None = None
        best_value = -np.inf
        for ratios in cls.compositions(k, granularity):
            value = objective(ratios)
            if value > best_value:
                best_value = value
                best_ratios = ratios
        if best_ratios is None:  # pragma: no cover - compositions never empty
            raise SolverError("no composition evaluated")
        return best_ratios, float(best_value)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @staticmethod
    def _score(groups: Sequence[GroupModel], per_server_w: Sequence[float]) -> float:
        """Projected aggregate performance (clamped fits)."""
        return sum(
            g.count * g.fit.predict(p) for g, p in zip(groups, per_server_w)
        )

    @staticmethod
    def _to_solution(
        groups: Sequence[GroupModel],
        per_server_w: tuple[float, ...],
        score: float,
        method: str,
        total_power_w: float,
        powered_counts: tuple[int, ...] | None = None,
    ) -> PARSolution:
        # Never hand a server more than its plateau: trimming to max_w
        # keeps performance identical and releases power to the battery.
        trimmed = tuple(
            min(p, g.fit.max_power_w) if p > 0 else 0.0
            for g, p in zip(groups, per_server_w)
        )
        counts = powered_counts or tuple(g.count for g in groups)
        ratios = tuple(k * p / total_power_w for k, p in zip(counts, trimmed))
        return PARSolution(ratios, trimmed, score, method, powered_counts)

    # ------------------------------------------------------------------
    # KKT enumeration
    # ------------------------------------------------------------------
    def _kkt_candidates(
        self, groups: Sequence[GroupModel], budget_w: float
    ) -> Iterable[tuple[float, ...]]:
        k = len(groups)
        indices = range(k)
        for powered in itertools.product((False, True), repeat=k):
            if not any(powered):
                continue
            on = [i for i in indices if powered[i]]
            min_total = sum(groups[i].count * self._lo(groups[i].fit) for i in on)
            if min_total > budget_w:
                continue
            yield from self._subset_candidates(groups, on, budget_w)

    def _subset_candidates(
        self, groups: Sequence[GroupModel], on: list[int], budget_w: float
    ) -> Iterable[tuple[float, ...]]:
        """KKT points for a fixed powered subset."""
        k = len(groups)

        def assemble(values: dict[int, float]) -> tuple[float, ...] | None:
            p = [0.0] * k
            total = 0.0
            for i in on:
                v = values[i]
                fit = groups[i].fit
                lo = self._lo(fit)
                if v < lo - 1e-9 or v > fit.max_power_w + 1e-9:
                    return None
                v = min(max(v, lo), fit.max_power_w)
                p[i] = v
                total += groups[i].count * v
            if total > budget_w + FEASIBILITY_SLACK_W:
                return None
            return tuple(p)

        # Each powered group is at LO, HI, or FREE.
        for assignment in itertools.product(("lo", "hi", "free"), repeat=len(on)):
            fixed: dict[int, float] = {}
            free: list[int] = []
            for i, tag in zip(on, assignment):
                fit = groups[i].fit
                if tag == "lo":
                    fixed[i] = self._lo(fit)
                elif tag == "hi":
                    fixed[i] = fit.max_power_w
                else:
                    free.append(i)

            fixed_total = sum(groups[i].count * fixed[i] for i in fixed)
            if not free:
                candidate = assemble(fixed)
                if candidate is not None:
                    yield candidate
                continue

            # Budget-slack stationary point: f_i'(p_i) = 0 for free i.
            interior: dict[int, float] = dict(fixed)
            ok = True
            for i in free:
                fit = groups[i].fit
                if abs(fit.l) < 1e-15:
                    ok = False  # linear fit: no interior stationary point
                    break
                interior[i] = -fit.m / (2.0 * fit.l)
            if ok:
                candidate = assemble(interior)
                if candidate is not None:
                    yield candidate

            # Budget-tight stationary point: f_i'(p_i) = lambda for free i,
            # sum count_i p_i = budget, with p_i = (lambda - m_i) / (2 l_i)
            # for a curved group.  A free linear group pins lambda to its
            # slope and takes the budget the others leave; with no linear
            # group, solve the 1-D linear system for lambda.
            linear = [i for i in free if abs(groups[i].fit.l) < 1e-15]
            if len(linear) > 1:
                continue
            curved = [i for i in free if i not in linear]
            remaining = budget_w - fixed_total
            if linear:
                lam = groups[linear[0]].fit.m
            else:
                denom = sum(groups[i].count / (2.0 * groups[i].fit.l) for i in curved)
                if abs(denom) < 1e-15:
                    continue
                offset = sum(
                    groups[i].count * groups[i].fit.m / (2.0 * groups[i].fit.l)
                    for i in curved
                )
                lam = (remaining + offset) / denom
            tight: dict[int, float] = dict(fixed)
            for i in curved:
                fit = groups[i].fit
                tight[i] = (lam - fit.m) / (2.0 * fit.l)
            if linear:
                j = linear[0]
                tight[j] = (
                    remaining - sum(groups[i].count * tight[i] for i in curved)
                ) / groups[j].count
            candidate = assemble(tight)
            if candidate is not None:
                yield candidate


class PartialGroupSolver(PARSolver):
    """PAR optimisation with per-group partial power-on (beyond the paper).

    The paper distributes "the same amount of power to the same type of
    servers by default" — a group is all-on or all-off.  That loses
    exactly at the power-on cliffs: a budget that cannot lift all five
    Xeons above their minimum active draw wastes the whole group, even
    when it could have run three of them well.

    This solver additionally chooses *how many* servers of each group to
    power (``k_i`` of ``count_i``, each powered server still receiving an
    equal share):

        maximize   sum_i  k_i * f_i(p_i)
        subject to sum_i  k_i * p_i <= P,   p_i in [lo_i, hi_i],
                   k_i in {0 .. count_i}

    For each of the (count_i + 1)-way per-group choices — at most
    6^3 = 216 combinations at the paper's rack sizes — the inner problem
    is the base class's exact KKT enumeration with counts ``k``.
    """

    def _solve_impl(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> PARSolution:
        """Maximise projected performance, also choosing powered counts.

        Returns a :class:`PARSolution` whose ``powered_counts`` states
        how many servers of each group share that group's budget.
        Reached through the base class's :meth:`solve`, which validates
        inputs and memoizes solutions.
        """
        combinations = 1
        for g in groups:
            combinations *= g.count + 1
        if combinations > 20_000:
            raise SolverError(
                f"{combinations} powered-count combinations exceed the "
                "exact enumeration budget; use PARSolver (group-granular) "
                "for racks this large"
            )

        n = len(groups)
        zero = PARSolution(
            (0.0,) * n, (0.0,) * n, 0.0, "kkt", powered_counts=(0,) * n
        )
        if total_power_w == 0:
            return zero

        best_p: tuple[float, ...] = (0.0,) * n
        best_k: tuple[int, ...] = (0,) * n
        best_score = 0.0

        for k in itertools.product(*(range(g.count + 1) for g in groups)):
            if not any(k):
                continue
            min_total = sum(
                ki * self._lo(g.fit) for ki, g in zip(k, groups) if ki > 0
            )
            if min_total > total_power_w:
                continue
            scaled = [
                GroupModel(g.name, ki, g.fit)
                for g, ki in zip(groups, k)
                if ki > 0
            ]
            on = list(range(len(scaled)))
            for candidate in self._subset_candidates(scaled, on, total_power_w):
                score = self._score(scaled, candidate)
                if score > best_score + 1e-12:
                    # Re-expand the candidate onto the original group axes.
                    expanded = [0.0] * n
                    j = 0
                    for i, ki in enumerate(k):
                        if ki > 0:
                            expanded[i] = candidate[j]
                            j += 1
                    best_p = tuple(expanded)
                    best_k = tuple(k)
                    best_score = score

        if best_score <= 0.0:
            return zero
        return self._to_solution(
            groups, best_p, best_score, "kkt-partial", total_power_w, best_k
        )
