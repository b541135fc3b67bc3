"""Differential checking of the PAR solver against independent oracles.

:meth:`~repro.core.solver.PARSolver.solve` is the KKT enumeration alone,
exact for the linear and quadratic fits the database produces.  Seeded
random programs — linear, concave and convex fits, single-server groups,
budgets exactly at the power-on total — are solved by it and by three
oracles that share none of its search code: a dense simplex ``"grid"``,
scipy ``"slsqp"`` per powered subset, and a per-server box ``"brute"``
force.  Every answer must be feasible (budget and per-server box), and
no oracle may beat ``solve`` by more than :data:`EXACT_REL_TOL`
relative.  The oracles are held to the exact budget, so none can win by
spending the solver's :data:`FEASIBILITY_SLACK_W`.  A failure reproduces
bit-identically from its case seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.database import FitKind, PerfPowerFit
from repro.core.solver import (
    FEASIBILITY_SLACK_W,
    GroupModel,
    PARSolution,
    PARSolver,
)
from repro.errors import SolverError

#: The production solver (``"kkt"``) and the oracles it is checked against.
METHODS = ("kkt", "grid", "slsqp", "brute")
ORACLES = METHODS[1:]

#: No oracle may beat ``solve`` by more than this fraction.
EXACT_REL_TOL = 1e-9

#: Relative headroom an oracle's allocation may take over the budget:
#: float rounding only, far too little to buy a measurable gain.
_ORACLE_BUDGET_ROUNDING = 1e-12

#: The fit families :func:`random_case` draws from.
FAMILIES = ("linear", "concave", "convex")


@dataclass(frozen=True)
class CaseOutcome:
    """One differential case: the program, the per-method scores, and
    any cross-check failures (empty means the case passed)."""

    case_seed: int
    n_groups: int
    budget_w: float
    perf: tuple[tuple[str, float], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class DifferentialReport:
    """Corpus-level result of :func:`run_differential`."""

    n_cases: int
    seed: int
    failures: tuple[CaseOutcome, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return (
                f"differential: {self.n_cases} cases, no oracle beats the solver"
            )
        lines = [
            f"differential: {len(self.failures)}/{self.n_cases} cases FAILED"
        ]
        for outcome in self.failures[:10]:
            lines.append(
                f"  case seed={outcome.case_seed} "
                f"(k={outcome.n_groups}, budget={outcome.budget_w:.1f} W): "
                + "; ".join(outcome.failures)
            )
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


def solve_via(
    solver: PARSolver,
    groups: Sequence[GroupModel],
    budget_w: float,
    method: str,
) -> PARSolution:
    """Answer one program with exactly one of :data:`METHODS`.

    ``"kkt"`` is ``solver.solve`` itself; the others are the oracles,
    which honour the solver's safety margin (the same feasible set) and
    label their solutions with their own name.

    Raises
    ------
    SolverError
        On invalid inputs or an unknown ``method``.
    """
    if method not in METHODS:
        raise SolverError(
            f"unknown solve method {method!r}; expected one of {METHODS}"
        )
    if method == "kkt":
        return solver.solve(groups, budget_w)
    solver._validate_inputs(groups, budget_w)
    k = len(groups)
    best_p, best_score = (0.0,) * k, 0.0
    if budget_w > 0:
        search = {"grid": grid_best, "slsqp": slsqp_best, "brute": brute_force}
        best_p, best_score = search[method](solver, groups, budget_w)
    if best_score <= 0.0:
        return PARSolution((0.0,) * k, (0.0,) * k, 0.0, method)
    return solver._to_solution(groups, best_p, best_score, method, budget_w)


def _predict_array(solver: PARSolver, fit: PerfPowerFit, p: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`PerfPowerFit.predict` with the safety margin."""
    clamped = np.minimum(p, fit.max_power_w)
    values = np.maximum(np.polyval(fit.coefficients, clamped), 0.0)
    return np.where(p < solver._lo(fit), 0.0, values)


def _best_point(
    solver: PARSolver,
    groups: Sequence[GroupModel],
    budget_w: float,
    per_server: np.ndarray,
) -> tuple[tuple[float, ...], float]:
    """The best budget-feasible column of a ``(k, n)`` candidate array."""
    counts = np.array([g.count for g in groups], dtype=float)
    scores = np.zeros(per_server.shape[1])
    for i, group in enumerate(groups):
        scores += group.count * _predict_array(solver, group.fit, per_server[i])
    spent = counts @ per_server
    scores[spent > budget_w * (1.0 + _ORACLE_BUDGET_ROUNDING)] = -np.inf
    best = int(np.argmax(scores))
    return tuple(float(v) for v in per_server[:, best]), float(scores[best])


def grid_best(
    solver: PARSolver,
    groups: Sequence[GroupModel],
    budget_w: float,
    granularity: float | None = None,
) -> tuple[tuple[float, ...], float]:
    """Dense simplex sweep over PAR vectors at ``granularity`` steps.

    Defaults to 1% for up to two groups and 4% for more, which keeps the
    3-group simplex near 10^4 points.
    """
    k = len(groups)
    step = granularity or (0.01 if k <= 2 else 0.04)
    fractions = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    grids = np.meshgrid(*([fractions] * k), indexing="ij")
    etas = np.stack([g.ravel() for g in grids], axis=0)
    etas = etas[:, etas.sum(axis=0) <= 1.0 + 1e-12]
    counts = np.array([g.count for g in groups], dtype=float)[:, None]
    return _best_point(solver, groups, budget_w, etas * budget_w / counts)


def brute_force(
    solver: PARSolver, groups: Sequence[GroupModel], budget_w: float
) -> tuple[tuple[float, ...], float]:
    """Per-server box brute force.

    Each group is off or at one of evenly spaced powers from its
    power-on bound to its plateau, ends included; on top of that grid,
    every group in turn takes exactly the budget the others leave
    (capped at its plateau, off if below its power-on bound).
    """
    points = {1: 257, 2: 65}.get(len(groups), 21)
    axes = [
        np.concatenate(([0.0], np.linspace(solver._lo(g.fit), g.fit.max_power_w, points)))
        for g in groups
    ]
    grid = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=0)
    counts = np.array([g.count for g in groups], dtype=float)[:, None]
    spent = (counts * grid).sum(axis=0)
    candidates = [grid]
    for j, group in enumerate(groups):
        fill = grid.copy()
        rest = (budget_w - (spent - counts[j] * grid[j])) / group.count
        rest = np.minimum(rest, group.fit.max_power_w)
        fill[j] = np.where(rest >= solver._lo(group.fit), rest, 0.0)
        candidates.append(fill)
    return _best_point(solver, groups, budget_w, np.concatenate(candidates, axis=1))


def polish(
    solver: PARSolver,
    groups: Sequence[GroupModel],
    budget_w: float,
    start: Sequence[float],
) -> tuple[tuple[float, ...], float] | None:
    """SLSQP from ``start`` within its powered subset's boxes.

    Returns ``None`` when the start is over budget or SLSQP fails.  A
    result that overshoots the budget by SLSQP's constraint tolerance is
    pulled back toward the power-on bounds until it fits exactly.
    """
    from scipy import optimize  # only the oracle needs scipy

    on = [i for i, p in enumerate(start) if p > 0.0]
    if not on:
        return None
    lo = np.array([solver._lo(groups[i].fit) for i in on])
    hi = np.array([groups[i].fit.max_power_w for i in on])
    counts = np.array([groups[i].count for i in on], dtype=float)
    x0 = np.clip(np.array([start[i] for i in on]), lo, hi)
    if counts @ x0 > budget_w * (1.0 + _ORACLE_BUDGET_ROUNDING):
        return None

    def negative_perf(x: np.ndarray) -> float:
        return -sum(
            groups[i].count * groups[i].fit.predict(float(xi)) for i, xi in zip(on, x)
        )

    result = optimize.minimize(
        negative_perf,
        x0=x0,
        bounds=list(zip(lo, hi)),
        constraints=[{"type": "ineq", "fun": lambda x: budget_w - float(counts @ x)}],
        method="SLSQP",
    )
    if not result.success:
        return None
    x = np.clip(result.x, lo, hi)
    headroom = float(counts @ (x - lo))
    if counts @ x > budget_w and headroom > 0:
        x = lo + (x - lo) * max(0.0, budget_w - float(counts @ lo)) / headroom
    p = [0.0] * len(groups)
    for i, xi in zip(on, x):
        p[i] = float(xi)
    return tuple(p), PARSolver._score(groups, p)


def slsqp_best(
    solver: PARSolver, groups: Sequence[GroupModel], budget_w: float
) -> tuple[tuple[float, ...], float]:
    """Best :func:`polish` over all feasible powered subsets, each started
    halfway from its power-on bounds toward its plateaus (scaled down to
    fit the budget)."""
    k = len(groups)
    best: tuple[tuple[float, ...], float] = ((0.0,) * k, 0.0)
    for powered in itertools.product((False, True), repeat=k):
        on = [i for i in range(k) if powered[i]]
        lo = {i: solver._lo(groups[i].fit) for i in on}
        min_total = sum(groups[i].count * lo[i] for i in on)
        if not on or min_total > budget_w:
            continue
        span = {i: max(0.0, groups[i].fit.max_power_w - lo[i]) for i in on}
        denom = sum(groups[i].count * span[i] for i in on)
        t = 1.0 if denom <= 0 else min(1.0, (budget_w - min_total) / denom)
        start = [lo[i] + 0.5 * t * span[i] if i in lo else 0.0 for i in range(k)]
        polished = polish(solver, groups, budget_w, start)
        if polished is not None and polished[1] > best[1]:
            best = polished
    return best


def random_fit(rng: random.Random, family: str) -> PerfPowerFit:
    """One seeded fit of ``family`` (see :data:`FAMILIES`), productive at
    its power-on point.  Linear slopes may dip slightly negative (a flat,
    noisy profile); concave vertices fall inside the box or past the
    plateau; convex vertices below the box or inside it (a bowl)."""
    min_p = rng.uniform(40.0, 120.0)
    max_p = min_p * rng.uniform(1.5, 3.0)
    perf_at_min = rng.uniform(10.0, 100.0)
    if family == "linear":
        m = rng.uniform(-0.5, 5.0)
        return PerfPowerFit(
            (m, perf_at_min - m * min_p), min_p, max_p, kind=FitKind.LINEAR
        )
    if family == "concave":
        l, vertex = -rng.uniform(0.01, 0.5), rng.uniform(min_p, 1.5 * max_p)
    else:
        l, vertex = rng.uniform(0.001, 0.2), rng.uniform(2 * min_p - max_p, max_p)
    m = -2.0 * l * vertex
    return PerfPowerFit((l, m, perf_at_min - (l * min_p**2 + m * min_p)), min_p, max_p)


def random_case(
    rng: random.Random, safety_margin: float = 0.05
) -> tuple[tuple[GroupModel, ...], float]:
    """One seeded random PAR program.

    One to three groups, each with a fit from a random family and a
    third of them single-server.  The budget is exactly the all-groups
    power-on total one time in five and up to 3x it otherwise.
    """
    k = rng.randint(1, 3)
    groups = []
    for i in range(k):
        count = 1 if rng.random() < 1 / 3 else rng.randint(2, 6)
        fit = random_fit(rng, rng.choice(FAMILIES))
        groups.append(GroupModel(name=f"g{i}", count=count, fit=fit))
    power_on_total = sum(
        g.count * min(g.fit.min_power_w * (1.0 + safety_margin), g.fit.max_power_w)
        for g in groups
    )
    scale = 1.0 if rng.random() < 0.2 else rng.uniform(1.0, 3.0)
    return tuple(groups), power_on_total * scale


def check_case(
    solver: PARSolver,
    groups: Sequence[GroupModel],
    budget_w: float,
    case_seed: int,
) -> CaseOutcome:
    """Solve one program every way and check ``solve`` against the oracles."""
    solutions = {
        method: solve_via(solver, groups, budget_w, method) for method in METHODS
    }
    failures: list[str] = []

    for method, sol in solutions.items():
        total = sum(g.count * p for g, p in zip(groups, sol.per_server_w))
        if total > budget_w + FEASIBILITY_SLACK_W:
            failures.append(
                f"{method}: infeasible, allocates {total:.6f} W "
                f"over budget {budget_w:.6f} W"
            )
        for g, p in zip(groups, sol.per_server_w):
            if p > 0 and p > g.fit.max_power_w + 1e-9:
                failures.append(
                    f"{method}: group {g.name} allocated {p:.6f} W above "
                    f"its plateau {g.fit.max_power_w:.6f} W"
                )
            if 0 < p < solver._lo(g.fit) - 1e-9:
                failures.append(
                    f"{method}: group {g.name} allocated {p:.6f} W below "
                    f"its power-on bound"
                )

    best = solutions["kkt"].expected_perf
    ceiling = best + EXACT_REL_TOL * max(abs(best), 1.0)
    for method in ORACLES:
        perf = solutions[method].expected_perf
        if perf > ceiling:
            failures.append(
                f"{method} ({perf:.9f}) beats the solver ({best:.9f})"
            )

    return CaseOutcome(
        case_seed=case_seed,
        n_groups=len(groups),
        budget_w=budget_w,
        perf=tuple((m, solutions[m].expected_perf) for m in METHODS),
        failures=tuple(failures),
    )


def run_differential(n_cases: int = 200, seed: int = 0) -> DifferentialReport:
    """Run the seeded corpus; deterministic for a given (n_cases, seed)."""
    solver = PARSolver(cache_size=0)
    failures: list[CaseOutcome] = []
    for i in range(n_cases):
        case_seed = seed * 1_000_003 + i
        rng = random.Random(case_seed)
        groups, budget_w = random_case(rng, safety_margin=solver.safety_margin)
        outcome = check_case(solver, groups, budget_w, case_seed)
        if not outcome.ok:
            failures.append(outcome)
    return DifferentialReport(
        n_cases=n_cases, seed=seed, failures=tuple(failures)
    )
