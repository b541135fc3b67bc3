"""The PAR solver (Eq. 6-8)."""

import itertools

import numpy as np
import pytest

from repro.core.database import FitKind, PerfPowerFit
from repro.core.solver import FEASIBILITY_SLACK_W, GroupModel, PARSolver
from repro.errors import SolverError
from repro.verify.differential import METHODS, solve_via


def make_fit(l, m, n, lo, hi):
    return PerfPowerFit(coefficients=(l, m, n), min_power_w=lo, max_power_w=hi)


def concave_group(name="A", count=5, t_max=100.0, lo=95.0, hi=150.0):
    """A concave quadratic peaking exactly at hi."""
    # f(p) = t_max * (1 - ((hi - p)/(hi - lo))^2), scaled so f(hi) = t_max.
    span = hi - lo
    l = -t_max / span**2
    m = 2 * t_max * hi / span**2
    n = t_max - t_max * hi**2 / span**2
    return GroupModel(name=name, count=count, fit=make_fit(l, m, n, lo, hi))


def linear_group(count):
    """``Perf = 5 P`` on the box [100, 200] W: no curvature at all."""
    fit = PerfPowerFit(coefficients=(5.0, 0.0), min_power_w=100.0,
                       max_power_w=200.0, kind=FitKind.LINEAR)
    return GroupModel("lin", count, fit)


def allocated_w(groups, sol):
    return sum(g.count * p for g, p in zip(groups, sol.per_server_w))


THREE_GROUPS = [
    concave_group("A", 5, t_max=100.0, lo=95.0, hi=150.0),
    concave_group("B", 5, t_max=40.0, lo=58.0, hi=75.0),
    concave_group("C", 5, t_max=60.0, lo=52.0, hi=80.0),
]


@pytest.fixture
def solver():
    return PARSolver(safety_margin=0.0)


class TestBasics:
    def test_zero_budget(self, solver):
        sol = solver.solve([concave_group()], 0.0)
        assert sol.ratios == (0.0,)
        assert sol.expected_perf == 0.0

    def test_budget_below_power_on(self, solver):
        g = concave_group(count=5, lo=95.0)
        sol = solver.solve([g], 400.0)  # 5 * 95 = 475 needed
        assert sol.expected_perf == 0.0

    def test_abundant_budget_saturates(self, solver):
        g = concave_group(count=5, t_max=100.0, hi=150.0)
        sol = solver.solve([g], 10000.0)
        assert sol.expected_perf == pytest.approx(500.0, rel=0.01)
        assert sol.per_server_w[0] == pytest.approx(150.0)

    def test_never_over_allocates_beyond_plateau(self, solver):
        g = concave_group(count=5, hi=150.0)
        sol = solver.solve([g], 10000.0)
        # Surplus stays unallocated (flows to the battery per the paper).
        assert sum(sol.ratios) < 1.0

    def test_ratios_sum_at_most_one(self, solver):
        groups = [concave_group("A", 5), concave_group("B", 5, t_max=50.0, lo=50.0, hi=80.0)]
        for budget in (500.0, 800.0, 1200.0, 2000.0):
            sol = solver.solve(groups, budget)
            assert sum(sol.ratios) <= 1.0 + 1e-9

    def test_allocation_feasible(self, solver):
        groups = [concave_group("A", 5), concave_group("B", 5, t_max=50.0, lo=50.0, hi=80.0)]
        for budget in (500.0, 700.0, 900.0, 1150.0):
            sol = solver.solve(groups, budget)
            total = sum(g.count * p for g, p in zip(groups, sol.per_server_w))
            assert total <= budget + 1e-6

    def test_empty_groups_rejected(self, solver):
        with pytest.raises(SolverError):
            solver.solve([], 100.0)

    def test_negative_budget_rejected(self, solver):
        with pytest.raises(SolverError):
            solver.solve([concave_group()], -1.0)

    def test_non_finite_budget_rejected(self, solver):
        for budget in (float("nan"), float("inf")):
            with pytest.raises(SolverError):
                solver.solve([concave_group()], budget)

    def test_three_groups_respect_budget(self, solver):
        for budget in (600.0, 850.0, 1000.0, 1200.0):
            sol = solver.solve(THREE_GROUPS, budget)
            assert allocated_w(THREE_GROUPS, sol) <= budget + FEASIBILITY_SLACK_W

    def test_three_groups_respect_boxes(self):
        solver = PARSolver(safety_margin=0.05)
        for budget in (700.0, 1500.0):
            sol = solver.solve(THREE_GROUPS, budget)
            for group, p in zip(THREE_GROUPS, sol.per_server_w):
                if p > 0:
                    assert p >= group.fit.min_power_w * 1.05 - 1e-9
                    assert p <= group.fit.max_power_w + 1e-9

    def test_method_label(self, solver):
        assert solver.solve(THREE_GROUPS, 1000.0).method == "kkt"
        assert solver.solve(THREE_GROUPS, 0.0).method == "kkt"

    def test_too_many_groups_rejected(self):
        solver = PARSolver(max_groups=2)
        groups = [concave_group(str(i)) for i in range(3)]
        with pytest.raises(SolverError):
            solver.solve(groups, 1000.0)

    def test_bad_safety_margin_rejected(self):
        with pytest.raises(SolverError):
            PARSolver(safety_margin=-0.1)


class TestOptimality:
    """KKT + grid must match brute force on quadratic instances."""

    def _brute_force(self, groups, budget, steps=400):
        best = 0.0
        if len(groups) == 2:
            g0, g1 = groups
            for eta in np.linspace(0, 1, steps + 1):
                p0 = eta * budget / g0.count
                p1 = (1 - eta) * budget / g1.count
                for q0 in (0.0, min(p0, g0.fit.max_power_w)):
                    for q1 in (0.0, min(p1, g1.fit.max_power_w)):
                        perf = g0.count * g0.fit.predict(q0) + g1.count * g1.fit.predict(q1)
                        best = max(best, perf)
        return best

    def test_matches_brute_force_two_groups(self, solver):
        groups = [
            concave_group("A", 5, t_max=100.0, lo=95.0, hi=150.0),
            concave_group("B", 5, t_max=60.0, lo=52.0, hi=80.0),
        ]
        for budget in (550.0, 700.0, 900.0, 1100.0, 1200.0):
            sol = solver.solve(groups, budget)
            brute = self._brute_force(groups, budget)
            assert sol.expected_perf >= brute * 0.995

    def test_water_filling_equalises_marginals(self, solver):
        # With both groups strictly interior, marginal perf/W must match.
        groups = [
            concave_group("A", 1, t_max=100.0, lo=50.0, hi=200.0),
            concave_group("B", 1, t_max=80.0, lo=50.0, hi=200.0),
        ]
        sol = solver.solve(groups, 250.0)
        pa, pb = sol.per_server_w
        if 50.0 < pa < 200.0 and 50.0 < pb < 200.0:
            da = groups[0].fit.derivative(pa)
            db = groups[1].fit.derivative(pb)
            assert da == pytest.approx(db, rel=0.05)

    def test_prefers_efficient_group(self, solver):
        fast = concave_group("fast", 5, t_max=200.0, lo=50.0, hi=80.0)
        slow = concave_group("slow", 5, t_max=20.0, lo=95.0, hi=150.0)
        sol = solver.solve([fast, slow], 400.0)
        # Budget fits the fast group exactly; powering slow instead or
        # splitting below fast's saturation would lose throughput.
        assert sol.per_server_w[0] == pytest.approx(80.0, rel=0.02)
        assert sol.expected_perf == pytest.approx(1000.0, rel=0.02)

    def test_powers_off_group_when_better(self, solver):
        # 500 W: either 5 "big" at their 95 W minimum (tiny perf) or
        # 5 "small" saturated (big perf).  The solver must switch the
        # big group off.
        big = concave_group("big", 5, t_max=10.0, lo=95.0, hi=150.0)
        small = concave_group("small", 5, t_max=100.0, lo=52.0, hi=80.0)
        sol = solver.solve([big, small], 450.0)
        assert sol.per_server_w[0] == 0.0
        assert sol.per_server_w[1] > 0.0

    def test_three_groups(self, solver):
        groups = [
            concave_group("A", 5, t_max=100.0, lo=95.0, hi=150.0),
            concave_group("B", 5, t_max=40.0, lo=58.0, hi=75.0),
            concave_group("C", 5, t_max=60.0, lo=52.0, hi=80.0),
        ]
        sol = solver.solve(groups, 1000.0)
        assert sol.expected_perf > 0.0
        total = sum(g.count * p for g, p in zip(groups, sol.per_server_w))
        assert total <= 1000.0 + 1e-6

    def test_non_concave_fit_handled_by_grid(self, solver):
        # A convex (bowl) fit from degenerate samples: the optimum is the
        # upper box corner, which the KKT enumeration hits exactly.
        convex = GroupModel("X", 2, make_fit(0.5, -50.0, 2000.0, 60.0, 100.0))
        sol = solver.solve([convex], 200.0)
        assert sol.per_server_w == (100.0,)
        assert sol.expected_perf == 2 * convex.fit.predict(100.0)


class TestLinearFits:
    """A free linear group sits on the budget-tight vertex: lambda is its
    slope and it takes whatever budget the other groups leave."""

    def test_single_linear_server_takes_the_whole_budget(self, solver):
        sol = solver.solve([linear_group(1)], 150.0)
        assert sol.per_server_w == (150.0,)
        assert sol.expected_perf == pytest.approx(750.0, rel=1e-12)

    def test_curved_group_meets_the_linear_slope(self, solver):
        groups = [concave_group("A", 1, t_max=100.0, lo=50.0, hi=80.0), linear_group(1)]
        sol = solver.solve(groups, 250.0)
        # lambda = 5: A runs where its marginal perf/W falls to the
        # line's slope, (5 - m) / 2l = 57.5 W, and the line takes the
        # remaining 192.5 W.  f_A(57.5) = 100 * (1 - (22.5 / 30)^2); this
        # beats A off and the line at its 200 W plateau (1000).
        assert sol.per_server_w == pytest.approx((57.5, 192.5), rel=1e-12)
        assert sol.expected_perf == pytest.approx(43.75 + 962.5, rel=1e-12)

    def test_two_linear_groups_share_the_budget_optimally(self, solver):
        steep = GroupModel("steep", 1, make_fit(0.0, 7.0, 0.0, 100.0, 200.0))
        groups = [linear_group(1), steep]
        sol = solver.solve(groups, 350.0)
        # Steeper line to its plateau, the rest to the shallower one.
        assert sol.per_server_w == pytest.approx((150.0, 200.0), rel=1e-12)
        assert sol.expected_perf == pytest.approx(750.0 + 1400.0, rel=1e-12)


class TestSafetyMargin:
    def test_margin_lifts_lower_bound(self):
        solver = PARSolver(safety_margin=0.10)
        g = concave_group("A", 1, lo=100.0, hi=200.0)
        sol = solver.solve([g], 105.0)
        # 105 < 100 * 1.10: the margin forbids powering this server.
        assert sol.expected_perf == 0.0

    def test_margin_respected_in_allocations(self):
        solver = PARSolver(safety_margin=0.05)
        g = concave_group("A", 1, lo=100.0, hi=200.0)
        sol = solver.solve([g], 500.0)
        assert sol.per_server_w[0] >= 100.0 * 1.05 - 1e-9


class TestCompositions:
    def test_ten_percent_grid_size(self):
        # Compositions of 10 steps into 2 groups: 11 vectors.
        assert len(PARSolver.compositions(2, 0.1)) == 11

    def test_three_groups_composition_count(self):
        # Stars and bars: C(10 + 2, 2) = 66.
        assert len(PARSolver.compositions(3, 0.1)) == 66

    def test_all_sum_to_one(self):
        for ratios in PARSolver.compositions(3, 0.1):
            assert sum(ratios) == pytest.approx(1.0)

    def test_bad_granularity_rejected(self):
        with pytest.raises(SolverError):
            PARSolver.compositions(2, 0.3)

    def test_bad_k_rejected(self):
        with pytest.raises(SolverError):
            PARSolver.compositions(0, 0.1)

    def test_exhaustive_finds_best(self):
        # Objective peaked at (0.6, 0.4).
        def objective(ratios):
            return -abs(ratios[0] - 0.6)

        best, value = PARSolver.exhaustive(2, objective, 0.1)
        assert best == pytest.approx((0.6, 0.4))
        assert value == pytest.approx(0.0)


class TestMemoization:
    def groups(self):
        return [
            concave_group("A", 5),
            concave_group("B", 5, t_max=50.0, lo=50.0, hi=80.0),
        ]

    def test_cached_solutions_match_cold_solves_over_budget_cycle(self):
        # The constrained-supply sweep re-poses the same programs every
        # time the budget cycle wraps; a warm solver must answer exactly
        # as a cache-disabled one.
        from repro.sim.experiment import ExperimentConfig

        warm = PARSolver(safety_margin=0.0)
        cold = PARSolver(safety_margin=0.0, cache_size=0)
        budgets = [f * 1370.0 for f in ExperimentConfig.INSUFFICIENT_SWEEP] * 3
        for budget in budgets:
            assert warm.solve(self.groups(), budget) == cold.solve(self.groups(), budget)
        sweep = len(ExperimentConfig.INSUFFICIENT_SWEEP)
        assert warm.cache_misses == sweep
        assert warm.cache_hits == len(budgets) - sweep
        assert cold.cache_hits == cold.cache_misses == 0

    def test_hit_returns_the_memoized_object(self):
        solver = PARSolver(safety_margin=0.0)
        first = solver.solve(self.groups(), 900.0)
        second = solver.solve(self.groups(), 900.0)
        assert second is first  # frozen, so sharing is safe

    def test_budget_change_misses(self):
        solver = PARSolver(safety_margin=0.0)
        solver.solve(self.groups(), 900.0)
        solver.solve(self.groups(), 901.0)
        assert solver.cache_misses == 2
        assert solver.cache_hits == 0

    def test_fit_change_misses(self):
        solver = PARSolver(safety_margin=0.0)
        solver.solve([concave_group("A", 5, t_max=100.0)], 900.0)
        solver.solve([concave_group("A", 5, t_max=101.0)], 900.0)
        assert solver.cache_misses == 2

    def test_cache_info_and_clear(self):
        solver = PARSolver(safety_margin=0.0)
        solver.solve(self.groups(), 900.0)
        solver.solve(self.groups(), 900.0)
        info = solver.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == pytest.approx(0.5)
        assert info["size"] == 1
        solver.clear_cache()
        assert solver.cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "hit_rate": 0.0,
        }

    def test_fifo_eviction_bounds_the_cache(self):
        solver = PARSolver(safety_margin=0.0, cache_size=4)
        for budget in (600.0, 700.0, 800.0, 900.0, 1000.0):
            solver.solve(self.groups(), budget)
        assert solver.cache_info()["size"] == 4
        # The oldest entry (600 W) was evicted: solving it again misses.
        solver.solve(self.groups(), 600.0)
        assert solver.cache_misses == 6

    def test_disabled_cache_stores_nothing(self):
        solver = PARSolver(safety_margin=0.0, cache_size=0)
        a = solver.solve(self.groups(), 900.0)
        b = solver.solve(self.groups(), 900.0)
        assert a == b and a is not b
        assert solver.cache_info()["size"] == 0

    def test_negative_cache_size_rejected(self):
        with pytest.raises(SolverError):
            PARSolver(cache_size=-1)

    def test_validation_still_runs_on_would_be_hits(self):
        solver = PARSolver(safety_margin=0.0, max_groups=2)
        solver.solve(self.groups(), 900.0)
        with pytest.raises(SolverError):
            solver.solve(self.groups(), -1.0)

    def test_partial_group_solver_shares_the_cache_machinery(self):
        from repro.core.solver import PartialGroupSolver

        solver = PartialGroupSolver(safety_margin=0.0)
        first = solver.solve(self.groups(), 700.0)
        second = solver.solve(self.groups(), 700.0)
        assert second is first
        assert solver.cache_hits == 1
        assert first.powered_counts is not None


class TestStaleCacheHits:
    """The memo cache keys on the exact budget, so a hit is always the
    answer to the very program posed — never one solved for a slightly
    larger budget that would overdraw this one."""

    def groups(self):
        return [concave_group("A", 5, lo=95.0, hi=150.0)]

    def test_budgets_1e7_w_apart_both_miss(self):
        solver = PARSolver(safety_margin=0.0)
        solver.solve(self.groups(), 660.0 + 1e-7)
        solver.solve(self.groups(), 660.0)
        assert solver.cache_misses == 2
        assert solver.cache_hits == 0

    def test_near_equal_budgets_each_get_a_feasible_answer(self):
        solver = PARSolver(safety_margin=0.0)
        groups = self.groups()
        for budget in (660.0 + 1e-7, 660.0, 660.0 + 1e-7, 660.0):
            sol = solver.solve(groups, budget)
            assert allocated_w(groups, sol) <= budget
        assert solver.cache_misses == 2
        assert solver.cache_hits == 2

    def test_reintroduced_bug_yields_an_overdraw_the_check_catches(self):
        # Re-introduce the old quantized key (widened so that 740 W and
        # 660 W collide) and show the budget check above catches exactly
        # the allocation it replays.
        class QuantizedSolver(PARSolver):
            @staticmethod
            def _cache_key(groups, total_power_w):
                return PARSolver._cache_key(groups, round(total_power_w / 100.0))

        solver = QuantizedSolver(safety_margin=0.0)
        groups = self.groups()
        solver.solve(groups, 740.0)
        stale = solver.solve(groups, 660.0)
        assert solver.cache_hits == 1
        assert allocated_w(groups, stale) > 660.0 + 1.0
        assert allocated_w(groups, PARSolver(safety_margin=0.0).solve(groups, 660.0)) <= 660.0


class TestSolveVia:
    """The oracle API of :mod:`repro.verify.differential`."""

    def groups(self):
        return [
            concave_group("A", 5),
            concave_group("B", 5, t_max=50.0, lo=50.0, hi=80.0),
        ]

    def test_unknown_method_rejected(self, solver):
        with pytest.raises(SolverError):
            solve_via(solver, self.groups(), 900.0, "annealing")

    def test_methods_agree_on_a_simple_program(self, solver):
        sols = {m: solve_via(solver, self.groups(), 900.0, m) for m in METHODS}
        kkt = sols["kkt"].expected_perf
        assert sols["slsqp"].expected_perf == pytest.approx(kkt, rel=1e-3)
        assert sols["brute"].expected_perf == pytest.approx(kkt, rel=1e-3)
        assert sols["grid"].expected_perf <= kkt + 1e-6
        assert sols["grid"].expected_perf >= 0.75 * kkt

    def test_zero_budget_is_the_zero_solution(self, solver):
        for method in METHODS:
            sol = solve_via(solver, self.groups(), 0.0, method)
            assert sol.expected_perf == 0.0
            assert set(sol.per_server_w) == {0.0}

    def test_method_is_recorded(self, solver):
        for method in METHODS:
            sol = solve_via(solver, self.groups(), 900.0, method)
            assert sol.method == method

    def test_forced_methods_never_overdraw(self, solver):
        groups = self.groups()
        for budget in (500.0, 800.0, 1100.0, 2000.0):
            for method in METHODS:
                sol = solve_via(solver, groups, budget, method)
                assert allocated_w(groups, sol) <= budget + FEASIBILITY_SLACK_W
