"""The SLSQP polish, kept as an oracle in :mod:`repro.verify.differential`.

The production solver has no polish stage; these tests pin the oracle's
own contract (budget, boxes, label) and that it cannot improve on the
exact KKT answer.
"""

from repro.core.database import PerfPowerFit
from repro.core.solver import GroupModel, PARSolver
from repro.verify.differential import EXACT_REL_TOL, grid_best, polish, solve_via


def concave(t_max, lo, hi):
    span = hi - lo
    l = -t_max / span**2
    m = 2 * t_max * hi / span**2
    n = t_max - t_max * hi**2 / span**2
    return PerfPowerFit(coefficients=(l, m, n), min_power_w=lo, max_power_w=hi)


THREE_GROUPS = [
    GroupModel("A", 5, concave(100.0, 95.0, 150.0)),
    GroupModel("B", 5, concave(40.0, 58.0, 75.0)),
    GroupModel("C", 5, concave(60.0, 52.0, 80.0)),
]


def allocated_w(sol):
    return sum(g.count * p for g, p in zip(THREE_GROUPS, sol.per_server_w))


class TestPolish:
    def test_polish_never_hurts(self):
        # Polishing the solver's own answer cannot beat it: KKT is exact.
        solver = PARSolver(safety_margin=0.0)
        for budget in (700.0, 900.0, 1100.0, 1300.0):
            sol = solver.solve(THREE_GROUPS, budget)
            polished = polish(solver, THREE_GROUPS, budget, sol.per_server_w)
            assert polished is not None
            assert polished[1] <= sol.expected_perf * (1.0 + EXACT_REL_TOL)

    def test_polish_beats_coarse_grid_alone(self):
        # The SLSQP oracle (a polish per powered subset) closes the gap a
        # very coarse grid leaves to the exact optimum.
        solver = PARSolver(safety_margin=0.0)
        budget = 1000.0
        _, coarse = grid_best(solver, THREE_GROUPS, budget, granularity=0.25)
        best = solver.solve(THREE_GROUPS, budget).expected_perf
        polished = solve_via(solver, THREE_GROUPS, budget, "slsqp").expected_perf
        assert coarse < 0.9 * best
        assert polished >= coarse - 1e-9
        assert polished >= 0.98 * best

    def test_polish_respects_budget(self):
        solver = PARSolver(safety_margin=0.0)
        for budget in (600.0, 850.0, 1200.0):
            sol = solve_via(solver, THREE_GROUPS, budget, "slsqp")
            assert allocated_w(sol) <= budget + 1e-9

    def test_polish_respects_boxes(self):
        solver = PARSolver(safety_margin=0.05)
        sol = solve_via(solver, THREE_GROUPS, 1500.0, "slsqp")
        for group, p in zip(THREE_GROUPS, sol.per_server_w):
            if p > 0:
                assert p >= group.fit.min_power_w * 1.05 - 1e-9
                assert p <= group.fit.max_power_w + 1e-9

    def test_method_label(self):
        solver = PARSolver(safety_margin=0.0)
        assert solve_via(solver, THREE_GROUPS, 1000.0, "slsqp").method == "slsqp"
        assert solver.solve(THREE_GROUPS, 1000.0).method == "kkt"


def test_over_budget_start_is_refused():
    solver = PARSolver(safety_margin=0.0)
    start = tuple(g.fit.max_power_w for g in THREE_GROUPS)
    assert polish(solver, THREE_GROUPS, 500.0, start) is None

