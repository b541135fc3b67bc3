"""The differential solver corpus: the regression gate for the solver."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import FitKind, PerfPowerFit
from repro.core.solver import FEASIBILITY_SLACK_W, GroupModel, PARSolver
from repro.verify import run_differential
from repro.verify.differential import (
    FAMILIES,
    METHODS,
    check_case,
    random_case,
    solve_via,
)


def family(fit):
    if fit.kind is FitKind.LINEAR:
        return "linear"
    return "concave" if fit.l < 0 else "convex"


class TestCorpus:
    def test_regression_corpus_passes(self):
        # The acceptance-criteria corpus: 200 deterministic seeded cases.
        report = run_differential(n_cases=200, seed=0)
        assert report.passed, report.summary()
        assert report.n_cases == 200

    def test_corpus_is_deterministic(self):
        a = run_differential(n_cases=5, seed=3)
        b = run_differential(n_cases=5, seed=3)
        assert a == b

    def test_alternate_seed_also_clean(self):
        report = run_differential(n_cases=25, seed=99)
        assert report.passed, report.summary()

    def test_catches_a_solver_that_skips_the_linear_budget_vertex(self):
        # The KKT enumeration without the free-linear-group vertex: one
        # linear server with budget inside its box only gets its lower
        # bound.  The oracles must expose the lost performance.
        class LinearGap(PARSolver):
            def _subset_candidates(self, groups, on, budget_w):
                for candidate in super()._subset_candidates(groups, on, budget_w):
                    if all(
                        abs(groups[i].fit.l) >= 1e-15
                        or candidate[i] in (self._lo(groups[i].fit), groups[i].fit.max_power_w)
                        for i in on
                    ):
                        yield candidate

        line = PerfPowerFit(coefficients=(5.0, 0.0), min_power_w=100.0, max_power_w=200.0)
        outcome = check_case(
            LinearGap(safety_margin=0.0, cache_size=0),
            (GroupModel("lin", 1, line),),
            150.0,
            case_seed=0,
        )
        assert not outcome.ok
        assert all("beats the solver" in f for f in outcome.failures)


class TestCaseGeneration:
    def test_random_case_budget_clears_power_on(self):
        rng = random.Random(11)
        at_power_on = 0
        for _ in range(50):
            groups, budget = random_case(rng)
            power_on = sum(
                g.count * g.fit.min_power_w * 1.05 for g in groups
            )
            assert budget >= power_on * (1.0 - 1e-12)
            at_power_on += budget <= power_on * (1.0 + 1e-12)
        assert at_power_on > 0  # the exact-cliff budgets are drawn

    def test_concavity_of_generated_fits(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(40):
            groups, _ = random_case(rng)
            for g in groups:
                seen.add(family(g.fit))
                if family(g.fit) == "concave":
                    assert len(g.fit.coefficients) == 3 and g.fit.l < 0
                # Every family starts productive at its power-on point.
                assert g.fit.raw(g.fit.min_power_w) > 0
        assert seen == set(FAMILIES)

    def test_single_server_groups_are_drawn(self):
        rng = random.Random(13)
        counts = [g.count for _ in range(30) for g in random_case(rng)[0]]
        assert 1 in counts and max(counts) > 1


class TestCheckCase:
    def test_detects_an_infeasible_mechanism(self):
        rng = random.Random(21)
        groups, budget = random_case(rng)

        class OverdrawingSolver(PARSolver):
            def solve(self, groups, total_power_w):
                # A broken solver: hands out twice what it solved for.
                sol = super().solve(groups, total_power_w)
                return dataclasses.replace(
                    sol,
                    per_server_w=tuple(2.0 * p for p in sol.per_server_w),
                )

        outcome = check_case(
            OverdrawingSolver(cache_size=0), groups, budget, case_seed=21
        )
        assert not outcome.ok
        assert any(
            "infeasible" in f or "plateau" in f for f in outcome.failures
        )

    def test_solutions_stay_within_budget(self):
        solver = PARSolver(cache_size=0)
        rng = random.Random(31)
        for i in range(10):
            groups, budget = random_case(
                rng, safety_margin=solver.safety_margin
            )
            for method in METHODS:
                sol = solve_via(solver, groups, budget, method)
                total = sum(
                    g.count * p for g, p in zip(groups, sol.per_server_w)
                )
                assert total <= budget + FEASIBILITY_SLACK_W

    def test_oracles_are_not_vacuous(self):
        # A check is only as strong as its oracles: on most of the corpus
        # the brute force lands within 1% of the exact solver.
        solver = PARSolver(cache_size=0)
        rng = random.Random(41)
        close = 0
        for _ in range(40):
            groups, budget = random_case(rng)
            perf = dict(check_case(solver, groups, budget, 0).perf)
            close += perf["brute"] >= 0.99 * perf["kkt"]
        assert close >= 36


# ----------------------------------------------------------------------
# Property: exact for every fit family the database can produce
# ----------------------------------------------------------------------
@st.composite
def fits(draw, kind):
    lo = draw(st.floats(min_value=20.0, max_value=150.0))
    # Down to 1.01x: with the 5% safety margin the box shrinks to a point.
    hi = lo * draw(st.floats(min_value=1.01, max_value=3.0))
    perf_at_lo = draw(st.floats(min_value=1.0, max_value=500.0))
    slope_at_lo = draw(st.floats(min_value=-2.0, max_value=20.0))
    if kind is FitKind.LINEAR:
        coefficients = (slope_at_lo, perf_at_lo - slope_at_lo * lo)
    else:
        l = draw(st.floats(min_value=1e-4, max_value=0.5)) * draw(st.sampled_from((-1, 1)))
        m = slope_at_lo - 2.0 * l * lo
        coefficients = (l, m, perf_at_lo - l * lo**2 - m * lo)
    return PerfPowerFit(coefficients=coefficients, min_power_w=lo, max_power_w=hi, kind=kind)


@st.composite
def programs(draw):
    kind = draw(st.sampled_from(list(FitKind)))
    n_groups = draw(st.integers(min_value=1, max_value=3))
    groups = tuple(
        GroupModel(f"g{i}", draw(st.integers(min_value=1, max_value=6)), draw(fits(kind)))
        for i in range(n_groups)
    )
    saturate = sum(g.count * g.fit.max_power_w for g in groups)
    budget = draw(st.floats(min_value=0.0, max_value=1.2 * saturate))
    margin = draw(st.sampled_from((0.0, 0.05)))
    return groups, budget, margin


@given(program=programs())
@settings(max_examples=80, deadline=None)
def test_no_oracle_beats_solve_for_any_fit_kind(program):
    groups, budget, margin = program
    outcome = check_case(PARSolver(safety_margin=margin, cache_size=0), groups, budget, 0)
    assert outcome.ok, outcome.failures
