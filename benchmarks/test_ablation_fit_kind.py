"""Ablation — the database's curve-fit family (Section IV-B.3).

The paper picks a *quadratic* relational equation: "the linear curve
projection is not suitable" (no saturation) and higher orders add solver
complexity "while minimizing the error compared with linear function".
This bench runs the full GreenHetero stack with linear and quadratic
database fits and checks the paper's reasoning holds end-to-end: the
quadratic at least matches the linear fit, whose exact optimum lands on
budget vertices a saturating server cannot use.  The PAR solver is exact
for both families, so the gap is the model's, not the solver's.
"""

from benchmarks.conftest import once, run_cached
from repro.core.database import FitKind
from repro.sim.experiment import ExperimentConfig


def run_fits():
    out = {}
    for kind in FitKind:
        cfg = ExperimentConfig.insufficient_supply(
            "SPECjbb", policies=("Uniform", "GreenHetero"), fit_kind=kind
        )
        out[kind] = run_cached(cfg)
    return out


def test_ablation_fit_kind(benchmark, reporter):
    results = once(benchmark, run_fits)

    gains = {kind: res.gain("GreenHetero") for kind, res in results.items()}
    reporter.table(
        ["fit family", "GreenHetero gain vs Uniform"],
        [[kind.name.lower(), gain] for kind, gain in gains.items()],
        title="Ablation: database fit family (SPECjbb, insufficient supply)",
    )
    reporter.paper_vs_measured(
        "quadratic vs linear",
        "quadratic chosen: linear unsuitable near saturation",
        f"{gains[FitKind.QUADRATIC]:.2f}x vs {gains[FitKind.LINEAR]:.2f}x",
    )

    # Quadratic at least matches linear.
    assert gains[FitKind.QUADRATIC] >= gains[FitKind.LINEAR] - 0.02
    # All variants still beat Uniform.
    for gain in gains.values():
        assert gain > 1.15
