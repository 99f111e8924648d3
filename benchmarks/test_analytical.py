"""Analytical performance model: the selection and fidelity bars.

The static metric-extraction pipeline composes source-extracted metrics
with ``GPUSimulator(spec, sigma=0.0)``.  For generator output those
metrics equal what ``build_profile`` derives, so the analytical family
is the measurement substrate's own noise-free time: a *noise ceiling*,
not a competing predictor.  The bars below say how close the static
autotuner and the hybrid regressor come to that ceiling: statically
autotuning candidate OCs beats the heuristic ladder on held-out
stencils, and feeding the metric columns to the GBDT regressor (the
hybrid method) does not cost runtime correlation.  They do not measure
modelling skill.  This runs the same benches ``tools/bench_accuracy.py
analytical`` records into ``BENCH_analytical.json`` (at the quick shape)
and asserts the acceptance bars.
"""

from conftest import print_table
from tools.bench_accuracy import (
    SHAPES,
    make_campaigns,
    run_regression_bench,
    run_selection_bench,
)

SEED = 29


def test_analytical_selection_and_fidelity(benchmark):
    shape = SHAPES["analytical"][True]
    train, test = make_campaigns(shape, SEED, shape["gpus"], shape["gpus"])

    sel = run_selection_bench(train, test, shape, SEED)
    rows = [
        [name, row["top1"], row["near_optimal"], row["geomean_slowdown"]]
        for name, row in sel["selectors"].items()
    ]
    print_table(
        f"OC selection on {sel['n_test_stencils']} held-out stencils "
        f"({len(sel['ocs'])} candidate OCs)",
        ["selector", "top-1", "near-opt", "geomean slowdown"],
        rows,
    )

    reg = run_regression_bench(train, test, SEED)
    print_table(
        "Held-out runtime fidelity",
        ["predictor", "PCC", "log-PCC"],
        [
            [name, row["pcc"], row["log_pcc"]]
            for name, row in reg["predictors"].items()
        ],
    )

    ana = sel["selectors"]["analytical"]
    heur = sel["selectors"]["heuristic-ladder"]
    # The selection bar: static autotuning with the analytical model
    # must beat the zero-knowledge heuristic ladder on every axis.
    assert ana["top1"] > heur["top1"]
    assert ana["near_optimal"] >= heur["near_optimal"]
    assert ana["geomean_slowdown"] < heur["geomean_slowdown"]

    # The fidelity bar: the hybrid regressor (GBDT + analytical metric
    # columns) must not trail the plain GBDT's runtime PCC, and the raw
    # static estimate alone must be strongly rank-correlated.
    preds = reg["predictors"]
    assert preds["hybrid"]["pcc"] >= preds["gbr"]["pcc"]
    assert preds["analytical"]["log_pcc"] >= 0.9

    # Timing anchor: one memoized re-selection (the serving-path cost).
    stencil = test.stencils[0]
    from repro.ml import AnalyticalSelector

    cached = AnalyticalSelector(n_settings=1)
    cached.select(stencil, "V100")  # warm the memo
    benchmark.pedantic(
        lambda: cached.select(stencil, "V100"), rounds=1, iterations=1
    )
