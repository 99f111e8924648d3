"""Analytical-model benchmark: selection accuracy and runtime fidelity.

The static performance model's two claims (ISSUE 8) measured on held-out
stencils the learned models never saw:

- **Selection**: ranking candidate OCs by estimated time beats the
  static heuristic ladder, approaching the trained GBDT selector --
  without a single profiled measurement.
- **Regression**: feeding the analytical metric columns to the GBDT
  regressor (the *hybrid* method) matches or improves the plain GBDT's
  runtime correlation (PCC), and the raw analytical estimate alone is
  already strongly rank-correlated with measured times.

``tools/bench_analytical.py`` records the document as
``BENCH_analytical.json``; ``benchmarks/test_analytical.py`` asserts the
acceptance bars on the same functions.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..ml.metrics import kendall_tau, mape, pcc
from ..stencil.generator import generate_population

def _bench_ocs() -> "tuple[str, ...]":
    """The full 30-OC grid: a static ladder cannot track the diverse
    best-OC distribution here, which is exactly what the analytical
    ranking is supposed to buy over it."""
    from ..optimizations.combos import ALL_OCS

    return tuple(oc.name for oc in ALL_OCS)

#: Regret threshold: a pick within 10% of the stencil's best measured
#: time counts as correct ("near-optimal accuracy").
REGRET = 1.10


def _bench_shape(quick: bool) -> dict:
    """Campaign sizes.

    ``oracle_settings`` deliberately exceeds the training density: the
    held-out campaign is the *ground truth* selectors are judged
    against, so its per-OC search must be dense enough that the
    measured per-OC optimum approximates the true one.  Against a
    sparse oracle, selection scores mostly measure the oracle's own
    sampling luck.
    """
    if quick:
        return dict(
            n_train=5, n_test=4, gpus=("V100",),
            n_settings=1, oracle_settings=8, selector_settings=4,
        )
    return dict(
        n_train=12, n_test=8, gpus=("V100", "A100"),
        n_settings=2, oracle_settings=16, selector_settings=8,
    )


def make_campaigns(quick: bool = False, seed: int = 29):
    """Disjoint train/test campaigns over one generated population."""
    from ..optimizations.combos import OC_BY_NAME
    from ..profiling import run_campaign

    shape = _bench_shape(quick)
    pop = generate_population(2, shape["n_train"] + shape["n_test"], seed=seed)
    ocs = [OC_BY_NAME[n] for n in _bench_ocs()]
    train = run_campaign(
        pop[: shape["n_train"]], gpus=shape["gpus"], ocs=ocs,
        n_settings=shape["n_settings"], seed=seed,
    )
    test = run_campaign(
        pop[shape["n_train"]:], gpus=shape["gpus"], ocs=ocs,
        n_settings=shape["oracle_settings"], seed=seed + 1,
    )
    return train, test


# ----------------------------------------------------------------------
# selection: analytical vs heuristic ladder vs trained GBDT
# ----------------------------------------------------------------------
def _score_picks(test, gpu: str, picks: "list[str]") -> dict:
    """Top-1 / near-optimal accuracy and geomean slowdown of *picks*."""
    profiles = test.gpu_profiles(gpu)
    top1 = near = 0
    slowdowns: list[float] = []
    infeasible = 0
    for p, pick in zip(profiles, picks):
        t = p.time_of(pick)
        if not math.isfinite(t):
            infeasible += 1
            continue
        ratio = t / p.best_time_ms
        slowdowns.append(ratio)
        top1 += pick == p.best_oc
        near += ratio <= REGRET
    n = len(profiles)
    return {
        "top1": top1 / n,
        "near_optimal": near / n,
        "geomean_slowdown": (
            float(np.exp(np.mean(np.log(slowdowns)))) if slowdowns else math.inf
        ),
        "infeasible_picks": infeasible,
    }


def _gbdt_picks(train, source_gpu: str, stencils, seed: int) -> "list[str]":
    """Picks of a GBDT selector trained on *source_gpu* for *stencils*."""
    from ..profiling.train import select_requests, train_selector_artifact
    from ..serve.features import FeatureCache

    art = train_selector_artifact(train, source_gpu, method="gbdt", seed=seed)
    return [oc for _, oc in select_requests(
        art.method, art.model, art.representatives, list(stencils), source_gpu,
        cache=FeatureCache(art.max_order),
    )]


def run_selection_bench(train, test, seed: int = 29, quick: bool = False) -> dict:
    """Selection accuracy of the three selector families on *test*."""
    from ..ml.analytical import AnalyticalSelector
    from ..serve.fallback import HeuristicSelector

    analytical = AnalyticalSelector(
        candidates=_bench_ocs(),
        n_settings=_bench_shape(quick)["selector_settings"],
        seed=seed,
    )
    heuristic = HeuristicSelector()
    per_selector: dict[str, dict] = {
        "analytical": {}, "heuristic-ladder": {}, "gbdt": {},
    }
    wall = {"analytical": 0.0, "heuristic-ladder": 0.0, "gbdt": 0.0}
    for gpu in test.gpus:
        t0 = time.perf_counter()
        ana_picks = analytical.select_many(test.stencils, gpu)
        wall["analytical"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        heur_picks = [heuristic.select(s, gpu) for s in test.stencils]
        wall["heuristic-ladder"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        gbdt_picks = _gbdt_picks(train, gpu, test.stencils, seed)
        wall["gbdt"] += time.perf_counter() - t0

        for name, picks in (
            ("analytical", ana_picks),
            ("heuristic-ladder", heur_picks),
            ("gbdt", gbdt_picks),
        ):
            per_selector[name][gpu] = _score_picks(test, gpu, picks)

    out = {"gpus": list(test.gpus), "n_test_stencils": len(test.stencils),
           "ocs": list(_bench_ocs()), "regret_threshold": REGRET, "selectors": {}}
    for name, per_gpu in per_selector.items():
        out["selectors"][name] = {
            "per_gpu": per_gpu,
            "top1": float(np.mean([m["top1"] for m in per_gpu.values()])),
            "near_optimal": float(
                np.mean([m["near_optimal"] for m in per_gpu.values()])
            ),
            "geomean_slowdown": float(
                np.mean([m["geomean_slowdown"] for m in per_gpu.values()])
            ),
            "wall_s": wall[name],
        }
    return out


# ----------------------------------------------------------------------
# regression: hybrid vs plain GBDT vs raw analytical estimate
# ----------------------------------------------------------------------
def run_regression_bench(train, test, seed: int = 29) -> dict:
    """Held-out runtime fidelity of gbr / hybrid / raw-analytical."""
    from ..ml.analytical import AnalyticalPredictor
    from ..profiling.dataset import build_regression_dataset
    from ..profiling.train import (
        predict_requests, predict_rows, predictor_inputs, train_predictor_artifact,
    )

    arts = {
        method: train_predictor_artifact(train, method=method, seed=seed)
        for method in ("gbr", "hybrid")
    }
    out: dict = {"predictors": {}}
    per: dict[str, dict] = {m: {} for m in ("gbr", "hybrid", "analytical")}
    for gpu in test.gpus:
        ds = build_regression_dataset(test, (gpu,))
        y = ds.times_ms
        for method, art in arts.items():
            pred = predict_rows(method, art.model, predictor_inputs(ds, method, test))
            per[method][gpu] = {
                "pcc": pcc(y, pred),
                "log_pcc": pcc(np.log(y), np.log(np.maximum(pred, 1e-9))),
                "mape": mape(y, pred),
                "rows": int(ds.n_samples),
            }
        # Raw static estimates per row (inf where inestimable).
        est = predict_requests("analytical", AnalyticalPredictor(), [
            (test.stencils[sid], oc, setting, g)
            for sid, oc, setting, g in zip(ds.stencil_ids, ds.ocs, ds.settings, ds.gpus)
        ])
        ok = np.isfinite(est)
        per["analytical"][gpu] = {
            "pcc": pcc(y[ok], est[ok]),
            "log_pcc": pcc(np.log(y[ok]), np.log(est[ok])),
            "kendall_tau": kendall_tau(y[ok], est[ok]),
            "coverage": float(ok.mean()),
            "rows": int(ds.n_samples),
        }
    for method, per_gpu in per.items():
        out["predictors"][method] = {
            "per_gpu": per_gpu,
            "pcc": float(np.mean([m["pcc"] for m in per_gpu.values()])),
            "log_pcc": float(
                np.mean([m["log_pcc"] for m in per_gpu.values()])
            ),
        }
    return out


def run_analytical_bench(quick: bool = False, seed: int = 29) -> dict:
    """Full document: shared campaigns, selection + regression sections."""
    train, test = make_campaigns(quick=quick, seed=seed)
    return {
        "quick": quick,
        "seed": seed,
        "shape": _bench_shape(quick),
        "selection": run_selection_bench(train, test, seed=seed, quick=quick),
        "regression": run_regression_bench(train, test, seed=seed),
    }
