"""Cross-vendor transfer benchmark: NVIDIA-trained selectors on AMD.

The portability experiment of ISSUE 10, answering two questions on
held-out stencils measured on AMD-class targets (wavefront-64 CDNA
devices) the selectors never profiled:

- **Zero-shot transfer**: how much OC-ranking quality survives when
  every training measurement comes from the four NVIDIA GPUs?
- **Recovery**: how much of the gap to a natively-trained selector does
  adding a *single* AMD GPU (MI100) to the training campaign close on
  the remaining AMD targets?

Three selector regimes are scored per family:

``zero_shot``
    Trained on NVIDIA measurements only.
``plus_one_amd``
    Trained on NVIDIA measurements plus the MI100 rows.
``native``
    Trained on the target GPU's own (sparse) training rows -- the
    in-distribution ceiling the transfer regimes are judged against.

The training-free families (heuristic ladder, analytical selector) have
no regimes: they see no campaign, so their score is the same in all
three columns and serves as the portability floor/reference.

``tools/bench_portability.py`` records the document as
``BENCH_portability.json``; the CI bench-smoke job runs the quick shape.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..gpu.specs import GPU_ORDER
from ..stencil.generator import generate_population
from .bench import REGRET, _bench_ocs, _gbdt_picks, _score_picks

__all__ = [
    "make_transfer_campaigns",
    "run_portability_bench",
    "run_transfer_regression",
    "run_transfer_selection",
]


def _bench_shape(quick: bool) -> dict:
    """Campaign sizes and GPU roles.

    The training campaign spans the NVIDIA sources, the single AMD
    training GPU and the AMD targets (the target rows exist only so the
    ``native`` ceiling has something to train on).  The held-out test
    campaign is measured on the targets alone, densely enough to act as
    the ranking oracle (see :func:`repro.analysis.bench._bench_shape`).
    """
    if quick:
        return dict(
            n_train=5, n_test=4,
            nvidia_gpus=("V100", "A100"), amd_train_gpu="MI100",
            target_gpus=("MI210",),
            n_settings=1, oracle_settings=8, rank_settings=4,
        )
    return dict(
        n_train=12, n_test=8,
        nvidia_gpus=tuple(GPU_ORDER), amd_train_gpu="MI100",
        target_gpus=("MI210", "MI250"),
        n_settings=2, oracle_settings=16, rank_settings=8,
    )


def make_transfer_campaigns(quick: bool = False, seed: int = 31):
    """Disjoint train/test campaigns for the transfer experiment."""
    from ..optimizations.combos import OC_BY_NAME
    from ..profiling import run_campaign

    shape = _bench_shape(quick)
    pop = generate_population(2, shape["n_train"] + shape["n_test"], seed=seed)
    ocs = [OC_BY_NAME[n] for n in _bench_ocs()]
    train_gpus = (
        tuple(shape["nvidia_gpus"])
        + (shape["amd_train_gpu"],)
        + tuple(shape["target_gpus"])
    )
    train = run_campaign(
        pop[: shape["n_train"]], gpus=train_gpus, ocs=ocs,
        n_settings=shape["n_settings"], seed=seed,
    )
    test = run_campaign(
        pop[shape["n_train"]:], gpus=shape["target_gpus"], ocs=ocs,
        n_settings=shape["oracle_settings"], seed=seed + 1,
    )
    return train, test


# ----------------------------------------------------------------------
# selection: rank OCs on an unseen-vendor target
# ----------------------------------------------------------------------
def _predictor_picks(
    art, stencils, gpu: str, n_settings: int, seed: int
) -> "list[str]":
    """Pick one OC per stencil by ranking the predictor's estimates.

    For every candidate OC the predictor prices ``n_settings`` sampled
    parameter settings on *gpu*; the OC whose cheapest predicted setting
    wins is the pick.  This is the regression family's selection mode:
    the cross-architecture predictor carries the hardware feature vector,
    so the *same artifact* ranks on a GPU it never trained on.

    Settings that cannot launch on the target are screened out before
    ranking: the predictors train on successful measurements only, so
    their extrapolation onto crashing configurations is unconstrained --
    and launchability is knowable without measuring anything.
    """
    from ..gpu import model
    from ..gpu.specs import get_gpu
    from ..optimizations.combos import OC_BY_NAME
    from ..optimizations.params import sample_settings
    from ..profiling.train import predict_requests
    from ..serve.features import FeatureCache

    spec = get_gpu(gpu)

    def _launchable(stencil, ocs, settings) -> np.ndarray:
        """Mask of the (OC, setting) points that can launch on *gpu*."""
        prof = model.profile(
            stencil, ocs, [s.as_tuple() for s in settings], warp_size=spec.warp_size
        )
        lim = model.limits(
            spec, prof.threads_per_block, prof.regs_per_thread,
            prof.smem_per_block, crashes=prof.crashes,
        )
        return ~lim.crashes.mask

    cache = FeatureCache(art.max_order)
    candidates = _bench_ocs()
    picks: list[str] = []
    for i, stencil in enumerate(stencils):
        drawn: list[tuple[str, object]] = []
        for j, oc_name in enumerate(candidates):
            rng = np.random.default_rng((seed, i, j))
            for setting in sample_settings(OC_BY_NAME[oc_name], stencil.ndim, n_settings, rng):
                drawn.append((oc_name, setting))
        ok = _launchable(stencil, [OC_BY_NAME[o] for o, _ in drawn], [s for _, s in drawn])
        meta = [point for point, launches in zip(drawn, ok) if launches]
        if not meta:
            picks.append("naive")
            continue
        pred = predict_requests(
            art.method, art.model,
            [(stencil, oc_name, setting, gpu) for oc_name, setting in meta],
            cache=cache,
        )
        best: dict[str, float] = {}
        for (oc_name, _), t in zip(meta, pred):
            if math.isfinite(t) and t < best.get(oc_name, math.inf):
                best[oc_name] = float(t)
        picks.append(min(best, key=best.get) if best else "naive")
    return picks


def _mean_scores(rows: "list[dict]") -> dict:
    """Field-wise mean of ``_score_picks`` dicts (ensemble of sources)."""
    return {
        "top1": float(np.mean([r["top1"] for r in rows])),
        "near_optimal": float(np.mean([r["near_optimal"] for r in rows])),
        "geomean_slowdown": float(
            np.mean([r["geomean_slowdown"] for r in rows])
        ),
        "infeasible_picks": float(np.mean([r["infeasible_picks"] for r in rows])),
    }


def run_transfer_selection(
    train, test, seed: int = 31, quick: bool = False
) -> dict:
    """Selection quality per family x regime on the AMD targets."""
    from ..ml.analytical import AnalyticalSelector
    from ..profiling.train import train_predictor_artifact
    from ..serve.fallback import HeuristicSelector

    shape = _bench_shape(quick)
    nvidia = list(shape["nvidia_gpus"])
    amd_train = shape["amd_train_gpu"]
    rank_settings = shape["rank_settings"]
    regime_gpus = {
        "zero_shot": tuple(nvidia),
        "plus_one_amd": tuple(nvidia) + (amd_train,),
    }

    families: dict[str, dict[str, dict]] = {}
    wall: dict[str, float] = {}

    def _record(family: str, regime: str, gpu: str, scores: dict) -> None:
        families.setdefault(family, {}).setdefault(regime, {})[gpu] = scores

    # --- training-free references (regime-independent) ----------------
    analytical = AnalyticalSelector(
        candidates=_bench_ocs(), n_settings=rank_settings, seed=seed
    )
    heuristic = HeuristicSelector()
    for name, picker in (
        ("analytical", lambda g: analytical.select_many(test.stencils, g)),
        ("heuristic-ladder", lambda g: [heuristic.select(s, g) for s in test.stencils]),
    ):
        t0 = time.perf_counter()
        for gpu in test.gpus:
            scores = _score_picks(test, gpu, picker(gpu))
            for regime in ("zero_shot", "plus_one_amd", "native"):
                _record(name, regime, gpu, scores)
        wall[name] = time.perf_counter() - t0

    # --- GBDT classification selector ----------------------------------
    # Per-GPU classifiers do not embed hardware features, so transfer is
    # an ensemble question: zero-shot applies each NVIDIA-trained
    # selector to the AMD target and averages; plus-one applies the
    # MI100-trained selector; native trains on the target's own rows.
    t0 = time.perf_counter()
    nvidia_picks = {g: _gbdt_picks(train, g, test.stencils, seed) for g in nvidia}
    mi_picks = _gbdt_picks(train, amd_train, test.stencils, seed)
    for gpu in test.gpus:
        _record(
            "gbdt", "zero_shot", gpu,
            _mean_scores([_score_picks(test, gpu, nvidia_picks[g]) for g in nvidia]),
        )
        _record("gbdt", "plus_one_amd", gpu, _score_picks(test, gpu, mi_picks))
        _record(
            "gbdt", "native", gpu,
            _score_picks(test, gpu, _gbdt_picks(train, gpu, test.stencils, seed)),
        )
    wall["gbdt"] = time.perf_counter() - t0

    # --- cross-architecture regression predictors -----------------------
    for method in ("gbr", "hybrid"):
        t0 = time.perf_counter()
        for regime, gpus in regime_gpus.items():
            art = train_predictor_artifact(
                train, gpus=gpus, method=method, seed=seed
            )
            for gpu in test.gpus:
                picks = _predictor_picks(
                    art, test.stencils, gpu, rank_settings, seed
                )
                _record(method, regime, gpu, _score_picks(test, gpu, picks))
        for gpu in test.gpus:
            art = train_predictor_artifact(
                train, gpus=(gpu,), method=method, seed=seed
            )
            picks = _predictor_picks(art, test.stencils, gpu, rank_settings, seed)
            _record(method, "native", gpu, _score_picks(test, gpu, picks))
        wall[method] = time.perf_counter() - t0

    # --- aggregate + recovery -------------------------------------------
    out = {
        "targets": list(test.gpus),
        "nvidia_sources": nvidia,
        "amd_train_gpu": amd_train,
        "n_test_stencils": len(test.stencils),
        "ocs": list(_bench_ocs()),
        "regret_threshold": REGRET,
        "families": {},
    }
    for family, regimes in families.items():
        entry: dict = {"wall_s": wall[family], "regimes": {}}
        for regime, per_gpu in regimes.items():
            entry["regimes"][regime] = {
                "per_gpu": per_gpu,
                **_mean_scores(list(per_gpu.values())),
            }
        zs = entry["regimes"]["zero_shot"]["near_optimal"]
        p1 = entry["regimes"]["plus_one_amd"]["near_optimal"]
        nat = entry["regimes"]["native"]["near_optimal"]
        entry["near_optimal_recovered"] = p1 - zs
        gap = nat - zs
        # Only meaningful when native actually beats zero-shot; at small
        # test sizes a family can transfer better than it trains.
        entry["recovery_fraction"] = (p1 - zs) / gap if gap > 1e-9 else None
        out["families"][family] = entry
    return out


# ----------------------------------------------------------------------
# regression: runtime-prediction accuracy on the unseen vendor
# ----------------------------------------------------------------------
def run_transfer_regression(
    train, test, seed: int = 31, quick: bool = False
) -> dict:
    """Held-out AMD runtime-prediction accuracy of the gbr / hybrid predictors."""
    from ..ml.metrics import mape, pcc
    from ..profiling.dataset import build_regression_dataset
    from ..profiling.train import predict_rows, predictor_inputs, train_predictor_artifact

    shape = _bench_shape(quick)
    regime_gpus = {
        "zero_shot": tuple(shape["nvidia_gpus"]),
        "plus_one_amd": tuple(shape["nvidia_gpus"]) + (shape["amd_train_gpu"],),
    }
    out: dict = {"predictors": {}}
    for method in ("gbr", "hybrid"):
        per_regime: dict = {}
        for regime, gpus in regime_gpus.items():
            art = train_predictor_artifact(
                train, gpus=gpus, method=method, seed=seed
            )
            per_gpu: dict = {}
            for gpu in test.gpus:
                ds = build_regression_dataset(test, (gpu,))
                y = ds.times_ms
                pred = predict_rows(method, art.model, predictor_inputs(ds, method, test))
                per_gpu[gpu] = {
                    "pcc": pcc(y, pred),
                    "log_pcc": pcc(np.log(y), np.log(np.maximum(pred, 1e-9))),
                    "mape": mape(y, pred),
                    "rows": int(ds.n_samples),
                }
            per_regime[regime] = {
                "per_gpu": per_gpu,
                "pcc": float(np.mean([m["pcc"] for m in per_gpu.values()])),
                "log_pcc": float(
                    np.mean([m["log_pcc"] for m in per_gpu.values()])
                ),
            }
        out["predictors"][method] = per_regime
    return out


def run_portability_bench(quick: bool = False, seed: int = 31) -> dict:
    """Full document: shared campaigns, selection + regression sections."""
    train, test = make_transfer_campaigns(quick=quick, seed=seed)
    return {
        "quick": quick,
        "seed": seed,
        "shape": _bench_shape(quick),
        "selection": run_transfer_selection(train, test, seed=seed, quick=quick),
        "regression": run_transfer_regression(train, test, seed=seed, quick=quick),
    }
