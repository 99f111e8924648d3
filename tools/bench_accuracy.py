"""Accuracy experiments beyond the paper's figures (developer / CI tool).

Two experiments score selectors and runtime predictors on held-out
stencils the learned models never saw.  Each is written as one JSON
document, ``BENCH_<experiment>.json`` at the repo root by convention:

``analytical`` (seed 29)
    The static performance model's two claims, after Ernst et al.
    (arXiv:2107.01143).  *Selection*: ranking candidate OCs by estimated
    time beats the heuristic ladder, approaching the trained GBDT
    selector, without a single profiled measurement.  *Regression*:
    feeding the analytical metric columns to the GBDT regressor (the
    *hybrid* method) matches or improves the plain GBDT's runtime PCC,
    and the raw analytical estimate alone is strongly rank-correlated
    with measured times.  ``benchmarks/test_analytical.py`` asserts the
    bars on the same functions.

``portability`` (seed 31)
    Cross-vendor transfer, after Lappi et al. (arXiv:2406.08923):
    selectors trained on NVIDIA campaigns rank OCs on AMD-class targets
    (wavefront-64 CDNA devices) they never profiled.  Each family is
    scored in three regimes: ``zero_shot`` (NVIDIA measurements only),
    ``plus_one_amd`` (NVIDIA plus the MI100 rows) and ``native``
    (trained on the target's own sparse rows, the in-distribution
    ceiling).  The training-free families (heuristic ladder, analytical
    selector) see no campaign, so their score is the same in all three
    regimes and serves as the portability floor/reference.

Run: python tools/bench_accuracy.py {analytical,portability} [--quick] [--seed N] [-o PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from repro.gpu.specs import GPU_ORDER
from repro.ml.metrics import kendall_tau, mape, pcc
from repro.optimizations.combos import ALL_OCS, OC_BY_NAME
from repro.stencil.generator import generate_population

#: The full 30-OC grid: a static ladder cannot track the diverse best-OC
#: distribution here, which is exactly what the analytical ranking is
#: supposed to buy over it.
BENCH_OCS = tuple(oc.name for oc in ALL_OCS)

#: Regret threshold: a pick within 10% of the stencil's best measured
#: time counts as correct ("near-optimal accuracy").
REGRET = 1.10

#: Default campaign seed of each experiment.
SEEDS = {"analytical": 29, "portability": 31}

#: Campaign sizes of each experiment, keyed by ``quick``.
#:
#: ``oracle_settings`` deliberately exceeds the training density: the
#: held-out campaign is the *ground truth* selectors are judged against,
#: so its per-OC search must be dense enough that the measured per-OC
#: optimum approximates the true one.  Against a sparse oracle,
#: selection scores mostly measure the oracle's own sampling luck.
#:
#: The portability training campaign spans the NVIDIA sources, the
#: single AMD training GPU and the AMD targets (the target rows exist
#: only so the ``native`` ceiling has something to train on); its test
#: campaign is measured on the targets alone.
SHAPES = {
    "analytical": {
        True: dict(
            n_train=5, n_test=4, gpus=("V100",),
            n_settings=1, oracle_settings=8, selector_settings=4,
        ),
        False: dict(
            n_train=12, n_test=8, gpus=("V100", "A100"),
            n_settings=2, oracle_settings=16, selector_settings=8,
        ),
    },
    "portability": {
        True: dict(
            n_train=5, n_test=4,
            nvidia_gpus=("V100", "A100"), amd_train_gpu="MI100",
            target_gpus=("MI210",),
            n_settings=1, oracle_settings=8, rank_settings=4,
        ),
        False: dict(
            n_train=12, n_test=8,
            nvidia_gpus=tuple(GPU_ORDER), amd_train_gpu="MI100",
            target_gpus=("MI210", "MI250"),
            n_settings=2, oracle_settings=16, rank_settings=8,
        ),
    },
}


def make_campaigns(shape: dict, seed: int, train_gpus, test_gpus):
    """Disjoint train/test campaigns over one generated population."""
    from repro.profiling import run_campaign

    pop = generate_population(2, shape["n_train"] + shape["n_test"], seed=seed)
    ocs = [OC_BY_NAME[n] for n in BENCH_OCS]
    train = run_campaign(
        pop[: shape["n_train"]], gpus=train_gpus, ocs=ocs,
        n_settings=shape["n_settings"], seed=seed,
    )
    test = run_campaign(
        pop[shape["n_train"]:], gpus=test_gpus, ocs=ocs,
        n_settings=shape["oracle_settings"], seed=seed + 1,
    )
    return train, test


# ----------------------------------------------------------------------
# scoring shared by both experiments
# ----------------------------------------------------------------------
#: The fields :func:`_score_picks` reports.
SCORE_KEYS = ("top1", "near_optimal", "geomean_slowdown", "infeasible_picks")


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


def _mean_scores(rows, keys=SCORE_KEYS) -> dict:
    """Field-wise mean of the *keys* of *rows* (per-GPU or per-source)."""
    rows = list(rows)
    return {k: float(np.mean([r[k] for r in rows])) for k in keys}


def _fidelity(method: str, model, ds, test) -> dict:
    """Held-out runtime fidelity of *model* on the rows of *ds*."""
    from repro.profiling.train import predict_rows, predictor_inputs

    y = ds.times_ms
    pred = predict_rows(method, model, predictor_inputs(ds, method, test))
    return {
        "pcc": pcc(y, pred),
        "log_pcc": pcc(np.log(y), np.log(np.maximum(pred, 1e-9))),
        "mape": mape(y, pred),
        "rows": int(ds.n_samples),
    }


def _per_gpu_datasets(test) -> dict:
    """One regression dataset per held-out GPU."""
    from repro.profiling.dataset import build_regression_dataset

    return {gpu: build_regression_dataset(test, (gpu,)) for gpu in test.gpus}


def _gbdt_picks(train, source_gpu: str, stencils, seed: int) -> "list[str]":
    """Picks of a GBDT selector trained on *source_gpu* for *stencils*."""
    from repro.profiling.train import select_requests, train_selector_artifact
    from repro.serve.features import FeatureCache

    art = train_selector_artifact(train, source_gpu, method="gbdt", seed=seed)
    return [oc for _, oc in select_requests(
        art.method, art.model, art.representatives, list(stencils), source_gpu,
        cache=FeatureCache(art.max_order),
    )]


# ----------------------------------------------------------------------
# analytical: selection vs heuristic ladder vs trained GBDT
# ----------------------------------------------------------------------
def run_selection_bench(train, test, shape: dict, seed: int) -> dict:
    """Selection accuracy of the three selector families on *test*."""
    from repro.ml.analytical import AnalyticalSelector
    from repro.serve.fallback import HeuristicSelector

    analytical = AnalyticalSelector(
        candidates=BENCH_OCS, n_settings=shape["selector_settings"], seed=seed,
    )
    heuristic = HeuristicSelector()
    pickers = {
        "analytical": lambda g: analytical.select_many(test.stencils, g),
        "heuristic-ladder": lambda g: [heuristic.select(s, g) for s in test.stencils],
        "gbdt": lambda g: _gbdt_picks(train, g, test.stencils, seed),
    }
    per_selector: dict[str, dict] = {name: {} for name in pickers}
    wall = dict.fromkeys(pickers, 0.0)
    for gpu in test.gpus:
        for name, picker in pickers.items():
            t0 = time.perf_counter()
            picks = picker(gpu)
            wall[name] += time.perf_counter() - t0
            per_selector[name][gpu] = _score_picks(test, gpu, picks)

    out = {"gpus": list(test.gpus), "n_test_stencils": len(test.stencils),
           "ocs": list(BENCH_OCS), "regret_threshold": REGRET, "selectors": {}}
    for name, per_gpu in per_selector.items():
        out["selectors"][name] = {
            "per_gpu": per_gpu,
            # This record has never averaged ``infeasible_picks``.
            **_mean_scores(per_gpu.values(), SCORE_KEYS[:3]),
            "wall_s": wall[name],
        }
    return out


# ----------------------------------------------------------------------
# analytical: hybrid vs plain GBDT vs raw analytical estimate
# ----------------------------------------------------------------------
def run_regression_bench(train, test, seed: int) -> dict:
    """Held-out runtime-prediction accuracy of gbr / hybrid / raw-analytical."""
    from repro.ml.analytical import AnalyticalPredictor
    from repro.profiling.train import predict_requests, train_predictor_artifact

    arts = {
        method: train_predictor_artifact(train, method=method, seed=seed)
        for method in ("gbr", "hybrid")
    }
    per: dict[str, dict] = {m: {} for m in ("gbr", "hybrid", "analytical")}
    for gpu, ds in _per_gpu_datasets(test).items():
        for method, art in arts.items():
            per[method][gpu] = _fidelity(method, art.model, ds, test)
        # Raw static estimates per row (inf where inestimable).
        y = ds.times_ms
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
    return {"predictors": {
        method: {"per_gpu": per_gpu, **_mean_scores(per_gpu.values(), ("pcc", "log_pcc"))}
        for method, per_gpu in per.items()
    }}


# ----------------------------------------------------------------------
# portability: rank OCs on an unseen-vendor target
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
    from repro.gpu import model
    from repro.gpu.specs import get_gpu
    from repro.optimizations.params import sample_settings
    from repro.profiling.train import predict_requests
    from repro.serve.features import FeatureCache

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
    picks: list[str] = []
    for i, stencil in enumerate(stencils):
        drawn: list[tuple[str, object]] = []
        for j, oc_name in enumerate(BENCH_OCS):
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


def _regime_gpus(shape: dict) -> dict:
    """Training GPUs of the two transfer regimes."""
    nvidia = tuple(shape["nvidia_gpus"])
    return {"zero_shot": nvidia, "plus_one_amd": nvidia + (shape["amd_train_gpu"],)}


def run_transfer_selection(train, test, shape: dict, seed: int) -> dict:
    """Selection quality per family x regime on the AMD targets."""
    from repro.ml.analytical import AnalyticalSelector
    from repro.profiling.train import train_predictor_artifact
    from repro.serve.fallback import HeuristicSelector

    nvidia = list(shape["nvidia_gpus"])
    amd_train = shape["amd_train_gpu"]
    rank_settings = shape["rank_settings"]

    families: dict[str, dict[str, dict]] = {}
    wall: dict[str, float] = {}

    def _record(family: str, regime: str, gpu: str, scores: dict) -> None:
        families.setdefault(family, {}).setdefault(regime, {})[gpu] = scores

    # --- training-free references (regime-independent) ----------------
    analytical = AnalyticalSelector(
        candidates=BENCH_OCS, n_settings=rank_settings, seed=seed
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
            _mean_scores(_score_picks(test, gpu, nvidia_picks[g]) for g in nvidia),
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
        regimes = [(regime, gpus, test.gpus) for regime, gpus in _regime_gpus(shape).items()]
        regimes += [("native", (gpu,), (gpu,)) for gpu in test.gpus]
        for regime, gpus, targets in regimes:
            art = train_predictor_artifact(train, gpus=gpus, method=method, seed=seed)
            for gpu in targets:
                picks = _predictor_picks(art, test.stencils, gpu, rank_settings, seed)
                _record(method, regime, gpu, _score_picks(test, gpu, picks))
        wall[method] = time.perf_counter() - t0

    # --- aggregate + recovery -------------------------------------------
    out = {
        "targets": list(test.gpus),
        "nvidia_sources": nvidia,
        "amd_train_gpu": amd_train,
        "n_test_stencils": len(test.stencils),
        "ocs": list(BENCH_OCS),
        "regret_threshold": REGRET,
        "families": {},
    }
    for family, regimes in families.items():
        entry: dict = {"wall_s": wall[family], "regimes": {}}
        for regime, per_gpu in regimes.items():
            entry["regimes"][regime] = {
                "per_gpu": per_gpu, **_mean_scores(per_gpu.values()),
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
# portability: runtime-prediction accuracy on the unseen vendor
# ----------------------------------------------------------------------
def run_transfer_regression(train, test, shape: dict, seed: int) -> dict:
    """Held-out AMD runtime-prediction accuracy of the gbr / hybrid predictors."""
    from repro.profiling.train import train_predictor_artifact

    datasets = _per_gpu_datasets(test)
    out: dict = {"predictors": {}}
    for method in ("gbr", "hybrid"):
        per_regime: dict = {}
        for regime, gpus in _regime_gpus(shape).items():
            art = train_predictor_artifact(train, gpus=gpus, method=method, seed=seed)
            per_gpu = {
                gpu: _fidelity(method, art.model, ds, test)
                for gpu, ds in datasets.items()
            }
            per_regime[regime] = {
                "per_gpu": per_gpu, **_mean_scores(per_gpu.values(), ("pcc", "log_pcc")),
            }
        out["predictors"][method] = per_regime
    return out


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_experiment(name: str, quick: bool = False, seed: "int | None" = None) -> dict:
    """The full document of experiment *name*: selection + regression."""
    seed = SEEDS[name] if seed is None else seed
    shape = SHAPES[name][quick]
    if name == "analytical":
        train, test = make_campaigns(shape, seed, shape["gpus"], shape["gpus"])
        selection = run_selection_bench(train, test, shape, seed)
        regression = run_regression_bench(train, test, seed)
    else:
        targets = shape["target_gpus"]
        train_gpus = _regime_gpus(shape)["plus_one_amd"] + targets
        train, test = make_campaigns(shape, seed, train_gpus, targets)
        selection = run_transfer_selection(train, test, shape, seed)
        regression = run_transfer_regression(train, test, shape, seed)
    return {"quick": quick, "seed": seed, "shape": dict(shape),
            "selection": selection, "regression": regression}


def _print_analytical(doc: dict) -> None:
    sel = doc["selection"]
    print(
        f"selection ({sel['n_test_stencils']} held-out stencils x "
        f"{len(sel['gpus'])} GPUs x {len(sel['ocs'])} OCs, "
        f"regret <= {sel['regret_threshold']:.2f})"
    )
    for name, row in sorted(
        sel["selectors"].items(), key=lambda kv: kv[1]["geomean_slowdown"]
    ):
        print(
            f"  {name:17s} top1 {row['top1']:.3f}  "
            f"near-opt {row['near_optimal']:.3f}  "
            f"geomean {row['geomean_slowdown']:.4f}x  "
            f"({row['wall_s']:.2f}s)"
        )
    print("regression (held-out runtime fidelity)")
    for name, row in sorted(
        doc["regression"]["predictors"].items(), key=lambda kv: -kv[1]["pcc"]
    ):
        print(f"  {name:11s} PCC {row['pcc']:.4f}  log-PCC {row['log_pcc']:.4f}")


def _print_portability(doc: dict) -> None:
    sel = doc["selection"]
    print(
        f"selection transfer ({sel['n_test_stencils']} held-out stencils, "
        f"targets {', '.join(sel['targets'])}, "
        f"sources {', '.join(sel['nvidia_sources'])} "
        f"[+{sel['amd_train_gpu']}], regret <= {sel['regret_threshold']:.2f})"
    )
    for name, fam in sorted(
        sel["families"].items(),
        key=lambda kv: -kv[1]["regimes"]["zero_shot"]["near_optimal"],
    ):
        r = fam["regimes"]
        frac = fam["recovery_fraction"]
        frac_s = f"{frac:+.2f}" if frac is not None else "  n/a"
        print(
            f"  {name:17s} near-opt zs {r['zero_shot']['near_optimal']:.3f}"
            f" -> +1amd {r['plus_one_amd']['near_optimal']:.3f}"
            f" (native {r['native']['near_optimal']:.3f},"
            f" recovered {frac_s})  ({fam['wall_s']:.2f}s)"
        )
    print("regression transfer (held-out AMD runtime fidelity)")
    for name, row in doc["regression"]["predictors"].items():
        print(
            f"  {name:11s} PCC zs {row['zero_shot']['pcc']:.4f}"
            f" -> +1amd {row['plus_one_amd']['pcc']:.4f}  "
            f"log-PCC zs {row['zero_shot']['log_pcc']:.4f}"
            f" -> +1amd {row['plus_one_amd']['log_pcc']:.4f}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("experiment", choices=sorted(SHAPES))
    ap.add_argument(
        "--quick", action="store_true",
        help="small workload for smoke runs (fewer stencils and GPUs)",
    )
    ap.add_argument(
        "--seed", type=int,
        help="campaign seed (default: 29 analytical, 31 portability)",
    )
    ap.add_argument(
        "-o", "--output",
        help="where to write the JSON document (default: BENCH_<experiment>.json)",
    )
    args = ap.parse_args(argv)

    doc = run_experiment(args.experiment, quick=args.quick, seed=args.seed)
    (_print_analytical if args.experiment == "analytical" else _print_portability)(doc)

    output = args.output or f"BENCH_{args.experiment}.json"
    with open(output, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
