"""Command-line interface for the StencilMART reproduction.

Subcommands mirror the pipeline stages::

    python -m repro generate --ndim 2 --count 20          # print stencils
    python -m repro profile  --ndim 2 --count 20 -o c.json  # profile -> JSON
    python -m repro select   --campaign c.json --stencil star2d2r --gpu V100
    python -m repro predict  --campaign c.json --stencil star2d2r \
        --oc ST_RT --gpu A100                              # time prediction
    python -m repro codegen  --stencil star2d2r --oc ST_RT  # emit CUDA
    python -m repro lint                                   # verify kernels
    python -m repro estimate --stencil star2d2r            # static time model
    python -m repro train --campaign c.json --gpu V100 \
        --registry models/                                 # persist a model
    python -m repro serve --registry models/ --port 8340   # HTTP service
    python -m repro query --stencil star2d2r --gpu V100    # ask the service
    python -m repro serve-chaos --quick                    # robustness drill

``generate`` and ``profile`` run standalone; ``select`` and ``predict``
train on a saved campaign so repeated queries do not re-simulate, or
reuse a trained artifact via ``--model``.  ``codegen`` prints (or
writes) generated CUDA sources and ``lint`` runs the static analyzer
over the generated sweep, exiting nonzero on any error-severity
finding.  ``train`` turns a campaign into a checksummed model artifact
(written to a file and/or published into a registry), ``serve`` exposes
artifacts over a stdlib HTTP endpoint with micro-batching, admission
control (bounded queue, 503 load shedding), optional hot model reload,
and telemetry, and ``query`` is the matching client.  ``serve-chaos``
runs the scripted fault-injection scenario against the whole serving
stack and exits nonzero if any robustness invariant is violated.
"""

from __future__ import annotations

import argparse
import sys

from .config import DEFAULT_SEED
from .gpu.specs import ALL_GPU_ORDER, GPU_ORDER


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="StencilMART reproduction pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate random stencils (Algorithm 1)")
    g.add_argument("--ndim", type=int, choices=(2, 3), required=True)
    g.add_argument("--count", type=int, default=10)
    g.add_argument("--max-order", type=int, default=4)
    _add_common(g)

    p = sub.add_parser("profile", help="profile a population across GPUs")
    p.add_argument("--ndim", type=int, choices=(2, 3), required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--gpus", nargs="+", default=list(GPU_ORDER))
    p.add_argument("--n-settings", type=int, default=6)
    p.add_argument(
        "--backend",
        default="vector",
        choices=("vector", "cached", "parallel"),
        help="measurement backend: NumPy-vectorized batches (default), "
        "vectorized with content-keyed memoization, or batches sharded "
        "across a process pool (identical results)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard (gpu, stencil) units across this many worker "
        "processes (0 = one per CPU; results are bit-identical for "
        "every worker count, and checkpoints resume across counts)",
    )
    p.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="units per shard in parallel runs (default: split pending "
        "work evenly across workers)",
    )
    p.add_argument(
        "--transport",
        default="shm",
        choices=("shm", "pickle"),
        help="request transport for the parallel backend kind: "
        "shared-memory arrays (default; falls back to pickle where "
        "unavailable) or the per-row pickle codec -- results are "
        "bit-identical and checkpoints resume across transports",
    )
    p.add_argument("-o", "--output", required=True, help="campaign JSON path")
    p.add_argument(
        "--checkpoint",
        help="checkpoint JSON path; progress is saved here atomically",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from an existing --checkpoint file (fresh start "
        "if the file does not exist yet)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        help="completed (gpu, stencil) units between checkpoints",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="base transient-fault injection rate per measurement "
        "(timeouts, sporadic errors, corrupted timings at this rate; "
        "device losses at a hundredth of it); 0 disables injection",
    )
    p.add_argument(
        "--timeout-rate", type=float, default=None,
        help="override the kernel-hang rate (default: --fault-rate)",
    )
    p.add_argument(
        "--transient-rate", type=float, default=None,
        help="override the sporadic-failure rate (default: --fault-rate)",
    )
    p.add_argument(
        "--device-lost-rate", type=float, default=None,
        help="override the device-loss rate (default: --fault-rate / 100)",
    )
    p.add_argument(
        "--corrupt-rate", type=float, default=None,
        help="override the corrupted-timing rate (default: --fault-rate)",
    )
    _add_common(p)

    s = sub.add_parser("select", help="predict the best OC for a stencil")
    s.add_argument(
        "--campaign",
        help="campaign JSON path (optional when --model is given)",
    )
    s.add_argument("--stencil", required=True, help="named stencil, e.g. star2d2r")
    s.add_argument("--gpu", required=True, choices=list(ALL_GPU_ORDER))
    s.add_argument("--method", default="gbdt", choices=("gbdt", "convnet", "fcnet"))
    s.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallelize model training across this many processes "
        "(0 = one per CPU; currently the GBDT classifier fits its "
        "per-class trees in parallel, other methods train sequentially)",
    )
    s.add_argument(
        "--model",
        help="selector artifact JSON (see `repro train`); skips retraining "
        "and uses the stored model (its method/GPU must match)",
    )
    _add_common(s)

    tu = sub.add_parser(
        "tune",
        help="tune one (stencil, OC) pair through the unified front door",
    )
    tu.add_argument("--stencil", required=True, help="named stencil, e.g. star2d2r")
    tu.add_argument("--oc", required=True, help="optimization combination, e.g. ST_RT")
    tu.add_argument("--gpu", required=True, choices=list(ALL_GPU_ORDER))
    tu.add_argument(
        "--strategy",
        default="random",
        help="zoo member: random, coordinate, genetic, annealing, bayes, "
        "halving (see docs/tuning.md)",
    )
    tu.add_argument(
        "--budget",
        type=float,
        default=None,
        help="evaluation allowance in full-fidelity units (strategies "
        "size themselves to it; default: per-strategy defaults)",
    )
    tu.add_argument(
        "--restrictions",
        nargs="*",
        default=(),
        metavar="EXPR",
        help="constraint expressions over parameter names, kernel_tuner "
        "style (e.g. 'block_x * block_y <= 1024')",
    )
    tu.add_argument(
        "--cache-dir",
        default=None,
        help="persistent tuning cache directory (settled results are "
        "replayed across runs; see docs/tuning.md)",
    )
    tu.add_argument(
        "--backend",
        default="vector",
        choices=("vector", "cached", "parallel"),
        help="measurement backend (results are identical; vector is "
        "the default)",
    )
    tu.add_argument(
        "--trials",
        action="store_true",
        help="also print every observed trial in consumption order",
    )
    _add_common(tu)

    e = sub.add_parser(
        "evaluate",
        help="cross-validate selection/prediction mechanisms (Figs. 9, 12)",
    )
    e.add_argument(
        "--campaign",
        help="campaign JSON path; omit to profile on the fly "
        "(requires --ndim, honors --backend/--workers/--chunk-size)",
    )
    e.add_argument(
        "--task",
        default="select",
        choices=("select", "predict"),
        help="evaluate OC selection (fold accuracy) or time prediction "
        "(fold MAPE)",
    )
    e.add_argument(
        "--method",
        default=None,
        help="mechanism to evaluate (default: gbdt for select, gbr for "
        "predict)",
    )
    e.add_argument("--gpu", required=True, choices=list(ALL_GPU_ORDER))
    e.add_argument("--folds", type=int, default=5)
    e.add_argument(
        "--ndim", type=int, choices=(2, 3),
        help="stencil dimensionality for on-the-fly profiling "
        "(required without --campaign)",
    )
    e.add_argument(
        "--count", type=int, default=20,
        help="stencil population size for on-the-fly profiling",
    )
    e.add_argument(
        "--n-settings", type=int, default=6,
        help="random settings per OC for on-the-fly profiling",
    )
    e.add_argument(
        "--backend",
        default="vector",
        choices=("vector", "cached", "parallel"),
        help="measurement backend for on-the-fly profiling (same choices "
        "and semantics as `repro profile`)",
    )
    e.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes: shards on-the-fly profiling and fits "
        "cross-validation folds concurrently (0 = one per CPU; results "
        "are identical for any count)",
    )
    e.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="units per shard for on-the-fly parallel profiling "
        "(default: split pending work evenly across workers)",
    )
    _add_common(e)

    t = sub.add_parser("predict", help="predict execution time cross-architecture")
    t.add_argument(
        "--campaign",
        help="campaign JSON path to train on (optional with --model)",
    )
    t.add_argument("--stencil", required=True)
    t.add_argument("--oc", required=True, help="OC name, e.g. ST_RT")
    t.add_argument("--gpu", required=True, choices=list(ALL_GPU_ORDER))
    t.add_argument(
        "--method", default="gbr", choices=("gbr", "mlp", "convmlp", "hybrid")
    )
    t.add_argument(
        "--model",
        help="predictor artifact JSON (see `repro train`); skips "
        "retraining and uses the stored model",
    )
    _add_common(t)

    c = sub.add_parser(
        "codegen", help="emit CUDA/HIP source for a kernel variant"
    )
    c.add_argument("--stencil", required=True, help="named stencil, e.g. star2d2r")
    c.add_argument(
        "--oc",
        default="naive",
        help="OC name (e.g. ST_RT) or 'all' for every valid combination",
    )
    c.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        dest="overrides",
        help="pin a parameter (repeatable), e.g. --set block_x=64",
    )
    c.add_argument(
        "--sample",
        action="store_true",
        help="sample a feasible setting instead of starting from defaults",
    )
    c.add_argument(
        "--gpu",
        choices=list(ALL_GPU_ORDER),
        help="target device; selects the dialect via its vendor unless "
        "--dialect overrides it",
    )
    c.add_argument(
        "--dialect",
        choices=("cuda", "hip"),
        help="source dialect (default: the target GPU's vendor dialect, "
        "or cuda)",
    )
    c.add_argument(
        "-o",
        "--output-dir",
        help="write <stencil>__<oc>.<ext> files here instead of stdout",
    )
    _add_common(c)

    lint = sub.add_parser(
        "lint", help="statically analyze generated kernels (nonzero exit on errors)"
    )
    lint.add_argument(
        "--stencil",
        action="append",
        dest="stencils",
        metavar="NAME",
        help="restrict to named stencils (repeatable; default: whole library)",
    )
    lint.add_argument(
        "--oc",
        action="append",
        dest="ocs",
        metavar="NAME",
        help="restrict to OCs (repeatable; default: all 30)",
    )
    lint.add_argument(
        "--n-settings", type=int, default=1,
        help="sampled parameter settings per (stencil, OC)",
    )
    lint.add_argument(
        "--format", default="text", choices=("text", "json"), dest="fmt"
    )
    lint.add_argument(
        "--fail-on",
        default="error",
        choices=("error", "warning", "info", "never"),
        help="lowest severity that fails the lint (default: error; "
        "'never' always exits 0). Exit codes: 0 = no finding at or "
        "above the threshold, 1 = at least one, 2 = usage error",
    )
    lint.add_argument("--baseline", help="accept findings recorded in this file")
    lint.add_argument(
        "--write-baseline",
        help="record current findings to this file and exit 0",
    )
    lint.add_argument(
        "-v", "--verbose", action="store_true", help="also list clean kernels"
    )
    lint.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.add_argument(
        "--gpu",
        choices=list(ALL_GPU_ORDER),
        help="target device; warp-sensitive rules use its scheduling "
        "width and the dialect defaults to its vendor's",
    )
    lint.add_argument(
        "--dialect",
        choices=("cuda", "hip"),
        help="source dialect to emit and lint (default: the target GPU's "
        "vendor dialect, or cuda)",
    )
    _add_common(lint)

    est = sub.add_parser(
        "estimate",
        help="statically estimate kernel execution time from generated "
        "source (analytical performance model; no campaign, no training)",
    )
    est.add_argument(
        "--stencil",
        action="append",
        dest="stencils",
        metavar="NAME",
        help="named stencil (repeatable; default: star2d1r)",
    )
    est.add_argument(
        "--oc",
        action="append",
        dest="ocs",
        metavar="NAME",
        help="restrict to OCs (repeatable; default: the analytical "
        "selector's candidate set)",
    )
    est.add_argument(
        "--gpu",
        action="append",
        dest="gpus",
        choices=list(ALL_GPU_ORDER),
        help="target GPUs (repeatable; default: all)",
    )
    est.add_argument(
        "--n-settings", type=int, default=1,
        help="sampled feasible parameter settings per (stencil, OC)",
    )
    est.add_argument(
        "--format", default="text", choices=("text", "json"), dest="fmt"
    )
    est.add_argument(
        "--metrics",
        action="store_true",
        help="include the full extracted kernel metrics (JSON only)",
    )
    _add_common(est)

    tr = sub.add_parser(
        "train",
        help="train a model from a campaign and save it as a serve artifact",
    )
    tr.add_argument(
        "--campaign",
        required=True,
        help="campaign JSON path, a published campaign-dataset document, "
        "or a dataset-registry directory (latest version is used)",
    )
    tr.add_argument(
        "--task",
        default="select",
        choices=("select", "predict"),
        help="train an OC selector (per GPU) or a cross-architecture "
        "time predictor",
    )
    tr.add_argument(
        "--method",
        default=None,
        help="gbdt/convnet/fcnet/analytical for select, "
        "gbr/mlp/convmlp/hybrid for predict (defaults: gbdt / gbr)",
    )
    tr.add_argument(
        "--gpu",
        choices=list(ALL_GPU_ORDER),
        help="target GPU (required for --task select)",
    )
    tr.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallelize selector training (0 = one per CPU; reaches "
        "methods that fit in parallel, currently GBDT)",
    )
    tr.add_argument(
        "--max-rows",
        type=int,
        default=None,
        help="deterministically subsample regression rows (predict only)",
    )
    tr.add_argument("--out", help="write the artifact JSON to this path")
    tr.add_argument(
        "--registry",
        help="publish the artifact into this registry directory as the "
        "next version (and move its LATEST tag)",
    )
    tr.add_argument(
        "--name",
        help="registry name to publish under (default: derived, e.g. "
        "select-gbdt-V100-2d)",
    )
    _add_common(tr)

    sv = sub.add_parser(
        "serve", help="serve model artifacts over HTTP (stdlib only)"
    )
    sv.add_argument(
        "--registry",
        help="registry directory; the latest version of every artifact "
        "is loaded (unreadable ones degrade to the heuristic fallback)",
    )
    sv.add_argument(
        "--model",
        action="append",
        default=[],
        dest="models",
        metavar="PATH",
        help="artifact JSON to load directly (repeatable; later installs "
        "win per (kind, ndim, GPU) slot)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8340, help="0 = ephemeral")
    sv.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="micro-batch size cap for coalescing concurrent requests",
    )
    sv.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="how long a request waits for batch-mates before running",
    )
    sv.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="admission bound: queued + in-flight requests beyond this "
        "are shed with 503 + Retry-After (0 disables)",
    )
    sv.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="default per-request deadline budget; queued work past its "
        "deadline is shed before compute (requests may override via "
        "their own budget_ms field)",
    )
    sv.add_argument(
        "--reload-interval",
        type=float,
        default=0.0,
        help="poll the registry's LATEST tags every this many seconds "
        "and hot-swap validated new artifacts (0 disables; needs "
        "--registry)",
    )
    sv.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="on SIGTERM/SIGINT: stop accepting and wait up to this "
        "long for in-flight requests before closing",
    )
    sv.add_argument(
        "-v", "--verbose", action="store_true", help="log every request"
    )
    _add_common(sv)

    ch = sub.add_parser(
        "serve-chaos",
        help="run the scripted fault-injection scenario against the "
        "serving stack (overload, corrupt publishes, torn tags, hot "
        "swap, poisoned model); nonzero exit on any violated invariant",
    )
    ch.add_argument(
        "--quick", action="store_true",
        help="smaller artifacts and traffic mix (the CI smoke setting)",
    )
    ch.add_argument("--report", help="write the full JSON report here")
    _add_common(ch)

    q = sub.add_parser("query", help="query a running serve endpoint")
    q.add_argument(
        "--url", default="http://127.0.0.1:8340", help="serve base URL"
    )
    q.add_argument(
        "--stats", action="store_true", help="print /stats JSON and exit"
    )
    q.add_argument("--stencil", help="named stencil, e.g. star2d2r")
    q.add_argument("--gpu", choices=list(ALL_GPU_ORDER))
    q.add_argument(
        "--oc",
        help="ask /v1/predict for this OC's execution time instead of "
        "/v1/select",
    )
    q.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        dest="overrides",
        help="parameter setting for --oc predictions (repeatable)",
    )
    _add_common(q)

    return parser


def _mart_from_campaign(campaign, seed: int):
    """Wrap an in-memory campaign in a ready-to-train StencilMART."""
    from .core import StencilMART
    from .profiling import merge_ocs

    mart = StencilMART(
        ndim=campaign.ndim,
        gpus=campaign.gpus,
        n_settings=campaign.n_settings,
        seed=seed,
    )
    mart.campaign = campaign
    mart.grouping = merge_ocs(campaign, n_classes=mart.n_classes)
    return mart


def _load_mart_from_campaign(path: str, seed: int):
    from .profiling import load_campaign

    return _mart_from_campaign(load_campaign(path), seed)


def cmd_generate(args) -> int:
    from .stencil import classify, generate_population

    pop = generate_population(
        args.ndim, args.count, max_order=args.max_order, seed=args.seed
    )
    for s in pop:
        print(
            f"{s.name}: order={s.order} nnz={s.nnz} shape={classify(s).value} "
            f"offsets={sorted(s.offsets)}"
        )
    return 0


def cmd_profile(args) -> int:
    from .errors import CampaignInterrupted, DatasetError
    from .gpu.faults import FaultConfig
    from .profiling import CampaignRunner, save_campaign
    from .stencil import generate_population

    base = args.fault_rate
    faults = FaultConfig(
        timeout_rate=base if args.timeout_rate is None else args.timeout_rate,
        transient_rate=(
            base if args.transient_rate is None else args.transient_rate
        ),
        device_lost_rate=(
            base / 100.0
            if args.device_lost_rate is None
            else args.device_lost_rate
        ),
        corrupt_rate=base if args.corrupt_rate is None else args.corrupt_rate,
    )
    pop = generate_population(args.ndim, args.count, seed=args.seed)
    runner = CampaignRunner(
        pop,
        gpus=tuple(args.gpus),
        n_settings=args.n_settings,
        seed=args.seed,
        backend=args.backend,
        faults=faults,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        workers=args.workers,
        chunk_size=args.chunk_size,
        transport=args.transport,
    )
    try:
        campaign = runner.run(resume=args.resume)
    except CampaignInterrupted as e:
        print(f"campaign interrupted: {e}", file=sys.stderr)
        print(runner.health.summary(), file=sys.stderr)
        return 3
    except DatasetError as e:
        print(f"profile: {e}", file=sys.stderr)
        return 2
    save_campaign(campaign, args.output)
    n_meas = sum(len(campaign.measurements(g)) for g in campaign.gpus)
    print(
        f"profiled {len(pop)} stencils x {len(campaign.ocs)} OCs on "
        f"{len(campaign.gpus)} GPUs ({n_meas} measurements) -> {args.output}"
    )
    print(runner.health.summary())
    return 0


def cmd_evaluate(args) -> int:
    if args.campaign:
        mart = _load_mart_from_campaign(args.campaign, args.seed)
    else:
        if args.ndim is None:
            print(
                "evaluate: --ndim is required when no --campaign is given",
                file=sys.stderr,
            )
            return 2
        from .profiling import CampaignRunner
        from .stencil import generate_population

        pop = generate_population(args.ndim, args.count, seed=args.seed)
        runner = CampaignRunner(
            pop,
            gpus=(args.gpu,),
            n_settings=args.n_settings,
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
            chunk_size=args.chunk_size,
        )
        mart = _mart_from_campaign(runner.run(), args.seed)
    if args.task == "select":
        method = args.method or "gbdt"
        res = mart.evaluate_selector(
            method, args.gpu, n_folds=args.folds, workers=args.workers
        )
        scores, mean, label = res.fold_accuracies, res.accuracy, "accuracy"
    else:
        method = args.method or "gbr"
        res = mart.evaluate_predictor(
            method, args.gpu, n_folds=args.folds, workers=args.workers
        )
        scores, mean, label = res.fold_mapes, res.mape, "MAPE"
    folds = " ".join(f"{s:.4f}" for s in scores)
    print(f"{args.task}/{method} on {args.gpu}: per-fold {label}: {folds}")
    print(f"mean {label}: {mean:.4f}")
    return 0


def cmd_select(args) -> int:
    from .stencil import get

    art = None
    if args.model:
        art = _load_cli_artifact(args.model, "selector")
        if art is None:
            return 2
    if args.campaign:
        mart = _load_mart_from_campaign(args.campaign, args.seed)
    elif art is not None:
        from .core import StencilMART

        mart = StencilMART(
            ndim=art.ndim, max_order=art.max_order, seed=args.seed
        )
    else:
        print("select: need --campaign and/or --model", file=sys.stderr)
        return 2
    method = args.method
    if art is not None:
        if art.gpu != args.gpu or art.ndim != mart.ndim:
            print(
                f"artifact {args.model} was trained for "
                f"{art.ndim}d/{art.gpu}, not {mart.ndim}d/{args.gpu}",
                file=sys.stderr,
            )
            return 2
        method = art.method
        mart.install_selector(
            method, args.gpu, art.model, representatives=art.representatives
        )
    else:
        mart.fit_selector(method, args.gpu, workers=args.workers)
    stencil = get(args.stencil)
    oc = mart.predict_best_oc(stencil, args.gpu, method=method)
    print(f"predicted best OC for {stencil.name} on {args.gpu}: {oc.name}")
    oc, setting, t = mart.tune(stencil, args.gpu, method=method)
    print(f"tuned: {oc.name} {dict((k, v) for k, v in setting.items() if v)}")
    print(f"simulated time: {t:.3f} ms/step")
    return 0


def cmd_tune(args) -> int:
    from .errors import TuningError
    from .optimizations import OC_BY_NAME
    from .stencil import get
    from .tuning import available_strategies, tune

    if args.strategy not in available_strategies():
        print(
            f"unknown strategy {args.strategy!r} "
            f"(available: {', '.join(available_strategies())})",
            file=sys.stderr,
        )
        return 2
    if args.oc not in OC_BY_NAME:
        print(
            f"unknown OC {args.oc!r} "
            f"(available: {', '.join(sorted(OC_BY_NAME))})",
            file=sys.stderr,
        )
        return 2
    stencil = get(args.stencil)
    try:
        result = tune(
            stencil,
            oc=OC_BY_NAME[args.oc],
            gpu=args.gpu,
            backend=args.backend,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            restrictions=tuple(args.restrictions),
            cache_dir=args.cache_dir,
        )
    except TuningError as e:
        print(f"tune: {e}", file=sys.stderr)
        return 2
    if args.trials:
        for i, rec in enumerate(result.trial_log):
            t = "crash" if rec.crashed else f"{rec.time_ms:.4f} ms"
            print(f"  [{i:4d}] x{rec.fidelity:<6g} {t:>12}  {dict(rec.setting)}")
    print(f"{stencil.name} / {result.oc} on {result.gpu}:")
    print(f"  {result.describe()}")
    if not result.ok:
        return 1
    return 0


def _load_cli_artifact(path: str, kind: str):
    """Load a serve artifact for --model flags; None + message on failure."""
    from .errors import ArtifactError
    from .serve import load_artifact

    try:
        art = load_artifact(path)
    except ArtifactError as e:
        print(f"cannot use --model {path}: {e}", file=sys.stderr)
        return None
    if art.kind != kind:
        print(
            f"artifact {path} is a {art.kind}, expected a {kind}",
            file=sys.stderr,
        )
        return None
    return art


def cmd_predict(args) -> int:
    from .gpu import GPUSimulator
    from .optimizations import OC_BY_NAME, sample_setting
    from .stencil import get

    import numpy as np

    stencil = get(args.stencil)
    method = args.method
    if args.model:
        art = _load_cli_artifact(args.model, "predictor")
        if art is None:
            return 2
        if art.ndim != stencil.ndim:
            print(
                f"artifact {args.model} predicts {art.ndim}d stencils, "
                f"but {stencil.name} is {stencil.ndim}d",
                file=sys.stderr,
            )
            return 2
        from .core import StencilMART

        method = art.method
        mart = StencilMART(
            ndim=art.ndim, max_order=art.max_order, seed=args.seed
        )
        mart.install_predictor(method, art.model)
    elif args.campaign:
        mart = _load_mart_from_campaign(args.campaign, args.seed)
        mart.fit_predictor(method, max_rows=8000)
    else:
        print("predict: need --campaign and/or --model", file=sys.stderr)
        return 2
    oc = OC_BY_NAME.get(args.oc)
    if oc is None:
        print(f"unknown OC {args.oc!r}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    setting = sample_setting(oc, stencil.ndim, rng)
    pred = mart.predict_time(stencil, oc, setting, args.gpu, method=method)
    actual = GPUSimulator(args.gpu).time(stencil, oc, setting)
    print(f"{stencil.name} under {oc.name} on {args.gpu}:")
    print(f"  setting: {dict((k, v) for k, v in setting.items() if v)}")
    print(f"  predicted {pred:.3f} ms/step; simulated {actual:.3f} ms/step "
          f"({abs(pred - actual) / actual:.1%} error)")
    return 0


def _parse_overrides(pairs: "list[str]") -> dict:
    out: dict = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise SystemExit(f"bad --set {pair!r}; expected NAME=VALUE")
        out[name] = int(value)
    return out


def _resolve_dialect(args):
    """The codegen dialect from ``--dialect`` / ``--gpu`` (cuda default)."""
    from .codegen import dialect_for_gpu, get_dialect

    if getattr(args, "dialect", None):
        return get_dialect(args.dialect)
    if getattr(args, "gpu", None):
        return dialect_for_gpu(args.gpu)
    return get_dialect("cuda")


def cmd_codegen(args) -> int:
    import os

    from .analysis.lint import feasible_settings
    from .codegen import generate_source
    from .optimizations import ALL_OCS, OC_BY_NAME
    from .optimizations.params import ParamSetting
    from .stencil import get

    stencil = get(args.stencil)
    dialect = _resolve_dialect(args)
    if args.oc == "all":
        ocs = list(ALL_OCS)
    else:
        oc = OC_BY_NAME.get(args.oc)
        if oc is None:
            print(f"unknown OC {args.oc!r}", file=sys.stderr)
            return 2
        ocs = [oc]

    overrides = _parse_overrides(args.overrides)
    emitted = 0
    for oc in ocs:
        if args.sample:
            sampled = feasible_settings(stencil, oc, 1, args.seed)
            if not sampled:
                print(
                    f"{stencil.name} x {oc.name}: no feasible setting",
                    file=sys.stderr,
                )
                continue
            setting = sampled[0].replace(**overrides) if overrides else sampled[0]
        else:
            setting = ParamSetting(**overrides)
        source = generate_source(stencil, oc, setting, dialect=dialect)
        if args.output_dir:
            os.makedirs(args.output_dir, exist_ok=True)
            path = os.path.join(
                args.output_dir,
                f"{stencil.name}__{oc.name}{dialect.source_suffix}",
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            print(path)
        else:
            print(source)
        emitted += 1
    return 0 if emitted else 1


def cmd_lint(args) -> int:
    import json

    from .analysis import Baseline, Severity, all_rules, lint_sweep
    from .analysis.lint import worst_severity
    from .optimizations import OC_BY_NAME
    from .stencil import get

    if args.rules:
        for info in all_rules():
            print(f"{info.rule} [{info.severity.value}] {info.title}")
            print(f"    {info.rationale}")
        return 0

    stencils = None
    if args.stencils:
        stencils = [get(n) for n in args.stencils]
    ocs = None
    if args.ocs:
        ocs = []
        for name in args.ocs:
            oc = OC_BY_NAME.get(name)
            if oc is None:
                print(f"unknown OC {name!r}", file=sys.stderr)
                return 2
            ocs.append(oc)

    baseline = Baseline.load(args.baseline) if args.baseline else None
    summary = lint_sweep(
        stencils=stencils,
        ocs=ocs,
        n_settings=args.n_settings,
        seed=args.seed,
        baseline=baseline,
        dialect=_resolve_dialect(args).name,
        gpu=getattr(args, "gpu", None),
    )

    if args.write_baseline:
        Baseline.from_findings(summary.all_findings()).save(args.write_baseline)
        print(
            f"baseline of {len(summary.all_findings())} finding(s) -> "
            f"{args.write_baseline}"
        )
        return 0

    worst = worst_severity(summary)
    if args.fmt == "json":
        doc = summary.to_dict()
        doc["worst_severity"] = worst.value if worst else None
        doc["fail_on"] = args.fail_on
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(summary.format_text(verbose=args.verbose))
    if args.fail_on == "never" or worst is None:
        return 0
    # Ranks ascend from most severe (error=0): fail when the worst
    # finding is at or above the requested threshold.
    return 1 if worst.rank <= Severity(args.fail_on).rank else 0


def cmd_estimate(args) -> int:
    import json

    from .analysis.ir import ParseError
    from .analysis.lint import feasible_settings
    from .analysis.perfmodel import EstimateError, estimate_kernel
    from .errors import KernelLaunchError
    from .ml.analytical import DEFAULT_CANDIDATES
    from .optimizations import OC_BY_NAME
    from .stencil import get

    stencils = [get(n) for n in (args.stencils or ["star2d1r"])]
    oc_names = args.ocs or list(DEFAULT_CANDIDATES)
    ocs = []
    for name in oc_names:
        oc = OC_BY_NAME.get(name)
        if oc is None:
            print(f"unknown OC {name!r}", file=sys.stderr)
            return 2
        ocs.append(oc)
    gpus = args.gpus or list(GPU_ORDER)

    estimates: "list[dict]" = []
    skipped: "list[list[str]]" = []
    crashed = 0
    for stencil in stencils:
        for oc in ocs:
            settings = feasible_settings(stencil, oc, args.n_settings, args.seed)
            if not settings:
                skipped.append([stencil.name or "anonymous", oc.name])
                continue
            for k, setting in enumerate(settings):
                for gpu in gpus:
                    row = {
                        "stencil": stencil.name or "anonymous",
                        "oc": oc.name,
                        "setting": dict(setting),
                        "setting_index": k,
                    }
                    try:
                        est = estimate_kernel(stencil, oc, setting, gpu)
                    except (KernelLaunchError, EstimateError, ParseError) as e:
                        crashed += 1
                        row.update({"gpu": gpu, "crashed": str(e)})
                    else:
                        row.update(est.to_dict(), crashed=None)
                        if args.metrics:
                            row["metrics"] = est.metrics.to_dict()
                    estimates.append(row)

    if args.fmt == "json":
        print(json.dumps(
            {
                "estimates": estimates,
                "skipped": skipped,
                "crashed": crashed,
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        for row in estimates:
            head = f"{row['stencil']} x {row['oc']} [s{row['setting_index']}] on {row['gpu']}"
            if row["crashed"]:
                print(f"{head}: cannot launch ({row['crashed']})")
                continue
            ph = row["phases_ms"]
            print(
                f"{head}: {row['time_ms']:.4f} ms/step  "
                f"(dram {ph['dram']:.4f}, l2 {ph['l2']:.4f}, "
                f"smem {ph['smem']:.4f}, compute {ph['compute']:.4f}, "
                f"occupancy {row['occupancy']:.2f})"
            )
        for stencil, oc in skipped:
            print(f"{stencil} x {oc}: skipped (no feasible setting)")
        n_ok = len(estimates) - crashed
        print(
            f"{len(estimates)} variant(s) estimated: {n_ok} ok, "
            f"{crashed} cannot launch, {len(skipped)} skipped"
        )
    return 0 if any(not r["crashed"] for r in estimates) else 1


def cmd_train(args) -> int:
    from .errors import DatasetError
    from .profiling import (
        load_campaign,
        resolve_dataset_path,
        train_predictor_artifact,
        train_selector_artifact,
    )
    from .serve import ModelRegistry, save_artifact
    from .serve.registry import default_artifact_name

    if not args.out and not args.registry:
        print("train: need --out and/or --registry", file=sys.stderr)
        return 2
    try:
        campaign = load_campaign(resolve_dataset_path(args.campaign))
    except DatasetError as e:
        print(f"train: {e}", file=sys.stderr)
        return 2
    if args.task == "select":
        if not args.gpu:
            print("train --task select requires --gpu", file=sys.stderr)
            return 2
        artifact = train_selector_artifact(
            campaign,
            args.gpu,
            method=args.method or "gbdt",
            seed=args.seed,
            workers=args.workers,
        )
    else:
        artifact = train_predictor_artifact(
            campaign,
            method=args.method or "gbr",
            seed=args.seed,
            max_rows=args.max_rows,
        )
    if args.out:
        save_artifact(artifact, args.out)
        print(f"{artifact.describe()} -> {args.out}")
    if args.registry:
        reg = ModelRegistry(args.registry)
        name = args.name or default_artifact_name(
            artifact.kind, artifact.method, artifact.gpu, artifact.ndim
        )
        version = reg.publish(artifact, name)
        print(f"published {name}@{version} -> {reg.path(name, version)}")
    return 0


def cmd_serve(args) -> int:
    import json
    import signal
    import threading

    from .errors import ArtifactError
    from .serve import (
        AdmissionPolicy,
        ModelRegistry,
        ModelReloader,
        PredictionService,
        load_artifact,
    )
    from .serve.http import drain, make_server

    service = PredictionService(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        admission=AdmissionPolicy(
            max_queue=args.max_queue,
            default_budget_s=(
                args.budget_ms / 1000.0 if args.budget_ms else None
            ),
        ),
    )
    registry = ModelRegistry(args.registry) if args.registry else None
    if registry is not None:
        service.load_registry(registry)
    for path in args.models:
        try:
            service.install(load_artifact(path), label=path)
        except ArtifactError as e:
            service.degraded.append({"artifact": path, "error": str(e)})
    caps = service.capabilities()
    for slot, label in caps["selectors"].items():
        print(f"selector {slot}: {label}")
    for slot, label in caps["predictors"].items():
        print(f"predictor {slot}: {label}")
    for entry in caps["degraded"]:
        print(
            f"degraded (fallback active): {entry['artifact']}: "
            f"{entry['error']}",
            file=sys.stderr,
        )
    if not caps["selectors"] and not caps["predictors"]:
        print(
            "no artifacts installed; selections use the heuristic fallback",
            file=sys.stderr,
        )
    reloader = None
    if registry is not None and args.reload_interval > 0:
        reloader = ModelReloader(service, registry)
        reloader.start(args.reload_interval)
        print(
            f"hot reload: polling {args.registry} every "
            f"{args.reload_interval:g}s"
        )
    server = make_server(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} (Ctrl-C to stop)", flush=True)

    # Graceful shutdown: SIGTERM/SIGINT stop the accept loop, in-flight
    # requests drain up to --drain-timeout, final stats go to stderr.
    stop = threading.Event()

    def _request_stop(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    except ValueError:
        pass  # not on the main thread (tests drive stop directly)
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print(
        f"shutting down: draining in-flight requests "
        f"(timeout {args.drain_timeout:g}s)",
        file=sys.stderr,
    )
    if reloader is not None:
        reloader.stop()
    if not drain(server, args.drain_timeout):
        print(
            "drain timeout: closing with requests still in flight",
            file=sys.stderr,
        )
    serve_thread.join(timeout=1.0)
    print(json.dumps(service.stats_snapshot(), sort_keys=True), file=sys.stderr)
    return 0


def cmd_serve_chaos(args) -> int:
    import json
    import tempfile

    from .serve.chaos import ChaosConfig, chaos_passed, run_chaos, train_bench_artifacts

    print("training artifacts for the chaos scenario...", flush=True)
    selector, predictor = train_bench_artifacts(args.quick, args.seed)
    cfg = ChaosConfig.make(quick=args.quick, seed=args.seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        report = run_chaos(selector, predictor, cfg, workdir)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report -> {args.report}")
    t = report["totals"]
    print(
        f"{t['requests']} requests: {t['ok']} ok, {t['shed']} shed, "
        f"{t['deadline']} deadline, {report['non_503_errors']} failed"
    )
    print(
        f"availability {report['availability']:.3f} "
        f"(excluding shed: {report['availability_excluding_shed']:.3f}); "
        f"p99 under overload {report['p99_under_overload_ms']:.1f} ms"
    )
    b, r = report["breaker"], report["reload"]
    print(
        f"breaker: opened={b['opened']} pinned={b['pinned_last_good']} "
        f"recovered={b['recovered']} final={b['final_state']}; "
        f"swaps={r['swaps']} rollbacks={r['rollbacks']}"
    )
    problems = chaos_passed(report)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("all robustness invariants held")
    return 1 if problems else 0


def cmd_query(args) -> int:
    import json

    from .errors import ServiceError
    from .serve.client import ServeClient

    client = ServeClient(args.url)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if not args.stencil or not args.gpu:
            print(
                "query: need --stats, or --stencil and --gpu",
                file=sys.stderr,
            )
            return 2
        if args.oc:
            setting = _parse_overrides(args.overrides)
            t = client.predict(args.stencil, args.oc, args.gpu, setting)
            print(
                f"{args.stencil} under {args.oc} on {args.gpu}: "
                f"{t:.3f} ms/step (predicted)"
            )
        else:
            r = client.select(args.stencil, args.gpu)
            via = r["artifact"] or r.get("rung") or "fallback ladder"
            print(
                f"best OC for {args.stencil} on {args.gpu}: {r['oc']} "
                f"({r['source']} via {via})"
            )
        return 0
    except ServiceError as e:
        print(f"query failed: {e}", file=sys.stderr)
        return 1


_COMMANDS = {
    "generate": cmd_generate,
    "profile": cmd_profile,
    "select": cmd_select,
    "tune": cmd_tune,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "codegen": cmd_codegen,
    "lint": cmd_lint,
    "estimate": cmd_estimate,
    "train": cmd_train,
    "serve": cmd_serve,
    "serve-chaos": cmd_serve_chaos,
    "query": cmd_query,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
