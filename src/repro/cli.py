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

``generate`` and ``profile`` run standalone; ``select`` and ``predict``
train on a saved campaign so repeated queries do not re-simulate, or
reuse a trained artifact via ``--model``.  ``codegen`` prints (or
writes) generated CUDA sources and ``lint`` runs the static analyzer
over the generated sweep, exiting nonzero on any error-severity
finding.  ``train`` turns a campaign into a checksummed model artifact
(written to a file and/or published into a registry), ``serve`` exposes
artifacts over a stdlib HTTP endpoint with micro-batching, admission
control (bounded queue, 503 load shedding), optional hot model reload,
and telemetry, and ``query`` is the matching client.

Options that several subcommands share (``--stencil``, ``--oc``,
``--gpu``, ``--workers``, ...) are specified once in :data:`_OPTIONS`.
Their converters resolve names and check ranges while argparse parses,
so bad input is rejected before any campaign loads or model trains.

Exit status:

* 0 -- success;
* 1 -- no result: ``tune`` found no feasible setting, ``codegen`` or
  ``estimate`` produced nothing, ``lint`` findings at or above
  ``--fail-on``, or ``query`` could not reach the server;
* 2 -- bad input or unusable data: argparse rejects the arguments, or a
  command raises a :class:`~repro.errors.ReproError` (printed as one
  ``<command>: <message>`` line on stderr).

A killed ``profile`` continues from its ``--checkpoint`` with
``--resume``.  The library's :class:`~repro.errors.CampaignInterrupted`
(raised only under ``CampaignRunner(max_units=...)``) has no
command-line flag and no exit status.
"""

from __future__ import annotations

import argparse
import sys

from .config import DEFAULT_SEED
from .errors import ReproError, UnknownStencilError
from .gpu.specs import ALL_GPU_ORDER, GPU_ORDER


# ----------------------------------------------------------------------
# parse-time converters: bad values fail in argparse, before any work
# ----------------------------------------------------------------------
def _stencil(name: str):
    """``--stencil``: a stencil from the named library."""
    from .stencil import get

    try:
        return get(name)
    except UnknownStencilError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _oc(name: str):
    """``--oc``: an optimization combination by name."""
    from .optimizations import OC_BY_NAME

    try:
        return OC_BY_NAME[name]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown OC {name!r} (available: {', '.join(sorted(OC_BY_NAME))})"
        ) from None


def _oc_or_all(name: str) -> tuple:
    """``codegen --oc``: one OC, or ``all`` for every valid combination."""
    from .optimizations import ALL_OCS

    return tuple(ALL_OCS) if name == "all" else (_oc(name),)


def _setting(pair: str) -> "tuple[str, int]":
    """``--set NAME=INT``: one pinned parameter value."""
    name, sep, value = pair.partition("=")
    try:
        if sep and name:
            return name, int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad --set {pair!r}; expected NAME=INT")


def _rate(text: str) -> float:
    """A fault-injection rate: a probability in [0, 1]."""
    try:
        rate = float(text)
    except ValueError:
        rate = float("nan")
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(f"rate {text!r} is not in [0, 1]")
    return rate


def _workers(text: str) -> int:
    """``--workers``: a process count, 0 meaning one per CPU."""
    try:
        workers = int(text)
    except ValueError:
        workers = -1
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"worker count {text!r} is not an integer >= 0"
        )
    return workers


def _chunk_size(text: str) -> int:
    """``--chunk-size``: units per shard, at least one."""
    try:
        size = int(text)
    except ValueError:
        size = 0
    if size < 1:
        raise argparse.ArgumentTypeError(
            f"chunk size {text!r} is not an integer >= 1"
        )
    return size


#: Options several subcommands share, each specified once as
#: ``name -> add_argument keywords`` for the flag ``--<name>``.  A
#: subcommand takes them by name through :func:`_add`, overriding at
#: most ``required``, ``default`` and ``action``/``dest`` (and
#: ``codegen --oc`` its type, to accept ``all``).
_OPTIONS: "dict[str, dict]" = {
    "ndim": dict(
        type=int, choices=(2, 3),
        help="stencil dimensionality (evaluate: for on-the-fly profiling, "
        "required without --campaign)",
    ),
    "count": dict(
        type=int, default=20, help="stencil population size",
    ),
    "n-settings": dict(
        type=int, default=6,
        help="random parameter settings per (stencil, OC)",
    ),
    "workers": dict(
        type=_workers, default=1,
        help="worker processes for (gpu, stencil) shards or cross-validation "
        "folds (0 = one per CPU; results are identical for every count, "
        "and checkpoints resume across counts)",
    ),
    "chunk-size": dict(
        type=_chunk_size, default=None,
        help="units per shard in parallel profiling (default: split "
        "pending work evenly across workers)",
    ),
    "campaign": dict(
        help="campaign JSON path (train also takes a published "
        "campaign-dataset document or a dataset-registry directory)",
    ),
    "stencil": dict(
        type=_stencil, metavar="NAME",
        help="named library stencil, e.g. star2d2r",
    ),
    "oc": dict(
        type=_oc, metavar="NAME",
        help="optimization combination, e.g. ST_RT (codegen: or 'all' "
        "for every valid combination)",
    ),
    "gpu": dict(
        choices=list(ALL_GPU_ORDER),
        help="target GPU; for codegen and lint it also picks the dialect "
        "and warp width of its vendor",
    ),
    "task": dict(
        default="select", choices=("select", "predict"),
        help="OC selection (per GPU) or cross-architecture time prediction",
    ),
    "model": dict(
        metavar="PATH",
        help="model artifact JSON (see `repro train`); skips retraining",
    ),
    "set": dict(
        type=_setting, action="append", default=[], metavar="NAME=INT",
        dest="overrides",
        help="pin an integer parameter (repeatable), e.g. --set block_x=64",
    ),
    "dialect": dict(
        choices=("cuda", "hip"),
        help="source dialect (default: the target GPU's vendor dialect, "
        "or cuda)",
    ),
    "format": dict(
        default="text", choices=("text", "json"), dest="fmt",
    ),
    "seed": dict(
        type=int, default=DEFAULT_SEED, help="master seed",
    ),
}


def _add(parser: argparse.ArgumentParser, *options) -> None:
    """Add shared options by name, or as ``(name, overrides)`` pairs."""
    for option in options:
        name, overrides = (option, {}) if isinstance(option, str) else option
        parser.add_argument(f"--{name}", **{**_OPTIONS[name], **overrides})


_REQUIRED = {"required": True}
_APPEND = {"action": "append"}


def build_parser() -> argparse.ArgumentParser:
    from .tuning import available_strategies

    parser = argparse.ArgumentParser(
        prog="repro", description="StencilMART reproduction pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate random stencils (Algorithm 1)")
    _add(g, ("ndim", _REQUIRED), ("count", {"default": 10}))
    g.add_argument("--max-order", type=int, default=4)

    p = sub.add_parser("profile", help="profile a population across GPUs")
    _add(p, ("ndim", _REQUIRED), "count")
    p.add_argument(
        "--gpus", nargs="+", default=list(GPU_ORDER),
        choices=list(ALL_GPU_ORDER),
    )
    _add(p, "n-settings", "workers", "chunk-size")
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
        type=_rate,
        default=0.0,
        help="base transient-fault injection rate per measurement "
        "(timeouts, sporadic errors, corrupted timings at this rate; "
        "device losses at a hundredth of it); 0 disables injection",
    )
    p.add_argument(
        "--timeout-rate", type=_rate, default=None,
        help="override the kernel-hang rate (default: --fault-rate)",
    )
    p.add_argument(
        "--transient-rate", type=_rate, default=None,
        help="override the sporadic-failure rate (default: --fault-rate)",
    )
    p.add_argument(
        "--device-lost-rate", type=_rate, default=None,
        help="override the device-loss rate (default: --fault-rate / 100)",
    )
    p.add_argument(
        "--corrupt-rate", type=_rate, default=None,
        help="override the corrupted-timing rate (default: --fault-rate)",
    )

    s = sub.add_parser("select", help="predict the best OC for a stencil")
    _add(s, "campaign", ("stencil", _REQUIRED), ("gpu", _REQUIRED))
    s.add_argument("--method", default="gbdt", choices=("gbdt", "convnet", "fcnet"))
    _add(s, "model")

    tu = sub.add_parser(
        "tune",
        help="tune one (stencil, OC) pair through the unified front door",
    )
    _add(tu, ("stencil", _REQUIRED), ("oc", _REQUIRED), ("gpu", _REQUIRED))
    tu.add_argument(
        "--strategy",
        default="random",
        choices=available_strategies(),
        help="search strategy (see docs/tuning.md)",
    )
    tu.add_argument(
        "--budget",
        type=float,
        default=None,
        help="evaluation allowance, counted in observed trials "
        "(strategies size themselves to it; default: per-strategy "
        "defaults)",
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
        "--trials",
        action="store_true",
        help="also print every observed trial in consumption order",
    )

    e = sub.add_parser(
        "evaluate",
        help="cross-validate selection/prediction mechanisms (Figs. 9, 12); "
        "without --campaign, profiles on the fly",
    )
    _add(e, "campaign", "task")
    e.add_argument(
        "--method",
        default=None,
        help="mechanism to evaluate (default: gbdt for select, gbr for "
        "predict)",
    )
    _add(e, ("gpu", _REQUIRED))
    e.add_argument("--folds", type=int, default=5)
    _add(e, "ndim", "count", "n-settings", "workers", "chunk-size")

    t = sub.add_parser("predict", help="predict execution time cross-architecture")
    _add(t, "campaign", ("stencil", _REQUIRED), ("oc", _REQUIRED))
    _add(t, ("gpu", _REQUIRED))
    t.add_argument(
        "--method", default="gbr", choices=("gbr", "mlp", "convmlp", "hybrid")
    )
    _add(t, "model")

    c = sub.add_parser(
        "codegen", help="emit CUDA/HIP source for a kernel variant"
    )
    _add(
        c, ("stencil", _REQUIRED),
        ("oc", {"default": "naive", "type": _oc_or_all}), "set",
    )
    c.add_argument(
        "--sample",
        action="store_true",
        help="sample a feasible setting instead of starting from defaults",
    )
    _add(c, "gpu", "dialect")
    c.add_argument(
        "-o",
        "--output-dir",
        help="write <stencil>__<oc>.<ext> files here instead of stdout",
    )

    lint = sub.add_parser(
        "lint", help="statically analyze generated kernels (nonzero exit on errors)"
    )
    _add(
        lint, ("stencil", {**_APPEND, "dest": "stencils"}),
        ("oc", {**_APPEND, "dest": "ocs"}), ("n-settings", {"default": 1}),
        "format",
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
    _add(lint, "gpu", "dialect")

    est = sub.add_parser(
        "estimate",
        help="statically estimate kernel execution time from generated "
        "source (analytical performance model; no campaign, no training)",
    )
    _add(
        est, ("stencil", {**_APPEND, "dest": "stencils"}),
        ("oc", {**_APPEND, "dest": "ocs"}),
        ("gpu", {**_APPEND, "dest": "gpus"}), ("n-settings", {"default": 1}),
        "format",
    )
    est.add_argument(
        "--metrics",
        action="store_true",
        help="include the full extracted kernel metrics (JSON only)",
    )

    tr = sub.add_parser(
        "train",
        help="train a model from a campaign and save it as a serve artifact",
    )
    _add(tr, ("campaign", _REQUIRED), "task")
    tr.add_argument(
        "--method",
        default=None,
        help="gbdt/convnet/fcnet/analytical for select, "
        "gbr/mlp/convmlp/hybrid/analytical for predict (defaults: gbdt / gbr)",
    )
    _add(tr, "gpu")
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

    sv = sub.add_parser(
        "serve", help="serve model artifacts over HTTP (stdlib only)"
    )
    sv.add_argument(
        "--registry",
        help="registry directory; the latest version of every artifact "
        "is loaded (unreadable ones degrade to the heuristic fallback)",
    )
    _add(sv, ("model", {"action": "append", "default": [], "dest": "models"}))
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

    q = sub.add_parser(
        "query",
        help="query a running serve endpoint (/v1/select, or /v1/predict "
        "with --oc)",
    )
    q.add_argument(
        "--url", default="http://127.0.0.1:8340", help="serve base URL"
    )
    q.add_argument(
        "--stats", action="store_true", help="print /stats JSON and exit"
    )
    _add(q, "stencil", "gpu", "oc", "set")

    for command in sub.choices.values():
        _add(command, "seed")
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


def _campaign_runner(args, gpus: tuple, **options):
    """The runner ``profile`` and ``evaluate`` build from their shared flags."""
    from .profiling import CampaignRunner
    from .stencil import generate_population

    return CampaignRunner(
        generate_population(args.ndim, args.count, seed=args.seed),
        gpus=gpus,
        n_settings=args.n_settings,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        **options,
    )


def cmd_profile(args) -> int:
    import dataclasses

    from .gpu.faults import FaultConfig
    from .profiling import save_campaign

    rates = ("timeout_rate", "transient_rate", "device_lost_rate", "corrupt_rate")
    faults = dataclasses.replace(
        FaultConfig.uniform(args.fault_rate),
        **{r: getattr(args, r) for r in rates if getattr(args, r) is not None},
    )
    runner = _campaign_runner(
        args,
        tuple(args.gpus),
        faults=faults,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    campaign = runner.run(resume=args.resume)
    save_campaign(campaign, args.output)
    n_meas = sum(len(campaign.measurements(g)) for g in campaign.gpus)
    print(
        f"profiled {len(runner.stencils)} stencils x {len(campaign.ocs)} OCs on "
        f"{len(campaign.gpus)} GPUs ({n_meas} measurements) -> {args.output}"
    )
    print(runner.health.summary())
    return 0


def cmd_evaluate(args) -> int:
    if args.campaign:
        mart = _load_mart_from_campaign(args.campaign, args.seed)
    elif args.ndim is None:
        print(
            "evaluate: --ndim is required when no --campaign is given",
            file=sys.stderr,
        )
        return 2
    else:
        campaign = _campaign_runner(args, (args.gpu,)).run()
        mart = _mart_from_campaign(campaign, args.seed)
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
    from .errors import ArtifactError

    art = _load_cli_artifact(args.model, "selector") if args.model else None
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
            raise ArtifactError(
                f"artifact {args.model} was trained for "
                f"{art.ndim}d/{art.gpu}, not {mart.ndim}d/{args.gpu}"
            )
        method = art.method
        mart.install_selector(
            method, args.gpu, art.model, representatives=art.representatives
        )
    else:
        mart.fit_selector(method, args.gpu)
    stencil = args.stencil
    oc = mart.predict_best_oc(stencil, args.gpu, method=method)
    print(f"predicted best OC for {stencil.name} on {args.gpu}: {oc.name}")
    oc, setting, t = mart.tune(stencil, args.gpu, method=method)
    print(f"tuned: {oc.name} {dict((k, v) for k, v in setting.items() if v)}")
    print(f"simulated time: {t:.3f} ms/step")
    return 0


def cmd_tune(args) -> int:
    from .tuning import tune

    stencil = args.stencil
    result = tune(
        stencil,
        oc=args.oc,
        gpu=args.gpu,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        restrictions=tuple(args.restrictions),
        cache_dir=args.cache_dir,
    )
    if args.trials:
        for i, rec in enumerate(result.trial_log):
            t = "crash" if rec.crashed else f"{rec.time_ms:.4f} ms"
            print(f"  [{i:4d}] {t:>12}  {dict(rec.setting)}")
    print(f"{stencil.name} / {result.oc} on {result.gpu}:")
    print(f"  {result.describe()}")
    if not result.ok:
        return 1
    return 0


def _load_cli_artifact(path: str, kind: str):
    """Load the *kind* serve artifact a --model flag names.

    Raises :class:`~repro.errors.ArtifactError` when the file is
    unusable or holds another kind of model.
    """
    from .errors import ArtifactError
    from .serve import load_artifact

    try:
        art = load_artifact(path)
    except ArtifactError as e:
        raise ArtifactError(f"cannot use --model {path}: {e}") from None
    if art.kind != kind:
        raise ArtifactError(f"artifact {path} is a {art.kind}, expected a {kind}")
    return art


def cmd_predict(args) -> int:
    from .errors import ArtifactError
    from .gpu import GPUSimulator
    from .optimizations import sample_setting

    import numpy as np

    stencil, oc, method = args.stencil, args.oc, args.method
    if args.model:
        art = _load_cli_artifact(args.model, "predictor")
        if art.ndim != stencil.ndim:
            raise ArtifactError(
                f"artifact {args.model} predicts {art.ndim}d stencils, "
                f"but {stencil.name} is {stencil.ndim}d"
            )
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
    rng = np.random.default_rng(args.seed)
    setting = sample_setting(oc, stencil.ndim, rng)
    pred = mart.predict_time(stencil, oc, setting, args.gpu, method=method)
    actual = GPUSimulator(args.gpu).time(stencil, oc, setting)
    print(f"{stencil.name} under {oc.name} on {args.gpu}:")
    print(f"  setting: {dict((k, v) for k, v in setting.items() if v)}")
    print(f"  predicted {pred:.3f} ms/step; simulated {actual:.3f} ms/step "
          f"({abs(pred - actual) / actual:.1%} error)")
    return 0


def _resolve_dialect(args):
    """The codegen dialect from ``--dialect`` / ``--gpu`` (cuda default)."""
    from .codegen import dialect_for_gpu, get_dialect

    if args.dialect:
        return get_dialect(args.dialect)
    if args.gpu:
        return dialect_for_gpu(args.gpu)
    return get_dialect("cuda")


def cmd_codegen(args) -> int:
    import os

    from .analysis.lint import feasible_settings
    from .codegen import generate_source
    from .optimizations.params import ParamSetting

    stencil = args.stencil
    dialect = _resolve_dialect(args)
    overrides = dict(args.overrides)
    emitted = 0
    for oc in args.oc:
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

    if args.rules:
        for info in all_rules():
            print(f"{info.rule} [{info.severity.value}] {info.title}")
            print(f"    {info.rationale}")
        return 0

    baseline = Baseline.load(args.baseline) if args.baseline else None
    summary = lint_sweep(
        stencils=args.stencils,
        ocs=args.ocs,
        n_settings=args.n_settings,
        seed=args.seed,
        baseline=baseline,
        dialect=_resolve_dialect(args).name,
        gpu=args.gpu,
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

    stencils = args.stencils or [get("star2d1r")]
    ocs = args.ocs or [OC_BY_NAME[name] for name in DEFAULT_CANDIDATES]
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
    campaign = load_campaign(resolve_dataset_path(args.campaign))
    if args.task == "select":
        if not args.gpu:
            print("train --task select requires --gpu", file=sys.stderr)
            return 2
        artifact = train_selector_artifact(
            campaign,
            args.gpu,
            method=args.method or "gbdt",
            seed=args.seed,
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


def cmd_query(args) -> int:
    import json

    from .errors import ServiceError
    from .serve.client import ServeClient

    client = ServeClient(args.url)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.stencil is None or args.gpu is None:
            print(
                "query: need --stats, or --stencil and --gpu",
                file=sys.stderr,
            )
            return 2
        stencil = args.stencil.name
        if args.oc is not None:  # the naive OC is falsy (no opts)
            t = client.predict(
                stencil, args.oc.name, args.gpu, dict(args.overrides)
            )
            print(
                f"{stencil} under {args.oc.name} on {args.gpu}: "
                f"{t:.3f} ms/step (predicted)"
            )
        else:
            r = client.select(stencil, args.gpu)
            via = r["artifact"] or r.get("rung") or "fallback ladder"
            print(
                f"best OC for {stencil} on {args.gpu}: {r['oc']} "
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
    "query": cmd_query,
}


def main(argv: "list[str] | None" = None) -> int:
    """Run one subcommand; returns the process exit status.

    Bad arguments return argparse's status 2, and so does any
    :class:`~repro.errors.ReproError` a command lets escape, reported
    as one ``<command>: <message>`` line on stderr.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        return _COMMANDS[args.command](args)
    except ReproError as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
