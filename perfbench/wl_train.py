"""``train``: ``repro train`` as users run it, selector and predictor.

Set-up profiles and saves a 2-GPU (V100 + A100) 2-D campaign over a
fixed population.  Each
timed pass loads it, trains a GBDT selector for V100 and a GBR
predictor (rows capped with the public ``max_rows``), and publishes
both into a fresh model registry.  The pass is the workload's one
operation, so ``p50_ms`` and ``p99_ms`` equal its median scaled pass.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from .common import Result, clear_memo_caches, load_pins, scratch_dir
from .harness import (
    import_seconds, report_ops, report_self_rss, report_trace, rounds, span_self,
    timed_setup,
)
from .tracing import Tracer, patched

GPUS = ("V100", "A100")
SELECT_GPU = "V100"
#: The training campaign profiles a fixed population and ``--seed`` is
#: its campaign seed (every tuning stream) and the training seed.  A
#: seeded population made the pass time vary by about 25% between
#: seeds from the stencils alone.
POPULATION_SEED = 2022
COUNT = 3
N_SETTINGS = 2
MAX_ROWS = 2000
#: Set-up is a campaign of its own, so it is repeated three times, not five.
SETUP_REPS = 3
IMPORTS = ("repro.profiling", "repro.serve", "repro.stencil")


def make_campaign(seed: int, count: int, path, population_seed: int = POPULATION_SEED) -> None:
    """Profile and save the training campaign (the set-up work)."""
    from repro.profiling import CampaignRunner, save_campaign
    from repro.stencil import generate_population

    pop = generate_population(2, count, seed=population_seed)
    campaign = CampaignRunner(
        pop, gpus=GPUS, n_settings=N_SETTINGS, seed=seed, backend="vector",
    ).run()
    save_campaign(campaign, path)


def one_pass(campaign_path, registry_dir, seed: int, tracer: "Tracer | None" = None,
             max_rows: "int | None" = None, **hyper):
    """load -> train selector -> train predictor -> publish both.

    ``max_rows`` defaults to ``MAX_ROWS``.  Returns ``(wall_s,
    {name: checksum}, rows, artifact_bytes)``.
    """
    from repro.profiling import load_campaign, train_predictor_artifact, train_selector_artifact
    from repro.serve import ModelRegistry
    from repro.serve.registry import default_artifact_name

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    t0 = time.perf_counter()
    with span("profiling.load"):
        campaign = load_campaign(campaign_path)
    with span("ml.selector_fit"):
        selector = train_selector_artifact(campaign, SELECT_GPU, method="gbdt", seed=seed,
                                           **hyper)
    with span("ml.predictor_fit"):
        predictor = train_predictor_artifact(
            campaign, method="gbr", seed=seed,
            max_rows=MAX_ROWS if max_rows is None else max_rows, **hyper)
    reg = ModelRegistry(registry_dir)
    names = {}
    with span("serve.publish"):
        for art in (selector, predictor):
            name = default_artifact_name(art.kind, art.method, art.gpu, art.ndim)
            names[name] = reg.publish(art, name)
    wall = time.perf_counter() - t0
    checksums, size = {}, 0
    for name, version in names.items():
        path = reg.path(name, version)
        size += path.stat().st_size
        checksums[name] = reg.load(name, version).to_dict()["checksum"]
    rows = selector.meta["train_rows"] + predictor.meta["train_rows"]
    return wall, checksums, rows, size


def traced_training(tracer: Tracer):
    """Dataset building and OC merging inside the train_* calls."""
    import repro.profiling.train as train_mod

    return patched(
        (train_mod, "merge_ocs", lambda f: tracer.wrap("profiling.dataset", f)),
        (train_mod, "build_classification_dataset",
         lambda f: tracer.wrap("profiling.dataset", f)),
        (train_mod, "build_regression_dataset",
         lambda f: tracer.wrap("profiling.dataset", f)),
    )


def reference_checksums(workdir) -> dict:
    """Pinned reference: a tiny campaign and few boosting rounds."""
    ref = load_pins()["train"]
    path = workdir / "ref-campaign.json"
    make_campaign(ref["seed"], ref["count"], path, population_seed=ref["seed"])
    _, checksums, _, _ = one_pass(path, workdir / "ref-registry", ref["seed"],
                                  max_rows=ref["max_rows"], n_rounds=ref["n_rounds"])
    return checksums


def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    with scratch_dir("train-") as workdir:
        campaign_path = workdir / "campaign.json"

        def setup_once(rep):
            t = import_seconds(IMPORTS)
            clear_memo_caches()
            t0 = time.perf_counter()
            make_campaign(seed, COUNT, campaign_path)
            return t + time.perf_counter() - t0, None

        timed_setup(result, SETUP_REPS, setup_once)
        sums, times = [], [[]]
        if not trace:
            probes: list[float] = []
            for i, _ in enumerate(rounds(seconds, 1, probes)):
                wall, checksums, rows, size = one_pass(campaign_path, workdir / f"reg{i}", seed)
                times[0].append(wall)
                sums.append(checksums)
            report_ops(result, times, rows, probes)
        else:
            tracer = Tracer()
            wall, checksums, rows, size = one_pass(campaign_path, workdir / "reg-u", seed)
            untraced = [wall]
            sums.append(checksums)
            with traced_training(tracer):
                wall, checksums, rows, size = one_pass(
                    campaign_path, workdir / "reg-t", seed, tracer)
            traced = [wall]
            sums.append(checksums)
            report_trace(result, tracer, untraced, traced)
            for metric, span_name in (
                ("profiling.load_s", "profiling.load"),
                ("profiling.dataset_s", "profiling.dataset"),
                ("ml.selector_fit_s", "ml.selector_fit"),
                ("ml.predictor_fit_s", "ml.predictor_fit"),
                ("serve.publish_s", "serve.publish"),
            ):
                result.metric(metric, span_self(tracer, span_name), "s")
            result.metric("ml.train_rows", rows, "count")
            result.metric("serve.artifact_bytes", size, "bytes")
        report_self_rss(result)
        result.attempted = 2 * len(sums)
        result.details["checksums"] = sums[0]
        result.check("artifact checksums identical across passes",
                     all(s == sums[0] for s in sums), f"{sums}")
        pinned = load_pins()["train"]["checksums"]
        got = reference_checksums(workdir)
        result.check("reference artifact checksums match pins", got == pinned,
                     f"got {got}, pinned {pinned}")
