"""``campaign``: ``repro profile`` as users run it by default.

A fixed 2-D population profiled on V100 by :class:`CampaignRunner`
with the vector backend, one worker, the CLI's default ``n_settings``,
no fault injection and a checkpoint file, then saved as JSON.  Each
pass profiles one stencil of the population as a campaign of its own,
round after round, so that every stencil's repetitions spread over
the whole run (see :func:`perfbench.harness.report_ops`).  The package's memo
caches are emptied before every pass, so each starts as cold as a new
``repro profile`` process, and each stencil's passes must produce the
same campaign digest.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from .common import Result, clear_memo_caches, load_pins, scratch_dir
from .harness import (
    import_seconds, report_ops, report_engine, report_self_rss, report_trace, rounds,
    span_calls, span_self, timed_setup,
)
from .tracing import Tracer, TracingBackend, patched

#: ``repro profile`` defaults (see ``repro profile --help``).
GPU = "V100"
N_SETTINGS = 6
CHECKPOINT_EVERY = 16
#: The population is fixed, so that every seed profiles the same
#: stencils and runs compare like with like; ``--seed`` is the campaign
#: seed, which draws every tuning stream (the settings sampled per
#: stencil and OC).  One stencil takes about 0.7 s on a 2-CPU host.
POPULATION_SEED = 2022
COUNT = 4
SETUP_REPS = 5
IMPORTS = ("repro.profiling", "repro.stencil", "repro.gpu.faults")


def one_pass(seed: int, index: int, workdir, tag: str, tracer: "Tracer | None" = None,
             count: int = COUNT, population_seed: int = POPULATION_SEED):
    """Profile stencil *index* of the population as a campaign of its own.

    Generates the population, profiles the one stencil, saves the
    campaign.  Returns ``(wall_s, campaign, digest, health)``.
    """
    from repro.gpu.faults import FaultConfig
    from repro.profiling import CampaignRunner, save_campaign
    from repro.profiling.registry import checksum_campaign_doc
    from repro.profiling.storage import campaign_to_dict
    from repro.stencil import generate_population

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    clear_memo_caches()
    t0 = time.perf_counter()
    with span("stencil.generate"):
        pop = generate_population(2, count, seed=population_seed)
    runner = CampaignRunner(
        [pop[index]], gpus=(GPU,), n_settings=N_SETTINGS, seed=seed, backend="vector",
        faults=FaultConfig(), checkpoint_path=workdir / f"ck-{tag}.json",
        checkpoint_every=CHECKPOINT_EVERY, workers=1, transport="shm",
    )
    with span("profiling.run"):
        campaign = runner.run()
    with span("profiling.save"):
        save_campaign(campaign, workdir / f"campaign-{tag}.json")
    wall = time.perf_counter() - t0
    digest = checksum_campaign_doc(campaign_to_dict(campaign))
    return wall, campaign, digest, runner.health


def traced_campaign(tracer: Tracer):
    """Patches that trace the runner's units, tuning points and engine
    batches: a :class:`TracingBackend` replaces each search's backend."""
    import repro.profiling.runner as runner_mod

    def make_build_search(original):
        def build_search(*args, **kwargs):
            search = original(*args, **kwargs)
            search.backend = search.sim = TracingBackend(search.backend, tracer)
            search.tune_oc = tracer.wrap("tuning.tune_oc", search.tune_oc)
            return search
        return build_search

    return patched(
        (runner_mod, "build_search", make_build_search),
        (runner_mod, "run_unit", lambda f: tracer.wrap("profiling.unit", f)),
    )


def reference_digest(workdir) -> str:
    pins = load_pins()["campaign"]
    return one_pass(pins["seed"], 0, workdir, "ref", count=pins["count"],
                    population_seed=pins["seed"])[2]


def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    with scratch_dir("campaign-") as workdir:
        timed_setup(result, SETUP_REPS, lambda rep: (import_seconds(IMPORTS), None))
        digests = [set() for _ in range(COUNT)]
        times = [[] for _ in range(COUNT)]
        kept = [0] * COUNT
        points = failed = 0

        def profile(k, tag, tracer=None):
            nonlocal points, failed
            wall, campaign, digest, health = one_pass(seed, k, workdir, tag, tracer)
            digests[k].add(digest)
            kept[k] = len(campaign.measurements(GPU))
            points += len(campaign.ocs)
            failed += len(health.quarantined)
            return wall

        if not trace:
            probes: list[float] = []
            for i, k in enumerate(rounds(seconds, COUNT, probes)):
                times[k].append(profile(k, str(i)))
            report_ops(result, times, sum(kept), probes)
        else:
            tracer = Tracer()
            untraced, traced = [], []
            for k in range(COUNT):
                untraced.append(profile(k, f"u{k}"))
                with traced_campaign(tracer):
                    traced.append(profile(k, f"t{k}", tracer))
            report_trace(result, tracer, untraced, traced)
            report_engine(result, tracer, sum(kept))
            result.metric("tuning.calls", span_calls(tracer, "tuning.tune_oc"), "count")
            result.metric("profiling.runner_self_s", span_self(tracer, "profiling.run"), "s")
        report_self_rss(result)
        result.attempted = points
        result.failed = failed
        result.details["digests"] = [sorted(d) for d in digests]
        result.check("each stencil's campaign digest identical across passes"
                     + (" (traced and untraced)" if trace else ""),
                     all(len(d) == 1 for d in digests), f"digests {digests}")
        pinned = load_pins()["campaign"]["digest"]
        got = reference_digest(workdir)
        result.check("reference campaign digest matches pin", got == pinned,
                     f"got {got}, pinned {pinned}")
