"""``analytical``: the static-estimation serving rung on new stencils.

``AnalyticalSelector.select_many`` for MI210 with no campaign and no
artifact -- what ``repro train --method analytical`` publishes and what
the service's fallback ladder runs.  Every selection statically
autotunes each candidate OC through ``tune()`` on an
``AnalyticalBackend``: code generation, parsing and metric extraction
per evaluated point.

Each operation selects for one of four stencils, one of each order
1..4, none of them in the stencil library, round after round, so that
every stencil's repetitions spread over the whole run.  The stencils
are fixed so that runs compare like with like: seeded ones made the
time vary by about 20% between seeds from the stencils alone.
``--seed`` is the selector's seed, which draws every tuning stream.
The package's memo caches are emptied before every operation, so each
sees its stencil for the first time, as a fresh process would.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from .common import Result, clear_memo_caches, load_pins
from .harness import (
    import_seconds, report_ops, report_engine, report_self_rss, report_trace, rounds,
    span_calls, span_self, timed_setup,
)
from .tracing import Tracer, TracingBackend, patched

GPU = "MI210"
#: (order, min taps, max taps) per stencil of a pass.
SHAPES = ((1, 5, 9), (2, 9, 15), (3, 13, 21), (4, 17, 27))
STENCIL_SEED = 2022
SETUP_REPS = 5
IMPORTS = ("repro.ml.analytical", "repro.analysis.perfmodel", "repro.codegen")


def make_stencils(seed: int = STENCIL_SEED) -> list:
    """2-D stencils drawn by Algorithm 1, one per ``SHAPES`` entry, with
    the tap count held inside the entry's band."""
    from repro.stencil.generator import generate_stencil
    from repro.stencil.stencil import Stencil

    rng = np.random.default_rng(seed)
    out = []
    for order, lo, hi in SHAPES:
        while True:
            s = generate_stencil(2, order, rng)
            if lo <= s.nnz <= hi:
                break
        out.append(Stencil(ndim=2, offsets=s.offsets, name=f"new2d-{order}"))
    return out


def select_one(stencil, seed: int = 0, tracer: "Tracer | None" = None):
    """One selection by a fresh selector in a cold process state.

    Returns ``(wall_s, pick)``; the pick is ``None`` on a ``ModelError``.
    """
    from repro.errors import ModelError
    from repro.ml.analytical import AnalyticalSelector

    clear_memo_caches()
    selector = AnalyticalSelector(seed=seed)
    t0 = time.perf_counter()
    with tracer.span("ml.select") if tracer is not None else nullcontext():
        try:
            (pick,) = selector.select_many([stencil], GPU)
        except ModelError:
            pick = None
    return time.perf_counter() - t0, pick


def traced_analysis(tracer: Tracer):
    """Spans around the public calls the selector makes, layer by layer."""
    import repro.analysis.backend as backend_mod
    import repro.analysis.perfmodel as perfmodel
    import repro.codegen as codegen
    import repro.tuning as tuning
    from repro.gpu.simulator import GPUSimulator

    def make_backend(original):
        def factory(gpu):
            return TracingBackend(original(gpu), tracer)
        return factory

    return patched(
        (tuning, "tune", lambda f: tracer.wrap("tuning.tune", f)),
        (backend_mod, "AnalyticalBackend", make_backend),
        (perfmodel, "estimate_kernel", lambda f: tracer.wrap("analysis.estimate", f)),
        (perfmodel, "extract_metrics", lambda f: tracer.wrap("analysis.extract", f)),
        (codegen, "generate_cuda", lambda f: tracer.wrap("codegen.generate", f)),
        (GPUSimulator, "time_profile", lambda f: tracer.wrap("gpu.compose", f)),
    )


def reference_picks() -> list:
    from repro.stencil import get

    return [select_one(get(name))[1] for name in load_pins()["analytical"]["stencils"]]


def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    def setup_once(rep):
        t = import_seconds(IMPORTS)
        t0 = time.perf_counter()
        stencils = make_stencils()
        return t + time.perf_counter() - t0, stencils

    stencils = timed_setup(result, SETUP_REPS, setup_once)
    times = [[] for _ in stencils]
    picks = [set() for _ in stencils]
    if not trace:
        probes: list[float] = []
        for k in rounds(seconds, len(stencils), probes):
            wall, pick = select_one(stencils[k], seed)
            times[k].append(wall)
            picks[k].add(pick)
        report_ops(result, times, len(stencils), probes)
    else:
        from repro.analysis import parse_cache_info

        tracer = Tracer()
        untraced, traced = [], []
        hits = misses = 0
        for k, stencil in enumerate(stencils):
            wall, pick = select_one(stencil, seed)
            untraced.append(wall)
            picks[k].add(pick)
            with traced_analysis(tracer):
                wall, pick = select_one(stencil, seed, tracer)
            info = parse_cache_info()
            hits, misses = hits + info["hits"], misses + info["misses"]
            traced.append(wall)
            picks[k].add(pick)
            times[k] += [untraced[-1], wall]
        report_trace(result, tracer, untraced, traced)
        # Static estimates are not measurements: nothing is "kept".
        report_engine(result, tracer, 0)
        result.metric("tuning.calls", span_calls(tracer, "tuning.tune"), "count")
        result.metric("codegen.generate_s", span_self(tracer, "codegen.generate"), "s")
        result.metric("codegen.kernels", span_calls(tracer, "codegen.generate"), "count")
        result.metric("analysis.extract_s", span_self(tracer, "analysis.extract"), "s")
        result.metric("analysis.extracts", span_calls(tracer, "analysis.extract"), "count")
        result.metric("analysis.estimates", span_calls(tracer, "analysis.estimate"), "count")
        result.metric("analysis.parse_hit_ratio",
                      hits / (hits + misses) if hits + misses else 0.0, "ratio")
        result.metric("gpu.compose_s", span_self(tracer, "gpu.compose"), "s")
    report_self_rss(result)
    result.attempted = sum(len(t) for t in times)
    result.failed = sum(1 for p in picks if None in p)
    result.details["picks"] = [sorted(p, key=str) for p in picks]
    result.check("every pass picks the same OC per stencil" + (
        " (traced and untraced)" if trace else ""),
        all(len(p) == 1 for p in picks), f"{picks}")
    pinned = load_pins()["analytical"]["picks"]
    got = reference_picks()
    result.check("reference picks match pins", got == pinned, f"got {got}, pinned {pinned}")
