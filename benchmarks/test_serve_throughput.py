"""Serving throughput: micro-batched vs per-request model calls.

The prediction service exists so that trained StencilMART models answer
online queries without retraining; its perf claim is that coalescing
concurrent requests into vectorized model calls is worth the plumbing.
This bench trains small real selector and predictor artifacts and
replays one request stream through

- the **per-request** path (``select_one`` / ``predict_one``: one model
  call per request, the no-batching reference),
- the **batched** path (``select_many`` / ``predict_many`` in
  max-batch-sized chunks: what the micro-batcher converges to under
  load), and
- the **concurrent** path (worker threads submitting through the real
  :class:`MicroBatcher`, the HTTP server's request shape),

and asserts the serving acceptance bar: batched throughput >= 3x
per-request on both endpoints, with p50/p95/p99 latencies recorded.
The feature cache is pre-warmed and shared across phases so every
number isolates model-call batching, not representation extraction.
"""

import threading
import time

import numpy as np

from repro.config import DEFAULT_SEED, MAX_ORDER
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import sample_setting
from repro.serve import FeatureCache, PredictionService
from repro.serve.chaos import train_bench_artifacts
from repro.serve.service import PredictRequest, SelectRequest
from repro.stencil.generator import generate_population

from conftest import print_table

GPU = "V100"
N_REQUESTS = 256
MAX_BATCH = 64
THREADS = 8


def make_requests():
    """The replayed stream: one select and one predict per stencil."""
    stencils = generate_population(
        2, N_REQUESTS, max_order=MAX_ORDER, seed=DEFAULT_SEED + 1
    )
    rng = np.random.default_rng(DEFAULT_SEED + 2)
    selects = [SelectRequest(s, GPU) for s in stencils]
    predicts = []
    for i, s in enumerate(stencils):
        oc = ALL_OCS[i % len(ALL_OCS)]
        setting = sample_setting(oc, s.ndim, rng)
        predicts.append(PredictRequest(s, oc.name, setting, GPU))
    return selects, predicts


def per_request_vs_batched(service, endpoint: str, requests: list, one, many):
    """Time the per-request loop and max-batch chunks over one stream.

    *one* is called as ``one(svc, request)``; *many* as
    ``many(svc, requests)``.  Returns the loop's seconds and latency
    snapshot and the batched seconds.
    """
    svc = service()
    start = time.perf_counter()
    for r in requests:
        one(svc, r)
    loop_s = time.perf_counter() - start
    latency = svc.stats.snapshot()["latency"][endpoint]

    svc = service()
    start = time.perf_counter()
    for i in range(0, len(requests), MAX_BATCH):
        many(svc, requests[i : i + MAX_BATCH])
    return loop_s, latency, time.perf_counter() - start


def concurrent_select(svc, requests):
    """``THREADS`` worker threads through the real micro-batcher;
    returns the seconds and the service's stats snapshot."""
    barrier = threading.Barrier(THREADS + 1)

    def worker(shard):
        barrier.wait()
        for r in shard:
            svc.select(r.stencil, r.gpu)

    pool = [
        threading.Thread(target=worker, args=(requests[i::THREADS],), daemon=True)
        for i in range(THREADS)
    ]
    for t in pool:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in pool:
        t.join()
    return time.perf_counter() - start, svc.stats.snapshot()


def test_serve_throughput(benchmark):
    selector, predictor = train_bench_artifacts()
    selects, predicts = make_requests()
    cache = FeatureCache(MAX_ORDER)

    def service():
        """A fresh service over the shared artifacts and warm cache."""
        svc = PredictionService(feature_cache=cache, max_batch=MAX_BATCH)
        svc.install(selector, "bench-selector")
        svc.install(predictor, "bench-predictor")
        return svc

    # Warm the shared feature cache and the NumPy dispatch paths once so
    # every timed phase measures model-call batching only.
    warm = service()
    warm.select_many(selects)
    warm.predict_many(predicts)

    select = per_request_vs_batched(
        service,
        "select",
        selects,
        lambda svc, r: svc.select_one(r.stencil, r.gpu),
        lambda svc, rs: svc.select_many(rs),
    )
    predict = per_request_vs_batched(
        service,
        "predict",
        predicts,
        lambda svc, r: svc.predict_one(r.stencil, r.oc, r.setting, r.gpu),
        lambda svc, rs: svc.predict_many(rs),
    )
    con_s, snap = concurrent_select(service(), selects)
    con_lat = snap["latency"]["select"]

    rows = []
    for name, (loop_s, lat, batch_s) in (("select", select), ("predict", predict)):
        rows.append(
            [f"{name} per-request", loop_s, N_REQUESTS / loop_s, 1.0,
             lat["p50_ms"], lat["p95_ms"], lat["p99_ms"]]
        )
        rows.append(
            [f"{name} batched", batch_s, N_REQUESTS / batch_s,
             loop_s / batch_s, "-", "-", "-"]
        )
    rows.append(
        [f"select x{THREADS} threads", con_s, N_REQUESTS / con_s, "-",
         con_lat["p50_ms"], con_lat["p95_ms"], con_lat["p99_ms"]]
    )
    print_table(
        f"Serve throughput ({N_REQUESTS} requests, max_batch={MAX_BATCH})",
        ["path", "seconds", "req/sec", "speedup", "p50 ms", "p95 ms", "p99 ms"],
        rows,
    )

    # The serving acceptance bar (ISSUE 5): vectorized micro-batches
    # clear >=3x the per-request reference on both endpoints.
    for loop_s, _, batch_s in (select, predict):
        assert loop_s / batch_s >= 3.0
    # The real micro-batcher must actually coalesce under threaded load
    # (mean batch > 1) and answer every request exactly once.
    assert snap["batches"]["mean_size"] > 1.0
    assert snap["batches"]["requests"] == N_REQUESTS
    # Latency percentiles are recorded and ordered.
    for p in (select[1], con_lat):
        assert 0 < p["p50_ms"] <= p["p95_ms"] <= p["p99_ms"]

    # Representative timing unit: one max-batch select_many call on a
    # warm service.
    svc = service()
    chunk = selects[:MAX_BATCH]
    svc.select_many(chunk)
    benchmark(svc.select_many, chunk)
