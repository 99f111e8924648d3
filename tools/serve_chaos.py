"""Chaos harness: synthetic traffic plus fault injection for the serve stack.

The robustness claims of the serving tier -- load shedding instead of
collapse, a circuit breaker pinning the last good model through bad
publishes, hot swaps with zero failed requests, automatic rollback of
models that go bad at runtime -- are exactly the kind of claims that
rot silently.  This module turns each one into a scripted scenario that
runs in seconds on real (small) artifacts and returns a single JSON
report the benchmarks and CI can assert on.

Scenario (one :func:`run_chaos` call, seven phases):

1. **light**: baseline traffic; everything answers from the model.
2. **overload**: an injected worker stall plus a bursty open-loop
   arrival pattern overruns the admission bound -- requests are shed
   with 503-class errors and stale queued work misses its deadline,
   but nothing *fails*.  p99 of the surviving answers is the
   ``p99_under_overload_ms`` headline.
3. **corrupt_publish**: two corrupt artifacts land in the registry;
   both fail checksum validation off the hot path, the breaker opens,
   and traffic keeps answering from the pinned last-good model.
4. **torn_latest**: the ``LATEST`` tag is torn (emptied); polls fail
   closed, the pin holds.
5. **swap**: a good artifact is published and loaded *slowly* (injected
   delay) while live traffic runs; the half-open breaker probes,
   validates, swaps atomically -- zero failed requests.
6. **poison**: the swapped-in model is poisoned to throw at answer
   time; answers degrade down the fallback ladder (never 500) -- the
   analytical rung must serve them, attributed per rung in ``/stats``
   -- the post-swap health window trips, and the reloader rolls back
   to the previous version.
7. **recovery**: one more good publish swaps in and survives its health
   window; the breaker ends closed.

Traffic uses many distinct generated stencils, so the feature cache is
exercised under growth, not just hits.  All faults are injected through
public seams (:class:`ChaosRegistry`, a wrapped batch function, a
poisoned model object); the service code under test is unmodified.

Run: PYTHONPATH=src python tools/serve_chaos.py [--quick] [--report PATH]
[--seed N].  It exits 1 when any invariant :func:`chaos_passed` checks
is violated, and 0 when all of them hold.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass

from repro.config import DEFAULT_SEED, MAX_ORDER
from repro.errors import OverloadError, ReproError
from repro.optimizations.params import ParamSetting
from repro.profiling import run_campaign
from repro.profiling.train import train_predictor_artifact, train_selector_artifact
from repro.serve.admission import AdmissionPolicy
from repro.serve.features import FeatureCache
from repro.serve.registry import ModelRegistry
from repro.serve.reload import ModelReloader, ReloadPolicy
from repro.serve.service import PredictionService
from repro.stencil.generator import generate_population
from repro.store import LATEST, atomic_write_text

SELECTOR_NAME = "select-chaos"
PREDICTOR_NAME = "predict-chaos"


@dataclass(frozen=True)
class ChaosConfig:
    """Scenario knobs; the defaults run the full script in seconds."""

    seed: int = DEFAULT_SEED
    gpu: str = "V100"
    ndim: int = 2
    quick: bool = False
    n_stencils: int = 48          # distinct stencils in the traffic mix
    light_requests: int = 12
    burst_threads: int = 10       # open-loop arrivals in the overload burst
    burst_requests: int = 8       # per thread
    max_queue: int = 4            # admission bound (small: sheds happen)
    budget_ms: float = 30.0       # per-request budget during the burst
    stall_s: float = 0.05         # injected worker stall per batch
    slow_load_s: float = 0.15     # injected artifact-load delay
    swap_threads: int = 3         # live traffic during the hot swap
    cooldown_s: float = 0.05      # breaker cooldown
    min_window: int = 8           # post-swap health window (requests)

    @classmethod
    def make(cls, quick: bool = False, seed: int = DEFAULT_SEED, **kw):
        if quick:
            kw.setdefault("n_stencils", 24)
            kw.setdefault("light_requests", 8)
            kw.setdefault("burst_threads", 6)
            kw.setdefault("burst_requests", 6)
        return cls(seed=seed, quick=quick, **kw)


class ChaosRegistry(ModelRegistry):
    """A registry with fault-injection seams.

    ``load_delay_s`` simulates slow artifact materialization (large
    models, cold storage); :meth:`publish_corrupt` lands a version file
    that fails checksum validation; :meth:`tear_latest` forges the torn
    ``LATEST`` states :meth:`~ModelRegistry.latest` must fail closed
    on.  Only the injection is new -- readers exercise the production
    code paths.
    """

    def __init__(self, root):
        super().__init__(root)
        self.load_delay_s = 0.0

    def load(self, name, version=None):
        if self.load_delay_s > 0:
            time.sleep(self.load_delay_s)
        return super().load(name, version)

    def publish_corrupt(self, name: str) -> str:
        """Publish a next version whose document fails validation."""
        return self.publish_text(
            name, '{"format": 1, "kind": "selector", "note": "bit rot"}'
        )

    def tear_latest(self, name: str, text: str = "") -> None:
        """Overwrite the ``LATEST`` tag with a torn/garbage value."""
        atomic_write_text(self.root / name / LATEST, text)


class _Staller:
    """Wrap a batch function with a settable pre-compute stall."""

    def __init__(self, fn):
        self.fn = fn
        self.stall_s = 0.0

    def __call__(self, values):
        if self.stall_s > 0:
            time.sleep(self.stall_s)
        return self.fn(values)


class _PoisonedModel:
    """A model that throws at answer time (post-deserialization rot)."""

    def predict(self, *a, **kw):
        raise RuntimeError("chaos: poisoned model")


class _Outcomes:
    """Thread-safe per-phase outcome and latency accounting."""

    CLASSES = ("ok", "shed", "deadline", "client_error", "error")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts = dict.fromkeys(self.CLASSES, 0)
        self.ok_latencies_s: "list[float]" = []
        self.sources: dict[str, int] = {}

    def record(self, outcome: str, latency_s: float = 0.0,
               source: "str | None" = None) -> None:
        with self._lock:
            self.counts[outcome] += 1
            if outcome == "ok":
                self.ok_latencies_s.append(latency_s)
            if source is not None:
                self.sources[source] = self.sources.get(source, 0) + 1

    def p99_ms(self) -> float:
        with self._lock:
            lat = sorted(self.ok_latencies_s)
        if not lat:
            return 0.0
        return lat[min(len(lat) - 1, int(0.99 * len(lat)))] * 1e3

    def summary(self) -> dict:
        with self._lock:
            doc = dict(self.counts)
            doc["requests"] = sum(self.counts.values())
            doc["sources"] = dict(self.sources)
        doc["p99_ok_ms"] = self.p99_ms()
        return doc


def _one_request(service: PredictionService, stencil, i: int, cfg: ChaosConfig,
                 out: _Outcomes, budget_s=None, select_only: bool = False):
    """Fire one request through the batched front door and classify it."""
    t0 = time.perf_counter()
    try:
        if select_only or i % 2 == 0:
            r = service.select(stencil, cfg.gpu, budget_s=budget_s)
            src = f"{r.source}:{r.rung}" if r.rung else r.source
            out.record("ok", time.perf_counter() - t0, source=src)
        else:
            service.predict(stencil, "naive", ParamSetting(), cfg.gpu,
                            budget_s=budget_s)
            out.record("ok", time.perf_counter() - t0, source="model")
    except OverloadError as e:
        out.record("deadline" if e.kind == "deadline" else "shed")
    except ReproError:
        out.record("client_error")
    except Exception:  # noqa: BLE001 - chaos must count, not crash
        out.record("error")


def _drive(service, stencils, n, cfg, out, budget_s=None,
           select_only=False) -> None:
    for i in range(n):
        _one_request(service, stencils[i % len(stencils)], i, cfg, out,
                     budget_s=budget_s, select_only=select_only)


def _burst(service, stencils, cfg, out) -> None:
    """Open-loop burst: every thread fires its requests immediately."""
    barrier = threading.Barrier(cfg.burst_threads)

    def worker(k: int) -> None:
        barrier.wait()
        for i in range(cfg.burst_requests):
            _one_request(
                service, stencils[(k * 31 + i) % len(stencils)], i, cfg,
                out, budget_s=cfg.budget_ms / 1e3, select_only=True,
            )

    pool = [
        threading.Thread(target=worker, args=(k,), daemon=True)
        for k in range(cfg.burst_threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


def _traffic_until(service, stencils, cfg, out, stop: threading.Event):
    """Background traffic threads that run until *stop* is set."""

    def worker(k: int) -> None:
        i = 0
        while not stop.is_set():
            _one_request(
                service, stencils[(k * 17 + i) % len(stencils)], i, cfg, out
            )
            i += 1

    pool = [
        threading.Thread(target=worker, args=(k,), daemon=True)
        for k in range(cfg.swap_threads)
    ]
    for t in pool:
        t.start()
    return pool


def train_bench_artifacts(quick: bool = False, seed: int = DEFAULT_SEED):
    """Small real V100 selector and predictor artifacts, trained on a
    6- (``quick``) or 10-stencil 2-D campaign over V100 and A100."""
    pop = generate_population(2, 6 if quick else 10, seed=seed)
    campaign = run_campaign(pop, gpus=("V100", "A100"), n_settings=3, seed=seed)
    selector = train_selector_artifact(campaign, "V100", seed=seed)
    predictor = train_predictor_artifact(campaign, seed=seed)
    return selector, predictor


def run_chaos(selector, predictor, cfg: ChaosConfig, workdir) -> dict:
    """Run the scripted chaos scenario; returns the report document.

    *selector* and *predictor* are trained :class:`ModelArtifact`
    objects (see :func:`train_bench_artifacts` for the conventional
    small ones); *workdir* hosts the scratch registry.
    """
    registry = ChaosRegistry(workdir)
    v1 = registry.publish(selector, SELECTOR_NAME)
    registry.publish(predictor, PREDICTOR_NAME)

    service = PredictionService(
        feature_cache=FeatureCache(MAX_ORDER),
        max_batch=8,
        max_wait_s=0.001,
        admission=AdmissionPolicy(max_queue=cfg.max_queue, retry_after_s=0.01),
    )
    staller = _Staller(service.select_many)
    service._select_batcher.batch_fn = staller
    reloader = ModelReloader(
        service,
        registry,
        policy=ReloadPolicy(
            failure_threshold=2,
            cooldown_s=cfg.cooldown_s,
            min_window=cfg.min_window,
            max_degraded_rate=0.5,
        ),
    )
    events = [{"phase": "prime", **e} for e in reloader.prime()]
    stencils = generate_population(
        cfg.ndim, cfg.n_stencils, max_order=MAX_ORDER, seed=cfg.seed + 7
    )
    phases: dict[str, _Outcomes] = {}

    def out(phase: str) -> _Outcomes:
        return phases.setdefault(phase, _Outcomes())

    # Phase 1: light baseline traffic.
    _drive(service, stencils, cfg.light_requests, cfg, out("light"))

    # Phase 2: overload burst against a stalled worker.
    staller.stall_s = cfg.stall_s
    _burst(service, stencils, cfg, out("overload"))
    staller.stall_s = 0.0

    # Phase 3: two corrupt publishes; the second opens the breaker.
    for _ in range(2):
        registry.publish_corrupt(SELECTOR_NAME)
        events += [{"phase": "corrupt_publish", **e}
                   for e in reloader.check_once()]
    _drive(service, stencils, cfg.light_requests, cfg,
           out("corrupt_publish"), select_only=True)

    # Phase 4: torn LATEST tag; polls fail closed, the pin holds.
    registry.tear_latest(SELECTOR_NAME)
    events += [{"phase": "torn_latest", **e} for e in reloader.check_once()]
    _drive(service, stencils, cfg.light_requests, cfg,
           out("torn_latest"), select_only=True)
    pinned_label = f"{SELECTOR_NAME}@{v1}"
    pinned_last_good = (
        service._selectors[(cfg.ndim, cfg.gpu)].label == pinned_label
        and out("torn_latest").counts["ok"] == cfg.light_requests
    )

    # Phase 5: good publish, slow load, hot swap under live traffic.
    registry.load_delay_s = cfg.slow_load_s
    v_good = registry.publish(selector, SELECTOR_NAME)
    time.sleep(cfg.cooldown_s * 1.5)  # let the breaker reach half-open
    stop = threading.Event()
    pool = _traffic_until(service, stencils, cfg, out("swap"), stop)
    swap_events = reloader.check_once()
    stop.set()
    for t in pool:
        t.join()
    registry.load_delay_s = 0.0
    events += [{"phase": "swap", **e} for e in swap_events]
    swapped = any(
        e["action"] == "swapped" and e["version"] == v_good
        for e in swap_events
    )
    zero_failed_during_swap = (
        swapped and out("swap").counts["error"] == 0
        and out("swap").counts["client_error"] == 0
    )

    # Phase 6: poison the live model; health window trips -> rollback.
    service._selectors[(cfg.ndim, cfg.gpu)].artifact.model = _PoisonedModel()
    n_poison = cfg.min_window + 2 * out("swap").summary()["requests"]
    _drive(service, stencils, n_poison, cfg, out("poison"), select_only=True)
    events += [{"phase": "poison", **e} for e in reloader.check_once()]
    rolled_back = any(
        e["phase"] == "poison" and e["action"] == "rollback" for e in events
    )
    # While the model was poisoned, degraded answers must have come from
    # the analytical rung (the heuristic ladder is only the last resort).
    poison_sources = out("poison").summary()["sources"]
    analytical_engaged = poison_sources.get("fallback:analytical", 0) > 0

    # Phase 7: one more good publish; swap in and survive the window.
    v_final = registry.publish(selector, SELECTOR_NAME)
    time.sleep(cfg.cooldown_s * 1.5)
    events += [{"phase": "recovery", **e} for e in reloader.check_once()]
    _drive(service, stencils, max(cfg.light_requests, cfg.min_window + 1),
           cfg, out("recovery"), select_only=True)
    events += [{"phase": "recovery", **e} for e in reloader.check_once()]
    reload_snap = reloader.snapshot()[SELECTOR_NAME]
    recovered = (
        reload_snap["installed"] == v_final
        and reload_snap["breaker"]["state"] == "closed"
        and out("recovery").sources.get("model", 0) > 0
    )

    # ------------------------------------------------------------------
    phase_docs = {name: o.summary() for name, o in phases.items()}
    totals = dict.fromkeys(_Outcomes.CLASSES, 0)
    for doc in phase_docs.values():
        for k in totals:
            totals[k] += doc[k]
    n_total = sum(totals.values())
    n_shed = totals["shed"] + totals["deadline"]
    answered = n_total - n_shed
    return {
        "config": asdict(cfg),
        "phases": phase_docs,
        "totals": {**totals, "requests": n_total},
        "availability": totals["ok"] / n_total if n_total else 0.0,
        "availability_excluding_shed": (
            totals["ok"] / answered if answered else 0.0
        ),
        "non_503_errors": totals["client_error"] + totals["error"],
        "p99_under_overload_ms": out("overload").p99_ms(),
        "breaker": {
            "opened": reload_snap["breaker"]["opens"] >= 1,
            "pinned_last_good": pinned_last_good,
            "recovered": recovered,
            "final_state": reload_snap["breaker"]["state"],
        },
        "reload": {
            "swaps": reload_snap["swaps"],
            "rollbacks": reload_snap["rollbacks"],
            "rejected": reload_snap["rejected"],
            "load_failures": reload_snap["load_failures"],
        },
        "zero_failed_during_swap": zero_failed_during_swap,
        "analytical_rung_engaged": analytical_engaged,
        "fallback_rungs": service.stats_snapshot()["fallback_rungs"],
        "events": events,
        "stats": service.stats_snapshot(),
    }


def chaos_passed(report: dict) -> "list[str]":
    """The CI gate: the list of violated invariants (empty = pass)."""
    problems = []
    if report["non_503_errors"] != 0:
        problems.append(
            f"non-503 errors: {report['non_503_errors']} (want 0)"
        )
    b = report["breaker"]
    if not b["opened"]:
        problems.append("breaker never opened on corrupt publishes")
    if not b["pinned_last_good"]:
        problems.append("last-good model was not pinned through faults")
    if not b["recovered"]:
        problems.append("service did not recover after the good publish")
    if not report["zero_failed_during_swap"]:
        problems.append("requests failed during the hot swap")
    if report["reload"]["rollbacks"] < 1:
        problems.append("poisoned model was not rolled back")
    if not report.get("analytical_rung_engaged", False):
        problems.append(
            "analytical fallback rung never served degraded requests "
            "while the model was poisoned"
        )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true",
        help="smaller artifacts and traffic mix (the CI smoke setting)",
    )
    ap.add_argument("--report", help="write the full JSON report here")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    args = ap.parse_args(argv)

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


if __name__ == "__main__":
    sys.exit(main())
