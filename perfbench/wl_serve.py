"""``serve``: open-loop HTTP traffic against a ``repro serve`` process.

The inputs are made first: a small V100 + A100 campaign, and a 2-D V100
GBDT selector and a 2-D GBR predictor trained on it and published, as
the ``train`` workload does and times.  Set-up (``setup_s``) starts
``python -m repro serve`` on that registry and warms it with a few
requests, several times over, keeping the last server.  The
timed phase is an open loop from this process: requests are due on a
fixed schedule, sent by at most ``nproc`` threads with one connection
per request (as the package's urllib ``ServeClient`` does), and each
is timed from its due time, so a stall charges every request queued
behind it.  It runs a light step, the reference step (``p50_ms``,
``p99_ms``), then a ladder of rising rates up to the first one the
server cannot sustain (``max_rps``), and last a closed-loop burst of a
fixed number of requests (``wall_s``).

Traffic mixes single ``/v1/select`` and ``/v1/predict`` requests over a
hot set of stencils plus a share never seen before, so the server's
feature cache both hits and misses.  The repository has no record of
real traffic.  The hot-set size (48) and the alternation of selections
and predictions come from the chaos scenario (``repro.serve.chaos``);
the 20% share of new stencils and the even V100/A100 split of
predictions are assumptions of this benchmark, not measured figures.

A traced run drives ``perfbench/serve_traced.py`` -- ``repro serve``
with spans -- and an untraced server on the same registry, each through
the reference step only; ``trace.overhead`` compares their median
latencies.  Every server is stopped with SIGTERM, must drain and exit 0,
and its final ``/stats`` is cross-checked against the client's counts.
"""

from __future__ import annotations

import http.client
import itertools
import json
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from .common import ROOT, Result, median, nproc, pid_peak_rss_mb, quantile, scratch_dir
from .harness import child_env, timed_setup
from .tracing import LAYERS, format_table, layer_self
from . import wl_train

SELECT_GPU = "V100"
PREDICT_GPUS = ("V100", "A100")
#: The chaos scenario's number of distinct stencils.
HOT_STENCILS = 48
#: Share of requests for a stencil never seen before (an assumption).
COLD_SHARE = 0.2
LIGHT_RATE = 50.0
LIGHT_REQUESTS = 100
#: The reference rate, about 60% of the server's capacity on a 2-vCPU
#: host, so that p99 reflects service time more than queueing.
REFERENCE_RATE = 100.0
#: Reference-step samples per run (at least).
REF_SAMPLES = 1500
#: The ladder starts at 1.5x the reference rate; each step offers 10%
#: more than the last, for this long.
LADDER_START = 1.5
LADDER_FACTOR = 1.1
LADDER_STEP_S = 1.5
LADDER_MAX_RATE = 1000.0
#: Closed-loop burst whose wall time is ``wall_s``.
BURST_REQUESTS = 400
#: p99 latency limit a rate must meet to count as sustained.
LATENCY_LIMIT_MS = 50.0
#: A step is invalid when the generator's p99 lag exceeds this share of
#: the inter-arrival gap.  An invalid step is reported, not dropped: a
#: late send is charged to the request's latency (timed from its due
#: time), so lag can only make a step look worse, never hide a backlog.
LAG_LIMIT_SHARE = 0.75
#: ``p99_ms`` is the median over this many consecutive windows of the
#: reference step of each window's exact p99: the host stalls for tens
#: of milliseconds at times, and one stalled stretch moved a whole-step
#: p99 from 9 to 56 ms.
P99_WINDOWS = 5
WARMUP_REQUESTS = 40
SETUP_REPS = 5


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def make_traffic(seed: int):
    """Endless requests ``(path, body, doc)`` drawn from the seed."""
    from repro.optimizations.combos import ALL_OCS
    from repro.optimizations.params import sample_setting
    from repro.profiling.storage import stencil_to_dict
    from repro.stencil import generate_population
    from repro.stencil.generator import generate_stencil

    rng = np.random.default_rng([seed, 0x5E])
    hot = [stencil_to_dict(s) for s in generate_population(2, HOT_STENCILS, seed=seed + 1)]
    for i in itertools.count():
        if rng.random() < COLD_SHARE:
            s = generate_stencil(2, int(rng.integers(1, 5)), rng)
            stencil = {"ndim": 2, "offsets": [list(p) for p in s.sorted_offsets]}
        else:
            stencil = hot[int(rng.integers(HOT_STENCILS))]
        if i % 2 == 0:
            path, doc = "/v1/select", {"stencil": stencil, "gpu": SELECT_GPU}
        else:
            oc = ALL_OCS[int(rng.integers(len(ALL_OCS)))]
            setting = sample_setting(oc, 2, rng)
            doc = {
                "stencil": stencil, "oc": oc.name,
                "setting": {k: int(v) for k, v in setting.items()},
                "gpu": PREDICT_GPUS[int(rng.integers(len(PREDICT_GPUS)))],
            }
            path = "/v1/predict"
        yield path, json.dumps(doc).encode(), doc


def expected_answers(registry_dir, traffic) -> list:
    """In-process ``select_many``/``predict_many`` on the same artifacts."""
    from repro.serve import ModelRegistry, PredictionService
    from repro.serve.http import parse_stencil
    from repro.serve.service import PredictRequest, SelectRequest, setting_from_dict

    svc = PredictionService()
    svc.load_registry(ModelRegistry(registry_dir))
    sel = [i for i, (p, _, _) in enumerate(traffic) if p == "/v1/select"]
    pre = [i for i, (p, _, _) in enumerate(traffic) if p == "/v1/predict"]
    out: list = [None] * len(traffic)
    picks = svc.select_many([
        SelectRequest(parse_stencil(traffic[i][2]["stencil"]), traffic[i][2]["gpu"])
        for i in sel
    ])
    for i, r in zip(sel, picks):
        out[i] = {"oc": r.oc, "class": r.cls, "source": r.source}
    times = svc.predict_many([
        PredictRequest(parse_stencil(d["stencil"]), d["oc"], setting_from_dict(d["setting"]),
                       d["gpu"])
        for d in (traffic[i][2] for i in pre)
    ])
    for i, t in zip(pre, times):
        out[i] = {"time_ms": t}
    return out


def comparable(path: str, body: dict) -> dict:
    if path == "/v1/select":
        return {"oc": body.get("oc"), "class": body.get("class"), "source": body.get("source")}
    return {"time_ms": body.get("time_ms")}


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class Server:
    """A server subprocess: start, wait until ready, SIGTERM, reap."""

    def __init__(self, cmd: "list[str]"):
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        self.port = None
        self.sent = self.shed = 0

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Read stdout until the server announces its port."""

        def reader():
            for line in self.proc.stdout:
                if line.startswith("serving on http://"):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    return

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout_s)
        if self.port is None:
            self.kill()
            thread.join()
            raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> "tuple[int, dict | None]":
        """SIGTERM, let it drain, reap; returns (exit code, final /stats)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1, None
        stats = None
        for line in reversed(err.strip().splitlines()):
            if line.startswith("{"):
                stats = json.loads(line)
                break
        return self.proc.returncode, stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def port_released(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0):
            return False
    except OSError:
        return True


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
def send(port: int, path: str, body: bytes):
    """One request on its own connection, as the package's ``ServeClient``
    (urllib) sends it."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body, headers={
            "Content-Type": "application/json", "Connection": "close",
        })
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def open_loop(server: Server, traffic, rate: float, conns: int) -> list:
    """Send *traffic* due every ``1/rate`` s (all at once when *rate* is
    infinite); per request returns ``(status, body, latency_s from due,
    generator lag_s, lateness_s)``.

    Generator lag is how late a request left after both its due time
    and a free connection; lateness is how late it left its due time.
    """
    n, gap = len(traffic), 1.0 / rate
    out: list = [None] * n
    lock = threading.Lock()
    cursor = iter(range(n))
    t0 = time.perf_counter() + 0.05

    def worker():
        free = time.perf_counter()
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = t0 + i * gap
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, body = send(server.port, traffic[i][0], traffic[i][1])
            done = time.perf_counter()
            out[i] = (status, body, done - due, sent - max(due, free), sent - due)
            free = done

    threads = [threading.Thread(target=worker) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.sent += n
    server.shed += sum(1 for a in out if a[0] == 503)
    return out


def summarize_step(rate: float, answers) -> dict:
    """One step's figures and whether it was sustained."""
    lat = [a[2] for a in answers]
    lag = [a[3] for a in answers]
    ok = sum(1 for a in answers if a[0] == 200)
    first_due_to_last_done = max(a[2] + i / rate for i, a in enumerate(answers))
    p99 = window_p99_ms(answers)
    final_lateness_ms = answers[-1][4] * 1e3
    lag_p99_ms = quantile(lag, 0.99) * 1e3
    valid = lag_p99_ms <= LAG_LIMIT_SHARE * 1e3 / rate
    return {
        "rate": rate,
        "requests": len(answers),
        "ok": ok,
        "status_503": sum(1 for a in answers if a[0] == 503),
        "p50_ms": quantile(lat, 0.5) * 1e3,
        "p99_ms": p99,
        "whole_p99_ms": quantile(lat, 0.99) * 1e3,
        "wall_s": first_due_to_last_done,
        "throughput": ok / first_due_to_last_done,
        "lag_p99_ms": lag_p99_ms,
        "valid": valid,
        "final_lateness_ms": final_lateness_ms,
        "sustained": (ok == len(answers) and p99 <= LATENCY_LIMIT_MS
                      and final_lateness_ms <= LATENCY_LIMIT_MS),
    }


def window_p99_ms(answers) -> float:
    lat = [a[2] for a in answers]
    size = len(lat) // P99_WINDOWS
    return median(
        quantile(lat[i * size:(i + 1) * size], 0.99) for i in range(P99_WINDOWS)
    ) * 1e3


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    traffic = make_traffic(seed)
    warmup = list(itertools.islice(traffic, WARMUP_REQUESTS))
    conns = max(1, min(2, nproc()))
    ref_n = max(REF_SAMPLES, int(REFERENCE_RATE * seconds * 0.6))
    sent: list = []
    checked: list = []
    with scratch_dir("serve-") as workdir:
        servers: list[Server] = []
        try:
            registry_dir = prepare(seed, workdir, result)
            serve_cmd = [sys.executable, "-m", "repro", "serve", "--registry",
                         str(registry_dir), "--port", "0"]
            server = timed_setup(result, 1 if trace else SETUP_REPS,
                                 lambda rep: restart(serve_cmd, servers, warmup))

            def step(server, rate, n):
                chunk = list(itertools.islice(traffic, n))
                answers = open_loop(server, chunk, rate, conns)
                sent.extend(chunk)
                checked.extend(answers)
                return answers

            if not trace:
                light = step(server, LIGHT_RATE, LIGHT_REQUESTS)
                ref = step(server, REFERENCE_RATE, ref_n)
                steps = [summarize_step(LIGHT_RATE, light), summarize_step(REFERENCE_RATE, ref)]
                rate = REFERENCE_RATE * LADDER_START
                while steps[-1]["sustained"] and rate <= LADDER_MAX_RATE:
                    answers = step(server, rate, max(50, int(rate * LADDER_STEP_S)))
                    steps.append(summarize_step(rate, answers))
                    rate *= LADDER_FACTOR
                t0 = time.perf_counter()
                burst = step(server, float("inf"), BURST_REQUESTS)
                burst_s = time.perf_counter() - t0
                rss = server.peak_rss_mb()
                servers.remove(server)
                check_server(result, "", server, *server.stop())
                report(result, steps, ref, burst_s, len(burst), rss)
            else:
                untraced = step(server, REFERENCE_RATE, ref_n)
                servers.remove(server)
                check_server(result, "untraced ", server, *server.stop())
                spans_path = workdir / "spans.json"
                server = start_server(
                    [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                     "--registry", str(registry_dir), "--spans-out", str(spans_path)],
                    servers, warmup)
                traced = step(server, REFERENCE_RATE, ref_n)
                servers.remove(server)
                stats = check_server(result, "traced ", server, *server.stop())
                report_traced(result, spans_path, stats, untraced, traced)
        finally:
            for s in servers:
                s.kill()
        check_answers(result, registry_dir, sent, checked)


def prepare(seed, workdir, result: Result):
    """Profile, train and publish the served models (the ``train``
    workload's work, timed there); returns the registry directory."""
    t0 = time.perf_counter()
    campaign_path = workdir / "campaign.json"
    registry_dir = workdir / "registry"
    wl_train.make_campaign(seed, wl_train.COUNT, campaign_path)
    wl_train.one_pass(campaign_path, registry_dir, seed)
    result.details["prepare_raw_s"] = time.perf_counter() - t0
    return registry_dir


def start_server(cmd, servers, warmup) -> Server:
    server = Server(cmd)
    servers.append(server)
    server.wait_ready()
    for path, body, _ in warmup:
        send(server.port, path, body)
    server.sent += len(warmup)
    return server


def restart(cmd, servers, warmup):
    """Start a server and warm it up (the timed set-up), then stop the
    one it replaces."""
    t0 = time.perf_counter()
    server = start_server(cmd, servers, warmup)
    elapsed = time.perf_counter() - t0
    for old in servers[:-1]:
        servers.remove(old)
        old.stop()
    return elapsed, server


def report(result: Result, steps, ref, burst_s: float, burst_n: int, rss_mb: float) -> None:
    result.metric("wall_s", burst_s, "s", samples=burst_n)
    result.metric("p50_ms", quantile([a[2] for a in ref], 0.5) * 1e3, "ms", samples=len(ref))
    result.metric("p99_ms", window_p99_ms(ref), "ms", samples=len(ref))
    sustained = [s for s in steps if s["sustained"]]
    best = max(sustained, key=lambda s: s["rate"]) if sustained else None
    result.metric("max_rps", best["throughput"] if best else 0.0, "1/s",
                  samples=best["requests"] if best else 0)
    result.metric("rss_mb", rss_mb, "MB")
    result.details["steps"] = steps
    invalid = [s["rate"] for s in steps if not s["valid"]]
    if invalid:
        print(f"WARNING: generator p99 lag over {LAG_LIMIT_SHARE:g} of the gap at "
              f"{invalid} requests/s; those steps are invalid", file=sys.stderr)
    result.details["invalid_rates"] = invalid
    result.details["latency_limit_ms"] = LATENCY_LIMIT_MS


def check_server(result, label, server, code, stats) -> "dict | None":
    """Exit code, port and final ``/stats`` of a stopped server."""
    result.check(f"{label}server drained and exited 0 on SIGTERM", code == 0,
                 f"exit code {code}")
    result.check(f"{label}server port released", port_released(server.port),
                 f"port {server.port} still open")
    served = stats["requests_total"] if stats else None
    shed = stats["shed"] + stats["deadline_misses"] if stats else None
    result.check(f"{label}server final /stats counts match the client's",
                 served == server.sent - server.shed and shed == server.shed,
                 f"/stats requests {served} shed {shed}; "
                 f"client sent {server.sent} shed {server.shed}")
    result.details[f"{label}final_stats".replace(" ", "_")] = stats
    return stats


def check_answers(result, registry_dir, sent, answers) -> None:
    expected = expected_answers(registry_dir, sent)
    mismatched = [
        i for i, ((path, _, _), a, want) in enumerate(zip(sent, answers, expected))
        if a[0] != 200 or comparable(path, json.loads(a[1])) != want
    ]
    result.check("every HTTP answer equals in-process select_many/predict_many",
                 not mismatched, f"{len(mismatched)} mismatches, first {mismatched[:5]}")
    result.attempted = len(answers)
    result.failed = sum(1 for a in answers if a[0] != 200)


def report_traced(result: Result, spans_path, stats, untraced, traced) -> None:
    table = json.loads(spans_path.read_text())["spans"]

    def per_call_ms(name, key):
        row = table.get(name)
        return row[key] / row["calls"] * 1e3 if row and row["calls"] else 0.0

    client_s = sum(a[2] for a in traced)
    own = layer_self(table)
    for layer in LAYERS:
        result.metric(f"{layer}.self_s", own[layer], "s")
    plain_p50 = quantile([a[2] for a in untraced], 0.5)
    traced_p50 = quantile([a[2] for a in traced], 0.5)
    result.metric("trace.coverage", sum(own.values()) / client_s, "ratio")
    result.metric("trace.overhead", traced_p50 / plain_p50 - 1.0, "ratio", samples=len(traced))
    result.metric("serve.http_ms", per_call_ms("serve.http", "self_s"), "ms")
    result.metric("serve.batch_wait_ms", per_call_ms("serve.submit", "self_s"), "ms")
    result.metric("serve.features_ms", per_call_ms("serve.features", "total_s"), "ms")
    result.metric("ml.predict_ms", per_call_ms("ml.predict", "total_s"), "ms")
    result.metric("serve.batch_size_mean", stats["batches"]["mean_size"], "count")
    result.metric("serve.features_hit_ratio", stats["feature_cache"]["hit_rate"], "ratio")
    result.metric("serve.shed", stats["shed"] + stats["deadline_misses"], "count")
    result.metric("serve.generator_lag_ms",
                  summarize_step(REFERENCE_RATE, traced)["lag_p99_ms"], "ms")
    result.details["spans"] = table
    result.details["client_latency_sum_s"] = client_s
    result.details["reference_p50_ms"] = {"untraced": plain_p50 * 1e3, "traced": traced_p50 * 1e3}
    print(format_table(table, client_s))
    print(f"shares are of the summed client latency, {client_s:.4f} s")
