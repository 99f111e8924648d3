"""Pieces every workload shares: set-up timing, pass loops, reporting."""

from __future__ import annotations

import os
import subprocess
import sys
import time

from .common import SRC, Result, median, quantile, self_peak_rss_mb
from .tracing import LAYERS, Tracer, format_table, layer_self


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def import_seconds(modules: "tuple[str, ...]") -> float:
    """Wall time of a fresh interpreter importing *modules* (cold start)."""
    code = "import " + ", ".join(modules)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True, timeout=120,
    )
    return time.perf_counter() - t0


#: Timings are reported as they would read on a host on which
#: :func:`speed_probe` takes this long (see :func:`scaled`).
REFERENCE_PROBE_S = 0.010


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(40000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + 1
        acc += (i % 13) * 0.5
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* scaled to the reference host speed by the probes taken
    just before and just after the timed work.

    The reference host's CPU speed drifts by up to 2x within seconds
    and between minutes, and whole runs fell in slow or fast stretches:
    over six runs of ``campaign`` the quartile spread of the summed
    per-operation medians was 34% of their median raw and 6% scaled
    (``analytical``: 39% and 15%).  In a calmer stretch the probe's own
    noise cost a little: 12% raw against 17% scaled over five runs of
    ``train`` and of ``analytical``.  The probe is benchmark code, so a
    change to the package moves a scaled time as much as a raw one.
    """
    return seconds * 2.0 * REFERENCE_PROBE_S / (before + after)


def timed_setup(result: Result, reps: int, setup_once):
    """Run *setup_once* ``reps`` times; ``setup_s`` is the median scaled time.

    ``setup_once(rep)`` returns ``(seconds, state)``; the last state is
    the one the timed phase uses.
    """
    raw, times, state = [], [], None
    before = speed_probe()
    for rep in range(reps):
        seconds, state = setup_once(rep)
        after = speed_probe()
        raw.append(seconds)
        times.append(scaled(seconds, before, after))
        before = after
    result.metric("setup_s", median(times), "s", samples=len(times))
    result.details["setup_raw_s"] = raw
    return state


def rounds(seconds: float, n_ops: int, probes: "list[float]", min_rounds: int = 2):
    """Yield operation indices ``0..n_ops-1``, round after round.

    A new round starts only while the last one still fits in the time
    left, and at least *min_rounds* run.  Interleaving the operations
    spreads each one's repetitions over the whole run.  A
    :func:`speed_probe` time is appended to *probes* before every
    operation and after the last.
    """
    t0, last, done = time.perf_counter(), 0.0, 0
    while True:
        r0 = time.perf_counter()
        if done >= min_rounds and (r0 - t0) + last > seconds:
            probes.append(speed_probe())
            return
        for k in range(n_ops):
            probes.append(speed_probe())
            yield k
        last, done = time.perf_counter() - r0, done + 1


def report_ops(result: Result, times: "list[list[float]]", work: float,
               probes: "list[float]") -> None:
    """End-to-end metrics of a batch workload from scaled repetitions.

    *times* holds each operation's raw repetition times and *probes*
    the probe times around them, both in the order :func:`rounds` ran
    them.  Each operation's time is the median of its :func:`scaled`
    repetitions.  ``wall_s`` sums them (one pass over every operation),
    ``p50_ms``/``p99_ms`` are exact quantiles over them, and ``max_rps``
    is *work* (done by one pass) per second of ``wall_s``.
    """
    n_ops = len(times)
    per_op = [
        median(scaled(t, probes[j * n_ops + k], probes[j * n_ops + k + 1])
               for j, t in enumerate(reps))
        for k, reps in enumerate(times)
    ]
    n = sum(len(reps) for reps in times)
    wall = sum(per_op)
    result.metric("wall_s", wall, "s", samples=n)
    result.metric("p50_ms", quantile(per_op, 0.50) * 1e3, "ms", samples=len(per_op))
    result.metric("p99_ms", quantile(per_op, 0.99) * 1e3, "ms", samples=len(per_op))
    result.metric("max_rps", work / wall, "1/s", samples=n)
    result.details["op_times_s"] = times
    result.details["probe_s"] = probes
    result.details["raw_median_pass_s"] = sum(median(reps) for reps in times)


def report_self_rss(result: Result) -> None:
    result.metric("rss_mb", self_peak_rss_mb(), "MB")


def report_trace(
    result: Result, tracer: Tracer,
    untraced_walls: "list[float]", traced_walls: "list[float]",
) -> None:
    """Per-layer self times of one traced pass, coverage and overhead.

    Traced runs time every operation once untraced and once traced, in
    pairs.  Coverage is the layers' summed self time over the traced
    wall time; overhead is traced over untraced wall time, minus one.
    """
    table = tracer.summary()
    traced, untraced = sum(traced_walls), sum(untraced_walls)
    print(format_table(table, traced))
    own = layer_self(table)
    for layer in LAYERS:
        result.metric(f"{layer}.self_s", own[layer], "s")
    result.metric("trace.coverage", sum(own.values()) / traced, "ratio")
    result.metric("trace.overhead", traced / untraced - 1.0, "ratio",
                  samples=len(traced_walls))
    result.details["spans"] = table
    result.details["traced_walls_s"] = traced_walls
    result.details["untraced_walls_s"] = untraced_walls


def report_engine(result: Result, tracer: Tracer, recorded: int) -> None:
    """Engine counters from a :class:`TracingBackend`.

    *recorded* is the number of measurements the traced pass kept;
    ``engine.useful_ratio`` divides it by the points evaluated.
    """
    c = tracer.counters
    calls, pts = c.get("engine.calls", 0), c.get("engine.points", 0)
    result.metric("engine.calls", calls, "count")
    result.metric("engine.points", pts, "count")
    result.metric("engine.busy_s", span_self(tracer, "engine.batch"), "s")
    result.metric("engine.points_per_call", pts / calls if calls else 0.0, "points")
    result.metric("engine.useful_ratio", recorded / pts if pts else 0.0, "ratio")
    result.metric("engine.crash_ratio", c.get("engine.crashed", 0) / pts if pts else 0.0,
                  "ratio")


def span_self(tracer: Tracer, name: str) -> float:
    return tracer.summary().get(name, {}).get("self_s", 0.0)


def span_calls(tracer: Tracer, name: str) -> int:
    return tracer.summary().get(name, {}).get("calls", 0)
