"""Span tracing from outside the package.

Spans (name, start, end, parent) are recorded only by the benchmark's
own code: around the public calls it makes, and -- in traced runs only
-- around public package functions it temporarily wraps with
:func:`patched`.  Spans live in memory until the run ends.  A span's
*self time* is its duration minus the part of it that its child spans
cover; a layer's self time is the sum over spans named ``<layer>.*``.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

#: The package's modules, which are the benchmark's layers.
LAYERS = (
    "stencil", "tuning", "engine", "gpu", "profiling", "ml", "serve",
    "analysis", "codegen",
)


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, "int | None"]] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent))
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            end = time.perf_counter()
            with self._lock:
                n, start, _, par = self.spans[idx]
                self.spans[idx] = (n, start, end, par)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        """*fn* with every call recorded as a span called *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """``{name: {"calls", "total_s", "self_s"}}`` over all spans."""
        return summarize(self.spans)


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    table: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


def layer_self(table: dict) -> dict[str, float]:
    """Self seconds per layer (every layer present, idle ones at 0)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def format_table(table: dict, wall_s: float) -> str:
    """Human-readable per-span and per-layer breakdown."""
    lines = [f"{'span':<26}{'calls':>9}{'total_s':>11}{'self_s':>11}{'self%':>8}"]
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:<26}{row['calls']:>9}{row['total_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{share:>7.1f}%"
        )
    lines.append(f"{'layer':<26}{'':>9}{'':>11}{'self_s':>11}{'self%':>8}")
    for layer, own in layer_self(table).items():
        share = 100.0 * own / wall_s if wall_s > 0 else 0.0
        lines.append(f"{layer:<26}{'':>9}{'':>11}{own:>11.4f}{share:>7.1f}%")
    return "\n".join(lines)


@contextmanager
def patched(*targets):
    """Temporarily replace attributes: ``(owner, attr, make_wrapper)``.

    ``make_wrapper(original)`` returns the replacement.  Every original
    is restored on exit, in reverse order.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class TracingBackend:
    """A delegating engine ``Backend`` that times and counts batches.

    Put in place of a tuner's backend, it records every
    ``evaluate_batch`` call as an ``engine.batch`` span and counts calls,
    points and deterministic crashes.  Results pass through unchanged.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def spec(self):
        return self.inner.spec

    @property
    def sigma(self) -> float:
        return self.inner.sigma

    @property
    def info(self):
        return self.inner.info

    def evaluate_batch(self, requests):
        with self.tracer.span("engine.batch"):
            results = self.inner.evaluate_batch(requests)
        self.tracer.count("engine.calls")
        self.tracer.count("engine.points", len(requests))
        self.tracer.count("engine.crashed", sum(1 for r in results if r.crashed))
        return results

    def __getattr__(self, name):
        # begin_unit and other optional decorator hooks pass through.
        return getattr(self.inner, name)
