"""Batched evaluation engine: the measurement substrate behind tuning.

Every tuner, campaign and baseline in this repo measures stencil
configurations through a :class:`Backend` -- an object that evaluates
*batches* of (stencil, OC, setting) requests and advertises its
capabilities.  Concrete backends:

- :class:`VectorBackend` -- evaluation of whole frontiers through the
  timing model's array pipeline (:mod:`repro.gpu.model`); the default.
- :class:`ScalarBackend` -- the per-point adapter for ``time``-shaped
  objects (test stubs); around a
  :class:`~repro.gpu.simulator.GPUSimulator` it loops batches of one
  through the same pipeline, bit-identical to the vector backend.
- :class:`CachingBackend` -- content-keyed memoization decorator.
- :class:`FaultBackend` / :class:`RetryBackend` -- deterministic fault
  injection and retry-with-backoff decorators used by the campaign
  runner.

See ``docs/engine.md`` for the protocol contract and composition rules.
"""

from __future__ import annotations

from .cache import CachingBackend
from .core import (
    Backend,
    BackendBase,
    BackendInfo,
    EvalRequest,
    EvalResult,
    as_backend,
    iter_chunks,
)
from .fault import FaultBackend
from .parallel import BackendSpec, ParallelBackend
from .retry import RetryBackend
from .scalar import ScalarBackend
from .vector import VectorBackend

#: Backend kinds selectable from the CLI / campaign runner.
BACKEND_KINDS = ("scalar", "vector", "cached", "parallel")


def make_backend(
    kind: str,
    gpu,
    sigma: float = 0.03,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    context: str = "spawn",
    transport: str = "shm",
) -> Backend:
    """Construct a measurement backend by name.

    ``vector`` evaluates batches through the array pipeline; ``scalar``
    loops the same pipeline one point at a time (a per-point reference,
    bit-identical and much slower); ``cached`` memoizes on top of ``vector``;
    ``parallel`` shards batches across a worker pool of ``workers``
    processes, each running its own vector backend (see
    :class:`~repro.engine.parallel.ParallelBackend`; results are
    bit-identical for every worker count, chunk size and *transport* --
    ``"shm"`` shared-memory arrays by default, ``"pickle"`` the codec
    fallback).  *gpu* may be a GPU name, a
    :class:`~repro.gpu.specs.GPUSpec` or an existing simulator.
    """
    if kind == "scalar":
        return ScalarBackend(gpu, sigma=sigma)
    if kind == "vector":
        return VectorBackend(gpu, sigma=sigma)
    if kind == "cached":
        return CachingBackend(VectorBackend(gpu, sigma=sigma))
    if kind == "parallel":
        from .parallel import BackendSpec, ParallelBackend

        name = gpu if isinstance(gpu, str) else getattr(gpu, "name", None) or gpu.spec.name
        return ParallelBackend(
            BackendSpec(kind="vector", gpu=name, sigma=sigma),
            workers=workers,
            chunk_size=chunk_size,
            context=context,
            transport=transport,
        )
    raise ValueError(f"unknown backend kind {kind!r} (choose from {BACKEND_KINDS})")


__all__ = [
    "Backend",
    "BackendBase",
    "BackendInfo",
    "BACKEND_KINDS",
    "BackendSpec",
    "CachingBackend",
    "EvalRequest",
    "EvalResult",
    "FaultBackend",
    "ParallelBackend",
    "RetryBackend",
    "ScalarBackend",
    "VectorBackend",
    "as_backend",
    "iter_chunks",
    "make_backend",
]
