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

from ..errors import UnknownBackendError
from .cache import CachingBackend
from .core import (
    Backend,
    BackendBase,
    BackendInfo,
    EvalRequest,
    EvalResult,
    as_backend,
)
from .fault import FaultBackend
from .retry import RetryBackend
from .scalar import ScalarBackend
from .vector import VectorBackend

#: Backend kinds the campaign runner accepts (``CampaignRunner(backend=)``).
BACKEND_KINDS = ("scalar", "vector")


def make_backend(kind: str, gpu, sigma: float = 0.03) -> Backend:
    """Construct a measurement backend by name.

    ``vector`` evaluates batches through the array pipeline; ``scalar``
    loops the same pipeline one point at a time (a per-point reference,
    bit-identical and much slower).  *gpu* may be a GPU name, a
    :class:`~repro.gpu.specs.GPUSpec` or an existing simulator.  Any
    other *kind* is an :class:`~repro.errors.UnknownBackendError`.
    """
    if kind == "scalar":
        return ScalarBackend(gpu, sigma=sigma)
    if kind == "vector":
        return VectorBackend(gpu, sigma=sigma)
    raise UnknownBackendError(
        f"unknown backend kind {kind!r} (choose from {BACKEND_KINDS})"
    )


__all__ = [
    "Backend",
    "BackendBase",
    "BackendInfo",
    "BACKEND_KINDS",
    "CachingBackend",
    "EvalRequest",
    "EvalResult",
    "FaultBackend",
    "RetryBackend",
    "ScalarBackend",
    "VectorBackend",
    "as_backend",
    "make_backend",
]
