"""Model registry and online prediction service.

Everything upstream of this package *trains* models; everything in it
*serves* them.  The pieces, bottom to top:

- :mod:`~repro.serve.artifacts` -- versioned, checksummed JSON
  serialization for trained selectors/predictors (save -> load round
  trips reproduce predictions bit-identically).
- :mod:`~repro.serve.registry` -- a directory-backed
  :class:`ModelRegistry` with atomic publishes and ``latest`` tagging.
- :mod:`~repro.serve.service` -- the :class:`PredictionService`: raw
  stencils in, OC selections / time predictions out, through a
  content-keyed feature cache and the models' vectorized predict paths,
  degrading to a heuristic selector when artifacts are missing or bad.
- :mod:`~repro.serve.http` / :mod:`~repro.serve.client` -- a
  stdlib-only JSON-over-HTTP front end and its retrying client.
- :mod:`~repro.serve.telemetry` -- request counters, cache hit rates,
  fallback counts and latency histograms exposed on ``/stats``.
- :mod:`~repro.serve.admission` -- bounded-queue admission control:
  load shedding (503 + ``Retry-After``), per-request deadlines, and
  degraded ``/healthz`` before hard failure.
- :mod:`~repro.serve.reload` -- hot model reload: a registry watcher
  that validates and atomically swaps new artifacts, with a circuit
  breaker pinning the last good model through bad publishes and
  automatic rollback of models that degrade after the swap.

The chaos drill that drives all of the above through scripted faults
lives beside its gate, in ``tools/serve_chaos.py``.
"""

from .admission import AdmissionController, AdmissionPolicy
from .artifacts import (
    SERVE_FORMAT_VERSION,
    ModelArtifact,
    load_artifact,
    save_artifact,
)
from .batching import MicroBatcher
from .client import ClientRetryPolicy, ServeClient
from .fallback import HeuristicSelector
from .features import FeatureCache
from .registry import ModelRegistry
from .reload import CircuitBreaker, ModelReloader, ReloadPolicy
from .service import PredictionService, SelectRequest, SelectResult
from .telemetry import LatencyHistogram, ServiceStats

__all__ = [
    "SERVE_FORMAT_VERSION",
    "AdmissionController",
    "AdmissionPolicy",
    "CircuitBreaker",
    "ClientRetryPolicy",
    "FeatureCache",
    "HeuristicSelector",
    "LatencyHistogram",
    "MicroBatcher",
    "ModelArtifact",
    "ModelRegistry",
    "ModelReloader",
    "PredictionService",
    "ReloadPolicy",
    "SelectRequest",
    "SelectResult",
    "ServeClient",
    "ServiceStats",
    "load_artifact",
    "save_artifact",
]
