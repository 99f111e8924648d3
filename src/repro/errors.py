"""Exception hierarchy for the StencilMART reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  The simulator raises :class:`KernelLaunchError` for
configurations that would crash on real hardware (the paper's "OC crashes
under certain stencils" cases, Section III-A); tuners treat those as
infeasible points rather than hard failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class StencilError(ReproError):
    """Invalid stencil definition (bad offsets, dimension mismatch, ...)."""


class OptimizationError(ReproError):
    """Invalid optimization combination or parameter setting."""


class ConstraintViolation(OptimizationError):
    """An optimization combination violates a Table I constraint.

    Example: enabling retiming (RT) without streaming (ST), or enabling both
    block merging (BM) and cyclic merging (CM) at the same time.
    """


class KernelLaunchError(ReproError):
    """The simulated kernel cannot launch on the target GPU.

    Raised when a (stencil, OC, parameter setting) exceeds a hard hardware
    limit -- registers per thread, shared memory per block, threads per
    block -- or yields zero occupancy.  This mirrors real CUDA launch
    failures and resource-spill crashes the paper observes for e.g.
    temporal blocking of 3-D order-4 stencils without streaming.
    """


class TransientError(ReproError):
    """A measurement failure that may succeed on retry.

    Real profiling harnesses distinguish *deterministic* infeasibility
    (:class:`KernelLaunchError`: the configuration can never run) from
    *transient* trouble -- hung kernels, driver hiccups, device resets --
    that a campaign must absorb by retrying rather than crash on.  The
    fault injector (:mod:`repro.gpu.faults`) raises the subclasses below;
    the campaign runner retries them with bounded exponential backoff.
    """


class MeasurementTimeout(TransientError):
    """The simulated kernel hung past the measurement watchdog."""


class TransientMeasurementError(TransientError):
    """A sporadic measurement failure (driver hiccup, ECC retry, ...)."""


class DeviceLostError(TransientError):
    """The simulated device was lost mid-measurement (reset required).

    Unlike the other transient errors this is not retried call-by-call:
    every measurement in flight when the device resets is void, so the
    campaign runner discards the current (stencil, OC) tuning point and
    re-runs it from scratch after a reset backoff.
    """


class WorkerLostError(TransientError):
    """A pool worker process died while holding in-flight work.

    Raised by :class:`repro.parallel.WorkerPool` when a worker is
    killed, segfaults or is OOM-reaped mid-task.  Like the other
    transient errors this is *retryable*: the sharded campaign runner
    restarts the pool and re-dispatches the dead worker's remaining
    units (recording the event in ``CampaignHealth.worker_deaths``)
    instead of treating the campaign as crashed.
    """


class CampaignInterrupted(ReproError):
    """A profiling campaign stopped before completing all work units.

    Raised by :class:`repro.profiling.runner.CampaignRunner` when a run
    hits its unit cap (used to exercise kill--resume paths).  The
    checkpoint on disk holds every completed unit; re-running with
    ``resume=True`` continues from it.
    """


class UnknownGPUError(ReproError, KeyError):
    """A GPU name is not in the spec database.

    Subclasses :class:`KeyError` so call sites that historically caught
    the bare ``KeyError`` from a dict lookup keep working, but carries a
    descriptive message naming every known device (engine, tuning and
    serve paths used to surface an opaque ``KeyError: 'MI300'``).
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the first arg, which would wrap the
        # whole sentence in quotes; report the plain message instead.
        return Exception.__str__(self)


class UnknownStencilError(ReproError, KeyError):
    """A stencil name is not in the named benchmark library.

    Subclasses :class:`KeyError` for the same reason as
    :class:`UnknownGPUError`; the message lists every known name.
    """

    def __str__(self) -> str:
        return Exception.__str__(self)


class UnknownBackendError(ReproError, ValueError):
    """A backend kind is not in :data:`repro.engine.BACKEND_KINDS`.

    Subclasses :class:`ValueError` so call sites that catch a bad
    argument to :func:`repro.engine.make_backend` as a ``ValueError``
    keep working.
    """


class DatasetError(ReproError):
    """Malformed or inconsistent profiling dataset."""


class TuningError(ReproError):
    """Tuning front-door misuse (:mod:`repro.tuning`).

    Raised for malformed restriction expressions, unknown strategies or
    parameters, unsatisfiable restricted spaces, and unusable persistent
    tuning-cache documents.
    """


class ModelError(ReproError):
    """Machine-learning model misuse (predict before fit, shape mismatch)."""


class ArtifactError(ReproError):
    """A persisted model artifact is unusable.

    Raised by :mod:`repro.serve` when an artifact document is corrupt
    (checksum mismatch, truncated or malformed JSON), written by a newer
    format version, or simply absent from the registry.  The prediction
    service treats it as a *degradation* signal -- it falls back to the
    heuristic selector and counts the event -- rather than a crash.
    """


class ServiceError(ReproError):
    """A prediction-service request cannot be answered.

    Covers malformed request payloads and queries outside the service's
    capability (unknown GPU, unknown OC, wrong dimensionality) -- the
    HTTP layer maps it to a 400-class response instead of a 500.
    """


class OverloadError(ServiceError):
    """The service shed a request instead of queueing it unboundedly.

    Raised by the admission controller when the bounded request queue is
    full (``kind="queue_full"``) or when a request's deadline expired
    while it waited for a batch slot (``kind="deadline"``).  Shedding is
    deliberate overload protection, not a fault: the HTTP layer maps it
    to ``503`` with a ``Retry-After`` hint (:attr:`retry_after_s`), and
    a well-behaved client (:class:`repro.serve.client.ServeClient`)
    backs off and retries.  Sheds are counted separately from errors in
    the service telemetry.
    """

    def __init__(self, message: str, retry_after_s: float = 0.05,
                 kind: str = "queue_full"):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)
        self.kind = kind


class NotFittedError(ModelError):
    """An estimator was used before :meth:`fit` was called."""
