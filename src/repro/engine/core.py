"""Core vocabulary of the batched evaluation engine.

The engine decouples *what to measure* from *how it is measured*: search
strategies (random search, coordinate descent, genetic tuning), campaign
runners and baselines all describe work as batches of
:class:`EvalRequest` and hand them to a :class:`Backend`, the pluggable
measurement substrate.  Today's backends evaluate the analytical timing
model (batched, memoizing, or per point through an adapter);
the same seam is where a real-GPU or remote profiling backend plugs in
later.

Design rules every backend follows:

- ``evaluate_batch`` returns one :class:`EvalResult` per request, in
  request order.  A deterministic launch failure
  (:class:`~repro.errors.KernelLaunchError`) is *data*, not an exception:
  it is carried in the result so one crashing point cannot abort a
  frontier of valid ones.
- Transient trouble (timeouts, device loss, ...) is exceptional: fault
  decorators either record a retryable error on the affected result or
  raise (:class:`~repro.errors.DeviceLostError` voids the whole batch).
- Results are pure functions of (GPU, stencil, OC, setting, grid) --
  including the deterministic measurement noise -- so backends are free
  to reorder, parallelize or memoize work inside a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from ..errors import KernelLaunchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpu.specs import GPUSpec
    from ..optimizations.combos import OC
    from ..optimizations.params import ParamSetting
    from ..stencil.stencil import Stencil


@dataclass(frozen=True, slots=True)
class EvalRequest:
    """One point of the tuning space to measure: (stencil, OC, setting).

    ``grid`` overrides the paper's default input grid; ``None`` means the
    default for the stencil's dimensionality.
    """

    stencil: "Stencil"
    oc: "OC"
    setting: "ParamSetting"
    grid: "tuple[int, ...] | None" = None

    def key(self) -> tuple:
        """Content identity of the request (memoization key, GPU excluded)."""
        return (
            self.stencil.cache_key(),
            self.oc.name,
            self.setting.as_tuple(),
            self.grid,
        )


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Outcome of one evaluated request.

    Exactly one of ``time_ms`` / ``error`` is meaningful.  ``error`` is a
    :class:`KernelLaunchError` for deterministic crashes, or a transient
    fault recorded by a fault-injecting decorator for a retry layer to
    absorb.
    """

    time_ms: "float | None" = None
    error: "BaseException | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def crashed(self) -> bool:
        """True for a deterministic launch failure of this configuration."""
        return isinstance(self.error, KernelLaunchError)

    def value(self) -> float:
        """The time in ms; re-raises the recorded error if there is one."""
        if self.error is not None:
            raise self.error
        assert self.time_ms is not None
        return self.time_ms


@dataclass(frozen=True)
class BackendInfo:
    """Capability metadata a backend advertises.

    ``vectorized``
        Batches are evaluated with array math rather than a per-point
        loop; callers benefit from submitting large frontiers.
    ``pure``
        Evaluating extra points changes nothing but the results: no
        attempt counter, clock or fault schedule advances with the
        points a batch carries, so callers may evaluate points they
        might never read (speculative frontiers) and need not ask again
        for a result they have already been sent (the tuning walks'
        per-job memo).  False for an enabled
        :class:`~repro.engine.FaultBackend`.
    """

    name: str
    vectorized: bool = False
    pure: bool = True


@runtime_checkable
class Backend(Protocol):
    """The measurement substrate behind every tuner and campaign.

    Implementations expose the GPU they measure (``spec``), their noise
    level (``sigma``), capability metadata (``info``) and the single
    evaluation entry point ``evaluate_batch``.  Decorator backends
    (caching, fault injection, retry) wrap another backend; the fault
    injector and the retry guard around it also expose ``begin_unit``
    for work-unit-scoped state.
    """

    @property
    def spec(self) -> "GPUSpec": ...  # pragma: no cover - protocol

    @property
    def sigma(self) -> float: ...  # pragma: no cover - protocol

    @property
    def info(self) -> BackendInfo: ...  # pragma: no cover - protocol

    def evaluate_batch(
        self, requests: Sequence[EvalRequest]
    ) -> "list[EvalResult]": ...  # pragma: no cover - protocol


class BackendBase:
    """Shared conveniences for concrete backends.

    Subclasses implement ``evaluate_batch`` (and the ``spec`` / ``sigma``
    / ``info`` properties); the scalar helpers here are derived from it.
    """

    def evaluate_one(self, stencil, oc, setting, grid=None) -> EvalResult:
        """Evaluate a single point (a batch of one)."""
        return self.evaluate_batch([EvalRequest(stencil, oc, setting, grid)])[0]

    def time(self, stencil, oc, setting, grid=None) -> float:
        """Simulator-compatible scalar entry point: time or raise.

        Mirrors :meth:`repro.gpu.simulator.GPUSimulator.time` so a
        backend can stand wherever a simulator was accepted before.
        """
        return self.evaluate_one(stencil, oc, setting, grid=grid).value()


def as_backend(obj) -> "Backend":
    """Coerce *obj* to a :class:`Backend`.

    Accepts an existing backend (anything exposing ``evaluate_batch``), a
    :class:`~repro.gpu.simulator.GPUSimulator` -- wrapped in the batched
    :class:`~repro.engine.vector.VectorBackend` over the same model, so
    ``tune(..., backend=GPUSimulator(...))`` evaluates whole frontiers
    -- or any other simulator-like object (anything exposing
    ``time``, such as a test stub), which is wrapped in the
    per-point :class:`~repro.engine.scalar.ScalarBackend` adapter.
    """
    if hasattr(obj, "evaluate_batch"):
        return obj
    from ..gpu.simulator import GPUSimulator

    if type(obj) is GPUSimulator:
        from .vector import VectorBackend

        return VectorBackend(obj)
    if hasattr(obj, "time"):
        from .scalar import ScalarBackend

        return ScalarBackend(obj)
    raise TypeError(
        f"{type(obj).__name__} is neither a Backend (evaluate_batch) "
        "nor a simulator (time)"
    )

