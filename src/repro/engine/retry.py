"""Retry-with-backoff as a backend decorator.

``RetryBackend`` reproduces the campaign runner's call-level guard (the
pre-engine ``_GuardedSimulator``) on the batched protocol: transient
errors recorded by a fault-injecting inner backend are retried with
simulated exponential backoff, implausible timings are rejected and
re-measured, and health counters account for every event.

The retry loop is round-based: each round re-submits only the requests
that still need a value, so the clean bulk of a batch is measured once
(vectorized, if the inner backend supports it) while the faulted tail
retries.  Per-request retry budgets and backoff schedules are identical
to the sequential guard; only the interleaving of inner calls differs,
which is unobservable because fault draws are keyed per identity and
attempt, never by global call order.

Exhaustion semantics are also unchanged: a request that fails its last
permitted retry raises its transient error out of ``evaluate_batch``,
which the campaign runner's point-retry loop turns into a fresh attempt
or a quarantine entry.  :class:`~repro.errors.DeviceLostError` counts
and re-raises immediately, voiding the batch.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import (
    DeviceLostError,
    MeasurementTimeout,
    TransientMeasurementError,
)
from ..gpu.faults import is_valid_time
from .core import BackendBase, BackendInfo, EvalRequest, EvalResult, as_backend


class RetryBackend(BackendBase):
    """Absorb transient faults from an inner backend with bounded retries.

    Parameters
    ----------
    inner:
        The (typically fault-injecting) backend to guard.
    policy:
        A :class:`~repro.profiling.runner.RetryPolicy` (or compatible):
        ``max_call_retries``, ``backoff_base_s``, ``backoff_factor``,
        ``backoff_max_s``.
    health:
        A :class:`~repro.profiling.runner.CampaignHealth` ledger whose
        counters (``timeouts``, ``transients``, ``corrupt_rejected``,
        ``device_lost``, ``call_retries``) this decorator increments;
        each backoff wait is charged to its ``backoff_s``, never slept.
    """

    def __init__(self, inner, policy, health):
        self.inner = as_backend(inner)
        self.policy = policy
        self.health = health

    @property
    def spec(self):
        return self.inner.spec

    @property
    def sigma(self) -> float:
        return self.inner.sigma

    @property
    def info(self) -> BackendInfo:
        inner = self.inner.info
        return BackendInfo(
            name=f"retry({inner.name})",
            vectorized=inner.vectorized,
            pure=inner.pure,
        )

    def begin_unit(self, unit_key: object) -> None:
        begin = getattr(self.inner, "begin_unit", None)
        if begin is not None:
            begin(unit_key)

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[EvalResult]:
        policy, health = self.policy, self.health
        n = len(requests)
        out: list[EvalResult | None] = [None] * n
        pending = list(range(n))
        retries_left = dict.fromkeys(pending, policy.max_call_retries)
        delay = dict.fromkeys(pending, policy.backoff_base_s)
        while pending:
            try:
                results = self.inner.evaluate_batch([requests[i] for i in pending])
            except DeviceLostError:
                health.device_lost += 1
                raise
            still: list[int] = []
            for i, res in zip(pending, results):
                err = res.error
                if err is None:
                    if is_valid_time(res.time_ms):
                        out[i] = res
                        continue
                    health.corrupt_rejected += 1
                    req = requests[i]
                    err = TransientMeasurementError(
                        f"implausible timing {res.time_ms!r} rejected "
                        f"({self.spec.name}, {req.oc.name})"
                    )
                elif isinstance(err, MeasurementTimeout):
                    health.timeouts += 1
                elif isinstance(err, TransientMeasurementError):
                    health.transients += 1
                else:
                    # Deterministic crashes (and anything else) pass
                    # through: they are data, not transient trouble.
                    out[i] = res
                    continue
                if retries_left[i] == 0:
                    raise err
                retries_left[i] -= 1
                health.call_retries += 1
                health.backoff_s += delay[i]
                delay[i] = min(
                    delay[i] * policy.backoff_factor, policy.backoff_max_s
                )
                still.append(i)
            pending = still
        return out  # type: ignore[return-value]
