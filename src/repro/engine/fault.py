"""Deterministic fault injection as a backend decorator.

``FaultBackend`` is the one fault injector.  Every fault decision is a
pure function of ``(seed, kind, unit, gpu, stencil, oc, setting,
attempt)`` hashed through the same blake2b scheme the measurement noise
uses (:mod:`repro.gpu.noise`).  Determinism buys two properties the
campaign runner's tests rely on:

- **Reproducibility** -- the same seed yields the same fault sequence,
  on any machine, in any execution order.
- **Retry convergence** -- the per-identity ``attempt`` counter advances
  once per requested evaluation, so a retried measurement draws fresh
  fault decisions and (at sub-certainty rates) eventually returns the
  *true* timing.  A campaign that retries transient faults therefore
  reproduces the fault-free campaign bit for bit.

Within a batch, requests are taken in order:

- A device loss raises :class:`~repro.errors.DeviceLostError` at the
  first affected request and voids the whole batch; attempt counters
  stay advanced for the requests up to and including the lost one.
- Timeouts and transient failures are recorded as retryable errors on
  their result (the retry layer absorbs them); the affected request is
  withheld from the inner backend for that attempt.  A timeout preempts
  a transient failure.
- Corruption applies only to successfully measured times -- a
  deterministic :class:`~repro.errors.KernelLaunchError` crash never
  draws a corruption decision.

The clean subset of a batch flows to the inner backend in one call.
With every rate at zero the decorator is a transparent pass-through: it
never draws and never perturbs.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..errors import (
    DeviceLostError,
    MeasurementTimeout,
    TransientMeasurementError,
)
from ..gpu.faults import _CORRUPT_VALUES, FaultConfig
from ..gpu.noise import _hasher
from .core import BackendBase, BackendInfo, EvalRequest, EvalResult, as_backend


class FaultBackend(BackendBase):
    """Deterministic fault injection around another backend.

    Parameters
    ----------
    inner:
        The backend (or simulator-like object) that produces true
        timings.  Wrap the cache *inside* this decorator, never outside:
        transient faults must not be memoized.
    config:
        Per-class injection rates; with all rates zero the decorator is
        a transparent pass-through.
    seed:
        Fault-stream seed, independent of the measurement-noise seed so
        fault schedules can vary without moving the underlying timings.
    """

    def __init__(self, inner, config: FaultConfig, seed: int = 0):
        self.inner = as_backend(inner)
        self.config = config
        self.seed = int(seed)
        self._unit_key: object = None
        self._attempts: dict[tuple, int] = {}

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
            name=f"faulted({inner.name})",
            vectorized=inner.vectorized,
            # Every evaluated point advances its identity's attempt
            # counter, and with it the fault schedule.
            pure=inner.pure and not self.config.enabled,
        )

    def begin_unit(self, unit_key: object) -> None:
        """Scope subsequent fault draws to one work unit.

        Called by the campaign runner at the *start* of each (gpu,
        stencil) unit -- but not on unit retries, so a retried unit keeps
        advancing its attempt counters instead of replaying the same
        faults forever.  Scoping draws to the unit makes each unit's
        fault schedule independent of whatever ran before it, which is
        what makes checkpoint/resume provably equivalent to an
        uninterrupted run.  Forwarded to the inner backend, so a memo
        under this layer is scoped to the same unit.
        """
        self._unit_key = unit_key
        self._attempts.clear()
        begin = getattr(self.inner, "begin_unit", None)
        if begin is not None:
            begin(unit_key)

    # -- draw primitives -------------------------------------------------
    # Attempt counters are sequenced through a local overlay, so draws can
    # be made for a whole batch and committed only as far as the batch got;
    # the blake2b keying hashes the (seed, kind, unit, gpu, stencil) prefix
    # once per distinct stencil and pays only the (oc, setting, attempt)
    # suffix per row.

    def batch_identities(self, requests) -> list[tuple]:
        """Fault-stream keys ``(unit, gpu, stencil, oc, setting)`` per request."""
        unit = self._unit_key
        gpu = self.spec.name
        keys: dict[int, tuple] = {}
        out: list[tuple] = []
        for req in requests:
            s = req.stencil
            sk = keys.get(id(s))
            if sk is None:
                sk = keys[id(s)] = s.cache_key()
            out.append((unit, gpu, sk, req.oc.name, req.setting.as_tuple()))
        return out

    def batch_attempts(self, identities: list[tuple]) -> list[int]:
        """Provisional attempt numbers, sequenced within the batch.

        A repeated identity gets successive attempts.  Nothing is
        committed; call :meth:`commit_attempts` with how far the batch
        actually got.
        """
        overlay: dict[tuple, int] = {}
        base = self._attempts
        out: list[int] = []
        for ident in identities:
            a = overlay.get(ident)
            if a is None:
                a = base.get(ident, 0)
            out.append(a)
            overlay[ident] = a + 1
        return out

    def commit_attempts(
        self, identities: list[tuple], attempts: list[int], upto: int | None = None
    ) -> None:
        """Commit provisional attempts for rows ``[0, upto)`` (default all)."""
        n = len(identities) if upto is None else upto
        for i in range(n):
            self._attempts[identities[i]] = attempts[i] + 1

    def batch_uniform(
        self, kind: str, identities: list[tuple], attempts: list[int]
    ) -> np.ndarray:
        """A uniform draw in ``[0, 1)`` per row, keyed ``(seed, kind,
        *identity, attempt)``: the first 64-bit word of the blake2b
        digest over ``2**64``."""
        out = np.empty(len(identities))
        prefixes: dict[tuple, object] = {}
        for i, ident in enumerate(identities):
            pkey = ident[:3]  # (unit, gpu, stencil_key); kind fixed per call
            h = prefixes.get(pkey)
            if h is None:
                h = prefixes[pkey] = _hasher((self.seed, kind) + pkey)
            d = _hasher((ident[3], ident[4], attempts[i]), h)
            out[i] = struct.unpack_from("<Q", d.digest())[0] / 2**64
        return out

    # ------------------------------------------------------------------
    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[EvalResult]:
        cfg = self.config
        if not cfg.enabled:
            return self.inner.evaluate_batch(requests)
        n = len(requests)
        gpu = self.spec.name
        identities = self.batch_identities(requests)
        attempts = self.batch_attempts(identities)
        if cfg.device_lost_rate > 0:
            u = self.batch_uniform("lost", identities, attempts)
            hit = np.nonzero(u < cfg.device_lost_rate)[0]
            if hit.size:
                k = int(hit[0])
                self.commit_attempts(identities, attempts, upto=k + 1)
                raise DeviceLostError(
                    f"device {gpu} lost (unit {self._unit_key!r}, "
                    f"attempt {attempts[k]})"
                )
        self.commit_attempts(identities, attempts)
        out: list[EvalResult | None] = [None] * n
        faulted = np.zeros(n, dtype=bool)
        if cfg.timeout_rate > 0:
            u = self.batch_uniform("timeout", identities, attempts)
            for i in np.nonzero(u < cfg.timeout_rate)[0].tolist():
                faulted[i] = True
                out[i] = EvalResult(
                    error=MeasurementTimeout(
                        f"kernel hung on {gpu} "
                        f"({requests[i].oc.name}, attempt {attempts[i]})"
                    )
                )
        if cfg.transient_rate > 0:
            u = self.batch_uniform("transient", identities, attempts)
            for i in np.nonzero(~faulted & (u < cfg.transient_rate))[0].tolist():
                faulted[i] = True
                out[i] = EvalResult(
                    error=TransientMeasurementError(
                        f"sporadic failure on {gpu} "
                        f"({requests[i].oc.name}, attempt {attempts[i]})"
                    )
                )
        clean = np.nonzero(~faulted)[0].tolist()
        if clean:
            results = self.inner.evaluate_batch([requests[i] for i in clean])
            corrupted: dict[int, float] = {}
            if cfg.corrupt_rate > 0:
                ok_idx = [i for i, res in zip(clean, results) if res.ok]
                if ok_idx:
                    idents = [identities[i] for i in ok_idx]
                    atts = [attempts[i] for i in ok_idx]
                    u = self.batch_uniform("corrupt", idents, atts)
                    hits = np.nonzero(u < cfg.corrupt_rate)[0].tolist()
                    if hits:
                        u2 = self.batch_uniform(
                            "corrupt-kind",
                            [idents[j] for j in hits],
                            [atts[j] for j in hits],
                        )
                        kinds = np.minimum(
                            (u2 * len(_CORRUPT_VALUES)).astype(np.int64),
                            len(_CORRUPT_VALUES) - 1,
                        ).tolist()
                        for j, kind in zip(hits, kinds):
                            corrupted[ok_idx[j]] = _CORRUPT_VALUES[kind]
            for i, res in zip(clean, results):
                if res.ok:
                    out[i] = EvalResult(time_ms=corrupted.get(i, res.time_ms))
                else:
                    out[i] = res
        return out  # type: ignore[return-value]
