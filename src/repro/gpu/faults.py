"""Deterministic fault injection over the GPU simulator.

Real profiling campaigns on GPUs do not only see *deterministic* launch
failures (the simulator's :class:`KernelLaunchError`); they also see
*transient* trouble: kernels that hang past a watchdog, sporadic driver
errors, whole-device resets, and occasionally timings that are simply
garbage.  Both "Opening the Black Box" (Ernst et al.) and the AMD/Nvidia
tuning study (Lappi et al.) treat such events as first-class occurrences a
measurement campaign must absorb.

:class:`FaultInjector` wraps a :class:`~repro.gpu.simulator.GPUSimulator`
and injects those events **deterministically**: every fault decision is a
pure function of ``(seed, unit, oc, setting, attempt)`` hashed through the
same blake2b scheme the measurement noise uses.  Determinism buys two
properties the campaign runner's tests rely on:

- **Reproducibility** -- the same seed yields the same fault sequence,
  on any machine, in any execution order.
- **Retry convergence** -- the per-identity ``attempt`` counter advances
  on every call, so a retried measurement draws fresh fault decisions and
  (at sub-certainty rates) eventually returns the *true* timing.  A
  campaign that retries transient faults therefore reproduces the
  fault-free campaign exactly.

Corrupted timings are modeled as *detectable* garbage (``NaN``, ``inf``,
zero, negative), standing in for the plausibility checks every real
harness applies before accepting a sample; the campaign runner rejects
and re-measures them.  With every rate at zero the injector is a
transparent pass-through: it never draws, never perturbs, and adds no
behavioral difference over the bare simulator.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from ..errors import (
    DeviceLostError,
    MeasurementTimeout,
    TransientMeasurementError,
)
from .noise import _hasher, uniform01
from .simulator import GPUSimulator

#: Detectable corruption values cycled through deterministically.
_CORRUPT_VALUES = (math.nan, math.inf, 0.0, -1.0)


@dataclass(frozen=True)
class FaultConfig:
    """Per-fault-class injection rates (probability per simulator call).

    All rates must lie in ``[0, 1]``.  ``FaultConfig()`` (all zeros)
    disables injection entirely.
    """

    timeout_rate: float = 0.0
    transient_rate: float = 0.0
    device_lost_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name}={v} outside [0, 1]")

    @property
    def enabled(self) -> bool:
        """Whether any fault class has a nonzero rate."""
        return any(getattr(self, f.name) > 0.0 for f in fields(self))

    @classmethod
    def uniform(cls, rate: float) -> "FaultConfig":
        """One rate for the per-call classes; device loss at a hundredth.

        Device resets void every measurement in flight and force a whole
        tuning point to re-run, and on real machines they are orders of
        magnitude rarer than per-measurement hiccups -- hence the heavy
        derating.
        """
        return cls(
            timeout_rate=rate,
            transient_rate=rate,
            device_lost_rate=rate / 100.0,
            corrupt_rate=rate,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultConfig":
        return cls(**{f.name: float(doc.get(f.name, 0.0)) for f in fields(cls)})


class FaultInjector:
    """A :class:`GPUSimulator` facade that injects deterministic faults.

    Parameters
    ----------
    sim:
        The wrapped simulator; faults apply on top of its (already
        deterministic) timings.
    config:
        Per-class injection rates.
    seed:
        Fault-stream seed, independent of the measurement-noise seed so
        fault schedules can vary without moving the underlying timings.

    The injector exposes the simulator surface the profiling search uses
    (``spec``, ``sigma``, ``time``); ``run`` passes through un-faulted for
    ad-hoc inspection since campaigns only ever call ``time``.
    """

    def __init__(
        self, sim: GPUSimulator, config: FaultConfig, seed: int = 0
    ):
        self.sim = sim
        self.config = config
        self.seed = int(seed)
        self._unit_key: object = None
        self._attempts: dict[tuple, int] = {}

    @property
    def spec(self):
        return self.sim.spec

    @property
    def sigma(self) -> float:
        return self.sim.sigma

    # ------------------------------------------------------------------
    def begin_unit(self, unit_key: object) -> None:
        """Scope subsequent fault draws to one work unit.

        Called by the campaign runner at the *start* of each (gpu,
        stencil) unit -- but not on unit retries, so a retried unit keeps
        advancing its attempt counters instead of replaying the same
        faults forever.  Scoping draws to the unit makes each unit's
        fault schedule independent of whatever ran before it, which is
        what makes checkpoint/resume provably equivalent to an
        uninterrupted run.
        """
        self._unit_key = unit_key
        self._attempts.clear()

    # ------------------------------------------------------------------
    def run(self, stencil, oc, setting, grid=None, boundary=None):
        return self.sim.run(stencil, oc, setting, grid=grid, boundary=boundary)

    # -- draw primitives ------------------------------------------------
    # These are shared with the engine's FaultBackend decorator, which
    # batches the underlying evaluation but must draw the exact same
    # fault decisions from the exact same keys.

    def identity(self, stencil, oc, setting) -> tuple:
        """The per-point fault-stream key (unit-scoped)."""
        return (
            self._unit_key,
            self.sim.spec.name,
            stencil.cache_key(),
            oc.name,
            setting.as_tuple(),
        )

    def next_attempt(self, identity: tuple) -> int:
        """Advance and return the per-identity attempt counter."""
        attempt = self._attempts.get(identity, 0)
        self._attempts[identity] = attempt + 1
        return attempt

    def pre_fault(self, identity: tuple, attempt: int, oc) -> Exception | None:
        """Draw the fault classes that preempt the measurement itself.

        Raises :class:`DeviceLostError` (it voids everything in flight,
        so it must preempt the milder failure classes), returns a timeout
        or transient error to be recorded/raised by the caller, or
        ``None`` when the measurement may proceed.
        """
        cfg = self.config

        def draw(kind: str) -> float:
            return uniform01(self.seed, kind, *identity, attempt)

        if cfg.device_lost_rate > 0 and draw("lost") < cfg.device_lost_rate:
            raise DeviceLostError(
                f"device {self.sim.spec.name} lost (unit {self._unit_key!r}, "
                f"attempt {attempt})"
            )
        if cfg.timeout_rate > 0 and draw("timeout") < cfg.timeout_rate:
            return MeasurementTimeout(
                f"kernel hung on {self.sim.spec.name} ({oc.name}, attempt {attempt})"
            )
        if cfg.transient_rate > 0 and draw("transient") < cfg.transient_rate:
            return TransientMeasurementError(
                f"sporadic failure on {self.sim.spec.name} "
                f"({oc.name}, attempt {attempt})"
            )
        return None

    # -- batched draw primitives ----------------------------------------
    # The engine's FaultBackend evaluates whole batches; these helpers
    # compute the same draws as the scalar primitives above, amortized:
    # attempt counters are sequenced through a local overlay (so draws
    # can be made speculatively and committed only as far as the scalar
    # path would have advanced), and the blake2b keying hashes the
    # (seed, kind, unit, gpu, stencil) prefix once per distinct stencil,
    # paying only the (oc, setting, attempt) suffix per row.

    def batch_identities(self, requests) -> list[tuple]:
        """Fault-stream keys for a request batch (stencil keys memoized)."""
        unit = self._unit_key
        gpu = self.sim.spec.name
        keys: dict[int, tuple] = {}
        out: list[tuple] = []
        for req in requests:
            s = req.stencil
            sk = keys.get(id(s))
            if sk is None:
                sk = s.cache_key()
                keys[id(s)] = sk
            out.append((unit, gpu, sk, req.oc.name, req.setting.as_tuple()))
        return out

    def batch_attempts(self, identities: list[tuple]) -> list[int]:
        """Provisional attempt numbers, sequenced within the batch.

        A repeated identity gets successive attempts, exactly as repeated
        :meth:`next_attempt` calls would.  Nothing is committed; call
        :meth:`commit_attempts` with how far the batch actually got.
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
        """Commit provisional attempts for rows ``[0, upto)`` (default all).

        Matches the scalar path: a device loss at row *k* leaves counters
        advanced for rows ``0..k`` inclusive (``upto=k+1``) and untouched
        beyond.
        """
        n = len(identities) if upto is None else upto
        for i in range(n):
            self._attempts[identities[i]] = attempts[i] + 1

    def batch_uniform(
        self, kind: str, identities: list[tuple], attempts: list[int]
    ) -> np.ndarray:
        """``uniform01(seed, kind, *identity, attempt)`` per row, as float64.

        Bit-identical to the scalar draw: same blake2b keying, same
        ``first_word / 2**64`` mapping (computed in exact integer
        arithmetic before the float division).
        """
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

    def maybe_corrupt(self, identity: tuple, attempt: int, t: float) -> float:
        """Replace a measured time with detectable garbage, or keep it."""
        cfg = self.config
        if (
            cfg.corrupt_rate > 0
            and uniform01(self.seed, "corrupt", *identity, attempt)
            < cfg.corrupt_rate
        ):
            idx = int(uniform01(self.seed, "corrupt-kind", *identity, attempt)
                      * len(_CORRUPT_VALUES))
            return _CORRUPT_VALUES[min(idx, len(_CORRUPT_VALUES) - 1)]
        return t

    # ------------------------------------------------------------------
    def time(self, stencil, oc, setting, grid=None) -> float:
        """Simulated time with fault injection.

        Raises
        ------
        MeasurementTimeout, TransientMeasurementError, DeviceLostError
            According to the configured rates.
        KernelLaunchError
            Propagated unchanged from the wrapped simulator.
        """
        if not self.config.enabled:
            return self.sim.time(stencil, oc, setting, grid=grid)
        identity = self.identity(stencil, oc, setting)
        attempt = self.next_attempt(identity)
        err = self.pre_fault(identity, attempt, oc)
        if err is not None:
            raise err
        t = self.sim.time(stencil, oc, setting, grid=grid)
        return self.maybe_corrupt(identity, attempt, t)


def is_valid_time(t: float) -> bool:
    """Plausibility check a harness applies before accepting a sample."""
    return math.isfinite(t) and t > 0.0
