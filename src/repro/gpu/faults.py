"""Fault-injection rates and the plausibility check that catches garbage.

Real profiling campaigns on GPUs do not only see *deterministic* launch
failures (the simulator's :class:`KernelLaunchError`); they also see
*transient* trouble: kernels that hang past a watchdog, sporadic driver
errors, whole-device resets, and occasionally timings that are simply
garbage.  Both "Opening the Black Box" (Ernst et al.) and the AMD/Nvidia
tuning study (Lappi et al.) treat such events as first-class occurrences a
measurement campaign must absorb.

:class:`FaultConfig` sets how often each class occurs;
:class:`~repro.engine.fault.FaultBackend` draws the faults.  Corrupted
timings are modeled as *detectable* garbage (``NaN``, ``inf``, zero,
negative), standing in for the plausibility checks every real harness
applies before accepting a sample (:func:`is_valid_time`); the campaign
runner rejects and re-measures them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Detectable corruption values cycled through deterministically.
_CORRUPT_VALUES = (math.nan, math.inf, 0.0, -1.0)


@dataclass(frozen=True)
class FaultConfig:
    """Per-fault-class injection rates (probability per measurement).

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


def is_valid_time(t: float) -> bool:
    """Plausibility check a harness applies before accepting a sample."""
    return math.isfinite(t) and t > 0.0
