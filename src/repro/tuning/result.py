"""The one result type every tuning path returns.

:class:`TuneResult` holds best setting, best time, trials evaluated,
cache accounting and strategy provenance in one dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..optimizations.params import ParamSetting

__all__ = ["TuneResult", "TrialRecord"]


@dataclass(frozen=True)
class TrialRecord:
    """One observed evaluation, in the order the strategy consumed it."""

    setting: ParamSetting
    time_ms: float  # inf for a crashed configuration

    @property
    def crashed(self) -> bool:
        return self.time_ms == float("inf")


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`repro.tuning.tune` call.

    ``trials`` counts the evaluations the strategy *observed* (used in
    its decisions); it is deterministic for a fixed (strategy, seed,
    budget) regardless of backend, batching or worker count.  On a
    vectorized backend the random strategy evaluates ahead of its walk
    -- those points are invisible here, exactly as they were
    pre-refactor; on any other backend it evaluates only what it
    observes.  On a pure backend the random and coordinate walks
    evaluate a setting they observe repeatedly only once.  Under a
    ``budget`` the driver stops at the first frontier boundary where
    ``trials`` reaches it.
    ``cache_hits`` / ``cache_misses`` are this call's delta of the
    :class:`~repro.engine.CachingBackend` it measured through -- one
    built for ``cache_dir=`` or a passed instance -- and both zero when the substrate is no ``CachingBackend``; they
    describe the substrate, not the search, and may vary with cache
    state.
    """

    strategy: str
    best_setting: "ParamSetting | None"
    best_time_ms: float
    trials: int
    crashed: int
    seed: int
    budget: "float | None"
    oc: "str | None" = None
    stencil: "str | None" = None
    gpu: "str | None" = None
    cache_hits: int = 0
    cache_misses: int = 0
    trial_log: tuple[TrialRecord, ...] = ()
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when at least one configuration ran without crashing."""
        return self.best_setting is not None

    @property
    def generations(self) -> "int | None":
        """Generations evolved before the run ended (genetic strategy
        only); a budget can stop the run short of the planned count."""
        return self.extras.get("generations")

    def describe(self) -> str:
        """One-line human summary."""
        if not self.ok:
            return (
                f"{self.strategy}: every configuration crashed "
                f"({self.trials} trials)"
            )
        best = {k: v for k, v in self.best_setting.items() if v}
        return (
            f"{self.strategy}: {self.best_time_ms:.4f} ms/step in "
            f"{self.trials} trials ({self.crashed} crashed, cache "
            f"{self.cache_hits}h/{self.cache_misses}m) via {best}"
        )
