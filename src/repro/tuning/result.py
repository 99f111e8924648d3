"""The one result type every tuning path returns.

Before the unified front door, each search path invented its own return
convention: ``RandomSearch.tune_oc`` returned an ``(OCResult,
measurements)`` pair, ``GeneticSearch`` its own result type, and the
baselines raw tuples.  :class:`TuneResult` replaces all of them: best
setting, best time, trials evaluated, cache accounting and strategy
provenance in one dataclass.
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
    fidelity: float = 1.0  # fraction of a full-fidelity evaluation

    @property
    def crashed(self) -> bool:
        return self.time_ms == float("inf")


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`repro.tuning.tune` call.

    ``trials`` counts the evaluations the strategy *observed* (used in
    its decisions); it is deterministic for a fixed (strategy, seed,
    budget) regardless of backend, batching or worker count.  Backends
    may speculatively evaluate ahead of a strategy's walk -- those
    points are invisible here, exactly as they were pre-refactor.
    ``cost`` is the fidelity-weighted evaluation spend (a reduced-grid
    rung of the multi-fidelity strategies costs a fraction of a full
    evaluation); for single-fidelity strategies ``cost == trials``.
    ``cache_hits`` / ``cache_misses`` report the persistent tuning
    cache's accounting for this call (both zero when no cache was
    attached); they describe the substrate, not the search, and may vary
    with cache state.
    """

    strategy: str
    best_setting: "ParamSetting | None"
    best_time_ms: float
    trials: int
    cost: float
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
        """Generations evolved (genetic strategy only)."""
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
            f"{self.trials} trials (cost {self.cost:g}, "
            f"{self.crashed} crashed, cache {self.cache_hits}h/"
            f"{self.cache_misses}m) via {best}"
        )
