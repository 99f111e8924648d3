"""The Strategy protocol: ask/tell search over a ParameterSpace.

A strategy never measures anything itself.  It *asks* for a list of
settings, the :func:`repro.tuning.tune` driver evaluates it on the
configured :class:`~repro.engine.Backend` as one batch (whole frontiers
at a time, so vectorized backends amortize), and *tells* the strategy
the outcomes.  Crashes arrive as data
(:class:`~repro.engine.EvalResult` with ``crashed=True``), exactly as
the engine delivers them; each strategy decides what a crash means for
its search (skip, score ``inf``, reject the move...).

Concrete strategies subclass :class:`GeneratorStrategy` and write the
search loop as a plain generator -- ``yield [settings...]`` evaluates
a batch and returns its results -- which keeps intricate legacy control
flow (the random walk's frontier batching, coordinate descent's
fixed-point passes) readable while the driver owns measurement, budget
and cache concerns.  A budget counts the evaluations a strategy
observes, one per :meth:`GeneratorStrategy.observe` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

import numpy as np

from ..errors import TuningError
from .result import TrialRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import BackendInfo, EvalResult
    from ..optimizations.combos import OC
    from ..optimizations.params import ParamSetting
    from ..stencil.stencil import Stencil
    from .space import ParameterSpace

__all__ = [
    "GeneratorStrategy",
    "Strategy",
    "StrategyContext",
    "StrategyOutcome",
    "available_strategies",
    "make_strategy",
    "register_strategy",
]


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy may condition on, fixed for one tune() call."""

    stencil: "Stencil"
    stencil_id: int
    oc: "OC"
    space: "ParameterSpace"
    rng: np.random.Generator
    seed: int
    budget: "float | None"
    backend_info: "BackendInfo"
    grid: "tuple[int, ...] | None" = None


@dataclass
class StrategyOutcome:
    """What a finished (or budget-stopped) strategy reports back."""

    best_setting: "ParamSetting | None"
    best_time_ms: float
    crashed: int = 0
    extras: dict[str, Any] = field(default_factory=dict)
    trial_log: tuple[TrialRecord, ...] = ()


@runtime_checkable
class Strategy(Protocol):
    """Ask/tell search driver contract."""

    #: Registry name; also the stream component appended to the RNG key.
    name: str

    def stream_components(self, seed: int, stencil_id: int, oc: "OC") -> tuple:
        """Entropy components of this strategy's named RNG stream."""
        ...  # pragma: no cover - protocol

    def prepare(self, ctx: StrategyContext) -> None: ...  # pragma: no cover

    def ask(self) -> "list[ParamSetting] | None":
        """The next frontier to measure, or ``None`` when done."""
        ...  # pragma: no cover

    def tell(self, results: "list[EvalResult]") -> None:
        """The outcomes of the last :meth:`ask`, in its order."""
        ...  # pragma: no cover

    def finish(self) -> StrategyOutcome: ...  # pragma: no cover


class GeneratorStrategy:
    """Base class implementing ask/tell over a ``run()`` generator.

    Subclasses implement ``run(ctx)`` as a generator that yields lists
    of settings and receives the matching result lists back from the
    driver.  Bookkeeping helpers:

    - :meth:`observe` records one consumed evaluation (trial count,
      crash count, best-so-far, trial log) -- strategies call it only
      for results they actually *use*, which is what makes
      ``TuneResult.trials`` and the budget backend-independent.
    - ``self.best_setting`` / ``self.best_time_ms`` track the incumbent.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.observed = 0
        self.crashed = 0
        self.best_setting: "ParamSetting | None" = None
        self.best_time_ms = float("inf")
        self._log: list[TrialRecord] = []
        self._extras: dict[str, Any] = {}
        self._gen: "Iterator[list[ParamSetting]] | None" = None
        self._pending: "list[ParamSetting] | None" = None
        self._done = False

    # -- stream convention --------------------------------------------
    def stream_components(self, seed: int, stencil_id: int, oc: "OC") -> tuple:
        """Default: ``(seed, stencil_id, oc.name, self.name)``.

        The paper-default random strategy overrides this to drop its
        strategy component (its stream predates the registry and is
        pinned by the profiling campaign digests).
        """
        return (seed, stencil_id, oc.name, self.name)

    # -- ask/tell plumbing --------------------------------------------
    def prepare(self, ctx: StrategyContext) -> None:
        self.ctx = ctx
        self._gen = self.run(ctx)

    def ask(self) -> "list[ParamSetting] | None":
        if self._done:
            return None
        if self._pending is None:
            try:
                self._pending = next(self._gen)
            except StopIteration:
                self._done = True
                return None
        return self._pending

    def tell(self, results: "list[EvalResult]") -> None:
        if self._pending is None:
            raise TuningError(f"{self.name}: tell() without a pending ask()")
        self._pending = None
        try:
            self._pending = self._gen.send(results)
        except StopIteration:
            self._done = True

    def finish(self) -> StrategyOutcome:
        self._gen = None
        return StrategyOutcome(
            best_setting=self.best_setting,
            best_time_ms=self.best_time_ms,
            crashed=self.crashed,
            extras=self._extras,
            trial_log=tuple(self._log),
        )

    # -- bookkeeping helpers ------------------------------------------
    def observe(self, setting: "ParamSetting", result: "EvalResult") -> float:
        """Consume one outcome: returns its time (``inf`` on crash)."""
        self.observed += 1
        if result.crashed:
            self.crashed += 1
            time_ms = float("inf")
        else:
            time_ms = result.value()
            if time_ms < self.best_time_ms:
                self.best_time_ms = time_ms
                self.best_setting = setting
        self._log.append(TrialRecord(setting, time_ms))
        return time_ms

    def run(self, ctx: StrategyContext):  # pragma: no cover - abstract
        raise NotImplementedError


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type] = {}


def register_strategy(cls: type) -> type:
    """Class decorator adding a strategy to the registry under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise TuningError(f"{cls.__name__} must define a registry name")
    _REGISTRY[name] = cls
    return cls


def available_strategies() -> tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_strategy(name: str, **options) -> Strategy:
    """Instantiate a registered strategy by name with *options*."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise TuningError(
            f"unknown strategy {name!r} "
            f"(available: {', '.join(available_strategies())})"
        ) from None
    try:
        return cls(**options)
    except TypeError as e:
        raise TuningError(f"strategy {name!r}: {e}") from None
