"""Unified autotuning: one front door and three search strategies.

:func:`tune` is the single entry point every parameter search goes
through -- the paper's random walk with coordinate refinement
(``random``), standalone coordinate descent (``coordinate``) and the
csTuner-style genetic algorithm (``genetic``) are all :class:`Strategy`
implementations driven by the same ask/evaluate/tell loop over the
batched :mod:`repro.engine` backends.  See ``docs/tuning.md`` for the
strategies, the restriction grammar, cache semantics and budget
accounting.
"""

from .api import tune, tune_lockstep
from .genetic import GeneticStrategy
from .random_search import CoordinateDescentStrategy, RandomStrategy
from .result import TrialRecord, TuneResult
from .rng import stream_key, stream_rng
from .space import ParameterSpace, Restriction, compile_restriction
from .strategy import (
    GeneratorStrategy,
    Strategy,
    StrategyContext,
    StrategyOutcome,
    available_strategies,
    make_strategy,
    register_strategy,
)

__all__ = [
    "CoordinateDescentStrategy",
    "GeneratorStrategy",
    "GeneticStrategy",
    "ParameterSpace",
    "RandomStrategy",
    "Restriction",
    "Strategy",
    "StrategyContext",
    "StrategyOutcome",
    "TrialRecord",
    "TuneResult",
    "available_strategies",
    "compile_restriction",
    "make_strategy",
    "register_strategy",
    "stream_key",
    "stream_rng",
    "tune",
    "tune_lockstep",
]
