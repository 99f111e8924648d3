"""Unified autotuning: one front door and a strategy zoo.

:func:`tune` is the single entry point every parameter search goes
through -- the paper's random walk + coordinate refinement, the
csTuner-style genetic algorithm, simulated annealing, GBDT-surrogate
Bayesian optimization, and reduced-grid successive halving are all
:class:`Strategy` implementations driven by the same ask/evaluate/tell
loop over the batched :mod:`repro.engine` backends.  See
``docs/tuning.md`` for the strategy zoo, the restriction grammar, cache
semantics and budget accounting.
"""

from .anneal import AnnealingStrategy
from .api import tune, tune_lockstep
from .bayes import BayesStrategy
from .genetic import GeneticStrategy
from .halving import HalvingStrategy
from .random_search import CoordinateDescentStrategy, RandomStrategy
from .result import TrialRecord, TuneResult
from .rng import stream_key, stream_rng
from .space import ParameterSpace, Restriction, compile_restriction
from .strategy import (
    AskBatch,
    GeneratorStrategy,
    Strategy,
    StrategyContext,
    StrategyOutcome,
    available_strategies,
    make_strategy,
    register_strategy,
)

__all__ = [
    "AnnealingStrategy",
    "AskBatch",
    "BayesStrategy",
    "CoordinateDescentStrategy",
    "GeneratorStrategy",
    "GeneticStrategy",
    "HalvingStrategy",
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
