"""The unified autotuning front door: :func:`tune`.

Every parameter search in the repo -- the paper's random walk with
coordinate refinement, standalone coordinate descent and the
csTuner-style genetic algorithm -- runs through this one function.
``tune()`` owns everything that is *not* search logic:

- resolving the tuning space (a :class:`~repro.stencil.stencil.Stencil`
  plus OC, or an explicit :class:`~repro.tuning.ParameterSpace` with
  ``restrictions=``),
- resolving the measurement substrate (a backend or simulator
  instance, or a GPU to build a vector backend for) and optionally
  giving it a persistent memo, a :class:`~repro.engine.CachingBackend`
  with ``root=``,
- deriving the strategy's named RNG stream from
  ``(seed, stencil_id, oc, strategy)`` so results are deterministic for
  a fixed (strategy, seed, budget) regardless of backend flavor or
  worker count,
- the ask/evaluate/tell loop with budget enforcement, counted in
  observed evaluations,
- packaging the outcome as a :class:`~repro.tuning.TuneResult`.

The loop's only contract with the strategy is the ask/tell protocol;
whole frontiers go to the backend as single batches, so vectorized
backends amortize.  :func:`tune_lockstep` runs the same loop over
several (OC, strategy) jobs of one stencil at once: every round sends
the union of their frontiers as one batch, which is how the campaign
runner tunes a whole unit.  ``tune()`` is that loop's one-job case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..engine import Backend, CachingBackend, EvalRequest, as_backend, make_backend
from ..errors import TuningError
from ..optimizations.combos import OC
from ..stencil.stencil import Stencil
from .result import TuneResult
from .rng import stream_rng
from .space import ParameterSpace
from .strategy import Strategy, StrategyContext, StrategyOutcome, make_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

__all__ = ["tune", "tune_lockstep"]


def _resolve_space(space_or_stencil, oc, restrictions):
    if isinstance(space_or_stencil, Stencil):
        if oc is None:
            raise TuningError("tune(stencil, ...) needs an oc= to pick the space")
        return ParameterSpace.for_oc(
            oc, space_or_stencil.ndim, restrictions or None
        ), space_or_stencil
    if isinstance(space_or_stencil, ParameterSpace):
        if restrictions:
            raise TuningError(
                "pass restrictions to the ParameterSpace constructor, "
                "not to tune(), when supplying an explicit space"
            )
        return space_or_stencil, None
    raise TuningError(
        f"tune() wants a Stencil or ParameterSpace, got "
        f"{type(space_or_stencil).__name__}"
    )


def _resolve_backend(backend, gpu, sigma) -> Backend:
    if backend is None:
        if gpu is None:
            raise TuningError("tune() needs backend= or gpu= to measure on")
        return make_backend("vector", gpu, sigma=sigma)
    try:
        return as_backend(backend)
    except TypeError as e:
        raise TuningError(f"backend=: {e}") from None


def _resolve_strategy(strategy, options) -> Strategy:
    if isinstance(strategy, str):
        return make_strategy(strategy, **options)
    if options:
        raise TuningError(
            "strategy options are only accepted with a strategy *name*; "
            "configure the instance directly instead"
        )
    if not isinstance(strategy, Strategy):
        raise TuningError(
            f"{type(strategy).__name__} does not implement the Strategy "
            "protocol (name/stream_components/prepare/ask/tell/finish)"
        )
    return strategy


def tune(
    space_or_stencil: "Stencil | ParameterSpace",
    *,
    oc: "OC | None" = None,
    stencil: "Stencil | None" = None,
    gpu=None,
    backend: "Backend | None" = None,
    strategy: "Strategy | str" = "random",
    budget: "float | None" = None,
    seed: int = 0,
    stencil_id: int = -1,
    restrictions=(),
    grid: "tuple[int, ...] | None" = None,
    cache_dir: "str | Path | None" = None,
    sigma: float = 0.03,
    **strategy_options,
) -> TuneResult:
    """Tune one (stencil, OC) pair and return the best setting found.

    Parameters
    ----------
    space_or_stencil:
        A :class:`Stencil` (its OC-relevant parameter space is derived
        via ``restrictions=``) or an explicit :class:`ParameterSpace`
        (then ``stencil=`` must name what to measure).
    oc:
        The optimization combination whose parameters are being tuned.
    gpu / backend / sigma:
        The measurement substrate: an existing backend (or simulator),
        or just a GPU (a vector backend is built).  Anything else is a
        :class:`TuningError` naming its type.
    strategy:
        Registered name (see :func:`repro.tuning.available_strategies`)
        with ``**strategy_options`` forwarded to its constructor, or a
        ready-made :class:`Strategy` instance.
    budget:
        Evaluation allowance, counted in observed evaluations.
        Strategies may size themselves to it (random samples
        ``budget`` settings, genetic with ``generations=None`` derives
        its generation count) and the driver enforces it as a hard cap
        between frontiers.  ``None`` (default) lets the strategy use
        its own defaults.
    seed / stencil_id:
        Entropy: the strategy's RNG stream is keyed by
        ``strategy.stream_components(seed, stencil_id, oc)`` (the named
        stream convention).
    grid:
        Evaluation grid override (``None``: the paper default for the
        stencil's dimensionality).
    cache_dir:
        When set, measure through a persistent
        :class:`~repro.engine.CachingBackend` rooted there (in place of
        the passed backend's own memo, if it is a
        :class:`~repro.engine.CachingBackend`), flushed when the call
        ends.
    """
    space, inferred = _resolve_space(space_or_stencil, oc, restrictions)
    stencil = stencil if stencil is not None else inferred
    if stencil is None:
        raise TuningError(
            "tune(ParameterSpace, ...) needs stencil= to know what to measure"
        )
    if oc is None:
        raise TuningError("tune() needs an oc= to measure")
    if budget is not None and budget <= 0:
        raise TuningError(f"budget must be positive, got {budget!r}")

    strat = _resolve_strategy(strategy, strategy_options)
    (result,) = _tune_jobs(
        stencil,
        [(strat, oc, space, strat.stream_components(seed, stencil_id, oc))],
        _resolve_backend(backend, gpu, sigma),
        seed=seed,
        stencil_id=stencil_id,
        budget=budget,
        grid=grid,
        cache_dir=cache_dir,
    )
    return result


def tune_lockstep(
    stencil: Stencil,
    jobs: "Sequence[tuple[OC, Strategy]]",
    *,
    backend,
    seed: int = 0,
    stencil_id: int = -1,
    grid: "tuple[int, ...] | None" = None,
) -> "list[TuneResult]":
    """Tune *stencil* under each (OC, strategy) job of *jobs* at once.

    The strategies advance in lockstep: each round, every unfinished
    strategy asks for its next frontier and the union of the frontiers
    goes to *backend* as one batch, so the call makes as many engine
    calls as its longest trajectory has rounds.  Each job keeps its own
    named RNG stream, ``seen`` set and walk order, and results are
    per-point pure, so every result equals what :func:`tune` returns
    for that job alone.  When *backend* is a
    :class:`~repro.engine.CachingBackend`, every result's cache hit/miss
    counts are that memo's delta over the whole call.  *grid* is
    :func:`tune`'s evaluation grid override, shared by every job.
    Results come back in job order.
    """
    return _tune_jobs(
        stencil,
        [
            (
                strat,
                oc,
                ParameterSpace.for_oc(oc, stencil.ndim, None),
                strat.stream_components(seed, stencil_id, oc),
            )
            for oc, strat in jobs
        ],
        as_backend(backend),
        seed=seed,
        stencil_id=stencil_id,
        grid=grid,
    )


def _tune_jobs(
    stencil: Stencil,
    jobs: "list[tuple[Strategy, OC, ParameterSpace, tuple]]",
    base: Backend,
    *,
    seed: int,
    stencil_id: int,
    budget: "float | None" = None,
    grid: "tuple[int, ...] | None" = None,
    cache_dir: "str | Path | None" = None,
) -> "list[TuneResult]":
    """Build each (strategy, OC, space, stream) job's context, drive them
    all to completion on *base* and package one result per job."""
    substrate = base
    if cache_dir is not None:
        # One memo, not two: the persistent one replaces base's own.
        inner = base.inner if isinstance(base, CachingBackend) else base
        substrate = CachingBackend(inner, root=cache_dir)
    cache = substrate if isinstance(substrate, CachingBackend) else None
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0

    prepared = [
        (
            strat,
            StrategyContext(
                stencil=stencil,
                stencil_id=stencil_id,
                oc=oc,
                space=space,
                rng=stream_rng(*components),
                seed=seed,
                budget=budget,
                backend_info=substrate.info,
                grid=grid,
            ),
        )
        for strat, oc, space, components in jobs
    ]
    try:
        outcomes = _drive(prepared, substrate)
    finally:
        if cache is not None:
            cache.flush()

    results = []
    for (strat, ctx), outcome in zip(prepared, outcomes):
        trials = int(getattr(strat, "observed", len(outcome.trial_log)))
        results.append(TuneResult(
            strategy=strat.name,
            best_setting=outcome.best_setting,
            best_time_ms=outcome.best_time_ms,
            trials=trials,
            crashed=outcome.crashed,
            seed=seed,
            budget=budget,
            oc=ctx.oc.name,
            stencil=getattr(stencil, "name", None),
            gpu=substrate.spec.name,
            cache_hits=(cache.hits - hits0) if cache is not None else 0,
            cache_misses=(cache.misses - misses0) if cache is not None else 0,
            trial_log=outcome.trial_log,
            extras=dict(outcome.extras),
        ))
    return results


def _drive(
    jobs: "list[tuple[Strategy, StrategyContext]]", substrate: Backend
) -> "list[StrategyOutcome]":
    """The ask/evaluate/tell loop over prepared (strategy, context) jobs.

    Each round asks every live job for its next frontier and sends the
    union to *substrate* as one ``evaluate_batch``; each job is told
    exactly its own slice.  A job leaves the round robin when its
    strategy stops asking or the evaluations it has observed reach its
    context's budget.
    """
    for strat, ctx in jobs:
        strat.prepare(ctx)
    live = list(jobs)
    while live:
        asked = []
        for strat, ctx in live:
            batch = strat.ask()
            if batch is not None:
                asked.append((strat, ctx, batch))
        requests = [
            EvalRequest(ctx.stencil, ctx.oc, s, grid=ctx.grid)
            for _, ctx, batch in asked
            for s in batch
        ]
        results = substrate.evaluate_batch(requests) if requests else []
        live = []
        lo = 0
        for strat, ctx, batch in asked:
            hi = lo + len(batch)
            strat.tell(results[lo:hi])
            lo = hi
            if ctx.budget is None or getattr(strat, "observed", 0) < ctx.budget:
                live.append((strat, ctx))
    return [strat.finish() for strat, _ in jobs]
