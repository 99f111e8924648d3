"""The paper's random search and coordinate descent as strategies.

``RandomStrategy`` is the paper's tuner (Section IV-A: best-of-N random
sampling with crash resampling, optionally polished by basin-covering
coordinate descent); every profiling campaign and baseline runs it.  Its
RNG stream, draw sequence, walk order, chunked frontier sizes,
``seen``-set discipline and measurement log are pinned by the tuning
goldens and the campaign digests, so any behavioral change here is a
format break (see ``tests/tuning/test_equivalence.py``).  The walk
consumes settings in first-draw order, and the descent reads each
parameter's frontier in choice order, however they were batched, so
frontier sizes (``RandomStrategy._chunk_size`` and
:func:`coordinate_descent`, speculative only on vectorized backends)
decide which points are evaluated, never the outcome;
``tests/tuning/golden_frontiers.json`` pins them.

On a pure backend (see :class:`~repro.engine.BackendInfo`) a walk also
keeps every result it has been sent, keyed by layout tuple, and asks
the engine only for settings it has not settled yet: descent re-walks
the same neighbours across passes and basins, and each of them is
priced once per job.  The walk still reads and observes every
candidate in order, so trajectories, trial logs and ``trials`` do not
depend on the memo.  An impure backend (fault injection) advances its
fault schedule per evaluated point, so it is asked again for every
re-read candidate, as the schedule pinned by
``tests/robustness/golden_faults.json`` expects.

``CoordinateDescentStrategy`` exposes the same descent loop as a
standalone strategy: multi-start greedy descent over one parameter at
a time.  On a vectorized backend one engine batch carries the rest of a
pass (every remaining parameter's frontier); see
:func:`coordinate_descent` for when frontiers stay exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import TuningError
from .strategy import GeneratorStrategy, StrategyContext, register_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..optimizations.params import ParamSetting

__all__ = ["CoordinateDescentStrategy", "RandomStrategy", "coordinate_descent"]

#: Sampling attempts allowed per requested valid setting.
ATTEMPTS_PER_SETTING = 12

#: Coordinate-descent passes after random sampling.
REFINE_PASSES = 3


def _settle(ctx: StrategyContext, settings: "list[ParamSetting]", settled):
    """Sub-generator returning the results of *settings*, in order.

    *settled* maps the layout tuple of each setting this job has already
    been sent to its result, or is ``None`` on an impure backend, which
    is asked for every setting every time.  Only settings missing from
    it go to the engine (a frontier holds distinct settings), and their
    results are added to it.  A frontier that is wholly settled costs no
    engine call; under a budget it is still yielded, as an empty batch,
    because the driver checks the budget only when a batch is told.
    """
    if settled is None:
        return (yield settings) if settings else []
    fresh = [s for s in settings if s.as_tuple() not in settled]
    if fresh or (settings and ctx.budget is not None):
        for s, res in zip(fresh, (yield fresh)):
            settled[s.as_tuple()] = res
    return [settled[s.as_tuple()] for s in settings]


def coordinate_descent(
    strategy: GeneratorStrategy,
    ctx: StrategyContext,
    setting: "ParamSetting",
    time_ms: float,
    seen: "set[tuple[int, ...]]",
    measurements: "list[tuple[ParamSetting, float]]",
    settled: "dict | None",
    passes: int = REFINE_PASSES,
):
    """Polish *setting* one parameter at a time until a fixed point.

    A sub-generator shared by :class:`RandomStrategy` (refinement) and
    :class:`CoordinateDescentStrategy` (standalone).  The walk reads
    each parameter's frontier in choice order, so the descent
    trajectory is identical to evaluating candidates one by one however
    the frontiers are batched:

    - On a vectorized, pure backend (see
      :class:`~repro.engine.BackendInfo`) with no budget, one asked
      batch carries the frontiers of every parameter the
      pass has still to visit, built from the current setting.  A
      parameter that improves the setting voids the later frontiers,
      which are asked for again from the new setting.
    - Otherwise each asked batch is one parameter's frontier: a
      budget is checked between batches, so a batch spanning several
      parameters could overshoot it, and on an impure backend (fault
      injection) every extra point advances the fault schedule.

    Either way the batch holds only candidates missing from *settled*
    (see :func:`_settle`).
    """
    info = ctx.backend_info
    speculate = info.vectorized and info.pure and ctx.budget is None
    names = ctx.space.names
    for _ in range(passes):
        improved = False
        # name -> (candidates, results) built from the current setting
        ahead: dict[str, tuple[list, list]] = {}
        for i, name in enumerate(names):
            if name not in ahead:
                frontiers = [
                    (n, ctx.space.neighbors(setting, n))
                    for n in (names[i:] if speculate else (name,))
                ]
                batch = [c for _, candidates in frontiers for c in candidates]
                results = yield from _settle(ctx, batch, settled)
                lo = 0
                for n, candidates in frontiers:
                    ahead[n] = (candidates, results[lo:lo + len(candidates)])
                    lo += len(candidates)
            candidates, results = ahead.pop(name)
            for candidate, res in zip(candidates, results):
                t = strategy.observe(candidate, res)
                if res.crashed:
                    continue
                key = candidate.as_tuple()
                if key not in seen:
                    seen.add(key)
                    measurements.append((candidate, t))
                if t < time_ms:
                    setting, time_ms = candidate, t
                    improved = True
                    ahead.clear()
        if not improved:
            break
    return setting, time_ms


@register_strategy
class RandomStrategy(GeneratorStrategy):
    """Best-of-N random sampling with optional coordinate refinement.

    Parameters
    ----------
    n_settings:
        Valid (non-crashing) settings to measure before refinement.
        Defaults to the tune() budget when one is set (so plain
        ``tune(..., strategy="random", budget=B)`` spends B observations
        sampling), else 8.  :class:`TuningError` when it resolves to
        fewer than one, before any measurement.
    refine:
        Polish the best sample of each (use_smem, stream_dim,
        temporal_steps) basin by coordinate descent -- the default,
        which makes per-OC optima nearly independent of sampling luck.
    """

    name = "random"

    def __init__(
        self,
        n_settings: "int | None" = None,
        refine: bool = True,
    ):
        super().__init__()
        self.n_settings = None if n_settings is None else int(n_settings)
        self.refine = bool(refine)
        #: Walk-phase crash count (a campaign's ``OCResult.crashed``;
        #: refinement crashes are *not* counted here).
        self.walk_crashed = 0
        #: Measurement log, as a campaign records it: walk acceptances
        #: then per-descent extras, in order.
        self.measurements: list[tuple["ParamSetting", float]] = []

    def stream_components(self, seed: int, stencil_id: int, oc) -> tuple:
        # The pre-registry stream: no strategy component.  Campaign digests
        # depend on this exact key (see the module docstring).
        return (seed, stencil_id, oc.name)

    def _chunk_size(self, need: int) -> int:
        """Settings per engine call while ``need`` are missing.

        A vectorized backend prices a batch with array math, so its
        per-call overhead outweighs a point's cost and it gets
        speculative frontiers; most of the speculated points are never
        observed by the walk, but on a pure backend descent reads many
        of them from the walk's results instead of asking again.  An
        impure (fault-injecting) vectorized stack keeps the wider
        frontiers its pinned fault schedule was drawn with.  Every
        other backend pays per point -- the scalar path, and the
        analytical backend, which generates, parses and extracts each
        point even with its per-configuration memo -- so it evaluates
        exactly the points the walk observes.
        """
        info = self.ctx.backend_info
        if not info.vectorized:
            return max(need, 1)
        if info.pure:
            return max(2 * need, 8)
        return max(4 * need, 32)

    def run(self, ctx: StrategyContext):
        n_settings = self.n_settings
        if n_settings is None:
            n_settings = int(ctx.budget) if ctx.budget else 8
        if n_settings < 1:
            raise TuningError(
                f"random search needs n_settings >= 1, got {n_settings}"
            )
        rng = ctx.rng
        max_attempts = n_settings * ATTEMPTS_PER_SETTING
        # The whole tuning batch's randomness is drawn here, once; draws
        # past the stopping point are discarded unobserved, which is
        # exactly what the incremental sampler did.  sample_block is
        # bit-identical to that many sample() calls but vectorizes the
        # RNG work, which dominates a cache-served replay, and builds a
        # setting only when it is indexed.
        draws = ctx.space.sample_block(max_attempts, rng)
        keys = draws.keys

        # Each distinct setting's first draw, in draw order; the
        # sampling walk below consumes settings strictly in this order,
        # so batches can be evaluated ahead of the walk without changing
        # its outcome.
        first: dict[tuple[int, ...], int] = {}
        for i, k in enumerate(keys):
            first.setdefault(k, i)
        order = list(first.values())

        results: dict[tuple[int, ...], object] = {}
        frontier = 0  # index into `order` of the first unevaluated setting
        measurements = self.measurements
        seen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(measurements) < n_settings and attempts < max_attempts:
            key = keys[attempts]
            attempts += 1
            if key in seen:
                continue
            seen.add(key)
            if key not in results:
                end = min(
                    len(order),
                    frontier + self._chunk_size(n_settings - len(measurements)),
                )
                batch = [draws[i] for i in order[frontier:end]]
                batch_results = yield batch
                for s, res in zip(batch, batch_results):
                    results[s.as_tuple()] = res
                frontier = end
            setting = draws[attempts - 1]
            res = results[key]
            t = self.observe(setting, res)
            if res.crashed:
                self.walk_crashed += 1
                continue
            measurements.append((setting, t))

        if not measurements:
            return  # every attempted setting crashed
        if not self.refine:
            return
        # Basin-covering multi-start: the landscape's major basins are
        # indexed by the discrete mode switches (shared memory on/off,
        # stream axis, temporal degree); coordinate descent from the
        # best sample of each basin makes the per-OC optimum nearly
        # independent of sampling luck.
        basins: dict[tuple[int, int, int], tuple["ParamSetting", float]] = {}
        for setting, t in measurements:
            key = (
                setting["use_smem"],
                setting["stream_dim"],
                setting["temporal_steps"],
            )
            cur = basins.get(key)
            if cur is None or t < cur[1]:
                basins[key] = (setting, t)
        for start_setting, start_time in sorted(
            basins.values(), key=lambda m: m[1]
        ):
            if start_time > 4.0 * self.best_time_ms:
                continue  # hopeless basin; descent cannot recover 4x
            yield from coordinate_descent(
                self,
                ctx,
                start_setting,
                start_time,
                seen,
                measurements,
                results if ctx.backend_info.pure else None,
            )


@register_strategy
class CoordinateDescentStrategy(GeneratorStrategy):
    """Multi-start greedy coordinate descent.

    Each round samples a fresh start (first round may be pinned via
    ``start``) and descends one parameter frontier at a time until a
    fixed point; rounds repeat until the budget is spent (one round when
    no budget is set).
    """

    name = "coordinate"

    def __init__(
        self,
        start: "ParamSetting | None" = None,
        passes: int = REFINE_PASSES,
    ):
        super().__init__()
        self.start = start
        self.passes = int(passes)

    def run(self, ctx: StrategyContext):
        seen: set[tuple[int, ...]] = set()
        measurements: list[tuple["ParamSetting", float]] = []
        settled = {} if ctx.backend_info.pure else None
        first = True
        while first or (ctx.budget is not None and self.observed < ctx.budget):
            if first and self.start is not None:
                start = self.start
            else:
                start = ctx.space.sample(ctx.rng)
            first = False
            key = start.as_tuple()
            if key not in seen:
                seen.add(key)
                (res,) = yield from _settle(ctx, [start], settled)
                t = self.observe(start, res)
                if not res.crashed:
                    measurements.append((start, t))
            else:
                t = dict(
                    (s.as_tuple(), tm) for s, tm in measurements
                ).get(key, float("inf"))
            if t == float("inf"):
                continue  # crashed start: resample
            yield from coordinate_descent(
                self, ctx, start, t, seen, measurements, settled, self.passes
            )
            if ctx.budget is None:
                break
