"""csTuner-style genetic parameter search (Sun et al. [25]).

The paper's related auto-tuning work (the authors' own csTuner)
re-designs a genetic algorithm over stencil parameter settings.
:class:`GeneticStrategy` provides that search as a zoo member: tournament
selection, uniform crossover and per-gene mutation, with whole
generations evaluated as single engine batches and crashing individuals
scored ``inf``.

:class:`GeneticSearch` is the pre-refactor class, now a thin wrapper
over :func:`repro.tuning.tune`.  It pins the legacy RNG stream --
``(seed, crc32(oc.name))``, *without* a stencil component -- so results
are bit-identical to the pre-front-door tuner; ``tune(...,
strategy="genetic")`` uses the unified stream convention instead (and
therefore draws differently, by design).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..engine import as_backend
from ..optimizations.combos import OC
from ..optimizations.params import PARAM_NAMES, ParamSetting
from ..stencil.stencil import Stencil
from .result import TuneResult
from .strategy import AskBatch, GeneratorStrategy, StrategyContext, register_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["GeneticSearch", "GeneticStrategy"]

_INF = float("inf")


@register_strategy
class GeneticStrategy(GeneratorStrategy):
    """Genetic algorithm over one OC's parameter space.

    Parameters
    ----------
    population:
        Individuals per generation (>= 4).
    generations:
        Evolution steps after the seeded first generation.  When
        ``None``, derived from the tune() budget
        (``budget // population - 1``, at least 1).
    mutation_rate:
        Per-gene probability of resampling a parameter value.
    elite:
        Individuals carried over unchanged per generation.
    """

    name = "genetic"

    def __init__(
        self,
        population: int = 12,
        generations: "int | None" = 6,
        mutation_rate: float = 0.2,
        elite: int = 2,
    ):
        super().__init__()
        if population < 4:
            raise ValueError(f"population must be >= 4, got {population}")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(
                f"mutation_rate must be in [0, 1], got {mutation_rate}"
            )
        self.population = int(population)
        self.generations = None if generations is None else int(generations)
        self.mutation_rate = float(mutation_rate)
        self.elite = max(1, min(int(elite), self.population // 2))

    def run(self, ctx: StrategyContext):
        rng = ctx.rng
        space = ctx.space
        names = space.names
        generations = self.generations
        if generations is None:
            total = int(ctx.budget) if ctx.budget else 6 * self.population
            generations = max(1, total // self.population - 1)
        self._extras["generations"] = generations
        cache: dict[tuple[int, ...], float] = {}

        def ensure(settings):
            """Measure every not-yet-cached individual as one batch.

            Whole generations hit the backend together (the engine
            vectorizes or memoizes as it sees fit); crashing individuals
            score ``inf``, and individuals violating a space restriction
            score ``inf`` without ever reaching the backend.
            """
            fresh: list[ParamSetting] = []
            keys: set[tuple[int, ...]] = set()
            for s in settings:
                key = s.as_tuple()
                if key in cache or key in keys:
                    continue
                if space.restrictions and not space.allows(s):
                    cache[key] = _INF
                    continue
                keys.add(key)
                fresh.append(s)
            if not fresh:
                return
            results = yield AskBatch(fresh)
            for s, res in zip(fresh, results):
                # Incremental incumbent tracking covers budget-truncated
                # runs; a completed run overwrites it with the exact
                # legacy final-population selection below.
                cache[s.as_tuple()] = self.observe(s, res)

        def fitness(setting: ParamSetting) -> float:
            return cache[setting.as_tuple()]

        # Seed generation: random valid-ish individuals.
        pop = [space.sample(rng) for _ in range(self.population)]
        for _ in range(generations):
            yield from ensure(pop)
            scored = sorted(pop, key=fitness)
            next_pop = scored[: self.elite]
            while len(next_pop) < self.population:
                a = self._tournament(scored, fitness, rng)
                b = self._tournament(scored, fitness, rng)
                child = self._crossover(a, b, names, rng)
                child = self._mutate(child, space, names, rng)
                next_pop.append(child)
            pop = next_pop

        yield from ensure(pop)
        # The exact legacy best-selection: min over the final population
        # (elitism guarantees the incumbent survives there), falling back
        # to the best finite point ever cached.
        best = min(pop, key=fitness)
        best_time = fitness(best)
        if best_time == _INF:
            finite = [(t, k) for k, t in cache.items() if t != _INF]
            if not finite:
                return  # nothing ever ran
            best_time, key = min(finite)
            best = ParamSetting(**dict(zip(PARAM_NAMES, key)))
        self.best_setting = best
        self.best_time_ms = best_time

    # ------------------------------------------------------------------
    def _tournament(self, scored, fitness, rng, k: int = 3) -> ParamSetting:
        picks = [scored[rng.integers(len(scored))] for _ in range(k)]
        return min(picks, key=fitness)

    def _crossover(self, a, b, names, rng) -> ParamSetting:
        values = {n: (a[n] if rng.random() < 0.5 else b[n]) for n in names}
        return ParamSetting(**values)

    def _mutate(self, setting, space, names, rng) -> ParamSetting:
        values = {n: setting[n] for n in names}
        for n in names:
            if rng.random() < self.mutation_rate:
                choices = space.choices(n)
                values[n] = int(choices[rng.integers(len(choices))])
        return ParamSetting(**values)


class GeneticSearch:
    """Pre-front-door genetic tuner: a compatibility wrapper.

    Routes through :func:`repro.tuning.tune` with the legacy RNG stream
    ``(seed, oc.name)`` pinned, so ``tune_oc`` results are bit-identical
    to the pre-refactor implementation.  New code should call
    ``tune(..., strategy="genetic")`` directly.
    """

    def __init__(
        self,
        simulator,
        population: int = 12,
        generations: int = 6,
        mutation_rate: float = 0.2,
        elite: int = 2,
        seed: int = 0,
    ):
        self.backend = as_backend(simulator)
        self.sim = self.backend
        self.population = int(population)
        self.generations = int(generations)
        self.mutation_rate = float(mutation_rate)
        self.elite = max(1, min(int(elite), self.population // 2))
        self.seed = int(seed)
        # Validate eagerly, as the legacy constructor did.
        GeneticStrategy(
            population=population,
            generations=generations,
            mutation_rate=mutation_rate,
            elite=elite,
        )

    def tune_oc(self, stencil: Stencil, oc: OC) -> "TuneResult | None":
        """Evolve parameter settings for *oc*; None if nothing ever ran."""
        from .api import tune

        result = tune(
            stencil,
            oc=oc,
            backend=self.backend,
            strategy=GeneticStrategy(
                population=self.population,
                generations=self.generations,
                mutation_rate=self.mutation_rate,
                elite=self.elite,
            ),
            seed=self.seed,
            rng_streams=(self.seed, oc.name),  # legacy stream, pre-zoo
        )
        return result if result.ok else None
