"""Artemis-style baseline tuner (Rawat et al. [20]).

Artemis "tunes the computation for high-impact optimizations first and
then selects a few high-performance candidates".  We mirror that two-stage
shape on our optimization vocabulary:

1. **Stage 1 (high impact)**: evaluate the structural skeletons -- naive,
   streaming, temporal blocking, and their combination -- each with the
   standard per-OC random budget; keep the top ``n_candidates``.
2. **Stage 2 (secondary)**: for each surviving skeleton, try the secondary
   optimizations (retiming, prefetching, block/cyclic merging) layered on
   top, same budget per combination, and return the overall best.

Artemis therefore spends strictly more total measurements than
StencilMART (which tunes only its one predicted OC); the comparison in
Figs. 10-11 is conservative in the baseline's favour at equal per-OC
budget, matching the paper's "the number of randomly selected parameter
settings remains the same".
"""

from __future__ import annotations

from ..engine import VectorBackend
from ..errors import ConstraintViolation, DatasetError
from ..optimizations.combos import OC
from ..optimizations.params import ParamSetting
from ..optimizations.passes import Opt
from ..stencil.stencil import Stencil
from ..tuning import RandomStrategy, TuneResult, tune_lockstep

#: Stage-1 structural skeletons.
_SKELETONS = ("naive", "ST", "TB", "ST_TB")

#: Stage-2 add-ons layered onto surviving skeletons.
_SECONDARY = (Opt.RT, Opt.PR, Opt.BM, Opt.CM)


class ArtemisBaseline:
    """Two-stage high-impact-first tuner."""

    name = "Artemis"

    def __init__(
        self,
        gpu: str,
        n_settings: int,
        seed: int,
        sigma: float = 0.03,
        n_candidates: int = 2,
    ):
        self.backend = VectorBackend(gpu, sigma=sigma)
        self.n_settings = int(n_settings)
        self.seed = int(seed)
        self.n_candidates = int(n_candidates)

    def _tune_ocs(
        self, stencil: Stencil, stencil_id: int, ocs: "list[OC]"
    ) -> "list[TuneResult]":
        """Random-search every OC of *ocs* in lockstep, one result each."""
        return tune_lockstep(
            stencil, [(oc, RandomStrategy(self.n_settings)) for oc in ocs],
            backend=self.backend, seed=self.seed, stencil_id=stencil_id,
        )

    def tune(self, stencil: Stencil, stencil_id: int = -1) -> tuple[OC, ParamSetting, float]:
        """Best configuration found by the two-stage procedure."""
        skeletons = [OC.parse(name) for name in _SKELETONS]
        stage1: list[tuple[float, OC, ParamSetting]] = [
            (result.best_time_ms, oc, result.best_setting)
            for oc, result in zip(
                skeletons, self._tune_ocs(stencil, stencil_id, skeletons)
            )
            if result.ok
        ]
        if not stage1:
            raise DatasetError("no Artemis skeleton could run")
        stage1.sort(key=lambda r: r[0])
        best_time, best_oc, best_setting = stage1[0]

        stage2: list[OC] = []
        for _, skeleton, _ in stage1[: self.n_candidates]:
            for extra in _SECONDARY:
                try:
                    stage2.append(OC(skeleton.opts | {extra}))
                except ConstraintViolation:
                    continue
        for oc, result in zip(
            stage2, self._tune_ocs(stencil, stencil_id, stage2)
        ):
            if result.ok and result.best_time_ms < best_time:
                best_time = result.best_time_ms
                best_oc = oc
                best_setting = result.best_setting
        return best_oc, best_setting, best_time
