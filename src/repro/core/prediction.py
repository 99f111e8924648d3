"""Cross-architecture instance evaluation for the case study (Figs. 14-15).

A *stencil instance* is one (stencil, OC, parameter setting).  The case
study asks: measured on every GPU, which is fastest (pure performance) or
cheapest per unit of work (cost efficiency) -- and does the regression
model, fed only hardware features, point at the same GPU?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import EvalRequest, VectorBackend
from ..errors import DatasetError
from ..gpu.noise import DEFAULT_SIGMA
from ..gpu.specs import get_gpu
from ..optimizations.combos import ALL_OCS, OC
from ..optimizations.params import ParamSetting, sample_setting
from ..stencil.stencil import Stencil


@dataclass(frozen=True)
class CrossGPUInstance:
    """One (stencil, OC, setting) measured on every GPU."""

    stencil_id: int
    stencil: Stencil
    oc: str
    setting: ParamSetting
    times_ms: dict[str, float]  # gpu -> measured time

    def best_gpu(self) -> str:
        """GPU with the shortest measured time."""
        return min(self.times_ms, key=lambda g: (self.times_ms[g], g))

    def best_gpu_by_cost(self) -> str:
        """Rental GPU with the lowest time x price product.

        GPUs without a rental price (the desktop 2080Ti) are excluded,
        matching the paper's Fig. 15.
        """
        priced = {
            g: t * get_gpu(g).rental_per_hour
            for g, t in self.times_ms.items()
            if get_gpu(g).rental_per_hour is not None
        }
        if not priced:
            raise DatasetError("no rentable GPU in instance")
        return min(priced, key=lambda g: (priced[g], g))


def build_cross_gpu_instances(
    stencils: "list[Stencil]",
    gpus: "tuple[str, ...] | list[str]",
    n_per_stencil: int = 6,
    seed: int = 0,
    sigma: float = DEFAULT_SIGMA,
    ocs: "tuple[OC, ...]" = ALL_OCS,
) -> list[CrossGPUInstance]:
    """Sample instances and measure each on every GPU.

    An instance is kept only when it runs on *all* GPUs so the ground
    truth is well defined.  Sampling is deterministic per stencil.
    """
    backends = {g: VectorBackend(g, sigma=sigma) for g in gpus}
    out: list[CrossGPUInstance] = []
    for sid, stencil in enumerate(stencils):
        rng = np.random.default_rng(np.random.SeedSequence((seed, sid)))
        # The draws do not depend on the outcomes, so every attempt the
        # sampler may make is drawn up front and measured in one batch
        # per GPU; the first n_per_stencil that run everywhere are kept.
        draws = []
        for _ in range(n_per_stencil * 10):
            oc = ocs[rng.integers(len(ocs))]
            draws.append(EvalRequest(stencil, oc, sample_setting(oc, stencil.ndim, rng)))
        results = {g: be.evaluate_batch(draws) for g, be in backends.items()}
        kept = 0
        for k, req in enumerate(draws):
            if kept == n_per_stencil:
                break
            if any(r[k].crashed for r in results.values()):
                continue
            out.append(
                CrossGPUInstance(
                    stencil_id=sid,
                    stencil=stencil,
                    oc=req.oc.name,
                    setting=req.setting,
                    times_ms={g: r[k].time_ms for g, r in results.items()},
                )
            )
            kept += 1
    if not out:
        raise DatasetError("no instance ran on every GPU")
    return out


def ground_truth_shares(
    instances: "list[CrossGPUInstance]",
    gpus: "tuple[str, ...] | list[str]",
    by_cost: bool = False,
) -> dict[str, float]:
    """Fraction of instances each GPU wins (Fig. 14/15 ground-truth bars)."""
    wins = {g: 0 for g in gpus}
    total = 0
    for inst in instances:
        g = inst.best_gpu_by_cost() if by_cost else inst.best_gpu()
        if g in wins:
            wins[g] += 1
            total += 1
    if total == 0:
        raise DatasetError("no instances for the requested GPUs")
    return {g: wins[g] / total for g in gpus}
