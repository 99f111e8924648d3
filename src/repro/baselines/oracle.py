"""All-OC oracle: the best OC found by tuning every combination.

Not a paper baseline -- the reference every tuner is measured against,
used by ablation benches and the speedup figures' sanity checks.  It is
exhaustive over OCs only: within each OC it samples ``n_settings``
settings and polishes them, like every campaign, so its pick is the best
point a sampled search found, not the exact optimum.
"""

from __future__ import annotations

from ..engine import VectorBackend
from ..errors import DatasetError
from ..optimizations.combos import ALL_OCS, OC
from ..optimizations.params import ParamSetting
from ..stencil.stencil import Stencil
from ..tuning import RandomStrategy, tune_lockstep


class OracleBaseline:
    """Tunes every OC with the standard budget and keeps the best.

    Covering the whole OC space makes the oracle the most
    measurement-hungry tuner in the repo, so every OC is tuned in
    lockstep, one engine batch per round, on a
    :class:`~repro.engine.VectorBackend`.  Each OC's walk prices a
    repeated setting once, so no memo sits in front of it.
    """

    name = "Oracle"

    def __init__(self, gpu: str, n_settings: int, seed: int,
                 sigma: float = 0.03):
        self.backend = VectorBackend(gpu, sigma=sigma)
        self.n_settings = int(n_settings)
        self.seed = int(seed)

    def tune(self, stencil: Stencil, stencil_id: int = -1) -> tuple[OC, ParamSetting, float]:
        """Best configuration over the full OC space."""
        best: tuple[float, OC, ParamSetting] | None = None
        results = tune_lockstep(
            stencil,
            [(oc, RandomStrategy(self.n_settings)) for oc in ALL_OCS],
            backend=self.backend, seed=self.seed, stencil_id=stencil_id,
        )
        for oc, result in zip(ALL_OCS, results):
            if not result.ok:
                continue
            if best is None or result.best_time_ms < best[0]:
                best = (result.best_time_ms, oc, result.best_setting)
        if best is None:
            raise DatasetError("no OC could run for this stencil")
        return best[1], best[2], best[0]
