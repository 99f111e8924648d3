"""AN5D-style baseline tuner (Matsumura et al. [15]).

AN5D compiles stencils to a fixed high-performance strategy: streaming
(2.5-D spatial blocking) combined with high-degree temporal blocking, plus
low-level register optimizations (which our optimization vocabulary calls
retiming).  It then tunes the numeric parameters of that one strategy.
The baseline therefore always tunes the ``ST_RT_TB`` combination, falling
back to ``ST_RT`` (no temporal blocking) and then ``ST`` when the richer
combination cannot run for the stencil/GPU at hand.
"""

from __future__ import annotations

from ..engine import VectorBackend
from ..errors import DatasetError
from ..optimizations.combos import OC
from ..optimizations.params import ParamSetting
from ..stencil.stencil import Stencil
from ..tuning import RandomStrategy, tune_lockstep

#: Strategy ladder, strongest first.
_STRATEGIES = ("ST_RT_TB", "ST_RT", "ST")


class AN5DBaseline:
    """Fixed-strategy tuner with the same per-OC search budget."""

    name = "AN5D"

    def __init__(self, gpu: str, n_settings: int, seed: int,
                 sigma: float = 0.03):
        self.backend = VectorBackend(gpu, sigma=sigma)
        self.n_settings = int(n_settings)
        self.seed = int(seed)

    def tune(self, stencil: Stencil, stencil_id: int = -1) -> tuple[OC, ParamSetting, float]:
        """Best configuration of the AN5D strategy for *stencil*."""
        for name in _STRATEGIES:
            oc = OC.parse(name)
            (result,) = tune_lockstep(
                stencil, [(oc, RandomStrategy(self.n_settings))],
                backend=self.backend, seed=self.seed, stencil_id=stencil_id,
            )
            if result.ok:
                return oc, result.best_setting, result.best_time_ms
        raise DatasetError("AN5D strategy ladder exhausted (stencil cannot stream)")
