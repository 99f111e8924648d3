"""Multi-GPU profiling campaigns over stencil populations.

A :class:`ProfileCampaign` is the "stencil dataset" of Section IV-A: every
stencil in a population is profiled under every OC on every GPU.  It is the
single source the motivation figures, the classification dataset and the
regression dataset are all derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DEFAULT_SEED
from ..errors import DatasetError
from ..gpu.specs import GPU_ORDER
from ..optimizations.combos import ALL_OCS, OC
from ..stencil.stencil import Stencil
from .records import Measurement, StencilProfile


@dataclass
class ProfileCampaign:
    """Profiles for a stencil population across GPUs.

    ``profiles[gpu][stencil_id]`` is the :class:`StencilProfile` of that
    stencil on that GPU; stencil ids index into ``stencils``.
    """

    stencils: list[Stencil]
    gpus: tuple[str, ...]
    ocs: tuple[OC, ...]
    n_settings: int
    seed: int
    profiles: dict[str, list[StencilProfile]] = field(default_factory=dict)

    @property
    def ndim(self) -> int:
        return self.stencils[0].ndim

    def gpu_profiles(self, gpu: str) -> list[StencilProfile]:
        """All profiles on *gpu*; :class:`DatasetError` on an unknown key."""
        try:
            return self.profiles[gpu]
        except KeyError:
            available = ", ".join(sorted(self.profiles)) or "none"
            raise DatasetError(
                f"no profiles for GPU {gpu!r}; campaign has: {available}"
            ) from None

    def profile(self, gpu: str, stencil_id: int) -> StencilProfile:
        """The profile of one stencil on one GPU."""
        return self.gpu_profiles(gpu)[stencil_id]

    def measurements(self, gpu: str) -> list[Measurement]:
        """All raw measurements collected on *gpu*, in stencil order."""
        out: list[Measurement] = []
        for p in self.gpu_profiles(gpu):
            out.extend(p.measurements)
        return out

    def best_oc_labels(self, gpu: str) -> list[str]:
        """Best OC name per stencil on *gpu* (classification raw labels)."""
        return [p.best_oc for p in self.gpu_profiles(gpu)]


def run_campaign(
    stencils: list[Stencil],
    gpus: "tuple[str, ...] | list[str]" = GPU_ORDER,
    ocs: "tuple[OC, ...] | list[OC]" = ALL_OCS,
    n_settings: int = 8,
    seed: int = DEFAULT_SEED,
    sigma: float = 0.03,
    **runner_kwargs,
) -> ProfileCampaign:
    """Profile *stencils* under *ocs* on every GPU in *gpus*.

    Deterministic for a given seed: the per-(stencil, OC) sampling streams
    are derived from ``seed`` independently of iteration order.

    This is a thin wrapper over
    :class:`~repro.profiling.runner.CampaignRunner`; extra keyword
    arguments (``backend``, ``faults``, ``policy``, ``checkpoint_path``,
    ...) pass through to it, and ``resume=True`` continues from an
    existing checkpoint.  ``backend="vector"`` (the default) runs the
    campaign on the batched evaluation engine's vectorized substrate (see
    :mod:`repro.engine`).
    """
    from .runner import CampaignRunner  # local import: runner imports us

    resume = bool(runner_kwargs.pop("resume", False))
    runner = CampaignRunner(
        stencils,
        gpus=gpus,
        ocs=ocs,
        n_settings=n_settings,
        seed=seed,
        sigma=sigma,
        **runner_kwargs,
    )
    return runner.run(resume=resume)
