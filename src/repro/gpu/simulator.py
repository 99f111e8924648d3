"""Analytical GPU timing simulator for stencil kernels: the per-point view.

This is the measurement substrate standing in for the paper's four physical
GPUs: for one (stencil, OC, setting) on one
:class:`~repro.gpu.specs.GPUSpec`, it produces an execution time per sweep
in milliseconds, with its phase breakdown.  The model itself --
characterisation, occupancy, latency hiding, memory hierarchy, wave
quantization, streaming stalls and launch overhead -- is the array
pipeline of :mod:`repro.gpu.model`; every method here is a batch of one
over it.  Configurations that exceed a hardware limit raise
:class:`KernelLaunchError` ("the OC crashes under certain stencils",
Section III-A).  Measurement noise is deterministic lognormal jitter
keyed by the full run identity (:mod:`repro.gpu.noise`).

Batched callers use :class:`~repro.engine.VectorBackend`, which runs the
same pipeline over whole frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..optimizations.combos import OC
from ..optimizations.kernelmodel import KernelProfile, build_profile
from ..optimizations.params import ParamSetting
from ..stencil.stencil import Stencil
from . import model
from .noise import noise_factor
from .occupancy import Occupancy
from .specs import GPUSpec, get_gpu


@dataclass(frozen=True)
class SimResult:
    """Timing breakdown for one simulated kernel configuration.

    ``time_ms`` is the headline number: execution time per time step
    (sweep), noise included.  The phase fields are noise-free and per
    launch, kept for reports and ablation studies.
    """

    time_ms: float
    dram_ms: float
    l2_ms: float
    smem_ms: float
    compute_ms: float
    stream_ms: float
    launch_ms: float
    occupancy: Occupancy
    utilization: float
    profile: KernelProfile


class GPUSimulator:
    """Timing model for one GPU.

    Parameters
    ----------
    gpu:
        GPU name or spec (Table III).
    sigma:
        Measurement-noise level; 0 disables noise (used by model tests).
    """

    def __init__(self, gpu: "GPUSpec | str", sigma: float = 0.03):
        self.spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.sigma = float(sigma)

    # ------------------------------------------------------------------
    def run(
        self,
        stencil: Stencil,
        oc: OC,
        setting: ParamSetting,
        grid: tuple[int, ...] | None = None,
    ) -> SimResult:
        """Simulate *stencil* under *oc*/*setting*; returns per-step timing.

        Raises
        ------
        KernelLaunchError
            When the configuration exceeds a hardware limit on this GPU.
        """
        profile = build_profile(
            stencil, oc, setting, grid=grid, warp_size=self.spec.warp_size
        )
        result = self.time_profile(profile)
        if self.sigma > 0:
            jitter = noise_factor(
                self.spec.name,
                stencil.cache_key(),
                oc.name,
                setting.as_tuple(),
                sigma=self.sigma,
            )
            result = replace(result, time_ms=result.time_ms * jitter)
        return result

    def time(self, stencil, oc, setting, grid=None) -> float:
        """Per-step time in ms for one configuration (noise included)."""
        return self.run(stencil, oc, setting, grid=grid).time_ms

    # ------------------------------------------------------------------
    def time_profile(self, profile: KernelProfile) -> SimResult:
        """Noise-free timing for a pre-built kernel profile."""
        (result,) = self.time_profiles([profile])
        if isinstance(result, Exception):
            raise result
        return result

    def time_profiles(self, profiles) -> list:
        """Noise-free timing for pre-built profiles in one array pass.

        Returns, per profile, its :class:`SimResult` or the
        :class:`KernelLaunchError` it cannot launch with.
        """
        if not profiles:
            return []
        prof = model.Profiles.stack(profiles)
        lim, valid, ph = model.evaluate(self.spec, prof)
        out = list(prof.crashes.errors)
        for k, i in enumerate(np.arange(len(profiles))[valid].tolist()):
            out[i] = SimResult(
                time_ms=ph.time_ms[k].item(),
                dram_ms=ph.dram_s[k].item() * 1e3,
                l2_ms=ph.l2_s[k].item() * 1e3,
                smem_ms=ph.smem_s[k].item() * 1e3,
                compute_ms=ph.compute_s[k].item() * 1e3,
                stream_ms=ph.stream_s[k].item() * 1e3,
                launch_ms=ph.launch_s * 1e3,
                occupancy=lim.occupancy(i),
                utilization=ph.utilization[k].item(),
                profile=profiles[i],
            )
        return out


def simulate(
    gpu: "GPUSpec | str",
    stencil: Stencil,
    oc: OC,
    setting: ParamSetting,
    sigma: float = 0.03,
) -> float:
    """One-shot convenience: per-step time in ms for a configuration."""
    return GPUSimulator(gpu, sigma=sigma).time(stencil, oc, setting)
