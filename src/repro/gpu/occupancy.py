"""CUDA-style occupancy calculation for one kernel configuration.

Given a kernel's per-thread register count, per-block shared memory and
block size, compute how many blocks fit on one SM and the resulting warp
occupancy: standard CUDA occupancy-calculator math with register and
shared-memory allocation rounded to the vendor's granules.  A batch of
one through :func:`repro.gpu.model.limits`.
"""

from __future__ import annotations

import numpy as np

from .model import Occupancy, limits
from .specs import GPUSpec

__all__ = ["Occupancy", "compute_occupancy"]


def compute_occupancy(
    spec: GPUSpec,
    threads_per_block: int,
    regs_per_thread: int,
    smem_per_block: int,
) -> Occupancy:
    """Compute SM residency for a kernel configuration.

    Raises
    ------
    KernelLaunchError
        If the configuration cannot launch at all: block too large,
        registers per thread over the hardware limit, shared memory per
        block over the limit, or zero blocks fit on an SM.
    """
    lim = limits(
        spec,
        np.array([threads_per_block]),
        np.array([regs_per_thread]),
        np.array([smem_per_block]),
    )
    lim.crashes.raise_first()
    return lim.occupancy(0)
