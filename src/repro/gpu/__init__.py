"""Simulated GPU substrate (Tables III/IV plus the timing model)."""

from .faults import FaultConfig, is_valid_time
from .noise import noise_factor
from .occupancy import Occupancy, compute_occupancy
from .simulator import GPUSimulator, SimResult, simulate
from .specs import (
    ALL_GPU_ORDER,
    AMD_GPU_ORDER,
    GPU_ORDER,
    GPUS,
    HARDWARE_FEATURE_NAMES,
    MACHINES,
    RENTAL_GPUS,
    GPUSpec,
    MachineSpec,
    get_gpu,
    hardware_features,
)
from .vendor import VENDOR_INFO, Vendor, VendorInfo, vendor_info

__all__ = [
    "ALL_GPU_ORDER",
    "AMD_GPU_ORDER",
    "FaultConfig",
    "GPU_ORDER",
    "GPUS",
    "GPUSimulator",
    "GPUSpec",
    "HARDWARE_FEATURE_NAMES",
    "MACHINES",
    "MachineSpec",
    "Occupancy",
    "RENTAL_GPUS",
    "SimResult",
    "VENDOR_INFO",
    "Vendor",
    "VendorInfo",
    "compute_occupancy",
    "get_gpu",
    "hardware_features",
    "is_valid_time",
    "noise_factor",
    "simulate",
    "vendor_info",
]
