"""The StencilMART framework: selection, prediction and GPU choice."""

from .cost import CaseStudyResult, RentalAdvisor
from .framework import (
    CLASSIFIERS,
    REGRESSORS,
    PredictorResult,
    SelectorResult,
    StencilMART,
)
from .prediction import (
    CrossGPUInstance,
    build_cross_gpu_instances,
    ground_truth_shares,
)

__all__ = [
    "CLASSIFIERS",
    "CaseStudyResult",
    "CrossGPUInstance",
    "PredictorResult",
    "REGRESSORS",
    "RentalAdvisor",
    "SelectorResult",
    "StencilMART",
    "build_cross_gpu_instances",
    "ground_truth_shares",
]
