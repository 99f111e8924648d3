"""Profiling campaigns, random search, PCC merging and dataset assembly."""

from .crossval import cross_validate, kfold_indices, stratified_kfold_indices
from .dataset import (
    ClassificationDataset,
    RegressionDataset,
    build_classification_dataset,
    build_regression_dataset,
    oc_flags,
    regression_feature_size,
)
from .merge import (
    OCGrouping,
    merge_ocs,
    oc_time_matrix,
    pairwise_pcc,
    pcc_intersection,
    top_pairs,
)
from .profiler import ProfileCampaign, run_campaign
from .records import Measurement, OCResult, StencilProfile
from .registry import DatasetRegistry, resolve_dataset_path
from .runner import CampaignHealth, CampaignRunner, RetryPolicy, SimClock
from .search import RandomSearch
from .storage import load_campaign, save_campaign
from .train import train_predictor_artifact, train_selector_artifact

__all__ = [
    "train_predictor_artifact",
    "train_selector_artifact",
    "CampaignHealth",
    "CampaignRunner",
    "ClassificationDataset",
    "DatasetRegistry",
    "Measurement",
    "OCGrouping",
    "OCResult",
    "ProfileCampaign",
    "RandomSearch",
    "RegressionDataset",
    "RetryPolicy",
    "SimClock",
    "StencilProfile",
    "build_classification_dataset",
    "build_regression_dataset",
    "cross_validate",
    "kfold_indices",
    "load_campaign",
    "merge_ocs",
    "oc_flags",
    "oc_time_matrix",
    "pairwise_pcc",
    "pcc_intersection",
    "resolve_dataset_path",
    "run_campaign",
    "save_campaign",
    "regression_feature_size",
    "stratified_kfold_indices",
    "top_pairs",
]
