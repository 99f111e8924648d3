"""Dataset assembly for the classification and regression tasks.

Two tasks, two datasets (Section IV-A):

- **OC selection** (classification): one sample per stencil per GPU; the
  input is the Table II feature vector (GBDT / FcNet) or the assigned
  binary tensor (ConvNet); the label is the PCC-merged class of the
  stencil's best OC on that GPU.
- **Performance prediction** (regression): one sample per raw measurement;
  the input concatenates the stencil representation, the encoded parameter
  setting (log2 numerics) and the GPU hardware features; the target is the
  measured execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import MAX_ORDER
from ..errors import DatasetError
from ..gpu.specs import hardware_features
from ..optimizations.combos import OC_BY_NAME
from ..optimizations.params import N_PARAM_FEATURES
from ..stencil.features import batch_features, n_features
from ..stencil.tensorize import batch_tensors
from .merge import OCGrouping
from .profiler import ProfileCampaign

#: Number of hardware features attached to regression inputs.
N_HW_FEATURES = 4

#: One-hot style OC identity is encoded as six optimization flags.
N_OC_FEATURES = 6
_OC_FLAG_ORDER = ("ST", "BM", "CM", "RT", "PR", "TB")


def oc_flags(oc_name: str) -> np.ndarray:
    """Encode an OC as six 0/1 optimization flags (model input)."""
    oc = OC_BY_NAME[oc_name]
    return np.array(
        [1.0 if flag in {o.value for o in oc.opts} else 0.0 for flag in _OC_FLAG_ORDER]
    )


def aux_row(oc_name: str, setting, gpu: str) -> np.ndarray:
    """The non-stencil part of a regression input: OC flags, encoded
    parameter setting and GPU hardware features, in that order."""
    return np.concatenate(
        [oc_flags(oc_name), setting.encode(), np.array(hardware_features(gpu))]
    )


@dataclass
class ClassificationDataset:
    """Per-GPU OC-selection dataset.

    ``features``: ``(n, n_features)`` Table II vectors;
    ``tensors``: ``(n, (2R+1)^d)`` assigned tensors;
    ``labels``: merged-class indices;
    ``best_ocs``: the underlying raw best OC names (reports).
    """

    gpu: str
    features: np.ndarray
    tensors: np.ndarray
    labels: np.ndarray
    best_ocs: list[str]
    grouping: OCGrouping
    stencil_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    skipped_stencils: list[int] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return self.grouping.n_classes


def build_classification_dataset(
    campaign: ProfileCampaign,
    grouping: OCGrouping,
    gpu: str,
    max_order: int = MAX_ORDER,
) -> ClassificationDataset:
    """Assemble the OC-selection dataset for one GPU.

    Stencils with no valid OC result on *gpu* -- every sampled setting
    crashed, or the unit was quarantined by the fault-tolerant runner --
    carry no best-OC label, so they are excluded *explicitly*: their ids
    are recorded in ``skipped_stencils`` and ``stencil_ids`` maps each
    dataset row back to its campaign stencil.  A campaign with no
    labelable stencil at all is an error.
    """
    usable: list[int] = []
    skipped: list[int] = []
    for p in campaign.gpu_profiles(gpu):
        (usable if p.oc_results else skipped).append(p.stencil_id)
    if not usable:
        raise DatasetError(f"no stencil has a valid OC result on {gpu}")
    stencils = [campaign.stencils[i] for i in usable]
    best = [campaign.profile(gpu, i).best_oc for i in usable]
    labels = np.array([grouping.label(b) for b in best], dtype=np.int64)
    return ClassificationDataset(
        gpu=gpu,
        features=batch_features(stencils, max_order),
        tensors=batch_tensors(stencils, max_order),
        labels=labels,
        best_ocs=best,
        grouping=grouping,
        stencil_ids=np.array(usable, dtype=np.int64),
        skipped_stencils=skipped,
    )


@dataclass
class RegressionDataset:
    """Cross-architecture performance-prediction dataset.

    ``features``: ``(n, F)`` flat inputs -- stencil features, OC flags,
    encoded parameter setting, hardware features;
    ``tensors``: ``(n, (2R+1)^d)`` stencil tensors (ConvMLP branch);
    ``aux``: ``(n, F - n_stencil_features)`` the non-stencil part alone
    (the MLP branch of ConvMLP);
    ``times_ms``: measured execution times;
    ``stencil_ids`` / ``gpus``: provenance for grouped splits;
    ``ocs`` / ``settings``: the raw per-row configuration, kept so
    hybrid models can derive analytical features for each measurement.
    """

    features: np.ndarray
    tensors: np.ndarray
    aux: np.ndarray
    times_ms: np.ndarray
    stencil_ids: np.ndarray
    gpus: list[str]
    ocs: list[str] = field(default_factory=list)
    settings: list = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def regression_feature_size(max_order: int = MAX_ORDER) -> int:
    """Width of the flat regression input vector."""
    return n_features(max_order) + N_OC_FEATURES + N_PARAM_FEATURES + N_HW_FEATURES


def build_regression_dataset(
    campaign: ProfileCampaign,
    gpus: "tuple[str, ...] | list[str] | None" = None,
    max_order: int = MAX_ORDER,
) -> RegressionDataset:
    """Assemble the regression dataset from raw measurements.

    Parameters
    ----------
    campaign:
        The profiling campaign to draw measurements from.
    gpus:
        GPUs to include (default: all in the campaign).  Cross-architecture
        experiments train on some GPUs' rows and test on others' by
        filtering on ``dataset.gpus``.
    """
    use_gpus = tuple(gpus) if gpus is not None else campaign.gpus
    stencils = campaign.stencils
    sten_feats = batch_features(stencils, max_order)
    sten_tensors = batch_tensors(stencils, max_order)

    rows: list[np.ndarray] = []
    aux_rows: list[np.ndarray] = []
    tensor_rows: list[np.ndarray] = []
    times: list[float] = []
    ids: list[int] = []
    provenance: list[str] = []
    ocs: list[str] = []
    settings: list = []
    for gpu in use_gpus:
        for m in campaign.measurements(gpu):
            aux = aux_row(m.oc, m.setting, gpu)
            rows.append(np.concatenate([sten_feats[m.stencil_id], aux]))
            aux_rows.append(aux)
            tensor_rows.append(sten_tensors[m.stencil_id])
            times.append(m.time_ms)
            ids.append(m.stencil_id)
            provenance.append(gpu)
            ocs.append(m.oc)
            settings.append(m.setting)
    if not rows:
        raise DatasetError("campaign contains no measurements")
    return RegressionDataset(
        features=np.stack(rows),
        tensors=np.stack(tensor_rows),
        aux=np.stack(aux_rows),
        times_ms=np.array(times),
        stencil_ids=np.array(ids, dtype=np.int64),
        gpus=provenance,
        ocs=ocs,
        settings=settings,
    )


def analytical_feature_matrix(campaign: ProfileCampaign, ds: RegressionDataset) -> np.ndarray:
    """Per-row analytical features for a regression dataset.

    The hybrid predictor's extra columns: one static-perfmodel feature
    vector per measurement, derived from the row's raw (stencil, OC,
    setting, GPU).  Requires the dataset to carry its raw configuration
    (``ocs`` / ``settings``), which :func:`build_regression_dataset`
    always records.
    """
    from ..analysis.perfmodel import analytical_features

    if len(ds.ocs) != ds.n_samples or len(ds.settings) != ds.n_samples:
        raise DatasetError(
            "dataset lacks per-row oc/setting provenance; rebuild it with "
            "build_regression_dataset to use the hybrid method"
        )
    rows = [
        analytical_features(
            campaign.stencils[sid], OC_BY_NAME[oc], setting, gpu
        )
        for sid, oc, setting, gpu in zip(ds.stencil_ids, ds.ocs, ds.settings, ds.gpus)
    ]
    return np.array(rows, dtype=np.float64)
