"""The model contract: each method's inputs, target and decoding, once.

A model *method* fixes the representation it consumes (Table II
features, the assignment tensor, tensor plus aux row, features plus
analytical columns, or raw stencils for ``analytical``), whether its
target is log-time, and how a selector's classes decode to OCs.  Two
entry shapes share those rules:

- **dataset rows**: :func:`fit_selector_model` / :func:`fit_predictor_model`
  over :func:`selector_inputs` / :func:`predictor_inputs`, optionally on
  :func:`subsample_rows`; :func:`predict_rows` answers the same inputs;
- **raw requests**: :func:`select_requests` / :func:`predict_requests`
  for a ``(method, model)`` pair, optionally through a ``FeatureCache``.

``StencilMART``, the CV folds, ``PredictionService`` and ``repro train``
(:func:`train_selector_artifact` / :func:`train_predictor_artifact`,
which wrap the model as a checksummed ``ModelArtifact`` with provenance
in ``meta``) all call these.  Callers keep their own batch shapes: neural
outputs move in the last bit between a one-row and an n-row matmul.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_SEED, MAX_ORDER, N_MERGED_CLASSES
from ..errors import ModelError
from ..ml import (
    AnalyticalPredictor,
    AnalyticalSelector,
    ConvMLPRegressor,
    ConvNetClassifier,
    FcNetClassifier,
    GBDTClassifier,
    GBRegressor,
    LogTimeTransform,
    MLPRegressor,
    augment_features,
)
from ..optimizations.combos import OC_BY_NAME
from ..stencil.features import extract_features
from ..stencil.tensorize import assign_tensor
from .dataset import (
    ClassificationDataset,
    RegressionDataset,
    analytical_feature_matrix,
    aux_row,
    build_classification_dataset,
    build_regression_dataset,
)
from .merge import merge_ocs
from .profiler import ProfileCampaign

#: Selector registry (the training-free ``analytical`` is not in it).
CLASSIFIERS = ("gbdt", "convnet", "fcnet")

#: Regressor registry.  ``hybrid`` is a GBDT regressor over the standard
#: features augmented with static analytical-perfmodel columns.
REGRESSORS = ("gbr", "mlp", "convmlp", "hybrid")

#: Methods whose stencil representation is the assignment tensor.
_TENSOR_INPUT = ("convnet", "fcnet", "convmlp")

#: Methods trained on ``log2`` times and decoded back through ``exp2``.
_LOG_TARGET = ("gbr", "hybrid")


def make_classifier(method: str, n_classes: int, seed: int, **hyper):
    """Construct a selection classifier by name.

    ``workers`` in *hyper* reaches only models that parallelize
    internally (currently GBDT); it is dropped for the rest.
    """
    method = method.lower()
    seed = hyper.pop("seed", seed)
    if method == "gbdt":
        defaults = dict(
            n_rounds=60, learning_rate=0.15, max_depth=3, subsample=0.8
        )
        defaults.update(hyper)
        return GBDTClassifier(seed=seed, **defaults)
    hyper.pop("workers", None)
    hyper.pop("pool_context", None)
    if method == "convnet":
        return ConvNetClassifier(n_classes=n_classes, seed=seed, **hyper)
    if method == "fcnet":
        return FcNetClassifier(n_classes=n_classes, seed=seed, **hyper)
    raise ModelError(f"unknown classifier {method!r}; known: {CLASSIFIERS}")


def make_regressor(method: str, seed: int, **hyper):
    """Construct a time-prediction regressor by name."""
    method = method.lower()
    seed = hyper.pop("seed", seed)
    hyper.pop("workers", None)
    hyper.pop("pool_context", None)
    if method in ("gbr", "hybrid"):
        defaults = dict(n_rounds=80, learning_rate=0.15, max_depth=5)
        defaults.update(hyper)
        return GBRegressor(seed=seed, **defaults)
    if method == "mlp":
        return MLPRegressor(seed=seed, **hyper)
    if method == "convmlp":
        return ConvMLPRegressor(seed=seed, **hyper)
    raise ModelError(f"unknown regressor {method!r}; known: {REGRESSORS}")


# ----------------------------------------------------------------------
# dataset rows
# ----------------------------------------------------------------------
def subsample_rows(n: int, max_rows: "int | None", seed: int) -> np.ndarray:
    """Sorted seeded sample of at most *max_rows* of *n* row indices."""
    if max_rows is None or n <= max_rows:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=max_rows, replace=False))


def selector_inputs(ds: ClassificationDataset, method: str) -> np.ndarray:
    """The per-stencil rows selector *method* trains on."""
    return ds.tensors if method in _TENSOR_INPUT else ds.features


def fit_selector_model(
    method: str, X: np.ndarray, labels: np.ndarray, n_classes: int,
    seed: int, rows: "np.ndarray | None" = None, **hyper,
):
    """A selector of *method* fit on ``X[rows]`` (default all rows)."""
    model = make_classifier(method, n_classes, seed, **hyper)
    if rows is not None:
        X, labels = X[rows], labels[rows]
    model.fit(X, labels)
    return model


def predictor_inputs(
    ds: RegressionDataset, method: str, campaign: ProfileCampaign
) -> "tuple[np.ndarray, ...]":
    """The row-aligned input arrays predictor *method* consumes."""
    if method == "convmlp":
        return ds.tensors, ds.aux
    if method == "hybrid":
        return (augment_features(ds.features, analytical_feature_matrix(campaign, ds)),)
    return (ds.features,)


def fit_predictor_model(
    method: str, inputs: "tuple[np.ndarray, ...]", times_ms: np.ndarray,
    seed: int, rows: "np.ndarray | None" = None, **hyper,
):
    """A predictor of *method* fit on the *rows* of *inputs* (default all)."""
    model = make_regressor(method, seed, **hyper)
    if rows is not None:
        inputs, times_ms = [a[rows] for a in inputs], times_ms[rows]
    target = LogTimeTransform.forward(times_ms) if method in _LOG_TARGET else times_ms
    model.fit(*inputs, target)
    return model


def predict_rows(
    method: str, model, inputs: "tuple[np.ndarray, ...]",
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """Predicted times (ms) for the *rows* of *inputs* (default all)."""
    if rows is not None:
        inputs = [a[rows] for a in inputs]
    pred = model.predict(*inputs)
    return LogTimeTransform.inverse(pred) if method in _LOG_TARGET else pred


# ----------------------------------------------------------------------
# raw requests
# ----------------------------------------------------------------------
def _stencil_rows(method: str, stencils, max_order: int, cache) -> np.ndarray:
    """Stacked per-stencil representation *method* consumes."""
    tensor = method in _TENSOR_INPUT
    if cache is not None:
        return cache.tensors(stencils) if tensor else cache.features(stencils)
    represent = assign_tensor if tensor else extract_features
    return np.stack([represent(s, max_order) for s in stencils])


def select_requests(
    method: str, model, representatives, stencils, gpu: str,
    max_order: int = MAX_ORDER, cache=None,
) -> "list[tuple[int, str]]":
    """``(class index, OC name)`` per stencil, one model call for all."""
    if method == "analytical":
        # Raw stencils in: the static model needs the actual source.
        # Its representatives are its candidate OC names.
        return [
            (representatives.index(name), name)
            for name in model.select_many(stencils, gpu)
        ]
    X = _stencil_rows(method, stencils, max_order, cache)
    classes = np.asarray(model.predict(X), dtype=np.int64)
    return [(int(c), representatives[int(c)]) for c in classes]


def predict_requests(
    method: str, model, requests, max_order: int = MAX_ORDER, cache=None,
) -> np.ndarray:
    """Times (ms) for ``(stencil, oc_name, setting, gpu)`` requests,
    one model call for all."""
    if method == "analytical":
        return model.predict_requests(
            [(s, OC_BY_NAME[oc], setting, gpu) for s, oc, setting, gpu in requests]
        )
    stencils = [r[0] for r in requests]
    aux = np.stack([aux_row(oc, setting, gpu) for _, oc, setting, gpu in requests])
    represented = _stencil_rows(method, stencils, max_order, cache)
    if method == "convmlp":
        return predict_rows(method, model, (represented, aux))
    X = np.concatenate([represented, aux], axis=1)
    if method == "hybrid":
        from ..analysis.perfmodel import analytical_features

        X = augment_features(X, np.stack([
            analytical_features(s, OC_BY_NAME[oc], setting, gpu)
            for s, oc, setting, gpu in requests
        ]))
    return predict_rows(method, model, (X,))


# ----------------------------------------------------------------------
# serve artifacts
# ----------------------------------------------------------------------
def _campaign_meta(campaign: ProfileCampaign) -> dict:
    return {
        "campaign_gpus": list(campaign.gpus),
        "campaign_stencils": len(campaign.stencils),
        "campaign_n_settings": campaign.n_settings,
        "campaign_seed": campaign.seed,
    }


def train_selector_artifact(
    campaign: ProfileCampaign,
    gpu: str,
    method: str = "gbdt",
    n_classes: int = N_MERGED_CLASSES,
    max_order: int = MAX_ORDER,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    **hyper,
):
    """Train an OC-selection model on *campaign* and wrap it.

    The artifact records the merged-class representative OCs, so serving
    needs neither the campaign nor the grouping -- the classifier's
    class indices decode locally.
    """
    from ..serve.artifacts import ModelArtifact

    meta = _campaign_meta(campaign)
    if method == "analytical":
        # No training: the selector ranks the campaign's OCs with the
        # static performance model, and they are its representatives.
        representatives = [oc.name for oc in campaign.ocs]
        model = AnalyticalSelector(
            candidates=tuple(representatives),
            n_settings=int(hyper.pop("n_settings", 2)),
            seed=seed,
            **hyper,
        )
        meta["train_rows"] = 0
    else:
        grouping = merge_ocs(campaign, n_classes=n_classes)
        ds = build_classification_dataset(campaign, grouping, gpu, max_order)
        hyper.setdefault("workers", workers)
        model = fit_selector_model(
            method, selector_inputs(ds, method), ds.labels, ds.n_classes,
            seed, **hyper,
        )
        representatives = list(grouping.representatives)
        meta["train_rows"] = int(ds.n_samples)
        meta["skipped_stencils"] = list(ds.skipped_stencils)
    return ModelArtifact(
        kind="selector",
        method=method,
        ndim=campaign.stencils[0].ndim,
        gpu=gpu,
        max_order=max_order,
        representatives=representatives,
        model=model,
        meta=meta,
    )


def train_predictor_artifact(
    campaign: ProfileCampaign,
    gpus: "tuple[str, ...] | None" = None,
    method: str = "gbr",
    max_order: int = MAX_ORDER,
    seed: int = DEFAULT_SEED,
    max_rows: "int | None" = None,
    **hyper,
):
    """Train a cross-architecture time predictor on *campaign*
    (``max_rows`` caps its rows through :func:`subsample_rows`)."""
    from ..serve.artifacts import ModelArtifact

    meta = _campaign_meta(campaign)
    if method == "analytical":
        # No training: the predictor estimates from generated source.
        model = AnalyticalPredictor(**hyper)
        meta["train_rows"] = 0
    else:
        ds = build_regression_dataset(campaign, gpus, max_order)
        rows = subsample_rows(ds.n_samples, max_rows, seed)
        model = fit_predictor_model(
            method, predictor_inputs(ds, method, campaign), ds.times_ms,
            seed, rows=rows, **hyper,
        )
        meta["train_rows"] = int(rows.shape[0])
    meta["train_gpus"] = list(gpus) if gpus is not None else list(campaign.gpus)
    return ModelArtifact(
        kind="predictor",
        method=method,
        ndim=campaign.stencils[0].ndim,
        gpu=None,
        max_order=max_order,
        model=model,
        meta=meta,
    )
