"""The StencilMART facade (paper Fig. 5).

One object wires the full pipeline together:

1. random stencil generation (Algorithm 1),
2. multi-GPU profiling of every OC under random parameter search,
3. PCC-based OC merging into prediction classes,
4. classifier training / cross-validation for best-OC selection (Fig. 9),
5. regressor training / cross-validation for cross-architecture execution
   time prediction (Fig. 12),
6. end-to-end tuning that applies the predicted OC (Figs. 10-11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tuning
from ..config import DEFAULT_SEED, MAX_ORDER, N_MERGED_CLASSES
from ..errors import DatasetError, NotFittedError
from ..gpu.noise import DEFAULT_SIGMA
from ..gpu.specs import GPU_ORDER
from ..ml import accuracy, mape
from ..optimizations.combos import OC, OC_BY_NAME
from ..optimizations.params import ParamSetting
from ..profiling import (
    ClassificationDataset,
    OCGrouping,
    RegressionDataset,
    build_classification_dataset,
    build_regression_dataset,
    cross_validate,
    kfold_indices,
    merge_ocs,
    run_campaign,
    stratified_kfold_indices,
)
from ..profiling.train import (
    CLASSIFIERS,
    REGRESSORS,
    fit_predictor_model,
    fit_selector_model,
    make_classifier,
    make_regressor,
    predict_requests,
    predict_rows,
    predictor_inputs,
    select_requests,
    selector_inputs,
    subsample_rows,
)
from ..stencil.generator import generate_population
from ..stencil.stencil import Stencil

__all__ = [
    "CLASSIFIERS", "REGRESSORS", "PredictorResult", "SelectorResult",
    "StencilMART", "make_classifier", "make_regressor",
]


def _selector_fold(data: dict, train: np.ndarray, test: np.ndarray) -> float:
    """One stratified-CV fold of a selection classifier (picklable)."""
    X, labels = data["X"], data["labels"]
    model = fit_selector_model(
        data["method"], X, labels, data["n_classes"], data["seed"],
        rows=train, **dict(data["hyper"]),
    )
    return accuracy(labels[test], model.predict(X[test]))


def _predictor_fold(data: dict, train: np.ndarray, test: np.ndarray) -> float:
    """One k-fold CV fold of a time predictor (picklable)."""
    method, inputs, times = data["method"], data["inputs"], data["times"]
    model = fit_predictor_model(
        method, inputs, times, data["seed"], rows=train, **dict(data["hyper"])
    )
    return mape(times[test], predict_rows(method, model, inputs, rows=test))


@dataclass
class SelectorResult:
    """Cross-validation outcome for one classification mechanism."""

    method: str
    gpu: str
    fold_accuracies: list[float]

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))


@dataclass
class PredictorResult:
    """Cross-validation outcome for one regression mechanism."""

    method: str
    gpu: str
    fold_mapes: list[float]

    @property
    def mape(self) -> float:
        return float(np.mean(self.fold_mapes))


class StencilMART:
    """Automatic optimization selection and performance prediction.

    Parameters
    ----------
    ndim:
        Stencil dimensionality for this instance (the paper trains 2-D and
        3-D models separately).
    gpus:
        GPUs profiled into the dataset.
    n_settings:
        Random parameter settings per OC during profiling.
    n_classes:
        Merged OC classes (paper: 5).
    sigma:
        Measurement-noise level of the simulated profiler.
    seed:
        Master seed; every downstream stream derives from it.
    """

    def __init__(
        self,
        ndim: int,
        gpus: "tuple[str, ...] | list[str]" = GPU_ORDER,
        n_settings: int = 8,
        n_classes: int = N_MERGED_CLASSES,
        max_order: int = MAX_ORDER,
        sigma: float = DEFAULT_SIGMA,
        seed: int = DEFAULT_SEED,
    ):
        self.ndim = int(ndim)
        self.gpus = tuple(gpus)
        self.n_settings = int(n_settings)
        self.n_classes = int(n_classes)
        self.max_order = int(max_order)
        self.sigma = float(sigma)
        self.seed = int(seed)
        self.campaign = None
        self.grouping: OCGrouping | None = None
        self._selectors: dict[tuple[str, str], object] = {}
        self._selector_reps: dict[tuple[str, str], list[str]] = {}
        self._predictors: dict[str, object] = {}

    # ------------------------------------------------------------------
    # dataset construction
    # ------------------------------------------------------------------
    def build_dataset(
        self,
        n_stencils: int = 100,
        stencils: "list[Stencil] | None" = None,
    ) -> "StencilMART":
        """Generate (or accept) a stencil population and profile it."""
        if stencils is None:
            stencils = generate_population(
                self.ndim, n_stencils, max_order=self.max_order, seed=self.seed
            )
        self.campaign = run_campaign(
            stencils,
            gpus=self.gpus,
            n_settings=self.n_settings,
            seed=self.seed,
            sigma=self.sigma,
        )
        self.grouping = merge_ocs(self.campaign, n_classes=self.n_classes)
        return self

    def _require_dataset(self):
        if self.campaign is None or self.grouping is None:
            raise NotFittedError("call build_dataset() first")

    def classification_dataset(self, gpu: str) -> ClassificationDataset:
        """The per-GPU OC-selection dataset."""
        self._require_dataset()
        return build_classification_dataset(
            self.campaign, self.grouping, gpu, self.max_order
        )

    def regression_dataset(
        self, gpus: "tuple[str, ...] | None" = None
    ) -> RegressionDataset:
        """The (optionally multi-GPU) performance-prediction dataset."""
        self._require_dataset()
        return build_regression_dataset(self.campaign, gpus, self.max_order)

    # ------------------------------------------------------------------
    # classification: OC selection
    # ------------------------------------------------------------------
    def fit_selector(self, method: str, gpu: str, **hyper) -> "StencilMART":
        """Train an OC-selection model on the full per-GPU dataset."""
        ds = self.classification_dataset(gpu)
        self._selectors[(method, gpu)] = fit_selector_model(
            method, selector_inputs(ds, method), ds.labels, self.n_classes,
            self.seed, **hyper,
        )
        return self

    def install_selector(
        self,
        method: str,
        gpu: str,
        model,
        representatives: "list[str] | None" = None,
    ) -> "StencilMART":
        """Adopt a pre-trained selection model (e.g. a serve artifact).

        *representatives* carries the merged-class decoding recorded at
        training time, so an installed model predicts without this
        instance ever profiling a campaign of its own.
        """
        self._selectors[(method, gpu)] = model
        if representatives is not None:
            self._selector_reps[(method, gpu)] = list(representatives)
        return self

    def install_predictor(self, method: str, model) -> "StencilMART":
        """Adopt a pre-trained time predictor (see :meth:`install_selector`)."""
        self._predictors[method] = model
        return self

    def predict_best_oc(self, stencil: Stencil, gpu: str, method: str = "gbdt") -> OC:
        """Predicted best OC (the representative of the predicted class)."""
        model = self._selectors.get((method, gpu))
        if model is None:
            raise NotFittedError(f"fit_selector({method!r}, {gpu!r}) first")
        [(_, name)] = select_requests(
            method, model, self._representatives(method, gpu), [stencil], gpu,
            self.max_order,
        )
        return OC_BY_NAME[name]

    def _representatives(self, method: str, gpu: str) -> "list[str]":
        """The merged-class decoding: installed with the model, else the
        grouping's."""
        reps = self._selector_reps.get((method, gpu))
        if reps is not None:
            return reps
        if self.grouping is None:
            raise NotFittedError(
                "no class representatives: build_dataset() or "
                "install_selector(..., representatives=...) first"
            )
        return self.grouping.representatives

    def evaluate_selector(
        self,
        method: str,
        gpu: str,
        n_folds: int = 5,
        workers: int = 1,
        pool_context: str = "spawn",
        **hyper,
    ) -> SelectorResult:
        """Stratified k-fold accuracy of one mechanism on one GPU (Fig. 9).

        ``workers > 1`` fits the folds concurrently on a process pool;
        every fold's model is independently seeded, so the result is
        identical for any worker count.
        """
        ds = self.classification_dataset(gpu)
        data = {
            "method": method,
            "X": selector_inputs(ds, method),
            "labels": ds.labels,
            "n_classes": self.n_classes,
            "seed": self.seed,
            "hyper": dict(hyper),
        }
        accs = cross_validate(
            _selector_fold,
            data,
            stratified_kfold_indices(ds.labels, n_folds, self.seed),
            workers=workers,
            context=pool_context,
        )
        return SelectorResult(method=method, gpu=gpu, fold_accuracies=accs)

    # ------------------------------------------------------------------
    # end-to-end tuning (Figs. 10-11)
    # ------------------------------------------------------------------
    def tune(
        self,
        stencil: Stencil,
        gpu: str,
        method: str = "gbdt",
        strategy: str = "random",
        budget: "float | None" = None,
        **strategy_options,
    ) -> tuple[OC, ParamSetting, float]:
        """Tune *stencil* on *gpu* using the predicted OC only.

        Runs the same search budget the baselines get, but spends it
        entirely on the OC the classifier selected.  Falls back to the
        next most likely class if the predicted OC cannot run at all.

        ``strategy`` picks a member of the tuning zoo (see
        :func:`repro.tuning.available_strategies`), with ``budget`` and
        ``**strategy_options`` forwarded to :func:`repro.tuning.tune`.
        The default (``"random"`` with no options) is the paper's tuner,
        the same :class:`~repro.tuning.RandomStrategy` a campaign runs.
        """
        oc = self.predict_best_oc(stencil, gpu, method)
        # The paper's tuner gets a fresh strategy per OC (strategies are
        # stateful) and no budget, which would cap its refinement.
        paper = strategy == "random" and budget is None and not strategy_options
        if budget is None and not paper:
            budget = self.n_settings

        def run_oc(oc: OC):
            result = tuning.tune(
                stencil,
                oc=oc,
                gpu=gpu,
                sigma=self.sigma,
                strategy=tuning.RandomStrategy(self.n_settings) if paper else strategy,
                budget=budget,
                seed=self.seed,
                **strategy_options,
            )
            return result if result.ok else None

        result = run_oc(oc)
        if result is None:
            for rep in self._representatives(method, gpu):
                result = run_oc(OC_BY_NAME[rep])
                if result is not None:
                    oc = OC_BY_NAME[rep]
                    break
        if result is None:
            raise DatasetError(f"no runnable OC for stencil on {gpu}")
        return oc, result.best_setting, result.best_time_ms

    # ------------------------------------------------------------------
    # regression: cross-architecture performance prediction
    # ------------------------------------------------------------------
    def fit_predictor(
        self,
        method: str,
        gpus: "tuple[str, ...] | None" = None,
        max_rows: int | None = None,
        **hyper,
    ) -> "StencilMART":
        """Train a time predictor on measurements from *gpus* (default all).

        ``max_rows`` subsamples the instance set (deterministically) to
        bound CPU-only training time at large scales.
        """
        ds = self.regression_dataset(gpus)
        self._predictors[method] = fit_predictor_model(
            method, predictor_inputs(ds, method, self.campaign), ds.times_ms,
            self.seed, rows=subsample_rows(ds.n_samples, max_rows, self.seed),
            **hyper,
        )
        return self

    def predict_time(
        self,
        stencil: Stencil,
        oc: "OC | str",
        setting: ParamSetting,
        gpu: str,
        method: str = "mlp",
    ) -> float:
        """Predicted execution time (ms) without touching the target GPU."""
        model = self._predictors.get(method)
        if model is None:
            raise NotFittedError(f"fit_predictor({method!r}) first")
        oc_name = oc if isinstance(oc, str) else oc.name
        [t] = predict_requests(
            method, model, [(stencil, oc_name, setting, gpu)], self.max_order
        )
        return float(t)

    def evaluate_predictor(
        self,
        method: str,
        gpu: str,
        n_folds: int = 5,
        max_rows: int | None = 6000,
        workers: int = 1,
        pool_context: str = "spawn",
        **hyper,
    ) -> PredictorResult:
        """K-fold MAPE of one regression mechanism on one GPU (Fig. 12).

        ``workers > 1`` runs the folds on a process pool; results are
        identical for any worker count (fold fits are independent).
        """
        ds = self.regression_dataset((gpu,))
        rows = subsample_rows(ds.n_samples, max_rows, self.seed)
        data = {
            "method": method,
            "inputs": predictor_inputs(ds, method, self.campaign),
            "times": ds.times_ms,
            "seed": self.seed,
            "hyper": dict(hyper),
        }
        folds = [
            (rows[tr_i], rows[te_i])
            for tr_i, te_i in kfold_indices(rows.shape[0], n_folds, self.seed)
        ]
        mapes = cross_validate(
            _predictor_fold, data, folds,
            workers=workers, context=pool_context,
        )
        return PredictorResult(method=method, gpu=gpu, fold_mapes=mapes)
