"""The online prediction service.

Raw stencils in, answers out:

- **select**: which OC should this stencil use on this GPU?  Served by
  a selector artifact's classifier when one is installed for the
  (ndim, GPU) pair, decoded through the artifact's representative OCs;
  otherwise the fallback ladder answers -- the analytical selector
  (static perfmodel argmin) first, the heuristic ladder as the total
  last rung -- and the event is counted as a fallback attributed to
  its rung.
- **predict**: how long will this (stencil, OC, setting) run on this
  GPU?  Served by a predictor artifact (cross-architecture: the GPU is
  a model input, so one artifact covers every known GPU).

Per-stencil representation work flows through a content-keyed
:class:`FeatureCache`; batched entry points stack cached rows and make
one vectorized model call.  Concurrent single requests (the HTTP front
end) are funneled through :class:`MicroBatcher` instances onto the same
batch paths.  Every answer is counted in :class:`ServiceStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..config import MAX_ORDER
from ..errors import ArtifactError, OverloadError, ServiceError
from ..gpu.specs import ALL_GPU_ORDER
from ..ml.analytical import AnalyticalSelector
from ..optimizations.combos import OC_BY_NAME
from ..optimizations.params import PARAM_NAMES, ParamSetting
from ..profiling.train import predict_requests, select_requests
from ..stencil.stencil import Stencil
from .admission import _UNSET, AdmissionController, AdmissionPolicy
from .artifacts import ModelArtifact
from .batching import MicroBatcher
from .fallback import HeuristicSelector
from .features import FeatureCache
from .registry import ModelRegistry
from .telemetry import ServiceStats


@dataclass(frozen=True)
class SelectRequest:
    """One OC-selection query."""

    stencil: Stencil
    gpu: str


@dataclass(frozen=True)
class PredictRequest:
    """One execution-time query."""

    stencil: Stencil
    oc: str
    setting: ParamSetting
    gpu: str


@dataclass
class SelectResult:
    """Answer to a :class:`SelectRequest`."""

    oc: str
    source: str  # "model" | "fallback"
    cls: "int | None" = None
    artifact: "str | None" = None
    #: Which degradation-ladder rung answered a fallback request
    #: ("analytical" | "heuristic-ladder"); ``None`` for model answers.
    rung: "str | None" = None


@dataclass
class _Installed:
    artifact: ModelArtifact
    label: str


def _check_gpu(gpu: str) -> str:
    if gpu not in ALL_GPU_ORDER:
        raise ServiceError(
            f"unknown GPU {gpu!r}; known: {list(ALL_GPU_ORDER)}"
        )
    return gpu


def setting_from_dict(doc: "dict | None") -> ParamSetting:
    """Build a :class:`ParamSetting` from a request's JSON object."""
    if not doc:
        return ParamSetting()
    bad = sorted(set(doc) - set(PARAM_NAMES))
    if bad:
        raise ServiceError(
            f"unknown setting parameter(s) {bad}; known: {list(PARAM_NAMES)}"
        )
    try:
        return ParamSetting(**{k: int(v) for k, v in doc.items()})
    except (TypeError, ValueError) as e:
        raise ServiceError(f"bad setting values: {e}") from None


class PredictionService:
    """Serve OC selections and time predictions from model artifacts."""

    def __init__(
        self,
        registry: "ModelRegistry | None" = None,
        fallback: "HeuristicSelector | None" = None,
        analytical: "AnalyticalSelector | None" = None,
        feature_cache: "FeatureCache | None" = None,
        stats: "ServiceStats | None" = None,
        max_order: int = MAX_ORDER,
        max_batch: int = 64,
        max_wait_s: float = 0.002,
        admission: "AdmissionPolicy | None" = None,
        clock=None,
    ):
        self.stats = stats or ServiceStats()
        self.cache = feature_cache or FeatureCache(max_order)
        self.fallback = fallback or HeuristicSelector()
        self.analytical = analytical or AnalyticalSelector()
        self.max_order = int(max_order)
        self._selectors: dict[tuple[int, str], _Installed] = {}
        self._predictors: dict[int, _Installed] = {}
        self.degraded: list[dict] = []
        #: Attached by :class:`repro.serve.reload.ModelReloader`; its
        #: breaker/swap state then shows up in :meth:`stats_snapshot`.
        self.reloader = None
        self.admission = AdmissionController(
            admission or AdmissionPolicy(),
            stats=self.stats,
            clock=clock or time.monotonic,
        )
        self._select_batcher = MicroBatcher(
            self.select_many,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            on_batch=self.stats.count_batch,
            admission=self.admission,
        )
        self._predict_batcher = MicroBatcher(
            self.predict_many,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            on_batch=self.stats.count_batch,
            admission=self.admission,
        )
        if registry is not None:
            self.load_registry(registry)

    # ------------------------------------------------------------------
    # artifact installation
    # ------------------------------------------------------------------
    def install(self, artifact: ModelArtifact, label: str = "") -> None:
        """Install a loaded artifact; later installs win per slot."""
        label = label or artifact.describe()
        slot = _Installed(artifact, label)
        if artifact.kind == "selector":
            if artifact.gpu is None:
                raise ArtifactError("selector artifacts must name a GPU")
            self._selectors[(artifact.ndim, artifact.gpu)] = slot
        else:
            self._predictors[artifact.ndim] = slot

    def load_registry(self, registry: ModelRegistry) -> None:
        """Install the latest version of every artifact in *registry*.

        Unreadable artifacts (corrupt, newer format, ...) do not raise:
        the failure is recorded in :attr:`degraded` -- visible in
        ``/stats`` -- and requests that would have used the artifact
        fall back instead.  That is the degradation contract: a bad
        publish never takes the service down.
        """
        for name in registry.names():
            try:
                version = registry.latest(name)
                self.install(registry.load(name, version), f"{name}@{version}")
            except ArtifactError as e:
                self.degraded.append({"artifact": name, "error": str(e)})

    def capabilities(self) -> dict:
        """What the service can currently answer (for ``/stats``)."""
        return {
            "selectors": {
                f"{ndim}d/{gpu}": slot.label
                for (ndim, gpu), slot in sorted(self._selectors.items())
            },
            "predictors": {
                f"{ndim}d": slot.label
                for ndim, slot in sorted(self._predictors.items())
            },
            "degraded": list(self.degraded),
        }

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def _fallback_select(
        self, stencils: "list[Stencil]", gpu: str
    ) -> "list[tuple[str, str]]":
        """Degraded-path selection through the fallback ladder.

        Two rungs below the ML model: the analytical selector (static
        perfmodel argmin, no artifact needed) answers first; if its
        estimation fails for a stencil, the heuristic ladder -- total by
        construction -- answers last.  Each answer is attributed to its
        rung in the stats, so ``/stats`` shows *how* degraded traffic
        was served, not just that it was.
        """
        out: "list[tuple[str, str]]" = []
        for s in stencils:
            try:
                pick = (self.analytical.select(s, gpu), "analytical")
            except Exception:  # noqa: BLE001 - last rung must answer
                pick = (self.fallback.select(s, gpu), self.fallback.name)
            self.stats.count_fallback(rung=pick[1])
            out.append(pick)
        return out

    def select(self, stencil: Stencil, gpu: str, budget_s=_UNSET) -> SelectResult:
        """One selection, through the micro-batcher (the service's
        per-request front door).

        ``budget_s`` is this request's deadline budget: unset uses the
        admission policy default, ``None`` disables the deadline.  May
        raise :class:`~repro.errors.OverloadError` (shed, not failed).
        """
        t0 = time.perf_counter()
        try:
            result = self._select_batcher.submit(
                SelectRequest(stencil, gpu),
                deadline=self.admission.deadline_for(budget_s),
            )
        except OverloadError:
            # Sheds are overload protection working as designed; they
            # are counted by the admission controller, not as errors.
            raise
        except Exception:
            self.stats.count_error("select")
            raise
        finally:
            self.stats.observe_latency("select", time.perf_counter() - t0)
        return result

    def select_one(self, stencil: Stencil, gpu: str) -> SelectResult:
        """One selection on the unbatched path (reference/benchmark)."""
        t0 = time.perf_counter()
        try:
            result = self.select_many([SelectRequest(stencil, gpu)])[0]
        except Exception:
            self.stats.count_error("select")
            raise
        finally:
            self.stats.observe_latency("select", time.perf_counter() - t0)
        return result

    def select_many(
        self, requests: "list[SelectRequest]"
    ) -> "list[SelectResult]":
        """Vectorized selection: one model call per (ndim, GPU) group."""
        self.stats.count_request("select", len(requests))
        out: "list[SelectResult | None]" = [None] * len(requests)
        groups: dict[tuple[int, str], list[int]] = {}
        for i, r in enumerate(requests):
            _check_gpu(r.gpu)
            if r.stencil.order > self.max_order:
                raise ServiceError(
                    f"stencil order {r.stencil.order} exceeds the service "
                    f"max order {self.max_order}"
                )
            groups.setdefault((r.stencil.ndim, r.gpu), []).append(i)
        for (ndim, gpu), idxs in groups.items():
            slot = self._selectors.get((ndim, gpu))
            stencils = [requests[i].stencil for i in idxs]
            if slot is None:
                for i, (oc, rung) in zip(idxs, self._fallback_select(stencils, gpu)):
                    out[i] = SelectResult(oc=oc, source="fallback", rung=rung)
                continue
            art = slot.artifact
            try:
                picks = select_requests(
                    art.method, art.model, art.representatives, stencils, gpu,
                    cache=self.cache,
                )
            except Exception:  # noqa: BLE001 - degrade, never 500
                # A model that misbehaves at answer time (garbage
                # classes, shape drift after a bad publish, ...) is a
                # degradation, not an outage: the fallback ladder
                # answers and the failure is counted so the reloader's
                # health check can roll the artifact back.
                self.stats.count_model_failure(len(idxs))
                for i, (oc, rung) in zip(idxs, self._fallback_select(stencils, gpu)):
                    out[i] = SelectResult(oc=oc, source="fallback", rung=rung)
                continue
            self.stats.count_model_hit(len(idxs))
            for i, (cls, oc) in zip(idxs, picks):
                out[i] = SelectResult(
                    oc=oc, source="model", cls=cls, artifact=slot.label
                )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # time prediction
    # ------------------------------------------------------------------
    def predict(
        self, stencil: Stencil, oc: str, setting: ParamSetting, gpu: str,
        budget_s=_UNSET,
    ) -> float:
        """One time prediction through the micro-batcher."""
        t0 = time.perf_counter()
        try:
            result = self._predict_batcher.submit(
                PredictRequest(stencil, oc, setting, gpu),
                deadline=self.admission.deadline_for(budget_s),
            )
        except OverloadError:
            raise
        except Exception:
            self.stats.count_error("predict")
            raise
        finally:
            self.stats.observe_latency("predict", time.perf_counter() - t0)
        return result

    def predict_one(
        self, stencil: Stencil, oc: str, setting: ParamSetting, gpu: str
    ) -> float:
        """One prediction on the unbatched path (reference/benchmark)."""
        t0 = time.perf_counter()
        try:
            result = self.predict_many(
                [PredictRequest(stencil, oc, setting, gpu)]
            )[0]
        except Exception:
            self.stats.count_error("predict")
            raise
        finally:
            self.stats.observe_latency("predict", time.perf_counter() - t0)
        return result

    def predict_many(
        self, requests: "list[PredictRequest]"
    ) -> "list[float]":
        """Vectorized time prediction, one model call per ndim group."""
        self.stats.count_request("predict", len(requests))
        out = [0.0] * len(requests)
        groups: dict[int, list[int]] = {}
        for i, r in enumerate(requests):
            _check_gpu(r.gpu)
            if r.oc not in OC_BY_NAME:
                raise ServiceError(
                    f"unknown OC {r.oc!r}; known: {sorted(OC_BY_NAME)}"
                )
            groups.setdefault(r.stencil.ndim, []).append(i)
        for ndim, idxs in groups.items():
            slot = self._predictors.get(ndim)
            if slot is None:
                raise ServiceError(
                    f"no {ndim}d predictor artifact installed "
                    f"(capabilities: {self.capabilities()['predictors']})"
                )
            art = slot.artifact
            sub = [requests[i] for i in idxs]
            times = predict_requests(
                art.method,
                art.model,
                [(r.stencil, r.oc, r.setting, r.gpu) for r in sub],
                cache=self.cache,
            )
            self.stats.count_model_hit(len(idxs))
            for i, t in zip(idxs, times):
                out[i] = float(t)
        return out

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` body: alive, but possibly ``overloaded``.

        ``status`` degrades to ``"overloaded"`` once the admission
        queue crosses its threshold -- before requests are hard-shed --
        so load balancers see trouble coming while the service still
        answers.
        """
        adm = self.admission.snapshot()
        return {
            "ok": True,
            "status": adm["status"],
            "queue_depth": adm["queue_depth"],
        }

    def stats_snapshot(self) -> dict:
        """Counters + capabilities, the ``/stats`` response body."""
        doc = self.stats.snapshot(cache_info=self.cache.info())
        doc["capabilities"] = self.capabilities()
        doc["admission"] = self.admission.snapshot()
        if self.reloader is not None:
            doc["reload"] = self.reloader.snapshot()
        return doc
