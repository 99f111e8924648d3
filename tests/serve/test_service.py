"""The prediction service: model answers, degradation, telemetry.

The service's contract has three legs: (1) when an artifact is
installed, its answers are exactly what the underlying model would say
(batched or not); (2) when the artifact is missing or unreadable, the
heuristic fallback answers instead of the service failing; (3) every
request leaves a trace in the telemetry counters.
"""

import json
import threading

import numpy as np
import pytest

from repro.errors import ArtifactError, ServiceError
from repro.serve import (
    FeatureCache,
    HeuristicSelector,
    ModelRegistry,
    PredictionService,
)
from repro.serve.artifacts import ModelArtifact
from repro.serve.batching import MicroBatcher
from repro.serve.fallback import LADDER
from repro.serve.service import PredictRequest, SelectRequest, setting_from_dict
from repro.serve.telemetry import LatencyHistogram
from repro.stencil.generator import generate_population
from repro.stencil.library import get
from repro.store import checksum


@pytest.fixture()
def service(selector_artifact, predictor_artifact):
    svc = PredictionService()
    svc.install(selector_artifact, "sel@test")
    svc.install(predictor_artifact, "pred@test")
    return svc


STENCILS_2D = generate_population(2, 12, seed=33)


class TestModelPath:
    def test_select_matches_model(self, service, selector_artifact):
        cache = FeatureCache(selector_artifact.max_order)
        for s in STENCILS_2D:
            r = service.select_one(s, "V100")
            assert r.source == "model"
            assert r.artifact == "sel@test"
            x = cache.features([s])
            cls = int(selector_artifact.model.predict(x)[0])
            assert r.cls == cls
            assert r.oc == selector_artifact.representatives[cls]

    def test_batched_equals_sequential(self, service):
        reqs = [SelectRequest(s, "V100") for s in STENCILS_2D]
        batched = service.select_many(reqs)
        single = [service.select_one(s, "V100") for s in STENCILS_2D]
        assert [r.oc for r in batched] == [r.oc for r in single]
        assert [r.cls for r in batched] == [r.cls for r in single]

    def test_predict_batched_equals_sequential(self, service):
        from repro.optimizations import OC_BY_NAME, sample_setting

        rng = np.random.default_rng(1)
        reqs = [
            PredictRequest(
                s,
                oc.name,
                sample_setting(oc, s.ndim, rng),
                gpu,
            )
            for s, oc, gpu in zip(
                STENCILS_2D,
                [OC_BY_NAME["naive"], OC_BY_NAME["ST"], OC_BY_NAME["ST_RT"]] * 4,
                ["V100", "A100", "P100"] * 4,
            )
        ]
        batched = service.predict_many(reqs)
        single = [
            service.predict_one(r.stencil, r.oc, r.setting, r.gpu)
            for r in reqs
        ]
        assert batched == single
        assert all(t > 0 for t in batched)

    def test_micro_batcher_coalesces(self, selector_artifact, predictor_artifact):
        svc = PredictionService(max_wait_s=0.05)
        svc.install(selector_artifact)
        svc.install(predictor_artifact)
        results = {}
        barrier = threading.Barrier(8)

        def worker(i, s):
            barrier.wait()
            results[i] = svc.select(s, "V100")

        threads = [
            threading.Thread(target=worker, args=(i, s), daemon=True)
            for i, s in enumerate(STENCILS_2D[:8])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = [svc.select_one(s, "V100") for s in STENCILS_2D[:8]]
        for i, exp in enumerate(expected):
            assert results[i].oc == exp.oc and results[i].cls == exp.cls
        snap = svc.stats.snapshot()
        assert snap["batches"]["requests"] >= 8
        assert snap["batches"]["mean_size"] > 1.0


class TestDegradation:
    def test_no_selector_falls_back(self, service):
        s3 = get("star3d1r")
        r = service.select_one(s3, "V100")
        assert r.source == "fallback"
        assert r.artifact is None
        assert r.rung in ("analytical", "heuristic-ladder")
        snap = service.stats.snapshot()
        assert snap["fallbacks"] == 1
        assert snap["fallback_rungs"].get(r.rung) == 1

    def test_empty_service_always_falls_back(self):
        svc = PredictionService()
        r = svc.select_one(get("star2d1r"), "V100")
        assert r.source == "fallback"
        assert r.oc in svc.analytical.candidates or r.oc in LADDER

    def test_analytical_rung_answers_first(self):
        svc = PredictionService()
        for s in STENCILS_2D[:4]:
            r = svc.select_one(s, "V100")
            assert r.rung == "analytical"
            assert r.oc == svc.analytical.select(s, "V100")

    def test_heuristic_is_last_resort(self):
        class _Broken:
            name = "analytical"

            def select(self, stencil, gpu):
                raise RuntimeError("no estimate")

        svc = PredictionService(analytical=_Broken())
        h = HeuristicSelector()
        for s in STENCILS_2D[:4]:
            r = svc.select_one(s, "V100")
            assert r.rung == "heuristic-ladder"
            assert r.oc == h.select(s, "V100")
        assert svc.stats.snapshot()["fallback_rungs"] == {"heuristic-ladder": 4}

    def test_corrupt_registry_artifact_degrades(
        self, selector_artifact, tmp_path
    ):
        reg = ModelRegistry(tmp_path / "reg")
        version = reg.publish(selector_artifact, "sel")
        p = reg.path("sel", version)
        p.write_text(p.read_text()[:-40])  # truncate: invalid JSON
        svc = PredictionService(registry=reg)
        assert svc.degraded and svc.degraded[0]["artifact"] == "sel"
        r = svc.select_one(get("star2d1r"), "V100")
        assert r.source == "fallback"
        assert svc.capabilities()["degraded"] == svc.degraded

    @pytest.mark.parametrize(
        "edit,match",
        [
            pytest.param(
                lambda d: d["model"]["state"]["hyper"].update(workers=2),
                "unusable model state",
                id="removed-hyperparameter",
            ),
            pytest.param(
                lambda d: d["model"].update({"class": "RandomForest"}),
                "unusable model state",
                id="unknown-class",
            ),
            pytest.param(
                lambda d: d.update(ndim="two"), "malformed artifact",
                id="mistyped-ndim",
            ),
            pytest.param(
                lambda d: d.update(representatives=7), "malformed artifact",
                id="mistyped-representatives",
            ),
            pytest.param(
                lambda d: d.update(meta=[1]), "malformed artifact",
                id="mistyped-meta",
            ),
        ],
    )
    def test_misfit_model_state_degrades(
        self, selector_artifact, tmp_path, edit, match
    ):
        # A checksum-valid artifact whose model state its estimator no
        # longer accepts, or whose metadata has the wrong type, is
        # recorded as degraded, not raised.
        reg = ModelRegistry(tmp_path / "reg")
        version = reg.publish(selector_artifact, "sel")
        doc = selector_artifact.to_dict()
        edit(doc)
        payload = {k: v for k, v in doc.items() if k != "checksum"}
        doc["checksum"] = checksum(payload)
        reg.path("sel", version).write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match=match):
            ModelArtifact.from_dict(doc)
        svc = PredictionService(registry=reg)
        assert [d["artifact"] for d in svc.degraded] == ["sel"]
        assert svc.select_one(get("star2d1r"), "V100").source == "fallback"

    def test_healthy_registry_loads(
        self, selector_artifact, predictor_artifact, tmp_path
    ):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(selector_artifact, "sel")
        reg.publish(predictor_artifact, "pred")
        svc = PredictionService(registry=reg)
        assert not svc.degraded
        assert svc.select_one(get("star2d1r"), "V100").source == "model"
        assert svc.capabilities()["selectors"] == {"2d/V100": "sel@v000001"}

    def test_predict_without_artifact_is_an_error(self):
        svc = PredictionService()
        with pytest.raises(ServiceError, match="no 2d predictor"):
            svc.predict_one(get("star2d1r"), "ST", setting_from_dict(None), "V100")


class TestValidation:
    def test_unknown_gpu(self, service):
        with pytest.raises(ServiceError, match="unknown GPU"):
            service.select_one(get("star2d1r"), "H100")
        assert service.stats.snapshot()["errors"]["select"] == 1

    def test_unknown_oc(self, service):
        with pytest.raises(ServiceError, match="unknown OC"):
            service.predict_one(
                get("star2d1r"), "WARP", setting_from_dict(None), "V100"
            )

    def test_bad_setting_params(self):
        with pytest.raises(ServiceError, match="unknown setting parameter"):
            setting_from_dict({"block_q": 4})
        with pytest.raises(ServiceError, match="bad setting values"):
            setting_from_dict({"block_x": "wide"})

    def test_selector_artifact_without_gpu_rejected(self, predictor_artifact):
        import dataclasses

        hacked = dataclasses.replace(
            predictor_artifact, kind="selector",
            representatives=["naive"], gpu=None,
        )
        with pytest.raises(ArtifactError, match="name a GPU"):
            PredictionService().install(hacked)


class TestTelemetry:
    def test_counters_line_up(self, service):
        s = get("star2d1r")
        for _ in range(3):
            service.select_one(s, "V100")
        service.select_one(get("star3d1r"), "V100")  # fallback
        snap = service.stats.snapshot(cache_info=service.cache.info())
        assert snap["requests"]["select"] == 4
        assert snap["model_hits"] == 3
        assert snap["fallbacks"] == 1
        assert snap["latency"]["select"]["count"] == 4
        lat = snap["latency"]["select"]
        assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"]

    def test_cache_hits(self, service):
        s = get("star2d1r")
        service.select_one(s, "V100")  # miss: first sight of this stencil
        before = service.cache.info()["hits"]
        service.select_one(s, "V100")
        service.predict_one(s, "ST", setting_from_dict(None), "A100")
        info = service.cache.info()
        assert info["hits"] >= before + 2
        assert info["size"] >= 1

    def test_histogram_percentiles(self):
        h = LatencyHistogram()
        for ms in [1, 1, 1, 1, 1, 1, 1, 1, 1, 100]:
            h.record(ms / 1000.0)
        s = h.summary()
        assert s["count"] == 10
        assert s["p50_ms"] < 5
        assert s["p99_ms"] > 50
        assert s["max_ms"] >= 100

    def test_empty_histogram(self):
        s = LatencyHistogram().summary()
        assert s["count"] == 0


class TestMicroBatcher:
    def test_single_caller_passes_through(self):
        calls = []

        def batch_fn(items):
            calls.append(list(items))
            return [i * 2 for i in items]

        mb = MicroBatcher(batch_fn, max_batch=4, max_wait_s=0.001)
        assert mb.submit(21) == 42
        assert calls == [[21]]

    def test_errors_reach_every_caller(self):
        def batch_fn(items):
            raise ValueError("boom")

        mb = MicroBatcher(batch_fn, max_batch=4, max_wait_s=0.01)
        errors = []
        barrier = threading.Barrier(3)

        def worker():
            barrier.wait()
            try:
                mb.submit(1)
            except ValueError as e:
                errors.append(str(e))

        threads = [
            threading.Thread(target=worker, daemon=True) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == ["boom"] * 3
