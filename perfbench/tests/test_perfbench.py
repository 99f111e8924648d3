"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.common import ensure_src_on_path, quantile, scratch_dir  # noqa: E402
from perfbench.tracing import Tracer, layer_self, self_times, summarize  # noqa: E402

ensure_src_on_path()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        ("a.root", 0.0, 10.0, None),
        ("b.child", 1.0, 3.0, 0),
        ("b.child", 5.0, 6.0, 0),
        ("c.grandchild", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_self_time_merges_overlapping_children_and_clips():
    # Children on other threads may overlap each other or outlive the
    # parent; covered time is the union, clipped to the parent.
    spans = [
        ("a.root", 0.0, 10.0, None),
        ("b.x", 2.0, 6.0, 0),
        ("b.y", 4.0, 8.0, 0),
        ("b.z", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_sums_to_root_duration():
    spans = [
        ("profiling.run", 0.0, 4.0, None),
        ("tuning.tune", 0.5, 3.5, 0),
        ("engine.batch", 1.0, 3.0, 1),
    ]
    own = layer_self(summarize(spans))
    assert own["profiling"] == pytest.approx(1.0)
    assert own["tuning"] == pytest.approx(1.0)
    assert own["engine"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(4.0)


def test_tracer_records_nesting():
    tracer = Tracer()
    with tracer.span("a.outer"):
        with tracer.span("b.inner"):
            pass
    (outer, _, _, p0), (inner, _, _, p1) = tracer.spans
    assert (outer, p0, inner, p1) == ("a.outer", None, "b.inner", 0)
    table = tracer.summary()
    assert table["a.outer"]["total_s"] >= table["b.inner"]["total_s"]


# ----------------------------------------------------------------------
# quantiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 7, 100, 1201])
def test_quantile_matches_numpy_percentile(n):
    rng = np.random.default_rng(n)
    xs = rng.lognormal(size=n)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert quantile(xs, q) == pytest.approx(np.percentile(xs, q * 100), rel=1e-12)


# ----------------------------------------------------------------------
# speed scaling
# ----------------------------------------------------------------------
def test_rounds_probes_around_every_operation():
    from perfbench.harness import rounds

    probes: list = []
    order = list(rounds(0.0, 3, probes))
    assert order == [0, 1, 2, 0, 1, 2]
    assert len(probes) == len(order) + 1 and all(p > 0 for p in probes)


def test_report_ops_scales_each_repetition_by_its_own_probes():
    from perfbench.common import Result
    from perfbench.harness import REFERENCE_PROBE_S, report_ops

    r = REFERENCE_PROBE_S
    # Run order: op0, op1, op0, op1, then the closing probe.
    probes = [r, r, 2 * r, 2 * r, 2 * r]
    result = Result("x", 0, False)
    report_ops(result, [[1.0, 2.0], [3.0, 6.0]], work=7.0, probes=probes)
    # op0: 1.0 at speed 1, 2.0 at speed 2 -> 1.0; op1: 3.0 at 1.5, 6.0 at 2 -> 2.5.
    assert result.metrics["wall_s"]["value"] == pytest.approx(3.5)
    assert result.metrics["max_rps"]["value"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# traced campaign = untraced campaign
# ----------------------------------------------------------------------
def test_traced_campaign_digest_equals_untraced():
    from perfbench import wl_campaign

    tracer = Tracer()
    with scratch_dir("test-") as workdir:
        _, _, plain, _ = wl_campaign.one_pass(3, 0, workdir, "u", count=1)
        with wl_campaign.traced_campaign(tracer):
            _, _, traced, _ = wl_campaign.one_pass(3, 0, workdir, "t", tracer, count=1)
    assert plain == traced
    assert tracer.counters["engine.calls"] > 0
    assert "tuning.tune_oc" in tracer.summary()


# ----------------------------------------------------------------------
# quick end-to-end pass of every workload
# ----------------------------------------------------------------------
def _shrink(monkeypatch, workload):
    from perfbench import wl_analytical, wl_campaign, wl_serve, wl_train

    if workload == "campaign":
        monkeypatch.setattr(wl_campaign, "COUNT", 1)
    elif workload == "train":
        monkeypatch.setattr(wl_train, "COUNT", 2)
        monkeypatch.setattr(wl_train, "MAX_ROWS", 200)
        monkeypatch.setattr(wl_train, "SETUP_REPS", 1)
    elif workload == "serve":
        monkeypatch.setattr(wl_train, "COUNT", 2)
        monkeypatch.setattr(wl_train, "MAX_ROWS", 200)
        monkeypatch.setattr(wl_serve, "SETUP_REPS", 1)
        monkeypatch.setattr(wl_serve, "REF_SAMPLES", 60)
        monkeypatch.setattr(wl_serve, "WARMUP_REQUESTS", 5)
        monkeypatch.setattr(wl_serve, "LIGHT_REQUESTS", 10)
        monkeypatch.setattr(wl_serve, "LADDER_MAX_RATE", 160.0)
        monkeypatch.setattr(wl_serve, "LADDER_STEP_S", 0.5)
        monkeypatch.setattr(wl_serve, "BURST_REQUESTS", 20)
    elif workload == "analytical":
        monkeypatch.setattr(wl_analytical, "SHAPES", ((1, 3, 9),))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["campaign", "train", "serve", "analytical"])
def test_quick_workload_run(monkeypatch, capsys, workload, trace):
    from perfbench import run

    _shrink(monkeypatch, workload)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    specs = run.metric_specs(bool(trace))
    assert [s["name"] for s in specs] == list(last["metrics"])
    for spec in specs:
        assert last["metrics"][spec["name"]]["unit"] == spec["unit"]
    record = json.loads(lines[-2])
    assert record["host"]["nproc"] >= 1 and record["seed"] == 5
