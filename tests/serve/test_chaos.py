"""The chaos harness end to end, on the shared session artifacts.

One quick scripted run covers the whole robustness story: overload
sheds with 503-class errors only, the breaker opens on corrupt
publishes and pins the last good model, the hot swap lands under live
traffic with zero failures, and the poisoned model rolls back.
"""

import copy

import pytest

from repro.errors import ArtifactError
from tools import serve_chaos
from tools.serve_chaos import (
    ChaosConfig,
    ChaosRegistry,
    chaos_passed,
    run_chaos,
)


@pytest.fixture(scope="module")
def report(tmp_path_factory, selector_artifact, predictor_artifact):
    cfg = ChaosConfig.make(quick=True, seed=13)
    workdir = tmp_path_factory.mktemp("chaos")
    return run_chaos(selector_artifact, predictor_artifact, cfg, workdir)


class TestChaosRegistry:
    def test_corrupt_publish_fails_load(self, tmp_path, selector_artifact):
        reg = ChaosRegistry(tmp_path / "models")
        reg.publish(selector_artifact, "sel")
        v = reg.publish_corrupt("sel")
        assert reg.latest("sel") == v  # the tag moved...
        with pytest.raises(ArtifactError):  # ...but the load fails closed
            reg.load("sel")

    def test_tear_latest_breaks_reads(self, tmp_path, selector_artifact):
        reg = ChaosRegistry(tmp_path / "models")
        reg.publish(selector_artifact, "sel")
        reg.tear_latest("sel")
        with pytest.raises(ArtifactError, match="torn tag"):
            reg.latest("sel")

    def test_load_delay_injection(self, tmp_path, selector_artifact):
        import time

        reg = ChaosRegistry(tmp_path / "models")
        reg.publish(selector_artifact, "sel")
        reg.load_delay_s = 0.05
        t0 = time.perf_counter()
        reg.load("sel")
        assert time.perf_counter() - t0 >= 0.05


class TestScenario:
    def test_all_invariants_hold(self, report):
        assert chaos_passed(report) == []

    def test_zero_non_503_errors(self, report):
        assert report["non_503_errors"] == 0
        assert report["availability_excluding_shed"] == 1.0

    def test_overload_shed_something(self, report):
        t = report["totals"]
        assert t["shed"] + t["deadline"] >= 1
        assert report["p99_under_overload_ms"] > 0

    def test_breaker_story(self, report):
        b = report["breaker"]
        assert b["opened"] and b["pinned_last_good"] and b["recovered"]
        assert b["final_state"] == "closed"

    def test_rollback_happened(self, report):
        assert report["reload"]["rollbacks"] >= 1
        assert report["reload"]["rejected"]  # the bad version stays out

    def test_swap_had_zero_failures(self, report):
        assert report["zero_failed_during_swap"] is True
        swap = report["phases"]["swap"]
        assert swap["error"] == 0 and swap["client_error"] == 0
        assert any(
            e["phase"] == "swap" and e["action"] == "swapped"
            for e in report["events"]
        )

    def test_feature_cache_stressed(self, report):
        # Many distinct stencils flowed through: the cache grew well
        # past a handful of entries.
        cache = report["stats"]["feature_cache"]
        assert cache["size"] >= report["config"]["n_stencils"]


class TestMain:
    """``main()`` exits 1 on any violated invariant, 0 when all hold."""

    def run_main(self, monkeypatch, fed, *argv):
        monkeypatch.setattr(
            serve_chaos, "train_bench_artifacts", lambda quick, seed: (None, None)
        )
        monkeypatch.setattr(
            serve_chaos, "run_chaos", lambda sel, pred, cfg, workdir: fed
        )
        return serve_chaos.main(["--quick", *argv])

    def test_clean_report_exits_0(self, monkeypatch, tmp_path, capsys, report):
        out_path = tmp_path / "r.json"
        rc = self.run_main(monkeypatch, report, "--report", str(out_path))
        out, err = capsys.readouterr()
        assert rc == 0
        assert "all robustness invariants held" in out
        assert "FAIL:" not in err
        assert out_path.exists()

    def test_violated_invariants_exit_1(self, monkeypatch, capsys, report):
        bad = copy.deepcopy(report)
        bad["non_503_errors"] = 3
        bad["breaker"]["opened"] = False
        rc = self.run_main(monkeypatch, bad)
        out, err = capsys.readouterr()
        assert rc == 1
        fails = [line for line in err.splitlines() if line.startswith("FAIL: ")]
        assert fails == [f"FAIL: {p}" for p in chaos_passed(bad)]
        assert len(fails) == 2
        assert "all robustness invariants held" not in out
