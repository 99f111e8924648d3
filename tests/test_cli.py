"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import CLASSIFIERS, REGRESSORS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "--ndim", "2", "--count", "3"])
        assert args.command == "generate" and args.ndim == 2

    def test_unknown_gpu_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["select", "--campaign", "x", "--stencil", "s", "--gpu", "H100"]
            )


class TestCommands:
    def test_generate(self, capsys):
        assert main(["generate", "--ndim", "2", "--count", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("rand2d-") == 4
        assert "order=" in out

    def test_profile_select_predict_round_trip(self, tmp_path, capsys):
        campaign = tmp_path / "c.json"
        rc = main(
            [
                "profile", "--ndim", "2", "--count", "6", "--gpus", "V100",
                "--n-settings", "3", "-o", str(campaign), "--seed", "2",
            ]
        )
        assert rc == 0
        assert campaign.exists()

        rc = main(
            [
                "select", "--campaign", str(campaign), "--stencil", "star2d1r",
                "--gpu", "V100", "--seed", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted best OC" in out and "ms/step" in out

        rc = main(
            [
                "predict", "--campaign", str(campaign), "--stencil", "star2d1r",
                "--oc", "ST_RT", "--gpu", "V100", "--seed", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "simulated" in out

    def test_profile_with_workers_matches_sequential(self, tmp_path, capsys):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        args = [
            "profile", "--ndim", "2", "--count", "4", "--gpus", "V100",
            "--n-settings", "2", "--seed", "4",
        ]
        assert main(args + ["-o", str(seq)]) == 0
        assert main(args + ["-o", str(par), "--workers", "2"]) == 0
        capsys.readouterr()
        import json

        a, b = json.loads(seq.read_text()), json.loads(par.read_text())
        assert a == b

    def test_evaluate_select(self, tmp_path, capsys):
        campaign = tmp_path / "c.json"
        main(
            [
                "profile", "--ndim", "2", "--count", "8", "--gpus", "V100",
                "--n-settings", "3", "-o", str(campaign), "--seed", "5",
            ]
        )
        capsys.readouterr()
        rc = main(
            [
                "evaluate", "--campaign", str(campaign), "--gpu", "V100",
                "--folds", "3", "--seed", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "select/gbdt on V100" in out
        assert "mean accuracy:" in out

    def test_tune_trials_lists_every_observed_trial(self, capsys):
        from repro.optimizations import OC
        from repro.stencil import get
        from repro.tuning import tune

        rc = main([
            "tune", "--stencil", "star2d2r", "--oc", "ST_RT", "--gpu", "V100",
            "--strategy", "coordinate", "--budget", "8", "--seed", "5",
            "--trials",
        ])
        assert rc == 0
        *trials, header, summary = capsys.readouterr().out.splitlines()
        result = tune(
            get("star2d2r"), oc=OC.parse("ST_RT"), gpu="V100",
            strategy="coordinate", budget=8, seed=5,
        )
        assert len(trials) == len(result.trial_log) == result.trials
        for i, (line, rec) in enumerate(zip(trials, result.trial_log)):
            # index, time (or crash), setting -- and no other column
            index, rest = line.split("]", 1)
            time_col, setting = rest.split("{", 1)
            assert index == f"  [{i:4d}"
            assert time_col.strip() == (
                "crash" if rec.crashed else f"{rec.time_ms:.4f} ms"
            )
            assert "{" + setting == str(dict(rec.setting))
        assert header == "star2d2r / ST_RT on V100:"
        assert summary == f"  {result.describe()}"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["profile", "--ndim", "2", "--count", "2", "--gpus", "V100",
              "--n-settings", "0"], "profile: n_settings must be >= 1, got 0"),
            (["evaluate", "--gpu", "V100", "--ndim", "2", "--count", "2",
              "--n-settings", "0"], "evaluate: n_settings must be >= 1, got 0"),
            (["tune", "--stencil", "star2d1r", "--oc", "ST", "--gpu", "V100",
              "--budget", "0.5"],
             "tune: random search needs n_settings >= 1, got 0"),
        ],
        ids=["profile", "evaluate", "tune"],
    )
    def test_nothing_to_measure_exits_2(self, tmp_path, capsys, argv, error):
        rc = main(argv + (["-o", str(tmp_path / "c.json")]
                          if argv[0] == "profile" else []))
        assert rc == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()


class TestFailClosed:
    """Bad input exits 2 with a one-line message naming the bad value,
    before any campaign loads, model trains or file is written."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fail_closed") / "c.json"
        assert main(
            ["profile", "--ndim", "2", "--count", "4", "--gpus", "V100",
             "--n-settings", "2", "-o", str(path), "--seed", "3"]
        ) == 0
        return str(path)

    @pytest.fixture(scope="class")
    def baselines(self, tmp_path_factory):
        """A garbled and a wrong-version lint baseline, outside the
        directory the command runs in."""
        d = tmp_path_factory.mktemp("baselines")
        (d / "garbled.json").write_text('{"version": 1, "fingerpr')
        (d / "v99.json").write_text('{"version": 99, "fingerprints": []}')
        return str(d)

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["codegen", "--stencil", "nope", "-o", "gen"], "nope"),
            (["tune", "--stencil", "nope", "--oc", "ST", "--gpu", "V100"],
             "nope"),
            (["estimate", "--stencil", "nope"], "nope"),
            (["lint", "--stencil", "nope"], "nope"),
            (["select", "--campaign", "{c}", "--stencil", "nope",
              "--gpu", "V100"], "nope"),
            (["profile", "--ndim", "2", "--count", "2", "--gpus", "NOPE",
              "-o", "out.json"], "NOPE"),
            (["profile", "--ndim", "2", "--count", "2", "--gpus", "V100",
              "--fault-rate", "1.5", "-o", "out.json"], "1.5"),
            (["profile", "--ndim", "2", "--count", "2", "--gpus", "V100",
              "--workers", "-3", "-o", "out.json"], "-3"),
            (["codegen", "--stencil", "star2d1r", "--set", "block_x=abc",
              "-o", "gen"], "block_x=abc"),
            (["select", "--campaign", "missing.json", "--stencil",
              "star2d1r", "--gpu", "V100"], "missing.json"),
            (["evaluate", "--campaign", "{c}", "--gpu", "A100"], "A100"),
            (["train", "--campaign", "{c}", "--gpu", "V100", "--method",
              "bogus", "--out", "out.json"], "bogus"),
            (["tune", "--stencil", "star2d1r", "--oc", "WARP",
              "--gpu", "V100"], "WARP"),
            (["predict", "--campaign", "{c}", "--stencil", "star2d1r",
              "--oc", "WARP", "--gpu", "V100"], "WARP"),
            (["codegen", "--stencil", "star2d1r", "--oc", "WARP",
              "-o", "gen"], "WARP"),
            (["lint", "--oc", "WARP"], "WARP"),
            (["estimate", "--stencil", "star2d1r", "--oc", "WARP"], "WARP"),
            (["profile", "--ndim", "2", "--count", "2", "--gpus", "V100",
              "--workers", "2", "--chunk-size", "-1", "-o", "out.json"], "-1"),
            (["profile", "--ndim", "2", "--count", "2", "--gpus", "V100",
              "--chunk-size", "0", "-o", "out.json"], "0"),
            (["lint", "--stencil", "star2d1r", "--baseline", "missing.json"],
             "missing.json"),
            (["lint", "--stencil", "star2d1r", "--baseline",
              "{b}/garbled.json"], "garbled.json"),
            (["lint", "--stencil", "star2d1r", "--baseline", "{b}/v99.json"],
             "version 99"),
        ],
        ids=[
            "codegen-stencil", "tune-stencil", "estimate-stencil",
            "lint-stencil", "select-stencil", "profile-gpus",
            "profile-fault-rate", "profile-workers", "codegen-set",
            "select-missing-campaign", "evaluate-gpu-not-in-campaign",
            "train-method", "tune-oc", "predict-oc", "codegen-oc",
            "lint-oc", "estimate-oc", "profile-chunk-size-negative",
            "profile-chunk-size-zero", "lint-baseline-missing",
            "lint-baseline-garbled", "lint-baseline-version",
        ],
    )
    def test_bad_input_exits_2(
        self, campaign, baselines, tmp_path, monkeypatch, capsys, argv, bad
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(
            [a.replace("{c}", campaign).replace("{b}", baselines) for a in argv]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert bad in err
        if bad == "WARP":
            assert f"unknown OC {bad!r}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--campaign", "{c}", "--stencil", "star2d1r",
             "--oc", "WARP", "--gpu", "V100"],
            ["select", "--campaign", "{c}", "--stencil", "nope",
             "--gpu", "V100"],
        ],
        ids=["predict-oc", "select-stencil"],
    )
    def test_no_training_before_validation(
        self, campaign, monkeypatch, capsys, argv
    ):
        from repro.core import StencilMART

        def no_fit(*args, **kwargs):
            raise AssertionError("trained before validating the input")

        monkeypatch.setattr(StencilMART, "fit_predictor", no_fit)
        monkeypatch.setattr(StencilMART, "fit_selector", no_fit)
        assert main([a.replace("{c}", campaign) for a in argv]) == 2
        capsys.readouterr()


class TestModelRoundTrip:
    """Every method's artifact answers through the CLI: ``train --out``
    then ``select --model`` / ``predict --model`` exits 0."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("round_trip") / "c.json"
        assert main(
            ["profile", "--ndim", "2", "--count", "4", "--gpus", "V100",
             "--n-settings", "2", "-o", str(path), "--seed", "3"]
        ) == 0
        return str(path)

    @pytest.mark.parametrize(
        "task, method",
        [("select", m) for m in (*CLASSIFIERS, "analytical")]
        + [("predict", m) for m in (*REGRESSORS, "analytical")],
    )
    def test_train_then_answer(self, campaign, tmp_path, capsys, task, method):
        model = str(tmp_path / "model.json")
        assert main(
            ["train", "--campaign", campaign, "--task", task, "--method",
             method, "--gpu", "V100", "--out", model]
        ) == 0
        query = [task, "--model", model, "--stencil", "star2d1r", "--gpu", "V100"]
        if task == "predict":
            query += ["--oc", "ST"]
        assert main(query) == 0
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        assert ("predicted best OC" if task == "select" else "predicted") in out.out


class TestServeCommands:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve_cli") / "c.json"
        rc = main(
            [
                "profile", "--ndim", "2", "--count", "6", "--gpus", "V100",
                "A100", "--n-settings", "3",
                "-o", str(path), "--seed", "9",
            ]
        )
        assert rc == 0
        return path

    def test_train_out_and_registry(self, campaign, tmp_path, capsys):
        out = tmp_path / "sel.json"
        reg = tmp_path / "reg"
        rc = main(
            [
                "train", "--campaign", str(campaign), "--task", "select",
                "--gpu", "V100", "--out", str(out), "--registry", str(reg),
                "--seed", "9",
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert out.exists()
        assert "published select-gbdt-V100-2d@v000001" in stdout
        assert (reg / "select-gbdt-V100-2d" / "v000001.json").exists()
        assert (reg / "select-gbdt-V100-2d" / "LATEST").read_text().strip() == (
            "v000001"
        )

    def test_train_select_needs_gpu(self, campaign, capsys):
        rc = main(
            ["train", "--campaign", str(campaign), "--task", "select",
             "--out", "x.json"]
        )
        assert rc == 2
        assert "requires --gpu" in capsys.readouterr().err

    def test_train_needs_destination(self, campaign, capsys):
        rc = main(["train", "--campaign", str(campaign), "--gpu", "V100"])
        assert rc == 2
        assert "--out and/or --registry" in capsys.readouterr().err

    def test_select_with_model_matches_retrain(self, campaign, tmp_path, capsys):
        """--model must reproduce what retraining on the campaign says
        (same model, so same selection), without fitting anything."""
        out = tmp_path / "sel.json"
        assert main(
            ["train", "--campaign", str(campaign), "--task", "select",
             "--gpu", "V100", "--out", str(out), "--seed", "9"]
        ) == 0
        capsys.readouterr()
        base = [
            "select", "--campaign", str(campaign), "--stencil", "star2d1r",
            "--gpu", "V100", "--seed", "9",
        ]
        assert main(base) == 0
        retrained = capsys.readouterr().out
        assert main(base + ["--model", str(out)]) == 0
        from_artifact = capsys.readouterr().out
        assert retrained == from_artifact

    def test_select_with_model_needs_no_campaign(
        self, campaign, tmp_path, capsys
    ):
        """An artifact carries ndim/max_order/representatives, so select
        runs without any campaign; the prediction matches the
        campaign-backed run (the tuning budget may differ: the campaign's
        n_settings vs the framework default)."""
        out = tmp_path / "sel.json"
        assert main(
            ["train", "--campaign", str(campaign), "--task", "select",
             "--gpu", "V100", "--out", str(out), "--seed", "9"]
        ) == 0
        capsys.readouterr()
        tail = ["--stencil", "star2d1r", "--gpu", "V100", "--seed", "9",
                "--model", str(out)]
        assert main(["select", "--campaign", str(campaign)] + tail) == 0
        with_campaign = capsys.readouterr().out
        assert main(["select"] + tail) == 0
        campaign_free = capsys.readouterr().out
        assert campaign_free.splitlines()[0] == with_campaign.splitlines()[0]
        assert "predicted best OC" in campaign_free

    def test_select_needs_campaign_or_model(self, capsys):
        rc = main(["select", "--stencil", "star2d1r", "--gpu", "V100"])
        assert rc == 2
        assert "--campaign and/or --model" in capsys.readouterr().err

    def test_select_model_gpu_mismatch(self, campaign, tmp_path, capsys):
        out = tmp_path / "sel.json"
        main(
            ["train", "--campaign", str(campaign), "--task", "select",
             "--gpu", "V100", "--out", str(out), "--seed", "9"]
        )
        capsys.readouterr()
        rc = main(
            ["select", "--campaign", str(campaign), "--stencil", "star2d1r",
             "--gpu", "A100", "--model", str(out), "--seed", "9"]
        )
        assert rc == 2
        assert "trained for 2d/V100" in capsys.readouterr().err

    def test_select_model_wrong_kind(self, campaign, tmp_path, capsys):
        out = tmp_path / "pred.json"
        main(
            ["train", "--campaign", str(campaign), "--task", "predict",
             "--out", str(out), "--seed", "9"]
        )
        capsys.readouterr()
        rc = main(
            ["select", "--campaign", str(campaign), "--stencil", "star2d1r",
             "--gpu", "V100", "--model", str(out), "--seed", "9"]
        )
        assert rc == 2
        assert "is a predictor, expected a selector" in capsys.readouterr().err

    def test_predict_with_model_needs_no_campaign(
        self, campaign, tmp_path, capsys
    ):
        out = tmp_path / "pred.json"
        main(
            ["train", "--campaign", str(campaign), "--task", "predict",
             "--out", str(out), "--seed", "9"]
        )
        capsys.readouterr()
        rc = main(
            ["predict", "--stencil", "star2d1r", "--oc", "ST_RT",
             "--gpu", "A100", "--model", str(out), "--seed", "9"]
        )
        assert rc == 0
        assert "predicted" in capsys.readouterr().out

    def test_predict_needs_campaign_or_model(self, capsys):
        rc = main(
            ["predict", "--stencil", "star2d1r", "--oc", "ST", "--gpu", "V100"]
        )
        assert rc == 2
        assert "--campaign and/or --model" in capsys.readouterr().err

    def test_corrupt_model_rejected(self, campaign, tmp_path, capsys):
        out = tmp_path / "sel.json"
        main(
            ["train", "--campaign", str(campaign), "--task", "select",
             "--gpu", "V100", "--out", str(out), "--seed", "9"]
        )
        out.write_text(out.read_text()[:-30])
        capsys.readouterr()
        rc = main(
            ["select", "--campaign", str(campaign), "--stencil", "star2d1r",
             "--gpu", "V100", "--model", str(out), "--seed", "9"]
        )
        assert rc == 2
        assert "cannot use --model" in capsys.readouterr().err

    def test_query_against_live_server(self, campaign, tmp_path, capsys):
        import threading

        from repro.serve import ModelRegistry, PredictionService
        from repro.serve.http import make_server

        reg = tmp_path / "reg"
        main(
            ["train", "--campaign", str(campaign), "--task", "select",
             "--gpu", "V100", "--registry", str(reg), "--seed", "9"]
        )
        main(
            ["train", "--campaign", str(campaign), "--task", "predict",
             "--registry", str(reg), "--seed", "9"]
        )
        capsys.readouterr()
        service = PredictionService(registry=ModelRegistry(reg))
        server = make_server(service)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://{host}:{port}"
        try:
            rc = main(
                ["query", "--url", url, "--stencil", "star2d1r",
                 "--gpu", "V100"]
            )
            assert rc == 0
            assert "best OC for star2d1r" in capsys.readouterr().out

            rc = main(
                ["query", "--url", url, "--stencil", "star2d1r",
                 "--gpu", "A100", "--oc", "ST", "--set", "block_x=64"]
            )
            assert rc == 0
            assert "ms/step (predicted)" in capsys.readouterr().out

            # The naive OC has no opts (len 0) but still asks /v1/predict.
            rc = main(
                ["query", "--url", url, "--stencil", "star2d1r",
                 "--gpu", "A100", "--oc", "naive"]
            )
            assert rc == 0
            assert "star2d1r under naive" in capsys.readouterr().out

            rc = main(["query", "--url", url, "--stats"])
            assert rc == 0
            import json

            stats = json.loads(capsys.readouterr().out)
            assert stats["requests"]["select"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_query_needs_target(self, capsys):
        rc = main(["query", "--url", "http://127.0.0.1:1"])
        assert rc == 2
        assert "--stats" in capsys.readouterr().err

    def test_query_unreachable_server(self, capsys):
        rc = main(
            ["query", "--url", "http://127.0.0.1:9", "--stencil",
             "star2d1r", "--gpu", "V100"]
        )
        assert rc == 1
        assert "query failed" in capsys.readouterr().err


class TestEvaluateParity:
    def test_evaluate_without_campaign_profiles_on_the_fly(self, capsys):
        rc = main(
            [
                "evaluate", "--task", "select", "--gpu", "V100", "--ndim",
                "2", "--count", "6", "--n-settings", "3",
                "--folds", "2", "--seed", "6",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "select/gbdt on V100" in out and "mean accuracy" in out

    def test_evaluate_without_campaign_needs_ndim(self, capsys):
        rc = main(["evaluate", "--gpu", "V100"])
        assert rc == 2
        assert "--ndim is required" in capsys.readouterr().err

    def test_parser_accepts_parity_flags(self):
        args = build_parser().parse_args(
            ["evaluate", "--gpu", "V100", "--ndim", "2",
             "--workers", "2", "--chunk-size", "3"]
        )
        assert args.chunk_size == 3


class TestCodegenCommand:
    def test_parser_accepts_overrides(self):
        args = build_parser().parse_args(
            ["codegen", "--stencil", "star2d1r", "--oc", "ST",
             "--set", "block_x=64", "--set", "stream_dim=2"]
        )
        assert args.overrides == [("block_x", 64), ("stream_dim", 2)]

    def test_emits_source_to_stdout(self, capsys):
        rc = main(
            ["codegen", "--stencil", "star2d1r", "--oc", "ST_RT",
             "--set", "stream_dim=2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "__global__ void" in out
        assert "optimization combination: ST_RT" in out

    def test_writes_files_to_output_dir(self, tmp_path, capsys):
        rc = main(
            ["codegen", "--stencil", "star2d1r", "--oc", "naive",
             "-o", str(tmp_path)]
        )
        assert rc == 0
        path = tmp_path / "star2d1r__naive.cu"
        assert path.exists()
        assert "__global__ void" in path.read_text()
        assert str(path) in capsys.readouterr().out

    def test_sampled_setting(self, capsys):
        rc = main(
            ["codegen", "--stencil", "star2d2r", "--oc", "ST", "--sample"]
        )
        assert rc == 0
        assert "__global__ void" in capsys.readouterr().out

    def test_hip_dialect_flag(self, capsys):
        rc = main(
            ["codegen", "--stencil", "star2d1r", "--oc", "ST_RT",
             "--set", "stream_dim=2", "--dialect", "hip"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "// dialect: hip" in out
        assert "hipLaunchKernelGGL(" in out

    def test_amd_gpu_implies_hip(self, tmp_path, capsys):
        rc = main(
            ["codegen", "--stencil", "star2d1r", "--oc", "naive",
             "--gpu", "MI100", "-o", str(tmp_path)]
        )
        assert rc == 0
        path = tmp_path / "star2d1r__naive.hip.cpp"
        assert path.exists()
        assert "#include <hip/hip_runtime.h>" in path.read_text()

    def test_bad_override_rejected(self):
        assert main(["codegen", "--stencil", "star2d1r", "--set", "block_x"]) == 2


class TestLintCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        rc = main(
            ["lint", "--stencil", "star2d1r", "--oc", "naive", "--oc", "ST"]
        )
        assert rc == 0
        assert "kernels linted: 0 error(s)" in capsys.readouterr().out

    def test_hip_sweep_on_amd_target(self, capsys):
        rc = main(
            ["lint", "--stencil", "star2d1r", "--oc", "naive", "--oc", "ST",
             "--gpu", "MI210"]
        )
        assert rc == 0
        assert "kernels linted: 0 error(s)" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        rc = main(
            ["lint", "--stencil", "star2d1r", "--oc", "naive",
             "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["kernels"] >= 1

    def test_rules_catalog(self, capsys):
        rc = main(["lint", "--rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for rule in ("RACE001", "BOUNDS002", "RES001", "OCST001", "PERF001"):
            assert rule in out

    def test_model_drift_fails_then_baseline_accepts(
        self, tmp_path, capsys, monkeypatch
    ):
        import dataclasses

        from repro.optimizations import kernelmodel

        real = kernelmodel.build_profile

        def perturbed(stencil, oc, setting, grid=None, warp_size=32):
            p = real(stencil, oc, setting, grid, warp_size=warp_size)
            return dataclasses.replace(p, smem_per_block=p.smem_per_block + 64)

        monkeypatch.setattr(kernelmodel, "build_profile", perturbed)
        argv = ["lint", "--stencil", "star3d1r", "--oc", "ST"]
        rc = main(argv)
        assert rc == 1
        assert "RES001" in capsys.readouterr().out

        baseline = tmp_path / "baseline.json"
        rc = main(argv + ["--write-baseline", str(baseline)])
        assert rc == 0 and baseline.exists()
        capsys.readouterr()

        rc = main(argv + ["--baseline", str(baseline)])
        assert rc == 0

    def test_fail_on_never_masks_errors(self, capsys, monkeypatch):
        import dataclasses
        import json

        from repro.optimizations import kernelmodel

        real = kernelmodel.build_profile

        def perturbed(stencil, oc, setting, grid=None, warp_size=32):
            p = real(stencil, oc, setting, grid, warp_size=warp_size)
            return dataclasses.replace(p, smem_per_block=p.smem_per_block + 64)

        monkeypatch.setattr(kernelmodel, "build_profile", perturbed)
        argv = ["lint", "--stencil", "star3d1r", "--oc", "ST"]
        assert main(argv + ["--fail-on", "never"]) == 0
        capsys.readouterr()

        rc = main(argv + ["--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["worst_severity"] == "error"
        assert payload["fail_on"] == "error"

    def test_fail_on_warning_gates_clean_sweep(self, capsys):
        # A clean sweep stays rc 0 even at the strictest threshold.
        rc = main(
            ["lint", "--stencil", "star2d1r", "--oc", "naive",
             "--fail-on", "info"]
        )
        assert rc == 0
        capsys.readouterr()


class TestEstimateCommand:
    def test_text_output(self, capsys):
        rc = main(
            ["estimate", "--stencil", "star2d1r", "--oc", "naive",
             "--oc", "ST", "--gpu", "V100"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ms/step" in out
        assert "star2d1r x naive" in out

    def test_json_payload(self, capsys):
        import json

        rc = main(
            ["estimate", "--stencil", "box2d1r", "--oc", "ST_RT",
             "--gpu", "V100", "--gpu", "A100", "--format", "json",
             "--metrics"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"estimates", "skipped", "crashed"}
        rows = payload["estimates"]
        assert rows and all(r["time_ms"] > 0 for r in rows)
        assert {r["gpu"] for r in rows} == {"V100", "A100"}
        assert all("metrics" in r and "phases_ms" in r for r in rows)


class TestServeShutdown:
    def test_sigterm_drains_and_exits_zero(self):
        """`repro serve` stops accepting on SIGTERM, drains, flushes
        final stats to stderr, and exits 0."""
        import json
        import os
        import signal
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--drain-timeout", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serving on http://" in line, line
            url = line.split("serving on ", 1)[1].split(" ")[0].strip()
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as r:
                assert json.loads(r.read())["ok"] is True
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert rc == 0
        assert "shutting down" in stderr and "draining" in stderr
        # The last stderr line is the final stats snapshot.
        stats = json.loads(stderr.strip().splitlines()[-1])
        assert stats["requests"] == {}  # healthz is not a counted endpoint
        assert "admission" in stats

    def test_parser_accepts_robustness_flags(self):
        args = build_parser().parse_args(
            ["serve", "--max-queue", "32", "--budget-ms", "50",
             "--reload-interval", "2", "--drain-timeout", "1.5"]
        )
        assert args.max_queue == 32
        assert args.budget_ms == 50.0
        assert args.reload_interval == 2.0
        assert args.drain_timeout == 1.5

    def test_serve_chaos_is_not_a_command(self, capsys):
        # The chaos drill is tools/serve_chaos.py, not a subcommand.
        assert main(["serve-chaos", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'serve-chaos'" in err
        assert "Traceback" not in err
