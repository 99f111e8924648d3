"""CLI surface of the fault-tolerant campaign runner."""

import json

from repro.cli import build_parser, main


class TestParser:
    def test_profile_robustness_flags(self):
        args = build_parser().parse_args(
            [
                "profile", "--ndim", "2", "--count", "3", "-o", "c.json",
                "--checkpoint", "ck.json", "--resume",
                "--checkpoint-every", "4", "--fault-rate", "0.05",
                "--device-lost-rate", "0.001",
            ]
        )
        assert args.checkpoint == "ck.json"
        assert args.resume is True
        assert args.checkpoint_every == 4
        assert args.fault_rate == 0.05
        assert args.device_lost_rate == 0.001

    def test_defaults_are_fault_free(self):
        args = build_parser().parse_args(
            ["profile", "--ndim", "2", "--count", "3", "-o", "c.json"]
        )
        assert args.fault_rate == 0.0
        assert args.checkpoint is None
        assert args.resume is False


class TestProfileCommand:
    def test_fault_injection_and_health_report(self, tmp_path, capsys):
        out_path = tmp_path / "c.json"
        rc = main(
            [
                "profile", "--ndim", "2", "--count", "3", "--gpus", "V100",
                "--n-settings", "2", "-o", str(out_path), "--seed", "4",
                "--fault-rate", "0.02",
                "--checkpoint", str(tmp_path / "ck.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign health:" in out
        assert "transient faults absorbed" in out
        assert out_path.exists()
        assert (tmp_path / "ck.json").exists()

    def test_resume_recovers_units(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        common = [
            "profile", "--ndim", "2", "--count", "3", "--gpus", "V100",
            "--n-settings", "2", "-o", str(tmp_path / "c.json"),
            "--seed", "4", "--checkpoint", str(ck),
        ]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert "recovered from checkpoint: 0" in first

        assert main(common + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "recovered from checkpoint: 3" in second

    def test_resume_from_truncated_checkpoint_fails_closed(
        self, tmp_path, capsys
    ):
        ck = tmp_path / "ck.json"
        common = [
            "profile", "--ndim", "2", "--count", "3", "--gpus", "V100",
            "--n-settings", "2", "-o", str(tmp_path / "c.json"),
            "--seed", "4", "--checkpoint", str(ck),
        ]
        assert main(common) == 0
        text = ck.read_text()
        ck.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert main(common + ["--resume"]) == 2
        assert "profile: checkpoint" in capsys.readouterr().err

    def test_faulty_and_clean_runs_agree(self, tmp_path, capsys):
        clean, faulty = tmp_path / "clean.json", tmp_path / "faulty.json"
        common = [
            "profile", "--ndim", "2", "--count", "3", "--gpus", "V100",
            "--n-settings", "2", "--seed", "4",
        ]
        assert main(common + ["-o", str(clean)]) == 0
        assert main(common + ["-o", str(faulty), "--fault-rate", "0.02"]) == 0
        capsys.readouterr()
        assert json.loads(clean.read_text()) == json.loads(faulty.read_text())
