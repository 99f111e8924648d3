"""Tests for findings, suppressions, baselines and reports."""

import pytest

from repro.errors import DatasetError

from repro.analysis.findings import (
    Baseline,
    Finding,
    Report,
    Severity,
    Suppressions,
)


def make(rule="RACE001", severity=Severity.ERROR, message="boom", **kw):
    return Finding.make(rule, severity, message, **kw)


class TestFinding:
    def test_severity_rank_orders_error_first(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank

    def test_fingerprint_is_stable_and_line_insensitive(self):
        a = make(line=10, kernel="k")
        b = make(line=99, kernel="k")
        c = make(message="other", kernel="k")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_format(self):
        f = make(line=7, kernel="stencil_naive_2d")
        assert f.format() == "[error] RACE001 stencil_naive_2d:L7: boom"

    def test_to_dict_round_trips_data(self):
        f = make(line=3, kernel="k", axis=1, size=64)
        d = f.to_dict()
        assert d["rule"] == "RACE001"
        assert d["span"] == {"line": 3, "end_line": 3}
        assert d["data"] == {"axis": 1, "size": 64}


class TestSuppressions:
    SOURCE = "\n".join(
        [
            "int a;",
            "double b;  // lint: disable=RACE001, BOUNDS001",
            "// lint: disable-file=PERF002",
            "int c;",
        ]
    )

    def test_line_suppression_covers_only_its_line(self):
        sup = Suppressions.scan(self.SOURCE)
        assert sup.covers(make(line=2))
        assert sup.covers(make("BOUNDS001", line=2))
        assert not sup.covers(make(line=4))
        assert not sup.covers(make("RES001", line=2))

    def test_file_suppression_covers_everywhere(self):
        sup = Suppressions.scan(self.SOURCE)
        assert sup.covers(make("PERF002", Severity.WARNING, line=1))
        assert sup.covers(make("PERF002", Severity.WARNING, line=4))


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = [make(kernel="k"), make("RES001", message="drift")]
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(str(path))
        loaded = Baseline.load(str(path))
        assert len(loaded) == 2
        assert findings[0] in loaded
        assert make("NEW001", message="fresh") not in loaded

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "fingerprints": []}')
        with pytest.raises(DatasetError, match="version 99"):
            Baseline.load(str(path))


class TestReport:
    def test_errors_and_warnings_partition(self):
        report = Report(
            findings=[
                make(),
                make("PERF001", Severity.WARNING),
                make("BOUNDS003", Severity.INFO),
            ]
        )
        assert [f.rule for f in report.errors] == ["RACE001"]
        assert [f.rule for f in report.warnings] == ["PERF001"]
        assert not report.ok

    def test_sorted_puts_errors_first(self):
        report = Report(
            findings=[make("PERF001", Severity.WARNING), make(line=5)]
        )
        assert [f.rule for f in report.sorted()] == ["RACE001", "PERF001"]

    def test_filtered_routes_suppressed_and_baselined(self):
        suppressed = make("RACE001", line=2)
        baselined = make("RES001", message="drift")
        fresh = make("BOUNDS001", message="oob")
        sup = Suppressions.scan("int a;\nint b;  // lint: disable=RACE001\n")
        base = Baseline.from_findings([baselined])
        report = Report.filtered([suppressed, baselined, fresh], sup, base)
        assert [f.rule for f in report.findings] == ["BOUNDS001"]
        assert [f.rule for f in report.suppressed] == ["RACE001"]
        assert [f.rule for f in report.baselined] == ["RES001"]
        assert not report.ok

    def test_ok_when_only_warnings(self):
        report = Report(findings=[make("PERF001", Severity.WARNING)])
        assert report.ok
