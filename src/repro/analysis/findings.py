"""Findings, suppressions and baselines for the kernel analyzer.

Every rule violation is a :class:`Finding`: rule id, severity, source
span, human message and a machine-readable ``data`` payload, serialized
as JSON by ``repro lint --format json``.  Two mechanisms silence known
findings without weakening the rules themselves:

- **inline suppressions** -- a ``// lint: disable=RULE1,RULE2`` comment
  suppresses those rules on its line; ``// lint: disable-file=RULE``
  anywhere suppresses the rule for the whole translation unit;
- **baselines** -- a JSON file of finding fingerprints recorded from a
  known state (``repro lint --write-baseline``); findings matching the
  baseline are reported separately and do not fail the lint, so a new
  rule can land before every historical violation is fixed.

Suppressed and baselined findings are never dropped silently: the
:class:`Report` carries them alongside the active ones.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum

from ..errors import DatasetError
from ..store import read_document


class Severity(str, Enum):
    """Finding severities; only ``ERROR`` fails ``repro lint``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    message: str
    line: int = 0
    end_line: int = 0
    kernel: str = ""
    data: "tuple[tuple[str, object], ...]" = ()

    @classmethod
    def make(
        cls,
        rule: str,
        severity: Severity,
        message: str,
        *,
        line: int = 0,
        end_line: int = 0,
        kernel: str = "",
        **data,
    ) -> "Finding":
        return cls(
            rule=rule,
            severity=severity,
            message=message,
            line=line,
            end_line=end_line or line,
            kernel=kernel,
            data=tuple(sorted(data.items())),
        )

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining (line-insensitive)."""
        key = f"{self.rule}|{self.kernel}|{self.message}"
        return hashlib.blake2b(key.encode(), digest_size=8).hexdigest()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "kernel": self.kernel,
            "span": {"line": self.line, "end_line": self.end_line},
            "fingerprint": self.fingerprint,
            "data": dict(self.data),
        }

    def format(self) -> str:
        loc = f"L{self.line}" if self.line else "-"
        where = f"{self.kernel}:{loc}" if self.kernel else loc
        return f"[{self.severity.value}] {self.rule} {where}: {self.message}"


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"//\s*lint:\s*disable=([\w,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"//\s*lint:\s*disable-file=([\w,\s]+)")


@dataclass(frozen=True)
class Suppressions:
    """Inline suppression directives scanned from one source text."""

    by_line: "tuple[tuple[int, frozenset[str]], ...]" = ()
    whole_file: frozenset = frozenset()

    @classmethod
    def scan(cls, source: str) -> "Suppressions":
        per_line: list[tuple[int, frozenset[str]]] = []
        whole: set[str] = set()
        for lineno, line in enumerate(source.splitlines(), 1):
            m = _SUPPRESS_FILE_RE.search(line)
            if m is not None:
                whole.update(r.strip() for r in m.group(1).split(",") if r.strip())
                continue
            m = _SUPPRESS_RE.search(line)
            if m is not None:
                rules = frozenset(r.strip() for r in m.group(1).split(",") if r.strip())
                per_line.append((lineno, rules))
        return cls(by_line=tuple(per_line), whole_file=frozenset(whole))

    def covers(self, finding: Finding) -> bool:
        if finding.rule in self.whole_file:
            return True
        for lineno, rules in self.by_line:
            if finding.rule in rules and finding.line <= lineno <= finding.end_line:
                return True
        return False


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
BASELINE_VERSION = 1


class Baseline:
    """A set of accepted finding fingerprints loaded from JSON."""

    def __init__(self, fingerprints: "set[str] | None" = None):
        self.fingerprints: set[str] = set(fingerprints or ())

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint in self.fingerprints

    def __len__(self) -> int:
        return len(self.fingerprints)

    @classmethod
    def from_findings(cls, findings: "list[Finding]") -> "Baseline":
        return cls({f.fingerprint for f in findings})

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline written by :meth:`save`.

        A missing, unreadable or garbled file, or one of another
        version, raises :class:`~repro.errors.DatasetError`.
        """
        payload = read_document(path, DatasetError, "lint baseline")
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise DatasetError(
                f"baseline {path} has version {version}; "
                f"this analyzer reads version {BASELINE_VERSION}"
            )
        return cls(set(payload.get("fingerprints", ())))

    def save(self, path: str) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "fingerprints": sorted(self.fingerprints),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
@dataclass
class Report:
    """Findings for one analyzed translation unit."""

    findings: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)
    baselined: list = field(default_factory=list)

    @property
    def errors(self) -> list:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def sorted(self) -> list:
        return sorted(
            self.findings, key=lambda f: (f.severity.rank, f.kernel, f.line, f.rule)
        )

    def extend(self, other: "Report") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.baselined.extend(other.baselined)

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.sorted()],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.findings) - len(self.errors) - len(self.warnings),
            },
        }

    @classmethod
    def filtered(
        cls,
        findings: "list[Finding]",
        suppressions: "Suppressions | None" = None,
        baseline: "Baseline | None" = None,
    ) -> "Report":
        report = cls()
        for f in findings:
            if suppressions is not None and suppressions.covers(f):
                report.suppressed.append(f)
            elif baseline is not None and f in baseline:
                report.baselined.append(f)
            else:
                report.findings.append(f)
        return report
