"""Shared helpers: paths, provenance, quantiles, peak memory, results.

Everything here is dependency-free apart from NumPy (already a
dependency of the package under test) so the benchmark measures the
package, not itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; removed when a run ends.
TMP_ROOT = ROOT / ".perfbench_tmp"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no package source at {SRC}/repro; run from a full checkout"
        )
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@contextmanager
def scratch_dir(prefix: str):
    """A private directory under the checkout, deleted on exit."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only succeeds once no run is using it
        except OSError:
            pass


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def clear_memo_caches() -> None:
    """Empty every ``functools`` memo cache in the loaded ``repro``
    modules and the analysis parse cache, so a pass starts as cold as a
    fresh process would (tolerant of caches added or removed later)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and hasattr(value, "cache_info"):
                clear()
    framework = sys.modules.get("repro.analysis.framework")
    if framework is not None:
        framework.clear_parse_cache()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Exact sample quantile, linear interpolation between order
    statistics (NumPy's default ``percentile`` method); ``q`` in [0, 1]."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(float(v) for v in values)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git_sha() -> "str | None":
    if not (ROOT / ".git").exists():
        return None  # not a repository; never look above the checkout
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def source_digest() -> str:
    """BLAKE2b over every ``src/**/*.py`` path and content: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
class Result:
    """What one workload run reports: metrics with units and sample
    counts, operation counts, output checks and free-form details."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.details: dict = {}

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = {
            "value": float(value), "unit": unit, "samples": int(samples),
        }

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = bool(ok)
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def record(self) -> dict:
        """The full provenance record (printed before the result line)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "host": host_record(),
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "details": self.details,
        }

    def result_line(self, names: "list[str]") -> dict:
        """The contract's last stdout line, restricted to *names*."""
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"workload did not report {missing}")
        return {
            "correct": self.correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": {
                n: {"value": self.metrics[n]["value"], "unit": self.metrics[n]["unit"]}
                for n in names
            },
        }
