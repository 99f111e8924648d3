"""Shared infrastructure for the figure/table reproduction benches.

Every bench reproduces one table or figure of the paper at the scale
selected by ``REPRO_SCALE`` (default ``small``; see ``repro.config``).
Expensive artifacts -- the motivation campaigns over the named stencils
and the StencilMART datasets over random populations -- are session-scoped
fixtures shared across benches.

Each bench prints the rows/series the paper reports (captured with ``-s``
or in the pytest-benchmark summary) and asserts the qualitative shape.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import pytest

from repro.config import get_scale
from repro.core import StencilMART
from repro.gpu.specs import GPU_ORDER
from repro.profiling import run_campaign
from repro.stencil import benchmark_stencils


SCALE = get_scale()

# The throughput gates reset caches with perfbench's helper
# (``perfbench.common.clear_memo_caches``), imported read-only.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def pytest_report_header(config):
    return (
        f"repro benches at scale '{SCALE.name}': "
        f"{SCALE.n_stencils_2d} 2-D / {SCALE.n_stencils_3d} 3-D stencils, "
        f"{SCALE.n_settings} settings/OC, {SCALE.n_folds}-fold CV"
    )


@pytest.fixture(scope="session")
def scale():
    return SCALE


@pytest.fixture(scope="session")
def motivation_2d():
    """Named 2-D benchmark stencils profiled on all four GPUs."""
    return run_campaign(
        benchmark_stencils(2), gpus=GPU_ORDER, n_settings=SCALE.n_settings, seed=101
    )


@pytest.fixture(scope="session")
def motivation_3d():
    """Named 3-D benchmark stencils profiled on all four GPUs."""
    return run_campaign(
        benchmark_stencils(3), gpus=GPU_ORDER, n_settings=SCALE.n_settings, seed=101
    )


def _mart(ndim: int, n_stencils: int) -> StencilMART:
    mart = StencilMART(
        ndim=ndim, gpus=GPU_ORDER, n_settings=SCALE.n_settings, seed=303
    )
    mart.build_dataset(n_stencils=n_stencils)
    return mart


@pytest.fixture(scope="session")
def mart_2d():
    """StencilMART over the random 2-D population (Figs. 9-15)."""
    return _mart(2, SCALE.n_stencils_2d)


@pytest.fixture(scope="session")
def mart_3d():
    """StencilMART over the random 3-D population (Figs. 9-15)."""
    return _mart(3, SCALE.n_stencils_3d)


def best_of(reps: int, run, prepare=None) -> float:
    """Best-of-*reps* wall time of ``run()``; ``prepare()``, if given,
    runs untimed before every rep (e.g. to reset caches)."""
    best = math.inf
    for _ in range(reps):
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def print_table(title: str, header: "list[str]", rows: "list[list]") -> None:
    """Uniform fixed-width table printer for bench output."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  " + "  ".join(_fmt(c).ljust(w) for c, w in zip(r, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)
