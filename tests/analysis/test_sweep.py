"""Sweep-level lint tests: the generated library must analyze clean,
and seeded drift (the historical guard bug, a perturbed model claim)
must be caught."""

import dataclasses

import pytest

from repro.analysis.lint import feasible_settings, lint_kernel, lint_sweep, worst_severity
from repro.analysis.findings import Severity
from repro.codegen.cuda import CudaKernelGenerator
from repro.optimizations import kernelmodel
from repro.optimizations.combos import ALL_OCS, OC
from repro.stencil import library
from repro.stencil.stencil import Stencil

#: One-dimensional-in-spirit stencil: taps only along x, extent 0 on y.
LINE2D = Stencil.from_points([(-1, 0), (0, 0), (1, 0)], name="line2d1r")

#: 1-D-spirit, isotropic 2-D, asymmetric-shape 2-D, and 3-D coverage.
SAMPLE_STENCILS = (
    LINE2D,
    library.get("star2d1r"),
    library.get("box2d1r"),
    library.get("star3d2r"),
)


@pytest.mark.parametrize("oc", list(ALL_OCS), ids=lambda oc: oc.name)
def test_generated_kernels_lint_clean(oc):
    summary = lint_sweep(
        stencils=SAMPLE_STENCILS, ocs=[oc], n_settings=2, seed=7
    )
    assert summary.records or summary.skipped
    assert summary.errors == 0, summary.format_text()
    assert summary.ok


def test_worst_severity_over_clean_naive_sweep():
    summary = lint_sweep(
        stencils=[library.get("star2d1r")], ocs=[OC.parse("naive")]
    )
    worst = worst_severity(summary)
    assert worst is None or worst is not Severity.ERROR


class TestGuardRegression:
    """Satellite: the per-axis guard fix, locked in by the analyzer.

    The historical ``_guard`` clipped every axis by the uniform Chebyshev
    ``order``; on anisotropic stencils that over-guards the short axes,
    silently skipping interior points the model prices.  BOUNDS002 must
    flag exactly that when the old behaviour is restored.
    """

    ANISO = Stencil.from_points(
        [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (0, 2), (0, -2)],
        name="aniso2d",
    )

    @staticmethod
    def _old_guard(self, coords):
        return " && ".join(
            f"{coords[d]} >= {self.stencil.order} && "
            f"{coords[d]} < N{'xyz'[d].upper()} - {self.stencil.order}"
            for d in range(self.ndim)
        )

    def test_fixed_guard_is_clean(self):
        setting = feasible_settings(self.ANISO, OC.parse("naive"), 1)[0]
        _, report = lint_kernel(self.ANISO, "naive", setting)
        assert report.ok

    def test_old_uniform_order_guard_is_flagged(self, monkeypatch):
        monkeypatch.setattr(CudaKernelGenerator, "_guard", self._old_guard)
        setting = feasible_settings(self.ANISO, OC.parse("naive"), 1)[0]
        _, report = lint_kernel(self.ANISO, "naive", setting)
        flagged = [f for f in report.errors if f.rule == "BOUNDS002"]
        assert flagged, report.findings
        assert "over-guarded" in flagged[0].message
        assert any(f.data and dict(f.data).get("axis") == 0 for f in flagged)

    def test_old_guard_fails_the_sweep(self, monkeypatch):
        monkeypatch.setattr(CudaKernelGenerator, "_guard", self._old_guard)
        summary = lint_sweep(
            stencils=[self.ANISO], ocs=[OC.parse("naive")], n_settings=1
        )
        assert not summary.ok
        assert worst_severity(summary) is Severity.ERROR


class TestModelDriftRegression:
    """Perturbing a kernelmodel claim must fail the lint loudly."""

    def test_perturbed_smem_claim_is_flagged(self, monkeypatch):
        stencil = library.get("star3d2r")
        oc = OC.parse("ST")
        setting = feasible_settings(stencil, oc, 1)[0]
        real = kernelmodel.build_profile

        def perturbed(stencil, oc, setting, grid=None, warp_size=32):
            p = real(stencil, oc, setting, grid, warp_size=warp_size)
            return dataclasses.replace(p, smem_per_block=p.smem_per_block + 64)

        monkeypatch.setattr(kernelmodel, "build_profile", perturbed)
        _, report = lint_kernel(stencil, oc, setting)
        assert not report.ok
        assert any(f.rule == "RES001" for f in report.errors)


class TestDeterminism:
    def test_feasible_settings_are_deterministic(self):
        stencil = library.get("star2d2r")
        oc = OC.parse("ST_BM")
        a = feasible_settings(stencil, oc, 3, seed=11)
        b = feasible_settings(stencil, oc, 3, seed=11)
        assert [s.as_tuple() for s in a] == [s.as_tuple() for s in b]

    def test_seed_changes_settings(self):
        stencil = library.get("star2d2r")
        oc = OC.parse("ST_BM")
        a = feasible_settings(stencil, oc, 3, seed=11)
        b = feasible_settings(stencil, oc, 3, seed=12)
        assert [s.as_tuple() for s in a] != [s.as_tuple() for s in b]

    def test_summary_serializes(self):
        summary = lint_sweep(
            stencils=[library.get("star2d1r")], ocs=[OC.parse("naive")]
        )
        payload = summary.to_dict()
        assert payload["kernels"] == len(summary.records)
        assert "records" in payload
        assert summary.to_json().startswith("{")
