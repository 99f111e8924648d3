#!/usr/bin/env python
"""Quickstart: predict the best optimization combination for a stencil.

Builds a small profiled dataset of random 2-D stencils on the simulated
V100, trains the GBDT selector, and uses it to pick and tune an
optimization combination for the classic 5-point Jacobi stencil --
comparing the result against the oracle that tunes every OC at the
same per-OC sampling budget.

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro import StencilMART, stencil
from repro.baselines import OracleBaseline
from repro.codegen import generate_cuda

GPU = "V100"


def main() -> None:
    t0 = time.time()
    print("== StencilMART quickstart ==")

    # 1. Build a profiled dataset (random stencils x all OCs on the GPU).
    mart = StencilMART(ndim=2, gpus=(GPU,), n_settings=6, seed=7)
    mart.build_dataset(n_stencils=40)
    print(f"dataset: {len(mart.campaign.stencils)} stencils, "
          f"{len(mart.campaign.measurements(GPU))} measurements "
          f"({time.time() - t0:.1f}s)")
    print("merged OC classes:",
          {i: rep for i, rep in enumerate(mart.grouping.representatives)})

    # 2. Train the OC selector and check its cross-validated accuracy.
    result = mart.evaluate_selector("gbdt", GPU, n_folds=3)
    print(f"GBDT selector accuracy ({GPU}): {result.accuracy:.2%}")
    mart.fit_selector("gbdt", GPU)

    # 3. Predict and tune the classic 5-point Jacobi stencil.
    target = stencil.get("star2d1r")
    oc, setting, t_ms = mart.tune(target, GPU)
    print(f"\n{target.name}: predicted OC = {oc.name}")
    print(f"tuned setting = {setting!r}")
    print(f"simulated time = {t_ms:.3f} ms/step")

    # 4. Compare against the all-OC oracle at the same budget.
    oracle_oc, _, oracle_t = OracleBaseline(GPU, 6, 7).tune(target)
    print(f"oracle: {oracle_oc.name} at {oracle_t:.3f} ms/step "
          f"(prediction is within {t_ms / oracle_t:.2f}x)")

    # 5. Emit the CUDA kernel a real harness would compile.
    src = generate_cuda(target, oc, setting)
    kernel_line = next(l for l in src.splitlines() if "__global__" in l)
    print(f"\ngenerated CUDA kernel ({len(src.splitlines())} lines):")
    print(" ", kernel_line)

    # 6. Verify the stencil semantics with the NumPy reference.
    grid = np.random.default_rng(0).random((64, 64))
    out = target.apply(grid)
    print(f"reference sweep on 64x64 grid: mean {out.mean():.4f}")
    print(f"\ndone in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
