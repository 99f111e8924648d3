"""Paper-scale campaign runner (developer tool).

Runs the paper's headline data collection -- 500 stencils x all OCs x
sampled settings per GPU (~65k usable instances per GPU after crashes)
-- through the sharded campaign runner, then publishes it as a
checksummed, versioned dataset artifact (``repro.profiling.registry``)
that ``repro train --campaign <registry dir>`` consumes directly.

Run: python tools/paper_campaign.py [--registry DIR] [--name NAME]
         [--stencils N] [--n-settings K] [--workers N] [--gpus GPU ...]
"""

import argparse
import os
import sys
import time


def run_paper_scale(args) -> int:
    from repro.profiling import CampaignRunner, DatasetRegistry
    from repro.stencil import generate_population

    stencils = generate_population(args.ndim, args.stencils, seed=args.seed)
    runner = CampaignRunner(
        stencils,
        gpus=tuple(args.gpus),
        n_settings=args.n_settings,
        seed=args.seed,
        workers=args.workers,
        mp_context=args.context,
    )
    start = time.perf_counter()
    campaign = runner.run()
    elapsed = time.perf_counter() - start

    per_gpu = {g: len(campaign.measurements(g)) for g in campaign.gpus}
    total = sum(per_gpu.values())
    print(
        f"paper-scale campaign: {len(stencils)} stencils x "
        f"{len(campaign.ocs)} OCs x {args.n_settings} settings on "
        f"{len(campaign.gpus)} GPU(s) in {elapsed:.1f}s "
        f"({total / elapsed:,.0f} measurements/sec)"
    )
    for gpu, n in per_gpu.items():
        print(f"  {gpu}: {n} measurements")

    registry = DatasetRegistry(args.registry)
    meta = {
        "generator": "tools/paper_campaign.py",
        "elapsed_s": elapsed,
        "measurements": per_gpu,
        "cpu_count": os.cpu_count() or 1,
        "workers": runner.workers,
    }
    version = registry.publish(campaign, args.name, meta=meta)
    path = registry.path(args.name, version)
    print(f"published {args.name}@{version} -> {path}")
    print(f"train on it with: repro train --campaign {path.parent}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workers",
        type=int,
        default=0,
        help="campaign worker count (default 0 = one per CPU)",
    )
    ap.add_argument(
        "--context",
        default="fork" if sys.platform.startswith("linux") else "spawn",
        choices=("fork", "spawn"),
        help="multiprocessing start method",
    )
    ap.add_argument(
        "--registry",
        default="datasets",
        help="dataset registry root to publish into",
    )
    ap.add_argument(
        "--name",
        default=None,
        help="dataset name in the registry (default campaign-paper-<ndim>d)",
    )
    ap.add_argument("--ndim", type=int, default=2, choices=(2, 3))
    ap.add_argument(
        "--stencils",
        type=int,
        default=500,
        help="population size (paper: 500)",
    )
    ap.add_argument(
        "--n-settings",
        type=int,
        default=5,
        help="sampled settings per (stencil, OC) "
        "(500 x 30 OCs x 5 gives the paper's ~65k usable instances/GPU)",
    )
    ap.add_argument(
        "--gpus",
        nargs="+",
        default=["V100"],
        help="GPUs to profile",
    )
    ap.add_argument("--seed", type=int, default=2022)
    args = ap.parse_args(argv)

    if args.name is None:
        args.name = f"campaign-paper-{args.ndim}d"
    return run_paper_scale(args)


if __name__ == "__main__":
    sys.exit(main())
