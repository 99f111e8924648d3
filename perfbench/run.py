"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full record (host, seed, sample counts, checks).
Exits 1 when an output check fails and 2 when the checkout has no
package source to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, Result, ensure_src_on_path  # noqa: E402

WORKLOADS = ("campaign", "train", "serve", "analytical")


def metric_specs(trace: bool) -> "list[dict]":
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace else "end_to_end"]


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    specs = metric_specs(bool(args.trace))
    try:
        ensure_src_on_path()
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2
    from perfbench import wl_analytical, wl_campaign, wl_serve, wl_train

    module = {
        "campaign": wl_campaign, "train": wl_train,
        "serve": wl_serve, "analytical": wl_analytical,
    }[args.workload]
    result = Result(args.workload, args.seed, bool(args.trace))
    module.run(args.seed, args.seconds, bool(args.trace), result)
    if args.trace:
        # Layers a workload leaves idle report zero work.
        for spec in specs:
            if spec["name"] not in result.metrics:
                result.metric(spec["name"], 0.0, spec["unit"], samples=0)
    print(json.dumps(result.record(), sort_keys=True))
    print(json.dumps(result.result_line([s["name"] for s in specs])), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
