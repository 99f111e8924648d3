"""Fig. 2: number of stencils for which each OC is best, per GPU.

Paper observations: streaming OCs win for most stencils; temporal blocking
without streaming never wins; the distribution is relatively even (no
single OC fits all).
"""

from collections import Counter

from repro.gpu import GPUSimulator
from repro.optimizations import OC
from repro.stencil import get
from repro.tuning import RandomStrategy, tune

from conftest import print_table


def test_fig02_best_oc_distribution(motivation_2d, motivation_3d, benchmark):
    wins: dict[str, Counter] = {}
    for campaign in (motivation_2d, motivation_3d):
        for gpu in campaign.gpus:
            wins.setdefault(gpu, Counter()).update(campaign.best_oc_labels(gpu))

    all_ocs = sorted({oc for c in wins.values() for oc in c})
    rows = [[oc] + [wins[g].get(oc, 0) for g in wins] for oc in all_ocs]
    print_table(
        "Fig. 2: stencil count where each OC is best (named stencils)",
        ["OC"] + list(wins),
        rows,
    )

    total = sum(sum(c.values()) for c in wins.values())
    streaming = sum(
        n for c in wins.values() for oc, n in c.items() if "ST" in oc.split("_")
    )
    tb_no_st = sum(
        n
        for c in wins.values()
        for oc, n in c.items()
        if "TB" in oc.split("_") and "ST" not in oc.split("_")
    )
    print(f"\n  streaming-OC wins: {streaming}/{total} ({streaming / total:.0%})")
    print(f"  TB-without-ST wins: {tb_no_st}/{total} ({tb_no_st / total:.0%}; paper: 0)")

    # Streaming dominates; best OC varies (no single OC fits all).
    assert streaming / total > 0.5
    assert tb_no_st / total < 0.4
    for gpu, counter in wins.items():
        assert len(counter) >= 3, f"{gpu}: best OC should vary across stencils"

    # Representative unit: tuning one OC for one stencil.
    sim = GPUSimulator("V100")
    benchmark(
        lambda: tune(
            get("star2d1r"), oc=OC.parse("ST"), backend=sim,
            strategy=RandomStrategy(4), seed=0, stencil_id=0,
        )
    )
