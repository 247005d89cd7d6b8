"""Ablation benches for the reproduction's design choices: CRSN
layout, θ-threshold rule, model top-fraction, and the C-split.
"""

from repro.experiments import ablations
from repro.gpusim.device import A100
from repro.perfmodel.tiling import clear_tiling_cache


def test_ablation_crsn_layout(once):
    table = once(lambda: ablations.crsn_layout_ablation(A100))
    print()
    print(table.render())
    mean = float(table.to_dicts()[-1]["NCRS penalty"].rstrip("x"))
    assert mean >= 1.0  # CRSN is never worse


def test_ablation_theta_rule(once):
    def run():
        clear_tiling_cache()
        return ablations.theta_rule_ablation(A100, model="densenet121",
                                             budget=0.1)

    table = once(run)
    print()
    print(table.render())
    rows = table.to_dicts()
    lat0 = float(rows[0]["e2e latency (ms)"])
    lat15 = float(rows[1]["e2e latency (ms)"])
    # The θ rule exists to avoid latency regressions: with it the plan
    # is never slower than without it.
    assert lat15 <= lat0 * 1.001


def test_ablation_top_fraction(once):
    table = once(lambda: ablations.top_fraction_ablation(A100))
    print()
    print(table.render())
    assert len(table) >= 3


def test_ablation_c_split(once):
    table = once(lambda: ablations.c_split_ablation(A100))
    print()
    print(table.render())
    mean = float(table.to_dicts()[-1]["penalty"].rstrip("x"))
    # Removing the C split costs parallelism on the evaluated shapes.
    assert mean > 1.0
