"""Per-table/figure reproduction harnesses.

Each module regenerates one artifact of the paper's evaluation:

- :mod:`repro.experiments.table2` — Table 2 (ADMM vs direct)
- :mod:`repro.experiments.table3` — Table 3 (TDC vs SOTA comparators)
- :mod:`repro.experiments.fig4` — Fig. 4 (latency staircase)
- :mod:`repro.experiments.layerwise` — Figs. 6/7 (per-shape kernels)
- :mod:`repro.experiments.e2e` — Figs. 8/9 (end-to-end inference)
- :mod:`repro.experiments.budget_sweep` — Sec. 7.2 budget sweep
- :mod:`repro.experiments.oracle_gap` — Sec. 5.5 model-vs-oracle
- :mod:`repro.experiments.ablations` — design-choice ablations
"""

from repro.experiments import (  # noqa: F401
    ablations,
    budget_sweep,
    common,
    e2e,
    fig4,
    layerwise,
    oracle_gap,
    report,
    table2,
    table3,
)

__all__ = [
    "ablations",
    "budget_sweep",
    "common",
    "e2e",
    "fig4",
    "layerwise",
    "oracle_gap",
    "report",
    "table2",
    "table3",
]
