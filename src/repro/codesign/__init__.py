"""Hardware-aware co-design: FLOPs budgets, table T, Algorithm 1."""

from repro.codesign.concurrent import (
    ConcurrentDecision,
    ConcurrentGroup,
    concurrent_latency,
    inception_group,
    select_ranks_concurrent,
)
from repro.codesign.flops import (
    LayerBudget,
    achieved_reduction,
    conv_flops,
    conv_params,
    flops_reduction_ratio,
    param_reduction_ratio,
)
from repro.codesign.format_search import (
    FormatCandidate,
    best_format_under_budget,
    layer_format_candidates,
)
from repro.codesign.pipeline import (
    TDCPipelineResult,
    decompose_for_device,
    layer_shapes_from_sites,
    layer_shapes_from_spec,
    run_tdc_pipeline,
)
from repro.codesign.rank_selection import (
    LayerShape,
    RankDecision,
    RankPlan,
    select_ranks,
)
from repro.codesign.table import (
    PerformanceTable,
    TableEntry,
    build_performance_table,
    clear_table_cache,
    table_cache,
    table_key,
)
from repro.tensor.formats import rank_candidates

__all__ = [
    "ConcurrentDecision",
    "ConcurrentGroup",
    "concurrent_latency",
    "inception_group",
    "select_ranks_concurrent",
    "LayerBudget",
    "achieved_reduction",
    "conv_flops",
    "conv_params",
    "flops_reduction_ratio",
    "param_reduction_ratio",
    "FormatCandidate",
    "best_format_under_budget",
    "layer_format_candidates",
    "TDCPipelineResult",
    "decompose_for_device",
    "layer_shapes_from_sites",
    "layer_shapes_from_spec",
    "run_tdc_pipeline",
    "LayerShape",
    "RankDecision",
    "RankPlan",
    "select_ranks",
    "PerformanceTable",
    "TableEntry",
    "build_performance_table",
    "clear_table_cache",
    "rank_candidates",
    "table_cache",
    "table_key",
]
