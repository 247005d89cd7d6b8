"""Tests for FLOPs accounting, the performance table, and Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codesign.flops import (
    LayerBudget,
    achieved_reduction,
    conv_flops,
    conv_params,
    flops_reduction_ratio,
    param_reduction_ratio,
)
from repro.codesign.pipeline import layer_shapes_from_sites, layer_shapes_from_spec
from repro.codesign.rank_selection import LayerShape, select_ranks
from repro.codesign.table import build_performance_table, clear_table_cache
from repro.gpusim.device import A100
from repro.models.arch_specs import get_model_spec
from repro.models.introspection import trace_conv_sites
from repro.models.registry import build_model
from repro.tensor.formats import get_format, rank_candidates


def dominated(d1, d2, r, s):
    """A Tucker pair whose core cannot use every channel of one side:
    the core's unfoldings have rank at most min(D1, D2*R*S) and
    min(D2, D1*R*S)."""
    return d1 > d2 * r * s or d2 > d1 * r * s


class TestFlopsFormulas:
    def test_conv_flops(self):
        assert conv_flops(64, 32, 56, 56) == 2 * 56 * 56 * 64 * 32 * 9

    def test_tucker_flops_three_stages(self):
        got = get_format("tucker").flops(64, 32, 56, 56, (16, 8))
        expected = (
            2 * 56 * 56 * 64 * 16
            + 2 * 56 * 56 * 9 * 16 * 8
            + 2 * 56 * 56 * 32 * 8
        )
        assert got == expected

    def test_param_reduction_eq5(self):
        gamma = param_reduction_ratio(c=64, n=64, d1=16, d2=16)
        expected = (64 * 64 * 9) / (64 * 16 + 9 * 16 * 16 + 64 * 16)
        assert gamma == pytest.approx(expected)

    def test_flops_reduction_eq6_full_rank_below_one(self):
        # Full-rank Tucker has MORE flops than dense (3 stages).
        gamma = flops_reduction_ratio(32, 32, 14, 14, d1=32, d2=32)
        assert gamma < 1.0

    @given(st.integers(1, 16), st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_reduction_monotone_in_ranks(self, d1, d2):
        g1 = flops_reduction_ratio(32, 32, 14, 14, d1=d1, d2=d2)
        g2 = flops_reduction_ratio(32, 32, 14, 14, d1=d1 + 1, d2=d2)
        assert g2 <= g1 + 1e-12

    def test_achieved_reduction(self):
        assert achieved_reduction(100, 40) == pytest.approx(0.6)

    def test_layer_budget_validation(self):
        with pytest.raises(ValueError):
            LayerBudget(dense_flops=0, target_reduction=0.5)
        with pytest.raises(ValueError):
            LayerBudget(dense_flops=10, target_reduction=1.0)

    def test_layer_budget_ceiling(self):
        b = LayerBudget(dense_flops=1000, target_reduction=0.6)
        assert b.max_tucker_flops == pytest.approx(400.0)


class TestPerformanceTable:
    def test_rank_candidates_step(self):
        assert rank_candidates(128, 32) == [32, 64, 96]
        assert rank_candidates(64, 32) == [32]
        assert rank_candidates(16, 32) == [8]  # fallback for slim models

    def test_rank_candidates_extent_one_not_decomposable(self):
        # Rank 1 == the original extent: zero reduction plus two extra
        # 1x1 launches.  No candidates at all.
        assert rank_candidates(1, 32) == []
        # extent 2 still has a genuine reduction (rank 1 < 2).
        assert rank_candidates(2, 32) == [1]

    def test_table_empty_for_extent_one_layer(self):
        table = build_performance_table(1, 64, 14, 14, A100)
        assert table.entries == []
        assert not table.decomposable
        assert table.best_under_budget(float("inf")) is None

    def test_select_ranks_leaves_extent_one_layer_dense(self):
        layers = [
            LayerShape("slim", 1, 64, 14, 14),
            LayerShape("ok", 128, 128, 14, 14),
        ]
        plan = select_ranks(layers, A100, budget=0.6)
        by_name = {d.layer.name: d for d in plan.decisions}
        assert not by_name["slim"].decomposed
        assert by_name["slim"].reason == "not_decomposable"
        assert by_name["slim"].compressed_flops == by_name["slim"].dense_flops

    def test_table_entries_cover_grid(self):
        clear_table_cache()
        table = build_performance_table(64, 64, 14, 14, A100, rank_step=32)
        assert len(table.entries) == 1  # only (32, 32)
        e = table.lookup(32, 32)
        assert e.total_latency == pytest.approx(
            e.pw1_latency + e.core_latency + e.pw2_latency
        )

    def test_table_cache_hit(self):
        clear_table_cache()
        t1 = build_performance_table(64, 64, 14, 14, A100)
        t2 = build_performance_table(64, 64, 14, 14, A100)
        assert t1 is t2

    def test_budget_filter(self):
        table = build_performance_table(128, 128, 14, 14, A100, rank_step=32)
        all_entries = table.candidates_within(float("inf"))
        tight = table.candidates_within(min(e.flops for e in all_entries))
        assert len(tight) == 1

    def test_best_under_budget_respects_ceiling(self):
        table = build_performance_table(128, 128, 14, 14, A100, rank_step=32)
        ceiling = 0.4 * table.original_flops
        best = table.best_under_budget(ceiling)
        assert best is not None and best.flops <= ceiling

    def test_best_under_budget_none_when_impossible(self):
        table = build_performance_table(64, 64, 14, 14, A100, rank_step=32)
        assert table.best_under_budget(0.0) is None

    def test_plateau_prefers_larger_ranks(self):
        """Among near-tied latencies the largest ranks win (Alg. 1)."""
        table = build_performance_table(256, 256, 14, 14, A100, rank_step=32)
        best = table.best_under_budget(float("inf"), latency_tolerance=1e9)
        biggest = max(table.entries, key=lambda e: e.d1 + e.d2)
        assert (best.d1, best.d2) == (biggest.d1, biggest.d2)

    def test_lookup_missing_raises(self):
        table = build_performance_table(64, 64, 14, 14, A100)
        with pytest.raises(KeyError):
            table.lookup(1, 1)

    @pytest.mark.parametrize("c,n,k", [
        (64, 64, 1), (96, 24, 1),      # 1x1: only square pairs survive
        (128, 16, 3), (16, 128, 3),    # 3x3 with lopsided channels
        (256, 8, 5), (64, 64, 5),      # 5x5
    ])
    def test_table_grid_is_the_formats_undominated_grid(self, c, n, k):
        clear_table_cache()
        table = build_performance_table(c, n, 8, 8, A100, r=k, s=k,
                                        rank_step=8)
        pairs = [(e.d1, e.d2) for e in table.entries]
        assert pairs == get_format("tucker").rank_candidates(c, n, k, k, 8)
        assert pairs
        assert not any(dominated(d1, d2, k, k) for d1, d2 in pairs)
        # Only dominated pairs leave the per-mode product grid.
        full = [(d1, d2) for d1 in rank_candidates(c, 8)
                for d2 in rank_candidates(n, 8)]
        dropped = [p for p in full if p not in pairs]
        assert all(dominated(d1, d2, k, k) for d1, d2 in dropped)

    def test_lookup_index_matches_linear_scan(self):
        table = build_performance_table(256, 256, 14, 14, A100, rank_step=32)
        for e in table.entries:
            found = table.lookup(e.d1, e.d2)
            linear = next(
                x for x in table.entries if x.d1 == e.d1 and x.d2 == e.d2
            )
            assert found is linear


def toy_layers():
    return [
        LayerShape("conv1", 64, 64, 28, 28),
        LayerShape("conv2", 128, 128, 14, 14),
        LayerShape("conv3", 256, 256, 7, 7),
    ]


class TestRankSelection:
    def test_plan_structure(self):
        plan = select_ranks(toy_layers(), A100, budget=0.6)
        assert len(plan.decisions) == 3
        for d in plan.decisions:
            if d.decomposed:
                assert d.d1 >= 1 and d.d2 >= 1
                assert d.compressed_flops < d.dense_flops
            else:
                assert d.compressed_flops == d.dense_flops

    def test_budget_roughly_met(self):
        plan = select_ranks(toy_layers(), A100, budget=0.6)
        # Achieved reduction within a sensible band around the budget.
        assert plan.achieved_reduction >= 0.4

    def test_theta_zero_decomposes_more(self):
        relaxed = select_ranks(toy_layers(), A100, budget=0.6, theta=0.0)
        strict = select_ranks(toy_layers(), A100, budget=0.6, theta=0.9)
        n_relaxed = sum(1 for d in relaxed.decisions if d.decomposed)
        n_strict = sum(1 for d in strict.decisions if d.decomposed)
        assert n_relaxed >= n_strict

    def test_extreme_theta_skips_everything(self):
        plan = select_ranks(toy_layers(), A100, budget=0.6, theta=0.999)
        assert all(not d.decomposed for d in plan.decisions)
        assert plan.achieved_reduction == 0.0
        # Skipped layers cost their original latency.
        assert plan.total_latency == pytest.approx(plan.total_original_latency)

    def test_speedup_positive_when_decomposed(self):
        plan = select_ranks(toy_layers(), A100, budget=0.6, theta=0.15)
        if any(d.decomposed for d in plan.decisions):
            assert plan.speedup() > 1.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            select_ranks(toy_layers(), A100, budget=0.0)
        with pytest.raises(ValueError):
            select_ranks(toy_layers(), A100, budget=1.0)

    def test_invalid_max_layer_reduction_raises(self):
        for bad in (0.0, -0.5, 1.0, 1.5):
            with pytest.raises(ValueError):
                select_ranks(
                    toy_layers(), A100, budget=0.6, max_layer_reduction=bad
                )

    def test_max_layer_reduction_floored_at_budget(self):
        # A cap below the budget is unsatisfiable per-layer; it is
        # clamped up to the budget (documented), not an error.
        capped = select_ranks(
            toy_layers(), A100, budget=0.6, max_layer_reduction=0.3
        )
        floored = select_ranks(
            toy_layers(), A100, budget=0.6, max_layer_reduction=0.6
        )
        assert capped.ranks() == floored.ranks()

    def test_empty_layers(self):
        with pytest.raises(ValueError):
            select_ranks([], A100, budget=0.5)

    def test_budget_redistribution_on_skip(self):
        """A skipped first layer pushes extra reduction onto later ones."""
        layers = toy_layers()
        with_skip = select_ranks(layers, A100, budget=0.5, theta=0.999)
        assert all(not d.decomposed for d in with_skip.decisions)

    def test_no_dominated_tucker_pair_on_vgg16_slim(self):
        # The fleet fallback's deploy.  At budget 0.7 the 64->64 3x3
        # layers on 4x4 maps are where a dominated pair such as (52, 4)
        # wins on latency; its core has rank at most 4*9 = 36 in D1.
        model = build_model("vgg16_slim", seed=0)
        layers = layer_shapes_from_sites(trace_conv_sites(model, (32, 32)))
        plan = select_ranks(layers, A100, budget=0.7, rank_step=4,
                            formats="all")
        tucker = [d for d in plan.decisions
                  if d.decomposed and d.format == "tucker"]
        assert tucker
        for d in tucker:
            assert not dominated(d.d1, d.d2, d.layer.r, d.layer.s), d

    def test_deterministic(self):
        p1 = select_ranks(toy_layers(), A100, budget=0.6)
        p2 = select_ranks(toy_layers(), A100, budget=0.6)
        assert p1.ranks() == p2.ranks()


class TestSpecIntegration:
    def test_layer_shapes_from_spec(self):
        spec = get_model_spec("resnet18")
        layers = layer_shapes_from_spec(spec)
        assert len(layers) == 16
        # Strided convs hand the output resolution to the kernel.
        by_name = {l.name: l for l in layers}
        assert by_name["layer2.0.conv1"].h == 28

    def test_resnet18_plan_end_to_end(self):
        spec = get_model_spec("resnet18")
        plan = select_ranks(
            layer_shapes_from_spec(spec), A100, budget=0.65,
        )
        assert 0.3 <= plan.achieved_reduction <= 0.9
        assert plan.speedup() > 1.0
