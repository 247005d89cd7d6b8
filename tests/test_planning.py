"""Tests for the planning-cache subsystem.

Covers the PlanCache primitive (LRU, stats, thread safety), the
stale-device regression the subsystem exists to fix, and the deploy
path's backend warm-up.
"""

import threading
from dataclasses import replace

import pytest

from repro.codesign.format_search import layer_format_candidates
from repro.codesign.pipeline import decompose_for_device, layer_shapes_from_spec
from repro.codesign.rank_selection import LayerShape, select_ranks
from repro.codesign.table import (
    build_performance_table,
    clear_table_cache,
    table_cache,
    table_key,
)
from repro.gpusim.device import A100
from repro.inference.engine import estimate_e2e
from repro.inference.plan import plan_model
from repro.kernels.base import ConvShape
from repro.kernels.fused import select_fused_tiling
from repro.models.arch_specs import get_model_spec
from repro.models.registry import build_model
from repro.perfmodel.fused import fused_core_latency
from repro.perfmodel.tiling import (
    clear_tiling_cache,
    select_key,
    select_tiling,
    select_tiling_model,
    select_tiling_oracle,
    tiling_cache,
)
from repro.planning.cache import (
    PlanCache,
    all_caches,
    cache_stats,
    clear_plan_caches,
    get_cache,
)
from repro.planning.warmup import warm_model_backends

# A user-tweaked A100: same display name, half the clock, a tenth of
# the bandwidth.  Every planner result must reflect these parameters.
TWEAKED_A100 = replace(
    A100, clock_ghz=A100.clock_ghz / 2, dram_bandwidth=A100.dram_bandwidth / 10
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_tiling_cache()
    clear_table_cache()
    yield
    clear_tiling_cache()
    clear_table_cache()


class TestPlanCache:
    def test_get_put_roundtrip(self):
        c = PlanCache("t1", maxsize=4, register=False)
        assert c.get(("a",)) is None
        c.put(("a",), 1)
        assert c.get(("a",)) == 1
        assert len(c) == 1 and ("a",) in c

    def test_none_values_rejected(self):
        c = PlanCache("t2", maxsize=4, register=False)
        with pytest.raises(ValueError):
            c.put(("a",), None)

    def test_put_if_absent_keeps_first(self):
        c = PlanCache("t3", maxsize=4, register=False)
        first = c.put(("k",), ["v1"])
        second = c.put(("k",), ["v2"])
        assert second is first
        assert c.get(("k",)) == ["v1"]

    def test_get_or_build_builds_once(self):
        c = PlanCache("t4", maxsize=4, register=False)
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert c.get_or_build(("k",), build) == "value"
        assert c.get_or_build(("k",), build) == "value"
        assert len(calls) == 1

    def test_lru_eviction_order(self):
        c = PlanCache("t5", maxsize=2, register=False)
        c.put(("a",), 1)
        c.put(("b",), 2)
        c.get(("a",))          # refresh "a" -> "b" is now the LRU
        c.put(("c",), 3)
        assert c.get(("b",)) is None
        assert c.get(("a",)) == 1 and c.get(("c",)) == 3
        assert c.stats().evictions == 1

    def test_stats_counters(self):
        c = PlanCache("t6", maxsize=4, register=False)
        c.get(("missing",))
        c.put(("k",), 1)
        c.get(("k",))
        st = c.stats()
        assert (st.hits, st.misses, st.size) == (1, 1, 1)
        assert st.hit_rate == pytest.approx(0.5)
        assert st.lookups == 2

    def test_peek_touches_nothing(self):
        c = PlanCache("t7", maxsize=4, register=False)
        c.put(("k",), 1)
        assert c.peek(("k",)) == 1
        assert c.peek(("nope",)) is None
        st = c.stats()
        assert st.hits == 0 and st.misses == 0

    def test_clear_resets(self):
        c = PlanCache("t8", maxsize=4, register=False)
        c.put(("k",), 1)
        c.get(("k",))
        c.clear()
        st = c.stats()
        assert len(c) == 0 and st.hits == 0 and st.misses == 0

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache("t9", maxsize=0, register=False)

    def test_registry_lookup(self):
        assert get_cache("tiling") is tiling_cache()
        assert get_cache("table") is table_cache()
        with pytest.raises(KeyError):
            get_cache("no-such-cache")
        names = {c.name for c in all_caches()}
        assert {"tiling", "table"} <= names
        assert set(cache_stats()) >= {"tiling", "table"}

    def test_memo_caches_are_registered_and_cleared(self):
        # The fused tiling/latency memos and the format-candidate lists
        # are bounded registry caches: clear_plan_caches() drops them,
        # so the next lookup of each is a recorded miss.
        shape = ConvShape(32, 32, 14, 14)
        layer = LayerShape("l1", 64, 64, 14, 14)
        lookups = {
            "fused_tiling": lambda: select_fused_tiling(shape, A100),
            "fused_latency": lambda: fused_core_latency(shape, A100),
            "format_candidates": lambda: layer_format_candidates(
                layer, A100, ("cp",)
            ),
        }
        for lookup in lookups.values():
            lookup()
        clear_plan_caches()
        for name, lookup in lookups.items():
            cache = get_cache(name)
            assert len(cache) == 0, name
            misses = cache.stats().misses
            lookup()
            assert cache.stats().misses == misses + 1, name


class TestThreadSafety:
    def test_concurrent_put_get_with_eviction(self):
        c = PlanCache("t10", maxsize=8, register=False)
        errors = []

        def hammer(seed):
            try:
                for i in range(300):
                    key = ((seed * 7 + i) % 32,)
                    c.put(key, key)
                    got = c.get(key)
                    assert got is None or got == key
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(c) <= 8

    def test_concurrent_select_tiling_consistent(self):
        shapes = [ConvShape(32, 32, 14, 14), ConvShape(64, 32, 28, 28)]
        results = [[] for _ in shapes]
        errors = []

        def worker():
            try:
                for i, shape in enumerate(shapes):
                    results[i].append(select_tiling(shape, A100, "model"))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i, shape in enumerate(shapes):
            expected = select_tiling_model(shape, A100)
            for choice in results[i]:
                assert choice.tiling == expected.tiling


class TestStaleDeviceRegression:
    """Two same-named DeviceSpecs must never alias cache entries."""

    def test_select_tiling_not_stale(self):
        shape = ConvShape(192, 160, 56, 56)
        warm_first = select_tiling(shape, A100, "model")
        tweaked = select_tiling(shape, TWEAKED_A100, "model")
        # Parameter-correct: each equals its uncached recomputation.
        assert warm_first == select_tiling_model(shape, A100)
        assert tweaked == select_tiling_model(shape, TWEAKED_A100)
        # And the tweaked device genuinely changes the outcome.
        assert tweaked.simulated_latency != warm_first.simulated_latency

    def test_select_tiling_oracle_not_stale(self):
        shape = ConvShape(64, 32, 28, 28)
        a = select_tiling(shape, A100, "oracle")
        b = select_tiling(shape, TWEAKED_A100, "oracle")
        assert a == select_tiling_oracle(shape, A100)
        assert b == select_tiling_oracle(shape, TWEAKED_A100)
        assert a.simulated_latency != b.simulated_latency

    def test_performance_table_not_stale(self):
        t_a = build_performance_table(64, 64, 14, 14, A100)
        t_b = build_performance_table(64, 64, 14, 14, TWEAKED_A100)
        fresh_a = build_performance_table(64, 64, 14, 14, A100, use_cache=False)
        fresh_b = build_performance_table(
            64, 64, 14, 14, TWEAKED_A100, use_cache=False
        )
        assert t_a.original_latency == fresh_a.original_latency
        assert t_b.original_latency == fresh_b.original_latency
        assert t_a.original_latency != t_b.original_latency
        assert (
            t_a.lookup(32, 32).total_latency
            != t_b.lookup(32, 32).total_latency
        )

    def test_cache_keys_use_fingerprint_not_name(self):
        assert A100.name == TWEAKED_A100.name
        assert A100.fingerprint() != TWEAKED_A100.fingerprint()
        shape = ConvShape(32, 32, 14, 14)
        assert select_key(shape, A100, "model") != select_key(
            shape, TWEAKED_A100, "model"
        )
        assert table_key(32, 32, 14, 14, 3, 3, A100, 32, "model") != table_key(
            32, 32, 14, 14, 3, 3, TWEAKED_A100, 32, "model"
        )

    def test_fingerprint_stable_for_equal_specs(self):
        assert A100.fingerprint() == replace(A100).fingerprint()


class TestWarmup:
    def test_table_build_fills_tiling_cache(self):
        build_performance_table(128, 128, 14, 14, A100)
        # The table and every core-shape tiling are now hits.
        s0 = table_cache().stats()
        build_performance_table(128, 128, 14, 14, A100)
        assert table_cache().stats().hits == s0.hits + 1
        t0 = tiling_cache().stats()
        select_tiling(ConvShape(32, 32, 14, 14), A100, "model")
        assert tiling_cache().stats().hits == t0.hits + 1

    def test_warm_model_backends_leaves_plan_model_no_misses(self):
        clear_plan_caches()
        hw = (8, 8)
        model = build_model("resnet_tiny", seed=0)
        decompose_for_device(model, A100, hw, budget=0.5, rank_step=2)
        model.eval()
        resolved = warm_model_backends(model, A100, hw, backends=("auto",))
        tuning = get_cache("tvm_tuning")
        assert resolved["tvm"] > 0 and len(tuning) > 0
        caches = (tiling_cache(), tuning)
        misses = [c.stats().misses for c in caches]
        plan = plan_model(model, A100, hw, core_backend="auto")
        assert any(k.kind == "core" for k in plan.kernels)
        assert [c.stats().misses for c in caches] == misses

    def test_estimate_e2e_many_matches_single(self):
        # An end-to-end estimate from a plan selected up front equals
        # the one the single-spec path plans for itself.
        spec = get_model_spec("resnet18")
        plan = select_ranks(layer_shapes_from_spec(spec), A100, budget=0.6)
        given = estimate_e2e(spec, A100, budget=0.6, rank_plan=plan)
        assert given.rank_plan is plan
        single = estimate_e2e(spec, A100, budget=0.6)
        assert given.as_milliseconds() == single.as_milliseconds()


class TestConvShapeKeyCompleteness:
    def test_as_tuple_includes_filter_extents(self):
        shape = ConvShape(c=1, n=2, h=3, w=4, r=5, s=6)
        assert shape.as_tuple() == (1, 2, 3, 4, 5, 6)

    def test_filter_extent_reaches_cache_key(self):
        shape3 = ConvShape(32, 32, 14, 14, r=3, s=3)
        shape5 = ConvShape(32, 32, 14, 14, r=5, s=5)
        assert select_key(shape3, A100, "model") != select_key(
            shape5, A100, "model"
        )
        c3 = select_tiling(shape3, A100, "model")
        c5 = select_tiling(shape5, A100, "model")
        assert c3.simulated_latency != c5.simulated_latency
