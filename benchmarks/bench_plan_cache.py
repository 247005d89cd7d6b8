"""Planning-cache benchmark: cold vs warm.

Full Algorithm 1 rank selection over a ResNet-sized planning workload
from empty caches vs a second run against the warm in-memory caches
(must be >= 5x faster warm).
"""

import time

from repro.codesign.pipeline import layer_shapes_from_spec
from repro.codesign.rank_selection import select_ranks
from repro.gpusim.device import A100
from repro.models.arch_specs import get_model_spec
from repro.planning.cache import clear_plan_caches

SPEC = get_model_spec("resnet18")
LAYERS = layer_shapes_from_spec(SPEC)


def _plan():
    return select_ranks(LAYERS, A100, budget=0.6)


def test_cold_vs_warm_planning(once):
    def run():
        clear_plan_caches()
        t0 = time.perf_counter()
        cold_plan = _plan()
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_plan = _plan()
        warm = time.perf_counter() - t0
        assert cold_plan.ranks() == warm_plan.ranks()
        return cold, warm

    cold, warm = once(run)
    speedup = cold / warm
    print(f"\ncold {cold * 1e3:.1f} ms -> warm {warm * 1e3:.3f} ms "
          f"({speedup:.0f}x)")
    assert speedup >= 5.0, f"warm cache only {speedup:.1f}x faster"
