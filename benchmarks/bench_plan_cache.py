"""Planning-cache benchmark: cold vs warm, and disk.

Two measurements over a ResNet-sized planning workload:

- cold-vs-warm: full Algorithm 1 rank selection from empty caches vs
  a second run against warm caches (must be >= 5x faster warm);
- disk round-trip: persisting the warm caches and replanning from the
  loaded state instead of recomputing (must be faster).
"""

import time

from repro.codesign.pipeline import layer_shapes_from_spec
from repro.codesign.rank_selection import select_ranks
from repro.gpusim.device import A100
from repro.models.arch_specs import get_model_spec
from repro.planning.cache import (
    clear_plan_caches,
    load_plan_caches,
    save_plan_caches,
)

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


def test_disk_reload_vs_recompute(once, tmp_path):
    def run():
        clear_plan_caches()
        t0 = time.perf_counter()
        _plan()
        recompute = time.perf_counter() - t0
        save_plan_caches(tmp_path)
        clear_plan_caches()
        t0 = time.perf_counter()
        load_plan_caches(tmp_path)
        _plan()
        reload = time.perf_counter() - t0
        return recompute, reload

    recompute, reload = once(run)
    print(f"\nrecompute {recompute * 1e3:.1f} ms vs load-from-disk "
          f"{reload * 1e3:.1f} ms ({recompute / reload:.1f}x)")
    assert reload < recompute
