"""Batched-vs-scalar equivalence suite.

The vectorized batch engine (:mod:`repro.gpusim.batch`), the batched
analytical model, and the batched tiling selectors all promise
*bit-identical* results against the scalar reference implementations —
including tie-break resolution, which depends on exact float equality.
Every assertion here is ``==``, never approx.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.gpusim.batch import (
    LaunchBatch,
    compute_occupancy_batch,
    simulate_kernels_batch,
    simulate_launches_reference,
)
from repro.gpusim.device import A100, RTX2080TI
from repro.gpusim.engine import KernelLaunch, simulate_kernel
from repro.gpusim.occupancy import compute_occupancy
from repro.kernels.base import ConvShape
from repro.kernels.tdc_direct import (
    TDCDirectKernel,
    Tiling,
    is_feasible,
    is_feasible_batch,
    tdc_launch_batch,
)
from repro.perfmodel.analytical import (
    comp_latency,
    comp_latency_batch,
    comp_waves,
    comp_waves_batch,
    memory_latency,
    memory_latency_batch,
)
from repro.perfmodel.tiling import (
    CHANNEL_TILES,
    SPATIAL_TILES,
    candidate_grid,
    clear_tiling_cache,
    enumerate_tilings,
    enumerate_tilings_scalar,
    select_tiling_model,
    select_tiling_model_scalar,
    select_tiling_oracle,
    select_tiling_oracle_scalar,
    select_tilings,
    select_tilings_grid,
    tiling_cache,
)

DEVICES = (A100, RTX2080TI)

# Edge-case launches: zero-flops (memory-only), atomic-heavy with a
# deep conflict degree, occupancy-limited (fat shared memory and
# registers), a one-block grid, a huge multi-wave grid, a
# warp-unaligned 48-thread block, and a stall-heavy staging loop.
EDGE_LAUNCHES = [
    KernelLaunch(n_blocks=64, threads_per_block=128, flops_per_block=0.0,
                 read_bytes=1e6, write_bytes=1e6, name="zero_flops"),
    KernelLaunch(n_blocks=256, threads_per_block=256, flops_per_block=1e6,
                 read_bytes=1e5, write_bytes=4e6, atomic_bytes=4e6,
                 atomic_conflict_degree=64, name="atomic_heavy"),
    KernelLaunch(n_blocks=500, threads_per_block=1024, flops_per_block=5e6,
                 read_bytes=1e7, write_bytes=1e6, smem_per_block=48 * 1024,
                 regs_per_thread=64, name="occupancy_limited"),
    KernelLaunch(n_blocks=1, threads_per_block=32, flops_per_block=1e3,
                 read_bytes=4e3, write_bytes=4e3, name="one_block"),
    KernelLaunch(n_blocks=1_000_000, threads_per_block=64, flops_per_block=2e4,
                 read_bytes=5e8, write_bytes=5e8, syncs_per_block=3,
                 name="huge_grid"),
    KernelLaunch(n_blocks=333, threads_per_block=48, flops_per_block=7.5e4,
                 read_bytes=1e5, write_bytes=3e4, name="warp_unaligned"),
    KernelLaunch(n_blocks=2048, threads_per_block=96, flops_per_block=3e5,
                 read_bytes=2e6, write_bytes=2e5, syncs_per_block=16,
                 global_stalls_per_block=128, name="stall_heavy"),
]


def _random_shapes(n_shapes: int, seed: int = 1234):
    rng = np.random.default_rng(seed)
    shapes = []
    while len(shapes) < n_shapes:
        shapes.append(
            ConvShape(
                c=int(rng.integers(1, 320)),
                n=int(rng.integers(1, 512)),
                h=int(rng.integers(1, 64)),
                w=int(rng.integers(1, 64)),
                r=int(rng.choice([1, 3, 5])),
                s=int(rng.choice([1, 3, 5])),
            )
        )
    return shapes


class TestSimulatorParity:
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("overhead", [True, False])
    def test_edge_launches_bit_identical(self, device, overhead):
        batch = LaunchBatch.from_launches(EDGE_LAUNCHES)
        out = simulate_kernels_batch(device, batch,
                                     include_launch_overhead=overhead)
        refs = simulate_launches_reference(device, batch,
                                           include_launch_overhead=overhead)
        for i, (launch, ref) in enumerate(zip(EDGE_LAUNCHES, refs)):
            assert out.total[i] == ref.total, launch.name
            assert out.compute[i] == ref.compute, launch.name
            assert out.memory[i] == ref.memory, launch.name
            assert out.sync[i] == ref.sync, launch.name
            assert out.atomic[i] == ref.atomic, launch.name
            assert out.launch[i] == ref.launch, launch.name
            assert out.waves[i] == ref.waves, launch.name
            assert out.blocks_per_sm[i] == ref.occupancy.blocks_per_sm

    def test_does_not_fit_raises_like_scalar(self):
        bad = KernelLaunch(
            n_blocks=4, threads_per_block=1024, flops_per_block=1.0,
            read_bytes=0.0, write_bytes=0.0, smem_per_block=63 * 1024,
            regs_per_thread=255, name="no_fit",
        )
        with pytest.raises(ValueError):
            simulate_kernel(RTX2080TI, bad)
        with pytest.raises(ValueError):
            simulate_kernels_batch(RTX2080TI, LaunchBatch.from_launches([bad]))

    def test_launch_roundtrip(self):
        batch = LaunchBatch.from_launches(EDGE_LAUNCHES)
        for i, launch in enumerate(EDGE_LAUNCHES):
            got = batch.launch(i, name=launch.name)
            assert got == launch

    def test_concat(self):
        b1 = LaunchBatch.from_launches(EDGE_LAUNCHES[:3])
        b2 = LaunchBatch.from_launches(EDGE_LAUNCHES[3:])
        cat = LaunchBatch.concat([b1, b2])
        assert len(cat) == len(EDGE_LAUNCHES)
        out = simulate_kernels_batch(A100, cat)
        whole = simulate_kernels_batch(A100, LaunchBatch.from_launches(EDGE_LAUNCHES))
        assert np.array_equal(out.total, whole.total)

    def test_validate_rejects_bad_fields(self):
        batch = LaunchBatch.from_launches(EDGE_LAUNCHES[:1])
        batch.atomic_conflict_degree = np.array([0])
        with pytest.raises(ValueError):
            batch.validate(A100)


class TestOccupancyParity:
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    def test_random_configs(self, device):
        rng = np.random.default_rng(7)
        threads = rng.integers(1, device.max_threads_per_block + 1, size=200)
        smem = rng.integers(0, device.shared_mem_per_block + 1, size=200)
        regs = rng.integers(0, 256, size=200)
        blocks = compute_occupancy_batch(device, threads, smem, regs)
        for i in range(200):
            ref = compute_occupancy(
                device, int(threads[i]), int(smem[i]), int(regs[i])
            )
            assert blocks[i] == ref.blocks_per_sm, (threads[i], smem[i], regs[i])

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError):
            compute_occupancy_batch(A100, np.array([2048]))


class TestTdcLaunchBatchParity:
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("crsn", [True, False])
    def test_fields_match_scalar_launches(self, device, crsn):
        shape = ConvShape(96, 64, 28, 28)
        tilings = enumerate_tilings_scalar(shape, device)
        th = [t.th for t in tilings]
        tw = [t.tw for t in tilings]
        tc = [t.tc for t in tilings]
        batch = tdc_launch_batch(shape, device, th, tw, tc, crsn_layout=crsn)
        for i, t in enumerate(tilings):
            (ref,) = TDCDirectKernel(t, crsn_layout=crsn).launches(shape, device)
            got = batch.launch(i, name=ref.name)
            assert got == ref

    def test_feasibility_mask_matches_scalar(self):
        shape = ConvShape(64, 32, 56, 56)
        rng = np.random.default_rng(3)
        th = rng.integers(1, 64, size=300)
        tw = rng.integers(1, 64, size=300)
        tc = rng.integers(1, 300, size=300)
        for device in DEVICES:
            mask = is_feasible_batch(shape, device, th, tw, tc)
            for i in range(300):
                t = Tiling(int(th[i]), int(tw[i]), int(tc[i]))
                assert mask[i] == is_feasible(t, shape, device)

    def test_infeasible_candidate_raises(self):
        shape = ConvShape(64, 32, 56, 56)
        with pytest.raises(ValueError):
            tdc_launch_batch(shape, RTX2080TI, [56], [56], [256])


class TestAnalyticalBatchParity:
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    def test_eq15_eq19_elementwise(self, device):
        shape = ConvShape(64, 48, 56, 56)
        tilings = enumerate_tilings(shape, device)
        th = np.array([t.th for t in tilings])
        tw = np.array([t.tw for t in tilings])
        tc = np.array([t.tc for t in tilings])
        comp = comp_latency_batch(shape, device, th, tw, tc)
        waves = comp_waves_batch(shape, device, th, tw, tc)
        mem = memory_latency_batch(shape, device, th, tw, tc)
        for i, t in enumerate(tilings):
            assert comp[i] == comp_latency(shape, t, device), t
            assert waves[i] == comp_waves(shape, t, device), t
            assert mem[i] == memory_latency(shape, t, device), t

    def test_zero_occupancy_raises(self):
        shape = ConvShape(64, 32, 56, 56)
        # A 56x56x256 tile's shared-memory cube cannot fit on 2080Ti.
        with pytest.raises(ValueError):
            comp_waves_batch(shape, RTX2080TI, [56], [56], [64])


def _row_unique_grid(shape, spatial=SPATIAL_TILES, channel=CHANNEL_TILES):
    """Reference candidate grid: dedupe ``(TH, TW, TC)`` rows with
    ``np.unique(axis=0)``, keeping first occurrences in loop order."""
    rows = np.array(
        [(min(th, shape.h), min(tw, shape.w), min(tc, shape.c))
         for th in spatial for tw in spatial for tc in channel],
        dtype=np.int64,
    )
    _, first = np.unique(rows, axis=0, return_index=True)
    first.sort()
    return tuple(rows[first].T)


class TestCandidateGrid:
    """``candidate_grid`` dedupes on a 1-D mixed-radix key; it must
    return the row dedupe's arrays in the row dedupe's order."""

    def test_matches_row_unique(self):
        # Extents of 1, extents between and beyond the tile values, and
        # extents equal to a tile value.
        for h, w, c in itertools.product(
            (1, 3, 7, 13, 56, 100), (1, 5, 8, 29, 57), (1, 3, 17, 64, 300)
        ):
            shape = ConvShape(c=c, n=16, h=h, w=w)
            got = candidate_grid(shape)
            ref = _row_unique_grid(shape)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b), shape

    def test_custom_tile_sequences(self):
        # Unsorted, repeated tile values, clipped to several extents.
        spatial, channel = (9, 3, 1, 3, 40), (5, 128, 1, 5, 2)
        for shape in (ConvShape(c=4, n=8, h=6, w=2), ConvShape(c=200, n=8, h=45, w=45)):
            got = candidate_grid(shape, spatial, channel)
            ref = _row_unique_grid(shape, spatial, channel)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b), shape


class TestSelectorEquivalence:
    """The headline property: batched selectors return the identical
    TilingChoice (tiling, latencies, method) as the scalar reference
    across randomized shapes x both seed devices x both methods."""

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    def test_enumeration_identical(self, device):
        for shape in _random_shapes(12, seed=42):
            try:
                ref = enumerate_tilings_scalar(shape, device)
            except ValueError:
                with pytest.raises(ValueError):
                    enumerate_tilings(shape, device)
                continue
            assert enumerate_tilings(shape, device) == ref, shape

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("method", ["oracle", "model"])
    def test_selection_identical(self, device, method):
        batched = select_tiling_oracle if method == "oracle" else select_tiling_model
        scalar = (
            select_tiling_oracle_scalar
            if method == "oracle"
            else select_tiling_model_scalar
        )
        for shape in _random_shapes(10, seed=99):
            try:
                ref = scalar(shape, device)
            except ValueError:
                with pytest.raises(ValueError):
                    batched(shape, device)
                continue
            got = batched(shape, device)
            # Dataclass equality covers tiling, all three latencies
            # (exact float equality), and the method tag.
            assert got == ref, (shape, device.name, method)

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("method", ["oracle", "model"])
    def test_explicit_candidates_identical(self, device, method):
        shape = ConvShape(64, 32, 28, 28)
        cands = enumerate_tilings(shape, device)[::3]
        if method == "oracle":
            got = select_tiling_oracle(shape, device, candidates=cands)
            ref = select_tiling_oracle_scalar(shape, device, candidates=cands)
        else:
            got = select_tiling_model(shape, device, candidates=cands)
            ref = select_tiling_model_scalar(shape, device, candidates=cands)
        assert got == ref


class TestGridSelector:
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("method", ["oracle", "model"])
    def test_grid_matches_per_shape(self, device, method):
        shapes = [
            ConvShape(32, 32, 28, 28),
            ConvShape(32, 64, 28, 28),
            ConvShape(64, 32, 28, 28),
            ConvShape(96, 64, 14, 14),
        ]
        grid = select_tilings_grid(shapes, device, method=method)
        single = (
            select_tiling_oracle if method == "oracle" else select_tiling_model
        )
        for shape, choice in zip(shapes, grid):
            assert choice == single(shape, device), shape

    def test_empty_grid(self):
        assert select_tilings_grid([], A100, method="oracle") == []

    def test_cached_front_door_dedups_and_seeds(self):
        clear_tiling_cache()
        shapes = [
            ConvShape(32, 32, 14, 14),
            ConvShape(32, 32, 14, 14),  # duplicate: computed once
            ConvShape(64, 32, 14, 14),
        ]
        out = select_tilings(shapes, A100, method="oracle")
        assert out[0] == out[1]
        assert out[0] == select_tiling_oracle(shapes[0], A100)
        # All three requests are now cache hits.
        from repro.perfmodel.tiling import select_key

        for shape in shapes:
            assert tiling_cache().peek(select_key(shape, A100, "oracle")) is not None

    def test_bad_method_raises(self):
        with pytest.raises(ValueError):
            select_tilings_grid([ConvShape(8, 8, 8, 8)], A100, method="bogus")
        with pytest.raises(ValueError):
            select_tilings([ConvShape(8, 8, 8, 8)], A100, method="bogus")
