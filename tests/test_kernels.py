"""Tests for all convolution kernel schemes.

Each scheme's launch description and simulated latency is probed for
the structural properties the paper relies on; ``pad_input`` and the
dtype promotion rules are checked directly, and each scheme's compiled
execution is checked to keep the model's dtype.
"""

import numpy as np
import pytest

from repro.gpusim.device import A100, RTX2080TI
from repro.inference.executable import compile_model
from repro.kernels.base import (
    ConvShape,
    execution_dtype,
    pad_input,
    reference_conv,
)
from repro.kernels.cudnn import (
    CuDNNFFTKernel,
    CuDNNGemmKernel,
    CuDNNWinogradKernel,
    GemmConfig,
)
from repro.kernels.pointwise import (
    PointwiseConvKernel,
    batchnorm_relu_latency,
    fc_latency,
    memory_bound_op_latency,
    pointwise_latency,
    pooling_latency,
)
from repro.kernels.tdc_direct import (
    TDCDirectKernel,
    Tiling,
    is_feasible,
    n_blocks,
    regs_per_thread,
    smem_bytes,
)
from repro.kernels.tvm_direct import TVMDirectKernel, TVMTiling
from repro.nn.conv import Conv2d
from repro.nn.module import Sequential
from repro.nn.tucker_conv import TuckerConv2d


class TestConvShape:
    def test_flops(self):
        shape = ConvShape(64, 32, 56, 56)
        assert shape.flops() == 2 * 56 * 56 * 64 * 32 * 9

    def test_padded_extent(self):
        assert ConvShape(4, 4, 10, 10, r=3, s=3).padded_h == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvShape(0, 4, 8, 8)

    def test_pad_input_roundtrip(self, rng):
        shape = ConvShape(2, 3, 5, 5)
        x = rng.standard_normal((2, 5, 5))
        xp = pad_input(x, shape)
        assert xp.shape == (2, 7, 7)
        np.testing.assert_array_equal(xp[:, 1:6, 1:6], x)

    def test_pad_input_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            pad_input(rng.standard_normal((2, 4, 4)), ConvShape(2, 3, 5, 5))


class TestTDCKernelModel:
    def test_resource_accounting(self):
        shape = ConvShape(64, 32, 56, 56)
        t = Tiling(8, 8, 16)
        assert smem_bytes(t, shape) == 16 * 10 * 10 * 4
        assert regs_per_thread(t, shape) == 64 + 9 + 16
        assert n_blocks(t, shape) == 7 * 7 * 4

    def test_launch_description(self, device):
        shape = ConvShape(64, 32, 28, 28)
        launch = TDCDirectKernel(Tiling(7, 7, 16)).launches(shape, device)[0]
        assert launch.threads_per_block == 32  # one thread per o/p channel
        assert launch.n_blocks == 4 * 4 * 4
        assert launch.syncs_per_block == 1
        assert launch.atomic_conflict_degree == 4  # C / TC

    def test_infeasible_tiling_raises(self):
        shape = ConvShape(64, 32, 56, 56)
        with pytest.raises(ValueError):
            # 16x16 accumulators exceed the register budget.
            TDCDirectKernel(Tiling(16, 16, 64)).launches(shape, A100)

    def test_too_many_output_channels_infeasible(self):
        shape = ConvShape(64, 2048, 14, 14)
        assert not is_feasible(Tiling(4, 4, 8), shape, A100)

    def test_ncrs_layout_inflates_traffic(self, device):
        shape = ConvShape(64, 32, 28, 28)
        t = Tiling(7, 7, 16)
        crsn = TDCDirectKernel(t, crsn_layout=True).launches(shape, device)[0]
        ncrs = TDCDirectKernel(t, crsn_layout=False).launches(shape, device)[0]
        assert ncrs.read_bytes > 2 * crsn.read_bytes

    def test_ncrs_layout_slower_when_memory_bound(self, device):
        # Large spatial extent -> the kernel-tensor volume (Eq. 16)
        # dominates, so the uncoalesced layout shows up in latency.
        shape = ConvShape(64, 32, 224, 224)
        t = Tiling(7, 7, 16)
        crsn = TDCDirectKernel(t, crsn_layout=True).latency(shape, device)
        ncrs = TDCDirectKernel(t, crsn_layout=False).latency(shape, device)
        assert ncrs > crsn

    def test_latency_positive(self, device):
        shape = ConvShape(32, 32, 14, 14)
        assert TDCDirectKernel(Tiling(7, 7, 8)).latency(shape, device) > 0


class TestTVMKernel:
    def test_sync_count_scales_with_c(self, device):
        l1 = TVMDirectKernel(TVMTiling(8, 8, 8)).launches(
            ConvShape(32, 32, 16, 16), device
        )[0]
        l2 = TVMDirectKernel(TVMTiling(8, 8, 8)).launches(
            ConvShape(128, 32, 16, 16), device
        )[0]
        assert l2.syncs_per_block == 4 * l1.syncs_per_block

    def test_no_c_split(self, device):
        """Grid never splits C — the limitation the paper identifies."""
        launch = TVMDirectKernel(TVMTiling(8, 8, 8)).launches(
            ConvShape(256, 32, 16, 16), device
        )[0]
        assert launch.n_blocks == 2 * 2 * 4  # (H/8)(W/8)(N/8), no C term

    def test_tuned_picks_feasible(self, device):
        shape = ConvShape(64, 32, 28, 28)
        kernel = TVMDirectKernel.tuned(shape, device)
        assert kernel.latency(shape, device) > 0

    def test_tuned_beats_bad_tiling(self, device):
        shape = ConvShape(64, 32, 28, 28)
        tuned = TVMDirectKernel.tuned(shape, device).latency(shape, device)
        bad = TVMDirectKernel(TVMTiling(1, 1, 1)).latency(shape, device)
        assert tuned <= bad


class TestCuDNNKernels:
    def test_winograd_rejects_non_3x3(self, device):
        with pytest.raises(ValueError):
            CuDNNWinogradKernel().launches(
                ConvShape(8, 8, 8, 8, r=5, s=5), device
            )

    def test_gemm_tile_quantization(self, device):
        """N=129 pads to two column tiles: double the blocks and
        padded FLOPs of N<=128 (the under-utilization mechanism)."""
        cfg = GemmConfig(128, 128, 256)
        base = CuDNNGemmKernel(cfg).launches(ConvShape(64, 64, 56, 56), device)[0]
        spill = CuDNNGemmKernel(cfg).launches(ConvShape(64, 129, 56, 56), device)[0]
        assert spill.n_blocks == 2 * base.n_blocks
        # Padded tile work is identical per block despite 2x outputs.
        assert spill.flops_per_block == base.flops_per_block

    def test_fft_dominated_by_filter_tensor_on_large_images(self, device):
        small = CuDNNFFTKernel().latency(ConvShape(64, 32, 14, 14), device)
        large = CuDNNFFTKernel().latency(ConvShape(64, 32, 224, 224), device)
        assert large > 50 * small

    def test_winograd_stage_count(self, device):
        launches = CuDNNWinogradKernel().launches(
            ConvShape(32, 32, 28, 28), device
        )
        assert len(launches) == 4  # filter, input, gemm, output


class TestPointwiseAndAux:
    def test_pointwise_rejects_3x3(self, device):
        with pytest.raises(ValueError):
            PointwiseConvKernel().launches(ConvShape(4, 4, 8, 8), device)

    def test_pointwise_latency_positive(self, device):
        assert pointwise_latency(64, 32, 56, 56, device) > 0

    def test_memory_bound_op(self, device):
        lat = memory_bound_op_latency(1e6, 1e6, device)
        assert lat > 2e6 / device.dram_bandwidth

    def test_memory_bound_validation(self, device):
        with pytest.raises(ValueError):
            memory_bound_op_latency(-1, 0, device)

    def test_pooling_latency(self, device):
        assert pooling_latency(64, 56, 56, 2, 2, device) > 0

    def test_bn_relu_latency_scales(self, device):
        small = batchnorm_relu_latency(16, 14, 14, device)
        big = batchnorm_relu_latency(512, 56, 56, device)
        assert big > small

    def test_fc_latency(self, device):
        assert fc_latency(512, 1000, device) > 0


class TestPaperStructuralClaims:
    """The headline kernel-level behaviours of Figs. 6/7."""

    def test_tdc_wins_small_shapes(self, device):
        from repro.perfmodel.tiling import select_tiling

        for (c, n, h, w) in [(64, 32, 14, 14), (96, 64, 7, 7), (32, 32, 28, 28)]:
            shape = ConvShape(c, n, h, w)
            tdc = select_tiling(shape, device, "oracle").simulated_latency
            tvm = TVMDirectKernel.tuned(shape, device).latency(shape, device)
            gemm = CuDNNGemmKernel().latency(shape, device)
            assert tdc < tvm
            assert tdc < gemm

    def test_tvm_wins_vgg_scale_shapes(self, device):
        """The paper's observed crossover on (64,32,224,224)."""
        from repro.perfmodel.tiling import select_tiling

        shape = ConvShape(64, 32, 224, 224)
        tdc = select_tiling(shape, device, "oracle").simulated_latency
        tvm = TVMDirectKernel.tuned(shape, device).latency(shape, device)
        assert tvm < tdc

    def test_fft_slowest_on_average(self, device):
        from repro.models.arch_specs import PAPER_CONV_SHAPES

        worst_count = 0
        for (c, n, h, w) in PAPER_CONV_SHAPES[:8]:
            shape = ConvShape(c, n, h, w)
            fft = CuDNNFFTKernel().latency(shape, device)
            others = [
                CuDNNGemmKernel().latency(shape, device),
                CuDNNWinogradKernel().latency(shape, device),
            ]
            if fft >= max(others):
                worst_count += 1
        assert worst_count >= 5


class TestAsymmetricFilters:
    """Edge case: an even filter through pad_input (the asymmetric
    same-padding path)."""

    def test_even_filter_pad_asymmetric(self, rng):
        shape = ConvShape(2, 3, 6, 6, r=2, s=2)
        x = rng.standard_normal((2, 6, 6))
        xp = pad_input(x, shape)
        assert xp.shape == (2, 7, 7)
        # Even filters pad only on the bottom/right.
        assert np.all(xp[:, -1, :] == 0) and np.all(xp[:, :, -1] == 0)
        np.testing.assert_array_equal(xp[:, :6, :6], x)


class TestExecutionDtype:
    """``execution_dtype`` picks the compiled arena's dtype
    (``model_dtype``) and ``reference_conv``'s: float32 stays float32
    (no silent float64 promotion), float64 stays float64, mixed floats
    take the wider, non-floats give float64 and float16 gives
    float32."""

    def test_float32_stays_float32(self):
        x = np.ones((3, 4, 4), dtype=np.float32)
        w = np.ones((2, 3, 3, 3), dtype=np.float32)
        assert execution_dtype(x, w) == np.float32
        assert execution_dtype(x) == np.float32

    def test_float64_unchanged(self):
        x = np.ones((3, 4, 4))
        assert execution_dtype(x, np.ones((2, 3, 3, 3))) == np.float64

    def test_mixed_dtypes_promote(self):
        x = np.ones((3, 4, 4), dtype=np.float32)
        w = np.ones((2, 3, 3, 3))  # float64
        assert execution_dtype(x, w) == np.float64
        assert execution_dtype(w, x) == np.float64

    def test_integer_inputs_promote_to_float64(self):
        x = np.ones((2, 5, 5), dtype=np.int32)
        w = np.ones((2, 2, 3, 3), dtype=np.int64)
        assert execution_dtype(x, w) == np.float64
        assert execution_dtype(np.ones(3, dtype=bool)) == np.float64

    def test_float16_promotes_to_float32(self):
        x = np.ones((3, 6, 6), dtype=np.float16)
        assert execution_dtype(x, x) == np.float32


def _tucker_layer():
    return TuckerConv2d(5, 4, 3, rank_in=3, rank_out=2, padding=1, seed=0)


def _pointwise_layer():
    return Conv2d(5, 4, 1, padding=0, seed=0)


class TestRunDtype:
    """Each scheme's compiled execution runs in the model's dtype:
    float32 stays float32 end to end (no silent float64 promotion, no
    hot-path cast), float64 is unchanged.  A Tucker layer's core runs
    under the named backend; ``pointwise`` is a dense 1x1 conv."""

    KERNEL_CASES = [
        ("tdc-model", _tucker_layer),
        ("tvm", _tucker_layer),
        ("cudnn", _tucker_layer),
        ("cudnn-winograd", _tucker_layer),
        ("cudnn-fft", _tucker_layer),
        (None, _pointwise_layer),
    ]

    KERNEL_IDS = ["tdc", "tvm", "gemm", "winograd", "fft", "pointwise"]

    @staticmethod
    def _run(backend, factory, dtype, rng):
        layer = factory()
        for p in layer.parameters():
            p.data = p.data.astype(dtype)
        model = Sequential(layer).eval()
        exe = compile_model(
            model, A100, image_hw=(8, 8), in_channels=5,
            core_backend=backend or "auto", max_batch=1, threads=1,
        )
        assert exe.backend_counts() == ({backend: 1} if backend else {})
        x = rng.standard_normal((1, 5, 8, 8)).astype(dtype)
        w = layer.to_conv_weight() if backend else layer.weight.data
        y = exe.run(x)
        assert exe.dtype == dtype and exe.hot_casts == 0
        return y[0], reference_conv(x[0], w)

    @pytest.mark.parametrize("backend,factory", KERNEL_CASES, ids=KERNEL_IDS)
    def test_float32_stays_float32(self, backend, factory, rng):
        y, ref = self._run(backend, factory, np.float32, rng)
        assert y.dtype == np.float32 and ref.dtype == np.float32
        np.testing.assert_allclose(y, ref, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("backend,factory", KERNEL_CASES, ids=KERNEL_IDS)
    def test_float64_unchanged(self, backend, factory, rng):
        y, ref = self._run(backend, factory, np.float64, rng)
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, ref, atol=1e-10)
