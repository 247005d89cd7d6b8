"""Cross-package integration tests.

These tie the layers of the system together: the NN layer semantics
against the reference convolution, the code generator against the
simulator's resource accounting, and the full pipeline end to end.
"""

import numpy as np
import pytest

from repro.codesign import run_tdc_pipeline
from repro.compression.training import evaluate, train_model
from repro.data.synthetic import make_cifar_like
from repro.gpusim.device import A100
from repro.kernels.base import ConvShape, reference_conv
from repro.kernels.tdc_direct import TDCDirectKernel, Tiling
from repro.models.registry import build_model
from repro.nn import Conv2d, TuckerConv2d
from repro.nn.tucker_conv import TuckerConv2d as TC


class TestLayerKernelConsistency:
    """The NN layers agree with the reference convolution and with the
    kernel accounting (FLOPs, codegen resources)."""

    def test_dense_layer_equals_reference_kernel(self, rng):
        conv = Conv2d(5, 7, 3, padding=1, bias=False, seed=0)
        x = rng.standard_normal((1, 5, 9, 9))
        y_layer = conv.forward(x)[0]
        y_kernel = reference_conv(x[0], conv.weight.data)
        np.testing.assert_allclose(y_layer, y_kernel, atol=1e-10)

    def test_flops_accounting_matches_codesign(self):
        """The NN layer's flops() and the format's chain accounting
        both give the hand-computed three-stage count."""
        from repro.tensor.formats import get_format

        layer = TuckerConv2d(16, 24, 3, rank_in=4, rank_out=6, padding=1)
        # 2*14*14*16*4 + 2*14*14*9*4*6 + 2*14*14*6*24
        expected = 25088 + 84672 + 56448
        assert layer.flops(14, 14) == expected
        assert get_format("tucker").flops(16, 24, 14, 14, (4, 6)) == expected

    def test_conv_flops_match(self):
        from repro.codesign.flops import conv_flops

        conv = Conv2d(16, 24, 3, padding=1)
        assert conv.flops(14, 14) == conv_flops(16, 24, 14, 14)


class TestCodegenSimulatorConsistency:
    def test_generated_constants_match_launch(self):
        from repro.kernels.codegen import kernel_constants

        shape = ConvShape(64, 32, 28, 28)
        tiling = Tiling(7, 7, 16)
        consts = kernel_constants(shape, tiling)
        launch = TDCDirectKernel(tiling).launches(shape, A100)[0]
        assert launch.n_blocks == (
            consts["TILES_H"] * consts["TILES_W"] * consts["TILES_C"]
        )
        assert launch.threads_per_block == consts["N"]


class TestPipelineEndToEnd:
    @pytest.fixture(scope="class")
    def pipeline_result(self):
        train_data, test_data = make_cifar_like(
            n_train=96, n_test=48, image_size=8, num_classes=4, seed=0
        )
        model = build_model("resnet_tiny", num_classes=4, seed=1)
        train_model(model, train_data, epochs=3, batch_size=16, seed=0)
        return run_tdc_pipeline(
            model, train_data, test_data, device=A100,
            budget=0.5, rank_step=2, admm_epochs=2, finetune_epochs=1,
            batch_size=16, rho=0.5, seed=0,
        ), test_data

    def test_produces_tucker_layers(self, pipeline_result):
        result, _ = pipeline_result
        n_tucker = sum(
            1 for _, m in result.model.named_modules()
            if isinstance(m, TuckerConv2d)
        )
        assert n_tucker == len(result.rank_map) > 0

    def test_flops_reduced(self, pipeline_result):
        result, _ = pipeline_result
        assert result.achieved_flops_reduction > 0.2

    def test_model_still_functions(self, pipeline_result):
        result, test_data = pipeline_result
        acc = evaluate(result.model, test_data)
        assert acc >= 0.25  # at least chance level after compression

    def test_plan_consistent_with_rank_map(self, pipeline_result):
        result, _ = pipeline_result
        for d in result.plan.decisions:
            if d.decomposed:
                assert result.rank_map[d.layer.name] == (d.d2, d.d1)

    def test_speedup_reported(self, pipeline_result):
        result, _ = pipeline_result
        assert result.layerwise_speedup > 0


class TestDeterminismAcrossStack:
    def test_latency_estimates_reproducible(self):
        from repro.perfmodel.tiling import clear_tiling_cache, select_tiling

        shape = ConvShape(64, 32, 28, 28)
        clear_tiling_cache()
        a = select_tiling(shape, A100, "oracle").simulated_latency
        clear_tiling_cache()
        b = select_tiling(shape, A100, "oracle").simulated_latency
        assert a == b

    def test_pipeline_reproducible(self):
        train_data, test_data = make_cifar_like(
            n_train=64, n_test=32, image_size=8, num_classes=4, seed=0
        )

        def run():
            model = build_model("resnet_tiny", num_classes=4, seed=1)
            train_model(model, train_data, epochs=2, batch_size=16, seed=0)
            result = run_tdc_pipeline(
                model, train_data, test_data, device=A100,
                budget=0.5, rank_step=2, admm_epochs=1, finetune_epochs=1,
                batch_size=16, seed=0,
            )
            return result.compressed_accuracy, tuple(sorted(result.rank_map))

        assert run() == run()
