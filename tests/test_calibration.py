"""Measured vs simulated: the calibration report.

``run_calibration`` pairs each compiled core's host seconds with the
simulated latency its plan recorded.
"""

from __future__ import annotations

import pytest

from repro.calibration import CORE_KINDS, run_calibration, shape_class
from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import A100
from repro.inference import compile_model
from repro.kernels.base import ConvShape
from repro.models.registry import build_model

IMAGE_HW = (8, 8)


@pytest.fixture(scope="module")
def calibrated_setup():
    """One compiled executable + its calibration run (module-cached)."""
    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, IMAGE_HW, budget=0.5, rank_step=2)
    model.eval()
    exe = compile_model(
        model, A100, image_hw=IMAGE_HW, core_backend="auto",
        max_batch=1, model_name="resnet_tiny",
    )
    run = run_calibration(exe, warmup=1, repeats=3)
    return exe, run


def test_shape_class_groups_by_filter_and_size():
    a = ConvShape(c=16, n=16, h=8, w=8, r=3, s=3)
    same = ConvShape(c=16, n=16, h=8, w=8, r=3, s=3)
    bigger = ConvShape(c=256, n=256, h=32, w=32, r=3, s=3)
    pointwise = ConvShape(c=16, n=16, h=8, w=8, r=1, s=1)
    assert shape_class(a) == shape_class(same)
    assert shape_class(a) != shape_class(bigger)
    assert shape_class(a) != shape_class(pointwise)
    assert shape_class(a).startswith("3x3/")


def test_run_measures_every_bound_core(calibrated_setup):
    exe, run = calibrated_setup
    planned_cores = {
        k.layer.removesuffix(".core"): k for k in exe.plan.kernels
        if k.kind in CORE_KINDS
    }
    assert sorted(s.site for s in run.samples) == sorted(planned_cores)
    cores = {s.site_name: s.core_stage for s in exe.sites()}
    # Stride-1 cores take pitched windows, strided ones the 2-D view.
    assert {s.layout for s in run.samples} == {"pitched", "windows"}
    for sample in run.samples:
        kernel = planned_cores[sample.site]
        # The plan's own simulated latency, untouched.
        assert sample.predicted_s == kernel.latency
        assert sample.backend == (kernel.backend or "cudnn")
        assert sample.layout == cores[sample.site].layout
        assert sample.measured_s > 0
        assert sample.shape_class == shape_class(sample.shape)
    assert run.total_predicted_s == exe.predicted_latency()
    assert run.core_predicted_s == pytest.approx(
        sum(k.latency for k in planned_cores.values())
    )
    assert run.aux_predicted_s >= 0
    assert run.total_measured_s > 0
    assert run.core_measured_s == pytest.approx(
        sum(s.measured_s for s in run.samples)
    )



def test_every_core_stage_is_measured():
    """Depthwise middles are measured whichever backend won them — the
    depthwise baseline included, under its own name and plan latency."""
    from repro.backends import DEPTHWISE_BASELINE

    model = build_model("vgg_tiny", seed=0)
    decompose_for_device(model, A100, IMAGE_HW, budget=0.5, rank_step=2,
                         formats=("cp",))
    exe = compile_model(model.eval(), A100, image_hw=IMAGE_HW,
                        core_backend="auto", max_batch=1)
    cored = [s.site_name for s in exe.sites() if s.core_stage is not None]
    assert any(s.format == "cp" for s in exe.sites())
    run = run_calibration(exe, warmup=0, repeats=1)
    assert sorted(s.site for s in run.samples) == sorted(cored)
    planned = {k.layer: k for k in exe.plan.kernels}
    for sample in run.samples:
        site = next(s for s in exe.sites() if s.site_name == sample.site)
        kernel = planned[sample.site + (".core" if site.format == "cp"
                                        else "")]
        assert sample.predicted_s == kernel.latency
        assert sample.backend == (kernel.backend or "cudnn")
        assert sample.layout == site.core_stage.layout
    assert DEPTHWISE_BASELINE in {s.backend for s in run.samples}
