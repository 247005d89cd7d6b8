"""Convolution kernel schemes (TDC, TVM, cuDNN-style baselines).

Every scheme is a launch description whose latency comes from the GPU
simulator; :mod:`repro.kernels.codegen` emits the TDC kernel's CUDA
source.  The host computes convolutions only through the compiled
executable's stages (:mod:`repro.inference.executable`).
"""

from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape, pad_input, reference_conv
from repro.kernels.codegen import (
    convert_kernel_from_crsn,
    convert_kernel_to_crsn,
    generate_tdc_kernel_source,
    kernel_constants,
)
from repro.kernels.cudnn import (
    CuDNNFFTKernel,
    CuDNNGemmKernel,
    CuDNNWinogradKernel,
    GemmConfig,
)
from repro.kernels.depthwise import DepthwiseConvKernel, dwcore_latency
from repro.kernels.pointwise import (
    PointwiseConvKernel,
    batchnorm_relu_latency,
    fc_latency,
    memory_bound_op_latency,
    pointwise_latency,
    pooling_latency,
)
from repro.kernels.tdc_direct import TDCDirectKernel, Tiling, is_feasible
from repro.kernels.tvm_direct import TVMDirectKernel, TVMTiling

__all__ = [
    "FLOAT_BYTES",
    "ConvKernel",
    "ConvShape",
    "pad_input",
    "reference_conv",
    "convert_kernel_from_crsn",
    "convert_kernel_to_crsn",
    "generate_tdc_kernel_source",
    "kernel_constants",
    "CuDNNFFTKernel",
    "CuDNNGemmKernel",
    "CuDNNWinogradKernel",
    "GemmConfig",
    "DepthwiseConvKernel",
    "dwcore_latency",
    "PointwiseConvKernel",
    "batchnorm_relu_latency",
    "fc_latency",
    "memory_bound_op_latency",
    "pointwise_latency",
    "pooling_latency",
    "TDCDirectKernel",
    "Tiling",
    "is_feasible",
    "TVMDirectKernel",
    "TVMTiling",
]
