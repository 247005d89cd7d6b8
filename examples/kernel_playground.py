"""Kernel playground: compare convolution schemes on one core shape.

For a Tucker-core convolution shape of your choice this example:

- simulates the latency of each scheme on both devices,
- shows the analytical model's tiling choice vs the oracle's,
- emits the specialized CUDA source the TDC code generator produces.

Usage:
    python examples/kernel_playground.py [C N H W]
    python examples/kernel_playground.py 64 32 56 56
"""

import sys

from repro.gpusim import A100, RTX2080TI
from repro.kernels import (
    ConvShape,
    CuDNNFFTKernel,
    CuDNNGemmKernel,
    CuDNNWinogradKernel,
    TVMDirectKernel,
    generate_tdc_kernel_source,
)
from repro.perfmodel import select_tiling_model, select_tiling_oracle
from repro.utils.tables import Table


def main() -> None:
    if len(sys.argv) == 5:
        c, n, h, w = (int(a) for a in sys.argv[1:])
    else:
        c, n, h, w = 64, 32, 56, 56
    shape = ConvShape(c=c, n=n, h=h, w=w)
    print(f"=== Core convolution {shape} (3x3 filter, batch 1) ===")

    # Simulated latency on both devices.
    table = Table(
        ["device", "TDC-ORACLE", "TDC-MODEL", "TVM", "GEMM", "WINO", "FFT"],
        title="\nSimulated latency (us):",
    )
    for device in (A100, RTX2080TI):
        oracle = select_tiling_oracle(shape, device)
        model = select_tiling_model(shape, device)
        table.add_row([
            device.name,
            f"{oracle.simulated_latency * 1e6:.1f}",
            f"{model.simulated_latency * 1e6:.1f}",
            f"{TVMDirectKernel.tuned(shape, device).latency(shape, device) * 1e6:.1f}",
            f"{CuDNNGemmKernel().latency(shape, device) * 1e6:.1f}",
            f"{CuDNNWinogradKernel().latency(shape, device) * 1e6:.1f}",
            f"{CuDNNFFTKernel().latency(shape, device) * 1e6:.1f}",
        ])
    print(table.render())

    oracle = select_tiling_oracle(shape, A100)
    model = select_tiling_model(shape, A100)
    print(f"\nA100 tiling choices: oracle {oracle.tiling}, model {model.tiling}")

    print("\nGenerated CUDA for the oracle tiling (first 40 lines):")
    src = generate_tdc_kernel_source(shape, oracle.tiling)
    print("\n".join(src.splitlines()[:40]))
    print("  ... (truncated)")


if __name__ == "__main__":
    main()
