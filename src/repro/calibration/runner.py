"""Calibration runs: the plan's simulated seconds next to host seconds.

:func:`run_calibration` drives one compiled
:class:`~repro.inference.Executable` the way the serving hot path does
— every site's core stage (the ``conv`` or ``dw`` stage object the
site's forward runs) executes against the executable's own arena
buffers (warmup + best-of-k, mirroring ``Executable.measure``) — and
pairs each measurement with the simulated latency its plan recorded
for that core under the planned backend, and with the stage's host
window layout beside it (``pitched`` or ``windows``: the plan's GPU
backend never picks the host loop).  One whole-run measurement gives
the totals.

The result is a report, never a planner input: the plan prices the
target GPU, the measurement times this host, and nothing feeds one
into the other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import List

import numpy as np

from repro.inference.executable import Executable
from repro.kernels.base import ConvShape
from repro.perfmodel.analytical import shape_class

#: Plan kinds of a measured core: a Tucker core, a CP/TT middle, or a
#: dense ``RxS`` conv — each one site's core stage.
CORE_KINDS = ("core", "dwcore", "conv")


@dataclass(frozen=True)
class SiteSample:
    """One measured kernel site: simulated vs host seconds."""

    site: str            # dotted module name of the compiled site
    backend: str         # backend that planned the kernel (a registered
                         # one, or the depthwise baseline for a middle)
    layout: str          # the host core stage's windows: "pitched" (the
                         # flattened plane) or "windows" (the 2-D view)
    shape: ConvShape     # the plan-time core shape (output extent)
    shape_class: str
    predicted_s: float   # the plan's simulated GPU latency
    measured_s: float    # best-of-k core-stage host seconds

    @property
    def ratio(self) -> float:
        return self.measured_s / self.predicted_s


@dataclass
class CalibrationRun:
    """All measurements of one calibration pass over one executable."""

    model_name: str
    device_name: str
    warmup: int
    repeats: int
    samples: List[SiteSample] = field(default_factory=list)
    total_predicted_s: float = 0.0   # plan total
    core_predicted_s: float = 0.0    # plan total over the measured cores
    total_measured_s: float = 0.0    # whole Executable.run host time
    core_measured_s: float = 0.0     # summed per-site host time

    @property
    def aux_predicted_s(self) -> float:
        return self.total_predicted_s - self.core_predicted_s


def _best_of(fn, warmup: int, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds of ``fn()`` after warmup."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _core_kernel(site, planned):
    """The plan kernel a site's core stage executes (None when the
    site has no core stage: a pointwise GEMM)."""
    if site.core_stage is None:
        return None
    return planned[site.site_name + (".core" if site.format != "dense"
                                     else "")]


def run_calibration(
    executable: Executable,
    *,
    warmup: int = 2,
    repeats: int = 5,
    seed: int = 0,
) -> CalibrationRun:
    """Measure one executable per site and end to end.

    Not thread-safe with respect to the executable (one arena): measure
    an executable no session is serving.
    """
    plan = executable.plan
    planned = {k.layer: k for k in plan.kernels}
    measured = [
        (site, kernel) for site in executable.sites()
        if (kernel := _core_kernel(site, planned)) is not None
    ]
    run = CalibrationRun(
        model_name=executable.model_name,
        device_name=executable.device.name,
        warmup=warmup,
        repeats=repeats,
        total_predicted_s=plan.total_latency(),
        core_predicted_s=sum(kernel.latency for _, kernel in measured),
    )
    for site, kernel in measured:
        # A core stage reads the arena buffer its predecessor wrote;
        # only an unpadded first conv reads the network input itself.
        dummy = np.zeros((1,) + site.input_shape, dtype=executable.dtype)
        run.samples.append(
            SiteSample(
                site=site.site_name,
                backend=kernel.backend or "cudnn",
                layout=site.core_stage.layout,
                shape=site.core_shape,
                shape_class=shape_class(site.core_shape),
                predicted_s=kernel.latency,
                measured_s=_best_of(
                    partial(site.core_stage.run, dummy, 0, 1),
                    warmup, repeats,
                ),
            )
        )
    run.core_measured_s = sum(s.measured_s for s in run.samples)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        (1,) + executable.input_shape
    ).astype(executable.dtype)
    run.total_measured_s = executable.measure(
        x, repeats=repeats, warmup=warmup
    )
    return run
