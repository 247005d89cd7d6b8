"""Measured vs simulated: host seconds next to the plan's GPU seconds.

The paper validates its performance model against the GPU it targets
(Sec. 5.5).  This package only reports how the host that runs the
compiled :class:`~repro.inference.Executable` compares:
:func:`run_calibration` times every site's core stage and the whole
run, and pairs each timing with the simulated latency the plan
recorded for it.  ``repro calibrate`` prints that report.

Nothing here feeds planning: a plan prices the target GPU, and host
time never enters it.
"""

from repro.calibration.runner import (
    CORE_KINDS,
    CalibrationRun,
    SiteSample,
    run_calibration,
)
from repro.perfmodel.analytical import shape_class

__all__ = [
    "CORE_KINDS",
    "CalibrationRun",
    "SiteSample",
    "run_calibration",
    "shape_class",
]
