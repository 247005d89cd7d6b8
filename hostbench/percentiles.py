"""Percentiles with the sample rule the benchmark enforces."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: A percentile is only reported when at least this many samples lie
#: beyond it; otherwise the run fails.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Tuple[float, int, int]:
    """``(value, samples, samples beyond the value)`` (linear
    interpolation, as ``numpy.percentile``)."""
    v = np.asarray(values, dtype=float)
    p = float(np.percentile(v, q))
    return p, int(v.size), int(np.count_nonzero(v > p))
