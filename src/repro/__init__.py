"""repro: reproduction of TDC (PPoPP'23) — hardware-aware Tucker
decomposition for efficient CNN inference on GPUs.

Subpackages
-----------
- :mod:`repro.tensor`      — Tucker/CP/TT decompositions, EVBMF
- :mod:`repro.nn`          — NumPy CNN training framework
- :mod:`repro.models`      — trainable slim models + full-scale specs
- :mod:`repro.data`        — deterministic synthetic datasets
- :mod:`repro.gpusim`      — simulated A100 / RTX 2080Ti devices
- :mod:`repro.kernels`     — TDC / TVM / cuDNN-style conv kernels
- :mod:`repro.perfmodel`   — analytical latency model, tiling selection
- :mod:`repro.planning`    — in-memory plan caches (memoized on first use)
- :mod:`repro.codesign`    — rank selection (Alg. 1) and TDC pipeline
- :mod:`repro.compression` — ADMM training, baselines, comparators
- :mod:`repro.inference`   — execution plans + end-to-end engine
- :mod:`repro.experiments` — per-table/figure reproduction harnesses

README.md's Quickstart lists the commands that regenerate each paper
artifact, and its Layout section maps the packages.
"""

__version__ = "1.0.0"
