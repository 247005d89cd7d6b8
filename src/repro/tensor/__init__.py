"""Tensor algebra substrate.

From-scratch implementations of the tensor operations the paper relies
on (the authors used ``tensorly``, which is unavailable offline):

- mode-n unfolding/folding and n-mode products (:mod:`repro.tensor.unfold`)
- Tucker decomposition: truncated HOSVD, HOOI refinement, and the
  partial (Tucker-2) variant used for conv kernels
  (:mod:`repro.tensor.tucker`)
- CP decomposition via ALS (:mod:`repro.tensor.cp`) — comparator method
- Tensor-train decomposition via TT-SVD (:mod:`repro.tensor.tt`) —
  comparator method
- EVBMF analytic rank estimation (:mod:`repro.tensor.vbmf`) — used by
  the MUSCO-style comparator
- decomposition formats as first-class objects
  (:mod:`repro.tensor.formats`) — each format's executed kernel chain
  behind one interface, so costs, rank selection and planning can treat
  the format as a search axis
"""

from repro.tensor.cp import CPTensor, cp_als
from repro.tensor.formats import (
    FACTORED_FORMATS,
    CPFormat,
    DecompFormat,
    TTFormat,
    TuckerFormat,
    format_names,
    get_format,
    register_format,
    resolve_formats,
)
from repro.tensor.tt import TTTensor, tt_svd
from repro.tensor.tucker import (
    TuckerTensor,
    hooi,
    hosvd,
    partial_tucker,
    tucker2_conv_kernel,
    tucker2_project,
    tucker_reconstruct,
)
from repro.tensor.unfold import fold, mode_dot, multi_mode_dot, unfold
from repro.tensor.vbmf import evbmf, evbmf_rank

__all__ = [
    "CPTensor",
    "cp_als",
    "DecompFormat",
    "TuckerFormat",
    "CPFormat",
    "TTFormat",
    "FACTORED_FORMATS",
    "format_names",
    "get_format",
    "register_format",
    "resolve_formats",
    "TTTensor",
    "tt_svd",
    "TuckerTensor",
    "hooi",
    "hosvd",
    "partial_tucker",
    "tucker2_conv_kernel",
    "tucker2_project",
    "tucker_reconstruct",
    "fold",
    "mode_dot",
    "multi_mode_dot",
    "unfold",
    "evbmf",
    "evbmf_rank",
]
