"""Decomposition formats as first-class, pluggable objects.

The paper plans one format (Tucker-2); Tensor Yard and HOTCAKE show
the *right* format is layer-dependent, so the co-design treats the
format itself as a planning axis.  Every factored conv executes the
same kind of kernel chain — a 1x1 conv, a KxK core (dense or
depthwise), an optional group-sum, a 1x1 conv — and a format is
described by the widths of that chain (:class:`Chain`).  Everything
downstream reads the chain, never the format's math:

- ``n_params`` / ``flops`` (2 FLOPs per MAC, the group-sum 1 add per
  element) are derived from it in :class:`DecompFormat`;
- Algorithm 1 prices each rank candidate stage by stage from it
  (:mod:`repro.codesign.format_search`; Tucker additionally keeps the
  paper's performance table);
- both planners expand it into ``.pw1`` / ``.core`` / ``.pw2`` kernels
  (:mod:`repro.inference.plan`).

Rank conventions per format (all passed as tuples):

- ``tucker``: ``(d1, d2)`` — input-/output-channel Tucker-2 ranks;
  chain 1x1 ``C->D1`` -> KxK core ``D1->D2`` -> 1x1 ``D2->N``.
- ``cp``: ``(q,)`` — the shared CP rank; chain 1x1 ``C->Q`` ->
  depthwise KxK over ``Q`` -> 1x1 ``Q->N``.
- ``tt``: ``(r1, r2)`` — the two internal TT ranks of the ``(N, C,
  R*S)`` reshaping; chain 1x1 ``C->r1*r2`` -> depthwise KxK ->
  group-sum ``r1*r2 -> r1`` -> 1x1 ``r1->N``.

A new format (e.g. higher-order Tucker per HOTCAKE) must provide:

1. a :class:`DecompFormat` subclass here with ``rank_arity``,
   ``chain(ranks)`` and ``rank_candidates`` (built on
   :func:`rank_candidates`), passed to :func:`register_format`;
2. a :class:`repro.nn.FactoredConv2d` subclass (``format``, its rank
   attributes, a ``ranks`` property in the format's rank order and
   ``from_conv``) built by
   ``repro.compression.baselines.decompose_model_formats``;
3. for a dense or depthwise core, no new stage code: the lowering
   (``repro.inference.executable._Lowering.site``) reads the chain,
   and only a compiled site class in ``_SITE_CLASSES`` is added.

Costs, rank selection, both planners, the layer's forward/backward and
its stage list then need no change.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.utils.validation import check_positive_int

#: The formats Algorithm 1 may pick for a decomposed layer (the dense
#: fallback is a *decision*, not a format).
FACTORED_FORMATS = ("tucker", "cp", "tt")


def rank_candidates(extent: int, step: int) -> List[int]:
    """Rank grid for one mode: multiples of ``step`` strictly below the
    original extent (reducing by ``step`` at a time, Sec. 6), with an
    ``extent // 2`` floor candidate for slim models.

    An extent of 1 yields an *empty* grid: the only "rank" would be 1,
    i.e. the original extent — zero reduction plus two extra 1x1
    launches — so such a mode is not decomposable at all.
    """
    step = check_positive_int("step", step)
    extent = check_positive_int("extent", extent)
    cands = [d for d in range(step, extent, step)]
    if not cands and extent > 1:
        cands = [max(1, extent // 2)]
    return cands


class Chain(NamedTuple):
    """The kernel chain a factored conv executes.

    1x1 ``C -> mid``; KxK core ``mid -> core_out`` (depthwise when
    ``depthwise``, then ``core_out == mid``); for TT a group-sum
    ``core_out -> collapse``; 1x1 ``out -> N``.
    """

    mid: int
    core_out: int
    depthwise: bool
    collapse: Optional[int] = None

    @property
    def out(self) -> int:
        """Input width of the last 1x1."""
        return self.core_out if self.collapse is None else self.collapse

    @property
    def core_filters(self) -> int:
        """KxK filters the core stores (one per channel when depthwise)."""
        return self.core_out if self.depthwise else self.mid * self.core_out


class DecompFormat:
    """One compressed conv representation, viewed abstractly.

    ``c, n, r, s`` arguments follow the paper's kernel notation:
    ``(N, C, R, S)`` = (out-channels, in-channels, filter height,
    filter width); ``h, w`` are the input extent and ``out_h, out_w``
    the core-stage (output) extent, defaulting to ``h, w``.
    """

    name = "base"
    #: Number of integers in a rank tuple for this format.
    rank_arity = 0

    def chain(self, ranks: Sequence[int]) -> Chain:
        """The kernel chain this format executes at ``ranks``."""
        raise NotImplementedError

    def rank_candidates(
        self, c: int, n: int, r: int, s: int, step: int
    ) -> List[Tuple[int, ...]]:
        """Rank tuples Algorithm 1 should consider for one layer."""
        raise NotImplementedError

    # -- analytical costs, derived from the chain ------------------------
    def n_params(self, c: int, n: int, r: int, s: int,
                 ranks: Sequence[int]) -> int:
        """Stored weight parameters of the factored layer."""
        ch = self.chain(ranks)
        return c * ch.mid + r * s * ch.core_filters + n * ch.out

    def flops(self, c: int, n: int, h: int, w: int, ranks: Sequence[int],
              r: int = 3, s: int = 3, out_h: int = 0, out_w: int = 0) -> int:
        """FLOPs of the executed chain: the first 1x1 at the input
        extent, every later stage at the output extent."""
        ch = self.chain(ranks)
        out_h = out_h or h
        out_w = out_w or w
        # The group-sum adds once per element it reads, only when it
        # actually collapses (TT at r2 == 1 has nothing to sum).
        group_sum = ch.core_out if ch.out < ch.core_out else 0
        return 2 * h * w * c * ch.mid + out_h * out_w * (
            2 * r * s * ch.core_filters + group_sum + 2 * ch.out * n
        )

    def layer_flops(self, conv, h: int, w: int, ranks: Sequence[int]) -> int:
        """:meth:`flops` for a conv layer (anything with ``in_channels``,
        ``out_channels``, ``kernel_size`` and ``output_shape``) run at
        an ``h x w`` input in this format."""
        k = conv.kernel_size
        oh, ow = conv.output_shape(h, w)
        return self.flops(conv.in_channels, conv.out_channels, h, w, ranks,
                          r=k, s=k, out_h=oh, out_w=ow)

    def check_ranks(self, ranks: Sequence[int]) -> Tuple[int, ...]:
        ranks = tuple(int(x) for x in ranks)
        if len(ranks) != self.rank_arity:
            raise ValueError(
                f"format {self.name!r} takes {self.rank_arity} rank(s), "
                f"got {ranks}"
            )
        for x in ranks:
            check_positive_int("rank", x)
        return ranks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecompFormat({self.name!r})"


class TuckerFormat(DecompFormat):
    """Tucker-2 on the channel modes (the paper's format, Eqs. 2-4)."""

    name = "tucker"
    rank_arity = 2

    def chain(self, ranks) -> Chain:
        d1, d2 = self.check_ranks(ranks)
        return Chain(mid=d1, core_out=d2, depthwise=False)

    def rank_candidates(self, c, n, r, s, step) -> List[Tuple[int, ...]]:
        # The core's D1-mode unfolding is D1 x (D2*R*S), so its rank is
        # at most min(D1, D2*R*S), and symmetrically for D2.  A pair past
        # that bound has pw1 (or pw2) compute channels the core cannot
        # use, so such dominated pairs are not candidates.
        return [
            (d1, d2)
            for d1 in rank_candidates(c, step)
            for d2 in rank_candidates(n, step)
            if d1 <= d2 * r * s and d2 <= d1 * r * s
        ]


class CPFormat(DecompFormat):
    """CP with one shared rank; executes as a depthwise-separable chain
    (Lebedev et al. style: 1x1 -> depthwise KxK -> 1x1)."""

    name = "cp"
    rank_arity = 1

    def chain(self, ranks) -> Chain:
        (q,) = self.check_ranks(ranks)
        return Chain(mid=q, core_out=q, depthwise=True)

    def rank_candidates(self, c, n, r, s, step) -> List[Tuple[int, ...]]:
        # CP's rank is not bounded by a mode extent; sweep up to the
        # larger channel count (beyond that the chain stops compressing
        # in every regime the budget filter would accept anyway).
        return [(q,) for q in rank_candidates(max(c, n), step)]


class TTFormat(DecompFormat):
    """TT of the ``(N, C, R*S)`` reshaping (Tensor Yard style).

    Executes as 1x1 ``C -> r1*r2`` -> depthwise KxK (channel ``(a, b)``
    carries spatial core ``G2[b]``) -> group-sum over ``b`` -> 1x1
    ``r1 -> N``.  The final projection is narrow (``r1`` instead of
    ``r1*r2`` inputs), which is where TT wins latency over CP when the
    output-channel count dominates.  The depthwise stage stores its
    kernel per channel, so ``n_params`` counts the executed form.
    """

    name = "tt"
    rank_arity = 2

    def chain(self, ranks) -> Chain:
        r1, r2 = self.check_ranks(ranks)
        return Chain(mid=r1 * r2, core_out=r1 * r2, depthwise=True,
                     collapse=r1)

    def rank_candidates(self, c, n, r, s, step) -> List[Tuple[int, ...]]:
        # TT-SVD of (N, C, R*S) bounds r1 by N and r2 by min(r1*C, R*S).
        return [
            (r1, r2)
            for r1 in rank_candidates(n, step)
            for r2 in range(1, min(r * s, r1 * c) + 1)
        ]


_FORMATS: Dict[str, DecompFormat] = {}


def register_format(fmt: DecompFormat) -> DecompFormat:
    """Register (or replace) a decomposition format by name."""
    if not fmt.name or fmt.name == "base":
        raise ValueError("format needs a concrete name")
    _FORMATS[fmt.name] = fmt
    return fmt


def get_format(name: str) -> DecompFormat:
    """Look up a registered format (raises with the known names)."""
    try:
        return _FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown decomposition format {name!r}; registered formats: "
            f"{format_names()}"
        ) from None


def format_names() -> Tuple[str, ...]:
    """Registered format names, in registration order."""
    return tuple(_FORMATS)


def resolve_formats(formats) -> Tuple[str, ...]:
    """Normalize a ``formats`` argument to a validated name tuple.

    Accepts a single name, an iterable of names, or the aliases
    ``"all"`` / ``"auto"`` (every registered factored format).  Order
    is preserved and duplicates dropped.
    """
    if formats is None:
        formats = ("tucker",)
    if isinstance(formats, str):
        if formats in ("all", "auto"):
            formats = format_names()
        else:
            formats = (formats,)
    resolved: List[str] = []
    for name in formats:
        get_format(name)
        if name not in resolved:
            resolved.append(name)
    if not resolved:
        raise ValueError("at least one decomposition format is required")
    return tuple(resolved)


register_format(TuckerFormat())
register_format(CPFormat())
register_format(TTFormat())
