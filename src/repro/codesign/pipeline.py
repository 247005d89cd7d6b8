"""The end-to-end TDC pipeline (Fig. 1 / Algorithm 1).

Ties everything together for a *trainable* model:

1. trace the model's decomposable convs,
2. run hardware-aware rank selection against the target device
   (performance table + budget + θ rule),
3. ADMM-train the dense model toward the selected ranks,
4. hard-decompose each selected conv into a TuckerConv2d,
5. fine-tune the Tucker-format model,
6. report accuracy, achieved FLOPs reduction, and the plan's simulated
   layerwise latency improvement.

For the full-scale latency studies (Figs. 8/9) the same rank selection
runs on :class:`~repro.models.arch_specs.ModelSpec` inventories via
:func:`layer_shapes_from_spec` — no training involved, exactly like the
paper's kernel benchmarks which time random weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codesign.rank_selection import LayerShape, RankPlan, select_ranks
from repro.compression.admm import ADMMTrainer
from repro.compression.baselines import decompose_model, decompose_model_formats
from repro.compression.training import TrainHistory, evaluate, train_model
from repro.data.synthetic import Dataset
from repro.gpusim.device import DeviceSpec
from repro.models.arch_specs import LayerSpec, ModelSpec
from repro.models.introspection import ConvSite, trace_conv_sites
from repro.nn.module import Module
from repro.utils.rng import SeedLike


def layer_shapes_from_sites(sites: Sequence[ConvSite]) -> List[LayerShape]:
    """Convert traced conv sites into co-design layer shapes.

    The core conv of a strided layer runs at the *output* resolution
    (the stride folds into stage 2), so the shape handed to the kernel
    selector uses the output extent.
    """
    shapes = []
    for s in sites:
        oh, ow = s.layer.output_shape(s.height, s.width)
        shapes.append(
            LayerShape(
                name=s.name, c=s.in_channels, n=s.out_channels,
                h=oh, w=ow, r=s.kernel_size, s=s.kernel_size,
            )
        )
    return shapes


def layer_shapes_from_spec(
    spec: ModelSpec, min_channels: int = 32
) -> List[LayerShape]:
    """Co-design layer shapes for a full-scale architecture spec."""
    shapes = []
    for l in spec.decomposable_convs(min_channels=min_channels):
        shapes.append(
            LayerShape(
                name=l.name, c=l.in_channels, n=l.out_channels,
                h=l.out_height, w=l.out_width, r=l.kernel, s=l.kernel,
            )
        )
    return shapes


def decompose_for_device(
    model: Module,
    device: DeviceSpec,
    image_hw: Tuple[int, int],
    in_channels: int = 3,
    budget: float = 0.6,
    theta: float = 0.15,
    rank_step: int = 4,
    method: str = "model",
    min_channels: int = 1,
    n_iter: int = 10,
    formats: object = ("tucker",),
) -> Tuple[Module, RankPlan, Dict[str, Tuple[str, Tuple[int, ...]]]]:
    """Hardware-aware decomposition without the training phases.

    Runs Algorithm 1's rank selection against the device and
    hard-decomposes the chosen convs in place (no ADMM and no
    fine-tuning) — the entry the serving/compile path uses to produce
    a factored model whose ranks match the device.  ``formats`` widens
    the search beyond Tucker (``"auto"``/``"all"`` or an explicit name
    list); the chosen layers may then mix Tucker/CP/TT modules.

    Returns ``(model, rank_plan, format_map)`` where ``format_map``
    maps layer names to ``(format, ranks)``; raises when the model has
    no decomposable convs or the plan decomposes nothing.
    """
    from repro.tensor.formats import resolve_formats

    formats = resolve_formats(formats)
    sites = trace_conv_sites(
        model, image_hw, in_channels=in_channels, min_channels=min_channels,
    )
    if not sites:
        raise ValueError("model has no decomposable conv layers")
    plan = select_ranks(
        layer_shapes_from_sites(sites), device,
        budget=budget, theta=theta, rank_step=rank_step, method=method,
        formats=formats,
    )
    format_map: Dict[str, Tuple[str, Tuple[int, ...]]] = {
        d.layer.name: (d.format, tuple(int(r) for r in d.ranks))
        for d in plan.decisions
        if d.decomposed
    }
    if not format_map:
        rejections = "; ".join(
            f"{d.layer.name}: {d.reason}" for d in plan.decisions
        )
        raise ValueError(
            f"rank selection with formats {list(formats)} decomposed no "
            f"layers — budget too small or θ rule skipped everything "
            f"(per-site outcome: {rejections})"
        )
    decompose_model_formats(model, format_map, n_iter=n_iter)
    return model, plan, format_map


@dataclass
class TDCPipelineResult:
    """Everything the pipeline produced."""

    model: Module                     # the compressed, fine-tuned model
    plan: RankPlan
    baseline_accuracy: float
    compressed_accuracy: float
    admm_history: TrainHistory
    finetune_history: TrainHistory
    rank_map: Dict[str, Tuple[int, int]]

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.compressed_accuracy

    @property
    def achieved_flops_reduction(self) -> float:
        return self.plan.achieved_reduction

    @property
    def layerwise_speedup(self) -> float:
        return self.plan.speedup()


def run_tdc_pipeline(
    model: Module,
    train_data: Dataset,
    test_data: Dataset,
    device: DeviceSpec,
    budget: float,
    image_hw: Optional[Tuple[int, int]] = None,
    theta: float = 0.15,
    rank_step: int = 32,
    method: str = "model",
    min_channels: int = 1,
    admm_epochs: int = 4,
    finetune_epochs: int = 2,
    batch_size: int = 32,
    lr: float = 0.05,
    rho: float = 0.02,
    seed: SeedLike = 0,
) -> TDCPipelineResult:
    """Run the full co-designed compression pipeline on a model.

    ``rank_step`` should be 32 for full-scale models (warp width) and
    small (e.g. 2 or 4) for the slim CPU models whose channel counts
    are themselves small.
    """
    if image_hw is None:
        hw = train_data.images.shape[2]
        image_hw = (hw, train_data.images.shape[3])

    baseline_accuracy = evaluate(model, test_data, batch_size)

    sites = trace_conv_sites(
        model, image_hw, in_channels=train_data.images.shape[1],
        min_channels=min_channels,
    )
    if not sites:
        raise ValueError("model has no decomposable conv layers")
    layer_shapes = layer_shapes_from_sites(sites)

    plan = select_ranks(
        layer_shapes, device, budget=budget, theta=theta,
        rank_step=rank_step, method=method,
    )

    # Ranks for the layers the plan decided to decompose.
    rank_map: Dict[str, Tuple[int, int]] = {
        d.layer.name: (int(d.d2), int(d.d1))
        for d in plan.decisions
        if d.decomposed
    }
    if not rank_map:
        raise ValueError(
            "rank selection decomposed no layers — budget too small or "
            "θ rule skipped everything"
        )

    trainer = ADMMTrainer(model, rank_map, rho=rho)
    admm_history = trainer.train(
        train_data, test_data=test_data, epochs=admm_epochs,
        batch_size=batch_size, lr=lr, seed=seed,
    )
    trainer.project_weights()
    decompose_model(model, rank_map)
    finetune_history = train_model(
        model, train_data, test_data=test_data, epochs=finetune_epochs,
        batch_size=batch_size, lr=lr * 0.2, seed=seed,
    )
    compressed_accuracy = evaluate(model, test_data, batch_size)

    return TDCPipelineResult(
        model=model,
        plan=plan,
        baseline_accuracy=baseline_accuracy,
        compressed_accuracy=compressed_accuracy,
        admm_history=admm_history,
        finetune_history=finetune_history,
        rank_map=rank_map,
    )
