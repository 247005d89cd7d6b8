"""Table 2: ADMM-based compression vs direct alternatives.

The paper trains ResNet-20 on CIFAR-10 at 60% FLOPs reduction three
ways: uncompressed baseline, "direct compression", and ADMM.  Here the
same protocol runs on a slim ResNet-20 over the synthetic CIFAR stand-
in (:mod:`repro.data`), so the *absolute* accuracies differ from the
paper's but the ordering — ADMM recovers near-baseline accuracy while
the direct approaches lose several points — is the reproduced claim.

Both "direct" readings are measured: training the Tucker-format model
from scratch, and one-shot decompose + finetune of the pretrained
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.compression.admm import ADMMTrainer
from repro.compression.baselines import (
    decompose_and_finetune,
    decompose_model,
    direct_train_tucker,
)
from repro.compression.comparators import (
    achieved_tucker_reduction,
    uniform_tucker_ranks_for_budget,
)
from repro.compression.training import evaluate, train_model
from repro.data.synthetic import make_cifar_like
from repro.models.introspection import trace_conv_sites
from repro.models.registry import build_model
from repro.utils.rng import SeedLike
from repro.utils.tables import Table


@dataclass(frozen=True)
class Table2Config:
    """Scale knobs so the experiment fits CPU budgets."""

    model: str = "resnet20_slim"
    image_size: int = 12
    n_train: int = 320
    n_test: int = 160
    num_classes: int = 10
    budget: float = 0.6
    pretrain_epochs: int = 6
    compress_epochs: int = 4
    finetune_epochs: int = 2
    batch_size: int = 32
    rho: float = 0.5
    admm_lr: float = 0.05
    finetune_lr: float = 0.02
    seed: SeedLike = 0

    @property
    def total_compress_epochs(self) -> int:
        """Epoch budget every compression variant gets (fairness)."""
        return self.compress_epochs + self.finetune_epochs


@dataclass
class Table2Result:
    baseline_accuracy: float
    direct_train_accuracy: float
    direct_compress_accuracy: float
    admm_accuracy: float
    flops_reduction: float

    def admm_beats_direct(self) -> bool:
        return self.admm_accuracy >= max(
            self.direct_train_accuracy, self.direct_compress_accuracy
        )


def run_experiment(config: Table2Config = Table2Config()) -> Table2Result:
    """Train all four variants and return their test accuracies."""
    train_data, test_data = make_cifar_like(
        n_train=config.n_train, n_test=config.n_test,
        image_size=config.image_size, num_classes=config.num_classes,
        seed=config.seed,
    )

    # Baseline: train the dense model.
    baseline = build_model(config.model, num_classes=config.num_classes, seed=1)
    train_model(
        baseline, train_data, epochs=config.pretrain_epochs,
        batch_size=config.batch_size, seed=config.seed,
    )
    baseline_acc = evaluate(baseline, test_data, config.batch_size)
    baseline_state = baseline.state_dict()

    sites = trace_conv_sites(baseline, (config.image_size, config.image_size))
    rank_map = uniform_tucker_ranks_for_budget(sites, config.budget)
    reduction = achieved_tucker_reduction(sites, rank_map)

    # Direct training: Tucker model from scratch (same total epochs as
    # the other compression variants, on top of nothing pretrained).
    direct = build_model(config.model, num_classes=config.num_classes, seed=1)
    _, hist_direct = direct_train_tucker(
        direct, rank_map, train_data, test_data,
        epochs=config.pretrain_epochs + config.total_compress_epochs,
        batch_size=config.batch_size, seed=config.seed,
    )

    # Direct compression: decompose pretrained, finetune with the same
    # epoch budget the ADMM variant spends (compress + finetune).
    compressed = build_model(config.model, num_classes=config.num_classes, seed=1)
    compressed.load_state_dict(baseline_state)
    _, hist_compress = decompose_and_finetune(
        compressed, rank_map, train_data, test_data,
        epochs=config.total_compress_epochs,
        batch_size=config.batch_size, seed=config.seed,
    )

    # ADMM: constrain the pretrained model, decompose, finetune.
    admm_model = build_model(config.model, num_classes=config.num_classes, seed=1)
    admm_model.load_state_dict(baseline_state)
    sites_admm = trace_conv_sites(
        admm_model, (config.image_size, config.image_size)
    )
    rank_map_admm = uniform_tucker_ranks_for_budget(sites_admm, config.budget)
    trainer = ADMMTrainer(admm_model, rank_map_admm, rho=config.rho)
    trainer.train(
        train_data, epochs=config.compress_epochs,
        batch_size=config.batch_size, lr=config.admm_lr, seed=config.seed,
    )
    trainer.project_weights()
    decompose_model(admm_model, rank_map_admm)
    train_model(
        admm_model, train_data, epochs=config.finetune_epochs,
        batch_size=config.batch_size, lr=config.finetune_lr, seed=config.seed,
    )
    admm_acc = evaluate(admm_model, test_data, config.batch_size)

    return Table2Result(
        baseline_accuracy=baseline_acc,
        direct_train_accuracy=hist_direct.final_test_accuracy,
        direct_compress_accuracy=hist_compress.final_test_accuracy,
        admm_accuracy=admm_acc,
        flops_reduction=reduction,
    )


def run(config: Table2Config = Table2Config()) -> Table:
    """Regenerate Table 2 (on the synthetic stand-in)."""
    result = run_experiment(config)
    table = Table(
        ["method", "top-1 (%)", "FLOPs down"],
        title="Table 2: direct vs ADMM-based compression "
              "(slim ResNet-20, synthetic CIFAR stand-in)",
    )
    table.add_row(["Baseline", result.baseline_accuracy * 100, "N/A"])
    table.add_row([
        "Direct training (scratch)",
        result.direct_train_accuracy * 100,
        f"{result.flops_reduction * 100:.0f}%",
    ])
    table.add_row([
        "Direct compression (decompose+finetune)",
        result.direct_compress_accuracy * 100,
        f"{result.flops_reduction * 100:.0f}%",
    ])
    table.add_row([
        "ADMM-based (ours)",
        result.admm_accuracy * 100,
        f"{result.flops_reduction * 100:.0f}%",
    ])
    return table
