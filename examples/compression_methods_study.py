"""Compare compression algorithms at a matched FLOPs budget (Table 3).

Pretrains one slim model on synthetic data, then lets every comparator
(FPGM pruning, TRP, CP, TT, standard TKD, MUSCO) and TDC's ADMM
pipeline compress it at the same budget, reporting accuracy and
achieved reduction side by side.

Usage:
    python examples/compression_methods_study.py [budget]
    python examples/compression_methods_study.py 0.6
"""

import sys

from repro.experiments import table3


def main() -> None:
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 0.6
    config = table3.Table3Config(
        model="resnet18_slim",
        image_size=10,
        n_train=256,
        n_test=128,
        num_classes=6,
        budget=budget,
        pretrain_epochs=5,
        compress_epochs=3,
        seed=0,
    )
    print(f"=== Compression method comparison at budget {budget:.0%} ===")
    print("(slim ResNet-18, synthetic data — orderings, not ImageNet "
          "absolute accuracies)\n")
    print(table3.run(config).render())


if __name__ == "__main__":
    main()
