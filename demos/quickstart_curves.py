#!/usr/bin/env python3
"""Small pool-based run comparing three acquisition strategies.

Trains a fresh MLP each round on the labeled pool, acquires a batch,
and prints the mean test-accuracy curve per method.
"""
import numpy as np

from gradal import (
    ArchSpec,
    ExperimentConfig,
    SplitSpec,
    TrainConfig,
    make_blobs,
    run_experiments,
)

SEEDS = (0, 1, 2, 3)
BATCH = 15
ROUNDS = 6

dataset = make_blobs(n_samples=800, n_classes=4, n_features=6, spread=1.8, seed=7)
arch = ArchSpec(input_dim=6, n_classes=4, hidden_widths=(32, 16))
train_cfg = TrainConfig(learning_rate=0.01, epochs=20)

print(f"pool run: b={BATCH}, T={ROUNDS}, {len(SEEDS)} seeds")
methods = ("grad", "entropy", "random")
cfg = ExperimentConfig(
    arch=arch,
    train=train_cfg,
    methods=methods,
    b=BATCH,
    rounds=ROUNDS,
    seeds=SEEDS,
    split_spec=SplitSpec(test_fraction=0.2, seed=0),
)
for method, result in zip(methods, run_experiments(cfg, dataset)):
    acc = np.array([[r.test_accuracy for r in records] for records in result.per_seed])
    curve = acc.mean(axis=0)
    sizes = [r.labeled_size for r in result.per_seed[0]]
    print(f"\n{method}")
    for n, a in zip(sizes, curve):
        print(f"  n={n:4d}  acc={a:.4f}")
