#!/usr/bin/env python3
"""Paired statistical comparison of acquisition methods.

Runs two small experiments on different blob datasets, then builds the
pairwise penalty matrix: per round, a paired t-test on seed-matched
accuracies, Benjamini-Hochberg correction across the round's pairs, and
a 1/len(rounds) penalty to the loser of each significant pair.
"""
import numpy as np

from gradal import (
    ArchSpec,
    ComparisonSlice,
    ExperimentConfig,
    SplitSpec,
    TrainConfig,
    build_ppm,
    curves_from_results,
    loss_scores,
    make_blobs,
    run_experiments,
)

METHODS = ("grad", "entropy", "random")
ALPHA = 0.05


def run_one(name, n_samples, n_classes, n_features, spread, data_seed,
            widths, epochs, b, rounds):
    ds = make_blobs(n_samples, n_classes, n_features, spread=spread, seed=data_seed)
    ds.name = name
    arch = ArchSpec(input_dim=n_features, n_classes=n_classes, hidden_widths=widths)
    cfg = ExperimentConfig(
        arch=arch,
        train=TrainConfig(learning_rate=0.01, epochs=epochs),
        methods=METHODS,
        b=b,
        rounds=rounds,
        seeds=tuple(range(10)),
        split_spec=SplitSpec(test_fraction=0.2, seed=0),
    )
    results = dict(zip(METHODS, run_experiments(cfg, ds)))
    return curves_from_results(results, dataset=name)


experiments = [
    run_one("easy-3c", 700, 3, 6, 1.2, data_seed=5,
            widths=(32,), epochs=15, b=10, rounds=5),
    run_one("hard-4c", 1200, 4, 10, 2.5, data_seed=11,
            widths=(64, 32), epochs=30, b=20, rounds=6),
]

# typical pattern on the overlapping 4-class set: entropy pays penalties in
# the label-starved early rounds (uncertainty chases boundary noise before
# the model is calibrated) while grad pulls away from random late
for slice_name in ("all_rounds", "early", "late"):
    ppm = build_ppm(experiments, ComparisonSlice(slice_name), alpha=ALPHA)
    print(f"\nslice={slice_name}  alpha={ALPHA}  (P[row, col]: row beat column)")
    header = "        " + "".join(f"{m:>9s}" for m in ppm.methods)
    print(header)
    for i, m in enumerate(ppm.methods):
        row = "".join(f"{ppm.P[i, j]:9.3f}" for j in range(len(ppm.methods)))
        print(f"{m:8s}{row}")
    scores = loss_scores(ppm)
    ranked = sorted(scores.items(), key=lambda kv: kv[1])
    print("loss scores (lower is better):",
          ", ".join(f"{m}={s:.3f}" for m, s in ranked))
