"""The acquisition loop: retrain from scratch each round, evaluate on the
held-out test set, select a batch, query the oracle, grow the labeled set.

Seeding is arranged so the strategy name can never perturb the data: splits
come from the split spec, the round-0 labeled set from the experiment seed
only, and per-round model init / shuffling from (seed, round). Two methods
run under the same seed therefore share initial sets and initializations.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .acquisition import METHODS, AcquisitionBatch, timed_select
from .data import Dataset, SplitSpec, init_pool, split
from .model import (
    LAST_LAYER,
    SCOPES,
    ArchSpec,
    TrainConfig,
    diverged_error,
    init_model,
    predict_proba,
    train,
    train_stack,
)
from .numerics import Rng, derive_seed

# candidate learning rates of the sweep, ascending: ties go to the smaller
SWEEP_RATES = (0.0001, 0.0005, 0.001, 0.005, 0.01)


@dataclass(frozen=True)
class ExperimentConfig:
    """One (dataset, architecture, method) active-learning schedule.

    ``rounds`` counts acquisitions; curves get rounds+1 points because the
    pre-acquisition model is also evaluated. ``initial_size`` defaults to b.
    ``sweep_lr`` replaces train.learning_rate with the sweep winner, chosen
    once on the first seed's initial labeled set and frozen.
    """

    arch: ArchSpec
    train: TrainConfig
    method: str
    b: int
    rounds: int
    seeds: tuple
    initial_size: Optional[int] = None
    scope: str = LAST_LAYER
    split_spec: SplitSpec = field(
        default_factory=lambda: SplitSpec(test_fraction=0.2))
    sweep_lr: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown acquisition method {self.method!r}")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.initial_size is not None and self.initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @property
    def init_size(self) -> int:
        return self.b if self.initial_size is None else self.initial_size


@dataclass
class RoundRecord:
    round: int
    labeled_size: int
    test_accuracy: float
    acquisition_seconds: float
    batch: Optional[AcquisitionBatch] = None


@dataclass
class ExperimentResult:
    """Per-seed round records plus run-level flags.

    Seeds that abort (training divergence) are dropped from per_seed and
    reported in seed_errors, keeping the per-seed round grid rectangular.
    """

    method: str
    seeds: tuple
    per_seed: list
    learning_rate: float
    truncated: bool = False
    seed_errors: list = field(default_factory=list)


def evaluate_accuracy(model, dataset: Dataset, test) -> float:
    """Fraction of argmax predictions matching true labels on ``test``."""
    test = np.asarray(test, dtype=np.int64)
    if test.size == 0:
        raise ValueError("test set must be nonempty")
    pred = np.argmax(predict_proba(model, dataset.features[test]), axis=1)
    return float(np.mean(pred == dataset.labels[test]))


def sweep_learning_rate(arch: ArchSpec, dataset: Dataset, train_indices, val_indices,
                        base_cfg: TrainConfig, seed: int) -> float:
    """One-time learning-rate sweep: train on ``train_indices`` at each of
    ``SWEEP_RATES``, keep the rate with the highest validation accuracy.
    Ties go to the smaller rate (the first one tried)."""
    val_indices = np.asarray(val_indices, dtype=np.int64)
    if val_indices.size == 0:
        raise ValueError("learning-rate sweep needs a nonempty validation split")
    best_rate, best_acc = None, -1.0
    for rate in SWEEP_RATES:
        cfg = replace(base_cfg, learning_rate=rate, seed=seed)
        fitted = train(init_model(arch, seed), dataset, train_indices, cfg)
        acc = evaluate_accuracy(fitted, dataset, val_indices)
        if acc > best_acc:
            best_rate, best_acc = rate, acc
    return best_rate


def run_experiments(cfgs, dataset: Dataset) -> list:
    """One ExperimentResult per config, in order; the configs may differ only
    in ``method``. Round-major: at round t every live (method, seed) has
    init_size + t*b labeled points and an init and shuffle keyed by (seed,
    t), so all train as one ``train_stack``; round 0 trains one row per seed
    for all methods. A diverging (method, seed) goes to seed_errors and drops
    out; if every seed of a method diverges the error is raised."""
    cfg = cfgs[0]
    if (len({c.method for c in cfgs}) < len(cfgs)
            or any(replace(c, method=cfg.method) != cfg for c in cfgs)):
        raise ValueError("configs must name distinct methods and differ only in method")
    train_idx, val_idx, test_idx = split(dataset, cfg.split_spec)
    if train_idx.size < cfg.init_size + min(1, cfg.rounds):
        raise ValueError("training split smaller than the initial labeled set")
    learning_rate = cfg.train.learning_rate
    if cfg.sweep_lr:
        if val_idx.size == 0:
            raise ValueError("learning-rate sweep needs a validation split")
        probe = init_pool(train_idx, cfg.init_size, cfg.seeds[0]).labeled
        learning_rate = sweep_learning_rate(cfg.arch, dataset, probe, val_idx, cfg.train,
                                            seed=derive_seed(cfg.seeds[0], "sweep"))

    keys = [(c.method, s) for c in cfgs for s in cfg.seeds]
    pools = {key: init_pool(train_idx, cfg.init_size, key[1]) for key in keys}
    records = {key: [] for key in keys}
    errors = {}
    truncated = False
    for t in range(cfg.rounds + 1):
        live = list(pools)
        # one stack row per distinct labeled set: at round 0 all methods of a
        # seed hold the seed's initial set, so they share the seed's row
        heads = [(cfg.method, s) for s in cfg.seeds] if t == 0 else live
        row = {key: cfg.seeds.index(key[1]) if t == 0 else m for m, key in enumerate(live)}
        inits = [init_model(cfg.arch, seed=derive_seed(s, "init", t)) for _, s in heads]
        params, diverged = train_stack(
            cfg.arch, [model.params for model in inits], [pools[key].labeled for key in heads],
            [derive_seed(s, "train", t) for _, s in heads], dataset, learning_rate,
            cfg.train.momentum, cfg.train.minibatch_size, cfg.train.epochs)
        for key in live:
            (method, seed), m = key, row[key]
            if diverged[m] >= 0:
                errors[key] = f"{method} round {t}: {diverged_error(diverged[m], learning_rate)}"
                del pools[key]
                continue
            pool = pools[key]
            model = replace(inits[m], params=params[m])
            accuracy = evaluate_accuracy(model, dataset, test_idx)
            batch, seconds = None, 0.0
            if t < cfg.rounds and pool.unlabeled.size:
                rng = Rng(seed).derive(f"select/{method}/round{t}")
                batch, seconds = timed_select(method, model, dataset, pool, cfg.b,
                                              rng, scope=cfg.scope)
                pools[key] = pool.acquire(batch.indices)
            # every live pool has the same size, so all run out in the same round
            truncated = t < cfg.rounds and not pool.unlabeled.size
            records[key].append(RoundRecord(t, int(pool.labeled.size), accuracy, seconds, batch))
        if truncated or not pools:
            break

    results = []
    for c in cfgs:
        kept = tuple(s for s in cfg.seeds if (c.method, s) not in errors)
        failed = [{"seed": s, "error": errors[(c.method, s)]}
                  for s in cfg.seeds if (c.method, s) in errors]
        if not kept:
            raise ArithmeticError(f"all seeds failed: {failed}")
        results.append(ExperimentResult(
            method=c.method, seeds=kept, per_seed=[records[(c.method, s)] for s in kept],
            learning_rate=float(learning_rate), truncated=truncated, seed_errors=failed))
    return results


def run_experiment(cfg: ExperimentConfig, dataset: Dataset) -> ExperimentResult:
    """Run every seed of one method's schedule: ``run_experiments`` with a
    single config."""
    return run_experiments([cfg], dataset)[0]
