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
    train,  # unused here; perfbench's tracer test expects al_loop to bind it
    train_stack,
)
from .numerics import Rng, derive_seed

# candidate learning rates of the sweep, ascending: ties go to the smaller
SWEEP_RATES = (0.0001, 0.0005, 0.001, 0.005, 0.01)


@dataclass(frozen=True)
class ExperimentConfig:
    """One (dataset, architecture) schedule per method, all under the same seeds.

    ``rounds`` counts acquisitions; curves get rounds+1 points because the
    pre-acquisition model is also evaluated. ``initial_size`` defaults to b.
    ``sweep_lr`` replaces train.learning_rate with the sweep winner, chosen
    once on the first seed's initial labeled set and frozen.
    """

    arch: ArchSpec
    train: TrainConfig
    methods: tuple
    b: int
    rounds: int
    seeds: tuple
    initial_size: Optional[int] = None
    scope: str = LAST_LAYER
    split_spec: SplitSpec = field(default_factory=SplitSpec)
    sweep_lr: bool = False

    def __post_init__(self):
        for name in ("methods", "seeds"):  # a bare string would be read character by character
            if isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a sequence, not the string {getattr(self, name)!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not set(self.methods) <= set(METHODS):
            raise ValueError(f"unknown acquisition method in {self.methods!r}")
        for name, values in (("methods", self.methods), ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.initial_size is not None and self.initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")

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
    pred = np.argmax(predict_proba(model, dataset.features, rows=test), axis=1)
    return float(np.mean(pred == dataset.labels[test]))


def sweep_learning_rate(arch: ArchSpec, dataset: Dataset, train_indices, val_indices,
                        base_cfg: TrainConfig, seed: int) -> float:
    """One-time learning-rate sweep: train on ``train_indices`` at each of
    ``SWEEP_RATES`` from one init and one shuffle seed, as one stack, and
    keep the rate with the highest validation accuracy. Ties go to the
    smaller rate. A rate whose training diverges is skipped; if every rate
    diverges, that is raised."""
    train_indices = np.asarray(train_indices, dtype=np.int64)
    val_indices = np.asarray(val_indices, dtype=np.int64)
    if train_indices.size == 0:
        raise ValueError("indices must be nonempty")
    if val_indices.size == 0:
        raise ValueError("learning-rate sweep needs a nonempty validation split")
    init, rows = init_model(arch, seed), len(SWEEP_RATES)
    params, diverged = train_stack(
        arch, np.tile(init.params, (rows, 1)), np.tile(train_indices, (rows, 1)),
        [seed] * rows, dataset, np.array(SWEEP_RATES), base_cfg.momentum,
        base_cfg.minibatch_size, base_cfg.epochs)
    best_rate, best_acc = None, -1.0
    for rate, row, epoch in zip(SWEEP_RATES, params, diverged):
        if epoch < 0:
            acc = evaluate_accuracy(replace(init, params=row), dataset, val_indices)
            if acc > best_acc:
                best_rate, best_acc = rate, acc
    if best_rate is None:
        raise ArithmeticError("learning-rate sweep: every rate diverged: " + "; ".join(
            str(diverged_error(epoch, rate)) for rate, epoch in zip(SWEEP_RATES, diverged)))
    return best_rate


def run_experiments(cfg: ExperimentConfig, dataset: Dataset) -> list:
    """One ExperimentResult per method of ``cfg``, in order. Round-major: at
    round t every live (method, seed) has init_size + t*b labeled points and
    an init and shuffle keyed by (seed, t), so all train as one
    ``train_stack``; round 0 trains one row per seed for all methods. A
    diverging (method, seed) goes to seed_errors and drops out; if every
    seed of a method diverges the error is raised."""
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

    keys = [(m, s) for m in cfg.methods for s in cfg.seeds]
    pools = {key: init_pool(train_idx, cfg.init_size, key[1]) for key in keys}
    records = {key: [] for key in keys}
    errors = {}
    truncated = False
    for t in range(cfg.rounds + 1):
        live = list(pools)
        # one stack row per distinct labeled set: at round 0 all methods of a
        # seed hold the seed's initial set, so they share the seed's row
        heads = [(cfg.methods[0], s) for s in cfg.seeds] if t == 0 else live
        row = {key: cfg.seeds.index(key[1]) if t == 0 else m for m, key in enumerate(live)}
        inits = {s: init_model(cfg.arch, seed=derive_seed(s, "init", t)) for s in cfg.seeds}
        params, diverged = train_stack(
            cfg.arch, [inits[s].params for _, s in heads], [pools[key].labeled for key in heads],
            [derive_seed(s, "train", t) for _, s in heads], dataset, learning_rate,
            cfg.train.momentum, cfg.train.minibatch_size, cfg.train.epochs)
        for key in live:
            (method, seed), m = key, row[key]
            if diverged[m] >= 0:
                errors[key] = f"{method} round {t}: {diverged_error(diverged[m], learning_rate)}"
                del pools[key]
                continue
            pool = pools[key]
            model = replace(inits[seed], params=params[m])
            accuracy = evaluate_accuracy(model, dataset, test_idx)
            batch, seconds = None, 0.0
            if t < cfg.rounds and pool.unlabeled.size:
                rng = Rng(seed, f"root/select/{method}/round{t}")
                batch, seconds = timed_select(method, model, dataset, pool, cfg.b,
                                              rng, scope=cfg.scope)
                pools[key] = pool.acquire(batch.indices)
            # every live pool has the same size, so all run out in the same round
            truncated = t < cfg.rounds and not pool.unlabeled.size
            records[key].append(RoundRecord(t, int(pool.labeled.size), accuracy, seconds, batch))
        if truncated or not pools:
            break

    results = []
    for method in cfg.methods:
        kept = tuple(s for s in cfg.seeds if (method, s) not in errors)
        failed = [{"seed": s, "error": errors[(method, s)]}
                  for s in cfg.seeds if (method, s) in errors]
        if not kept:
            raise ArithmeticError(f"all seeds failed: {failed}")
        results.append(ExperimentResult(
            method=method, seeds=kept, per_seed=[records[(method, s)] for s in kept],
            learning_rate=float(learning_rate), truncated=truncated, seed_errors=failed))
    return results


def run_experiment(cfg: ExperimentConfig, dataset: Dataset) -> ExperimentResult:
    """Run every seed of a one-method config's schedule."""
    if len(cfg.methods) != 1:
        raise ValueError(f"run_experiment takes one method, not methods={cfg.methods!r}")
    [result] = run_experiments(cfg, dataset)
    return result
