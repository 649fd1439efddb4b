"""The acquisition loop: retrain from scratch each round, evaluate on the
held-out test set, select a batch, query the oracle, grow the labeled set.

Seeding is arranged so the strategy name can never perturb the data: splits
come from the split spec, the round-0 labeled set from the experiment seed
only, and per-round model init / shuffling from (seed, round). Two methods
run under the same seed therefore share initial sets and initializations.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .acquisition import METHODS, AcquisitionBatch, timed_select
from .data import Dataset, PoolState, SplitSpec, init_pool, split
from .model import (
    LAST_LAYER,
    SCOPES,
    ArchSpec,
    TrainConfig,
    init_model,
    predict_proba,
    sweep_learning_rate,
    train,
)
from .numerics import Rng, derive_seed


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

    config_fingerprint: str
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


def _run_seed(cfg: ExperimentConfig, dataset: Dataset, train_idx, test_idx,
              seed: int, learning_rate: float):
    """All rounds for one experiment seed. Returns (records, truncated)."""
    pool = init_pool(train_idx, cfg.init_size, seed)
    records = []
    truncated = False
    for t in range(cfg.rounds + 1):
        model = init_model(cfg.arch, seed=derive_seed(seed, "init", t))
        round_cfg = replace(cfg.train, learning_rate=learning_rate,
                            seed=derive_seed(seed, "train", t))
        try:
            model = train(model, dataset, pool.labeled, round_cfg)
        except ArithmeticError as exc:
            raise ArithmeticError(f"{cfg.method} round {t}: {exc}") from exc
        accuracy = evaluate_accuracy(model, dataset, test_idx)
        if t == cfg.rounds:
            records.append(RoundRecord(t, int(pool.labeled.size), accuracy, 0.0))
            break
        if pool.unlabeled.size == 0:
            records.append(RoundRecord(t, int(pool.labeled.size), accuracy, 0.0))
            truncated = True
            break
        rng = Rng(seed).derive(f"select/{cfg.method}/round{t}")
        batch, seconds = timed_select(cfg.method, model, dataset, pool, cfg.b,
                                      rng, scope=cfg.scope)
        records.append(RoundRecord(t, int(pool.labeled.size), accuracy,
                                   seconds, batch))
        pool = pool.acquire(batch.indices)
    return records, truncated


def resolve_learning_rate(cfg: ExperimentConfig, dataset: Dataset,
                          train_idx, val_idx) -> float:
    """The configured rate, or the sweep winner when sweep_lr is set (swept
    on the first seed's initial labeled set, scored on the validation split)."""
    if not cfg.sweep_lr:
        return cfg.train.learning_rate
    if np.asarray(val_idx).size == 0:
        raise ValueError("learning-rate sweep needs a validation split")
    probe = init_pool(train_idx, cfg.init_size, cfg.seeds[0])
    return sweep_learning_rate(cfg.arch, dataset, probe.labeled, val_idx,
                               cfg.train, seed=derive_seed(cfg.seeds[0], "sweep"))


def run_experiment(cfg: ExperimentConfig, dataset: Dataset,
                   fingerprint: str = "", threads: int = 1) -> ExperimentResult:
    """Run every seed of one method's schedule.

    Seeds are independent, so they may run on a thread pool; results are
    merged in config seed order either way. A diverging seed is recorded in
    seed_errors instead of failing the experiment; if every seed diverges
    the error is raised.
    """
    train_idx, val_idx, test_idx = split(dataset, cfg.split_spec)
    needed = cfg.init_size + min(1, cfg.rounds)
    if train_idx.size < needed:
        raise ValueError("training split smaller than the initial labeled set")
    learning_rate = resolve_learning_rate(cfg, dataset, train_idx, val_idx)

    def one(seed):
        return _run_seed(cfg, dataset, train_idx, test_idx, seed, learning_rate)

    outcomes = {}
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {s: pool.submit(one, s) for s in cfg.seeds}
            for s, fut in futures.items():
                try:
                    outcomes[s] = fut.result()
                except ArithmeticError as exc:
                    outcomes[s] = exc
    else:
        for s in cfg.seeds:
            try:
                outcomes[s] = one(s)
            except ArithmeticError as exc:
                outcomes[s] = exc

    per_seed, kept, errors, truncated = [], [], [], False
    for s in cfg.seeds:
        out = outcomes[s]
        if isinstance(out, ArithmeticError):
            errors.append({"seed": int(s), "error": str(out)})
            continue
        records, was_truncated = out
        per_seed.append(records)
        kept.append(int(s))
        truncated = truncated or was_truncated
    if not per_seed:
        raise ArithmeticError(f"all seeds failed: {errors}")
    if len({len(r) for r in per_seed}) > 1:
        raise RuntimeError("seeds produced unequal round counts")
    return ExperimentResult(
        config_fingerprint=fingerprint,
        method=cfg.method,
        seeds=tuple(kept),
        per_seed=per_seed,
        learning_rate=float(learning_rate),
        truncated=truncated,
        seed_errors=errors,
    )
