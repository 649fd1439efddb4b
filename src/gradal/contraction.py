"""Training-time gradient-discrepancy traces.

Trains a network on a sampled point set S while monitoring, after every
epoch, the norm of the mean-gradient difference between S and a fixed
random subset S_J. The report estimates the epoch t0 after which the
sequence is non-increasing, counts residual violations, and bounds the
worst tail contraction ratio.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .model import (
    FULL,
    SCOPES,
    TRAIN_DTYPE,
    ArchSpec,
    _grad_pass,
    diverged_error,
    init_model,
    train_stack,
)
from .numerics import Rng, derive_seed, l2_norm

MONOTONE_TOL = 1e-6


@dataclass(frozen=True)
class ContractionConfig:
    """Trace hyperparameters. minibatch_size 0 means full-batch descent."""

    s_size: int = 1000
    subset_fraction: float = 0.1
    epochs: int = 150
    learning_rate: float = 1e-4
    seed: int = 0
    scope: str = FULL
    hidden_widths: tuple = (64,)
    momentum: float = 0.0
    minibatch_size: int = 0

    def __post_init__(self):
        if self.s_size < 2:
            raise ValueError("s_size must be >= 2")
        if not 0.0 < self.subset_fraction < 1.0:
            raise ValueError("subset_fraction must lie in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0.0:
            # zero is allowed: a frozen-parameter trace is a useful diagnostic
            raise ValueError("learning_rate must be >= 0")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.minibatch_size < 0:
            raise ValueError("minibatch_size must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")

    @property
    def subset_size(self) -> int:
        return int(self.subset_fraction * self.s_size)


@dataclass
class ContractionReport:
    """Per-epoch discrepancy norms plus monotonicity diagnostics."""

    df_norms: np.ndarray
    t0_estimate: Optional[int]
    violation_count_after_t0: int
    rho_hat: Optional[float]


def estimate_t0(df_norms) -> Optional[int]:
    """Smallest t such that df[u+1] <= df[u]*(1+MONOTONE_TOL) holds for every
    u >= t.

    Only t <= len-2 qualifies (the condition must cover at least one step),
    so a trace whose final step increases reports no t0.
    """
    df = np.asarray(df_norms, dtype=float)
    n = df.size
    start = n - 1
    u = n - 2
    while u >= 0 and df[u + 1] <= df[u] * (1.0 + MONOTONE_TOL):
        start = u
        u -= 1
    return start if start <= n - 2 else None


def _count_violations(df: np.ndarray, t0: Optional[int]) -> int:
    lo = 0 if t0 is None else t0
    tail = df[lo:]
    return int(np.sum(tail[1:] > tail[:-1]))


def _rho_hat(df: np.ndarray, t0: Optional[int]) -> Optional[float]:
    if t0 is None:
        return None
    tail = df[t0:]
    if tail.size < 2 or np.any(tail[:-1] <= 0.0):
        return None
    return float(np.max(tail[1:] / tail[:-1]))


def run_contraction_trace(cfg: ContractionConfig, dataset: Dataset,
                          sample_indices=None, subset_indices=None) -> ContractionReport:
    """Train on S for cfg.epochs epochs, recording after each epoch the
    discrepancy ||mean_grad(S) - mean_grad(S_J)|| at the current parameters.

    S and S_J are drawn from cfg.seed; the optional index arguments override
    the draws (S_J need not be a strict subset then, so S_J = S is testable).
    """
    if cfg.s_size > dataset.n_samples:
        raise ValueError("s_size exceeds the dataset")
    if not 1 <= cfg.subset_size < cfg.s_size:
        raise ValueError("subset_fraction yields an empty or full subset")
    if sample_indices is None:
        sample_indices = Rng(cfg.seed, "root/sample_s").choice(
            dataset.n_samples, size=cfg.s_size, replace=False)
    s = np.sort(np.asarray(sample_indices, dtype=np.int64))
    if subset_indices is None:
        rows = Rng(cfg.seed, "root/sample_sj").choice(s.size, size=cfg.subset_size,
                                                      replace=False)
        subset_indices = s[rows]
    s_j = np.sort(np.asarray(subset_indices, dtype=np.int64))

    arch = ArchSpec(input_dim=dataset.n_features, n_classes=dataset.n_classes,
                    hidden_widths=tuple(cfg.hidden_widths))
    df_norms = np.empty(cfg.epochs)
    # passes over S_J and S (run in minibatch mode only) at the monitor's
    # copy of the stack's params, each gathered and bound once, at the
    # engine's precision: its full-batch g_S and g_{S_J} share arithmetic
    current = np.empty((1, arch.n_params), TRAIN_DTYPE)
    with np.errstate(over="ignore"):  # a feature past float32 diverges in training
        s_j_grad, s_grad = (_grad_pass(arch, current, dataset.features[rows][None].astype(
            TRAIN_DTYPE), dataset.labels[rows][None], cfg.scope) for rows in (s_j, s))

    def monitor(epoch, params, grad):
        current[:] = params
        g_sj = s_j_grad()[0]
        # a full-batch step's gradient over S is mean_grad(S); the scope's part trails
        g_s = grad[0][-g_sj.size:] if grad is not None else s_grad()[0]
        df_norms[epoch] = l2_norm(g_s - g_sj)

    init = init_model(arch, seed=derive_seed(cfg.seed, "init")).params
    _, diverged = train_stack(arch, [init], [s], [cfg.seed], dataset, cfg.learning_rate,
                              cfg.momentum, cfg.minibatch_size, cfg.epochs, on_epoch=monitor)
    if diverged[0] >= 0:
        raise diverged_error(diverged[0], cfg.learning_rate)

    t0 = estimate_t0(df_norms)
    return ContractionReport(
        df_norms=df_norms,
        t0_estimate=t0,
        violation_count_after_t0=_count_violations(df_norms, t0),
        rho_hat=_rho_hat(df_norms, t0),
    )


def cumulative_df_bound_check(df_norms, t0: int):
    """Tail-energy comparison: lhs = sum of df[t]^2 for t in [t0, T],
    rhs = (T - t0 + 1) * df[t0]^2. lhs <= rhs on any non-increasing tail."""
    df = np.asarray(df_norms, dtype=float)
    if df.size == 0:
        raise ValueError("df_norms must be nonempty")
    if not 0 <= t0 < df.size:
        raise ValueError("t0 out of range")
    tail = df[int(t0):]
    lhs = float(np.sum(tail ** 2))
    rhs = float(tail.size * tail[0] ** 2)
    return lhs, rhs
