"""Statistical comparison of acquisition methods: curve aggregation,
paired t-tests, Benjamini-Hochberg FDR control, the pairwise penalty
matrix, and per-method loss scores.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import student_t_sf

SLICE_KINDS = ("all_rounds", "early", "late", "by_dataset", "by_arch")
EARLY_LATE_WINDOW = 3


class TTestResult(NamedTuple):
    t_stat: float
    p_value: float


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on per-seed values.

    t = mean(d) / (sd(d)/sqrt(n)) with sample sd (n-1 denominator) and
    d = a - b. Zero-variance differences get the degenerate convention:
    p = 1 when mean(d) = 0, p = 0 otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-D and equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0)
        return TTestResult(float(np.inf) if mean > 0 else float(-np.inf), 0.0)
    t_stat = mean / (sd / np.sqrt(n))
    return TTestResult(float(t_stat), student_t_sf(t_stat, n - 1))


def bh_fdr(p_values, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg step-up: reject the sorted hypotheses 1..k for the
    largest k with p_(k) <= k*alpha/m. Returns flags in input order."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("p_values must be 1-D")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    passed = p[order] <= alpha * np.arange(1, m + 1) / m
    reject = np.zeros(m, dtype=bool)
    if passed.any():
        k = int(np.max(np.nonzero(passed)[0]))
        reject[order[: k + 1]] = True
    return reject


def bh_adjusted(p_values) -> np.ndarray:
    """BH adjusted p-values: min over j >= i of m*p_(j)/j, clipped to 1.
    Rejecting where adjusted <= alpha reproduces bh_fdr."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    if m == 0:
        return np.zeros(0)
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out


@dataclass
class ExperimentCurves:
    """Accuracy curves of one experiment: method -> (n_seeds, T+1) array,
    column t holding round-t test accuracy (column 0 = pre-acquisition)."""

    accuracies: dict
    dataset: str = ""
    arch: str = ""

    def __post_init__(self):
        if not self.accuracies:
            raise ValueError("need at least one method")
        shape = None
        converted = {}
        for name, acc in self.accuracies.items():
            acc = np.asarray(acc, dtype=float)
            if acc.ndim != 2:
                raise ValueError(f"curves for {name!r} must be 2-D (seeds x rounds)")
            if not np.all(np.isfinite(acc)):
                raise ValueError(f"curves for {name!r} contain non-finite values")
            if shape is None:
                shape = acc.shape
            elif acc.shape != shape:
                raise ValueError("methods disagree on seed/round grid")
            converted[name] = acc
        self.accuracies = converted

    @property
    def methods(self):
        return tuple(self.accuracies)

    @property
    def n_points(self) -> int:
        return next(iter(self.accuracies.values())).shape[1]


def curves_from_results(results_by_method: dict, dataset: str = "",
                        arch: str = "") -> ExperimentCurves:
    """Assemble ExperimentCurves from per-method experiment results or
    (seeds x rounds) accuracy arrays."""
    acc = {}
    for name, result in results_by_method.items():
        if hasattr(result, "per_seed"):
            result = [[rec.test_accuracy for rec in seq] for seq in result.per_seed]
        if len({len(seq) for seq in result}) > 1:
            raise ValueError(f"{name!r} has uneven round counts across seeds")
        acc[name] = np.asarray(result, dtype=float)
    return ExperimentCurves(accuracies=acc, dataset=dataset, arch=arch)


@dataclass(frozen=True)
class ComparisonSlice:
    """Which rounds (and optionally which experiments) enter a comparison.

    kind: all_rounds | early | late | by_dataset | by_arch. Round 0 is the
    pre-acquisition point and never participates; early/late take the
    first/last three post-acquisition rounds.
    """

    kind: str = "all_rounds"
    name: str = ""

    def __post_init__(self):
        if self.kind not in SLICE_KINDS:
            raise ValueError(f"unknown slice kind {self.kind!r}")
        if self.kind in ("by_dataset", "by_arch") and not self.name:
            raise ValueError(f"slice {self.kind!r} needs a name")

    def matches(self, curves: ExperimentCurves) -> bool:
        if self.kind == "by_dataset":
            return curves.dataset == self.name
        if self.kind == "by_arch":
            return curves.arch == self.name
        return True

    def rounds(self, n_points: int):
        eligible = list(range(1, n_points))
        if not eligible:
            raise ValueError("experiment has no post-acquisition rounds")
        if self.kind == "early":
            return eligible[:EARLY_LATE_WINDOW]
        if self.kind == "late":
            return eligible[-EARLY_LATE_WINDOW:]
        return eligible


@dataclass
class PenaltyMatrix:
    """Accumulated pairwise penalties. P[i, j] is win mass method i earned
    over method j; each experiment contributes at most one unit per pair."""

    methods: tuple
    P: np.ndarray
    experiments_counted: int

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        k = len(self.methods)
        if self.P.shape != (k, k):
            raise ValueError("P must be K x K")
        if np.any(np.diag(self.P) != 0.0):
            raise ValueError("diagonal must be zero")
        if np.any(self.P < 0.0):
            raise ValueError("penalties must be non-negative")
        if np.any(self.P > self.experiments_counted + 1e-9):
            raise ValueError("entry exceeds one unit per experiment")


def build_ppm(experiments, comparison_slice: ComparisonSlice,
              alpha: float = 0.05) -> PenaltyMatrix:
    """Pairwise penalty matrix over a list of ExperimentCurves.

    Per experiment and selected round: run all K(K-1)/2 paired t-tests,
    BH-correct within the round, and credit each significant winner with
    1/n_e against the loser, n_e being the rounds the slice evaluates in
    that experiment. Round 0 never participates.
    """
    experiments = [e for e in experiments if comparison_slice.matches(e)]
    if not experiments:
        raise ValueError("slice selects no experiments")
    methods = experiments[0].methods
    for e in experiments:
        if set(e.methods) != set(methods):
            raise ValueError("experiments disagree on method set")
    k = len(methods)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    P = np.zeros((k, k))
    for e in experiments:
        rounds = comparison_slice.rounds(e.n_points)
        unit = 1.0 / len(rounds)
        for t in rounds:
            cols = {m: e.accuracies[m][:, t] for m in methods}
            stats = [paired_t_test(cols[methods[i]], cols[methods[j]])
                     for i, j in pairs]
            reject = bh_fdr([s.p_value for s in stats], alpha)
            for (i, j), stat, rej in zip(pairs, stats, reject):
                if not rej or stat.t_stat == 0.0:
                    continue
                winner, loser = (i, j) if stat.t_stat > 0 else (j, i)
                P[winner, loser] += unit
    return PenaltyMatrix(methods=methods, P=P,
                         experiments_counted=len(experiments))


def loss_scores(ppm: PenaltyMatrix) -> dict:
    """Column means of P (zero diagonal included in the 1/K divisor);
    lower means beaten less often."""
    k = len(ppm.methods)
    means = ppm.P.sum(axis=0) / k
    return {m: float(means[j]) for j, m in enumerate(ppm.methods)}
