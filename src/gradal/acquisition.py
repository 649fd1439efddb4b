"""Acquisition strategies: gradient-discrepancy (grad), entropy, BADGE,
k-center, and random.

Every selector maps (model, dataset, pool, batch size) to a duplicate-free
batch of at most ``min(b, |pool|)`` unlabeled indices. Selectors never read
true labels of pool points; where a label is needed for scoring they use
the model's pseudo-label. Ranking selectors order by descending score with
ties broken by ascending dataset index, so results are reproducible and
independent of pool enumeration order.
"""

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, PoolState
from .model import (
    LAST_LAYER,
    ModelState,
    grad_embedding,
    grad_embedding_chunks,
    last_layer_factors,
    mean_grad_embedding,
    penultimate,
    predict_proba,
)
from .numerics import Rng, l2_norm

METHODS = ("grad", "entropy", "badge", "kcenter", "random")


@dataclass
class AcquisitionBatch:
    """Indices chosen in one acquisition round."""

    indices: np.ndarray
    method: str
    scores: list = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError("batch contains duplicate indices")


def pseudo_label(model: ModelState, x: np.ndarray) -> int:
    """Model argmax class for one input; ties go to the lowest class id."""
    return int(np.argmax(predict_proba(model, np.atleast_2d(x))[0]))


def pseudo_labels(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Argmax class per row, lowest-id tie rule (argmax takes the first max)."""
    return np.argmax(predict_proba(model, features), axis=1).astype(np.int64)


def df_scores_from_embeddings(reference_mean: np.ndarray, embeddings: np.ndarray,
                              n_reference: int) -> np.ndarray:
    """Discrepancy scores given a reference mean embedding and candidate
    embeddings: (|R| / (|R| + 1)) * ||mean_R - g_x||_2 per row.

    This reduced form equals ||grad f(R ∪ {x}) - grad f({x})||_2 for the
    mean-of-losses objective, because
    grad f(R ∪ {x}) - g_x = |R| (mean_R - g_x) / (|R| + 1).
    """
    if n_reference < 1:
        raise ValueError("reference set must be nonempty")
    factor = n_reference / (n_reference + 1.0)
    return factor * np.linalg.norm(embeddings - reference_mean, axis=1)


def df_score(model: ModelState, dataset: Dataset, labeled, x_index: int,
             scope: str = LAST_LAYER) -> float:
    """Gradient-discrepancy score of one unlabeled point against the
    labeled-set reference statistic."""
    labeled = np.asarray(labeled, dtype=np.int64)
    if labeled.size == 0:
        raise ValueError("labeled set must be nonempty")
    x = dataset.features[int(x_index)]
    y_hat = pseudo_label(model, x)
    g_x = grad_embedding(model, x, y_hat, scope=scope)
    ref = mean_grad_embedding(model, dataset, labeled, scope=scope)
    factor = labeled.size / (labeled.size + 1.0)
    return factor * l2_norm(ref - g_x)


def df_scores(model: ModelState, dataset: Dataset, labeled, candidate_indices,
              scope: str = LAST_LAYER) -> np.ndarray:
    """Vectorized df_score over many candidates; the reference statistic is
    computed once (full pass over the labeled set). Candidates are scored one
    row chunk at a time, so memory is bounded by the chunk, not their count."""
    labeled = np.asarray(labeled, dtype=np.int64)
    if labeled.size == 0:
        raise ValueError("labeled set must be nonempty")
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    ref = mean_grad_embedding(model, dataset, labeled, scope=scope)
    chunks = grad_embedding_chunks(model, dataset.features[candidate_indices], scope=scope)
    return np.concatenate([df_scores_from_embeddings(ref, emb, labeled.size)
                           for emb in chunks])


def _top_b(pool_indices: np.ndarray, scores: np.ndarray, b: int):
    """Top-b by descending score, ties broken by ascending dataset index."""
    take = min(int(b), pool_indices.size)
    order = np.lexsort((pool_indices, -scores))[:take]
    return pool_indices[order], scores[order]


def select_grad(model: ModelState, dataset: Dataset, pool: PoolState, b: int,
                scope: str = LAST_LAYER) -> AcquisitionBatch:
    """Top-b unlabeled points by gradient-discrepancy score."""
    if b < 1:
        raise ValueError("b must be >= 1")
    scores = df_scores(model, dataset, pool.labeled, pool.unlabeled, scope=scope)
    chosen, chosen_scores = _top_b(pool.unlabeled, scores, b)
    return AcquisitionBatch(indices=chosen, method="grad",
                            scores=[float(s) for s in chosen_scores])


def entropy_scores(probabilities: np.ndarray) -> np.ndarray:
    """Predictive entropy per row with the 0 * log 0 = 0 convention."""
    p = np.asarray(probabilities, dtype=float)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def select_entropy(model: ModelState, dataset: Dataset, pool: PoolState,
                   b: int) -> AcquisitionBatch:
    """Top-b unlabeled points by predictive entropy."""
    if b < 1:
        raise ValueError("b must be >= 1")
    scores = entropy_scores(predict_proba(model, dataset.features[pool.unlabeled]))
    chosen, chosen_scores = _top_b(pool.unlabeled, scores, b)
    return AcquisitionBatch(indices=chosen, method="entropy",
                            scores=[float(s) for s in chosen_scores])


def _factored_sq_dists(a: np.ndarray, b: np.ndarray, sq: np.ndarray, c: int) -> np.ndarray:
    """Squared distances from every row g_i = a_i (x) b_i to row c, from the
    factors alone: sq_i + sq_c - 2 (a_i . a_c)(b_i . b_c), sq_i = ||g_i||^2.
    Cancellation leaves a residue of order eps ||g||^2 at distance 0, so
    negatives are clipped, and row c and its duplicates are set to exactly 0."""
    d2 = sq + sq[c] - 2.0 * (a @ a[c]) * (b @ b[c])
    np.maximum(d2, 0.0, out=d2)
    d2[(a == a[c]).all(axis=1) & (b == b[c]).all(axis=1)] = 0.0
    return d2


def kmeans_pp_indices(points, k: int, rng: Rng) -> list:
    """k-means++ seeding over rows of ``points``: first center uniform, each
    next center drawn with probability proportional to the squared distance
    to the nearest chosen center. Returns row indices in selection order.

    ``points`` is a 2-D array or a factor pair ``(a, b)`` of rows a_i (x) b_i
    (a last-layer gradient is err (x) [h, 1]): a center costs O(n(|a| + |b|)).

    When all remaining squared distances are zero (duplicate-only pools),
    falls back to a uniform draw among not-yet-chosen rows.
    """
    a, b = points if isinstance(points, tuple) else (points, np.ones((len(points), 1)))
    sq = (a * a).sum(axis=1) * (b * b).sum(axis=1)
    n = a.shape[0]
    k = min(int(k), n)
    first = int(rng.integers(0, n))
    chosen = [first]
    d2 = _factored_sq_dists(a, b, sq, first)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(n), np.array(chosen, dtype=np.int64))
            nxt = int(remaining[rng.integers(0, remaining.size)])
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        np.minimum(d2, _factored_sq_dists(a, b, sq, nxt), out=d2)
    return chosen


def select_badge(model: ModelState, dataset: Dataset, pool: PoolState, b: int,
                 rng: Rng) -> AcquisitionBatch:
    """BADGE: k-means++ seeding over pseudo-labeled last-layer gradient
    embeddings of the pool, kept in factored form; indices returned in
    selection order."""
    if b < 1:
        raise ValueError("b must be >= 1")
    factors = last_layer_factors(model, dataset.features[pool.unlabeled])
    rows = kmeans_pp_indices(factors, b, rng)
    return AcquisitionBatch(indices=pool.unlabeled[rows], method="badge", scores=None)


def _min_dist_to(points: np.ndarray, centers: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Euclidean distance from each point to its nearest center."""
    p_sq = (points ** 2).sum(axis=1)
    best = np.full(points.shape[0], np.inf)
    for start in range(0, centers.shape[0], chunk):
        block = centers[start:start + chunk]
        d2 = p_sq[:, None] - 2.0 * points @ block.T + (block ** 2).sum(axis=1)
        np.minimum(best, d2.min(axis=1), out=best)
    return np.sqrt(np.maximum(best, 0.0))


def select_kcenter(model: ModelState, dataset: Dataset, pool: PoolState,
                   b: int) -> AcquisitionBatch:
    """Greedy farthest-first coverage in penultimate feature space, seeded
    by the labeled set; ties go to the lowest dataset index."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if pool.labeled.size == 0:
        raise ValueError("k-center needs a nonempty labeled set")
    feats = penultimate(model, dataset.features[pool.unlabeled])
    centers = penultimate(model, dataset.features[pool.labeled])
    min_dist = _min_dist_to(feats, centers)
    chosen, chosen_scores = [], []
    for _ in range(min(int(b), pool.unlabeled.size)):
        pick = int(np.argmax(min_dist))
        chosen.append(pick)
        chosen_scores.append(float(min_dist[pick]))
        d = np.sqrt(np.maximum(((feats - feats[pick]) ** 2).sum(axis=1), 0.0))
        np.minimum(min_dist, d, out=min_dist)
        min_dist[pick] = -1.0  # never re-pick
    return AcquisitionBatch(indices=pool.unlabeled[chosen], method="kcenter", scores=chosen_scores)


def select_random(pool: PoolState, b: int, rng: Rng) -> AcquisitionBatch:
    """Uniform sample without replacement from the unlabeled pool."""
    if b < 1:
        raise ValueError("b must be >= 1")
    take = min(int(b), pool.unlabeled.size)
    rows = rng.choice(pool.unlabeled.size, size=take, replace=False)
    return AcquisitionBatch(indices=pool.unlabeled[rows], method="random", scores=None)


def select_batch(method: str, model: ModelState, dataset: Dataset, pool: PoolState,
                 b: int, rng: Rng, scope: str = LAST_LAYER) -> AcquisitionBatch:
    """Dispatch by strategy name ('grad' | 'entropy' | 'badge' | 'kcenter'
    | 'random')."""
    if method == "grad":
        return select_grad(model, dataset, pool, b, scope=scope)
    if method == "entropy":
        return select_entropy(model, dataset, pool, b)
    if method == "badge":
        return select_badge(model, dataset, pool, b, rng)
    if method == "kcenter":
        return select_kcenter(model, dataset, pool, b)
    if method == "random":
        return select_random(pool, b, rng)
    raise ValueError(f"unknown acquisition method {method!r}")


def timed_select(method: str, model: ModelState, dataset: Dataset, pool: PoolState,
                 b: int, rng: Rng, scope: str = LAST_LAYER):
    """Run a selector and report its wall time. The timer brackets only the
    selection step (embedding computation included, model training not)."""
    start = time.perf_counter()
    batch = select_batch(method, model, dataset, pool, b, rng, scope=scope)
    return batch, time.perf_counter() - start
