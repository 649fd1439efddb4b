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
    CHUNK_ROWS,
    LAST_LAYER,
    ModelState,
    _tiled,
    grad_embedding,
    grad_embeddings,
    grad_products,
    last_layer_factors,
    mean_grad_embedding,
    penultimate,
    predict_proba,
)
from .numerics import Rng, l2_norm

METHODS = ("grad", "entropy", "badge", "kcenter", "random")
# k-center's and BADGE's screens: an expanded or factored squared distance is off from the exact
# one by about (H + 3) eps (sq_i + sq_c), far below this margin, or by H subnormal spacings, far
# below finfo.tiny
_SCREEN_MARGIN = 1e-8
_BOUND_CENTERS = 64  # k-center bounds every pool row by its distance to this many labeled centers


@dataclass
class AcquisitionBatch:
    """Indices chosen in one acquisition round."""

    indices: np.ndarray
    method: str
    scores: list = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        ordered = np.sort(self.indices)  # not np.unique, whose first call imports numpy.ma
        if (ordered[1:] == ordered[:-1]).any():
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
    """Vectorized df_score over many candidates, the reference mean computed
    once. Squared distances come from ``grad_products``, so no per-example
    gradient is formed. Near 0 they cancel to a residue of order
    eps ||g||^2: as in ``_factored_sq_dists``, negatives are clipped and rows
    within it are rescored exactly, each from its own embedding."""
    labeled = np.asarray(labeled, dtype=np.int64)
    if labeled.size == 0:
        raise ValueError("labeled set must be nonempty")
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    ref = mean_grad_embedding(model, dataset, labeled, scope=scope)
    ref_sq = ref @ ref
    factor = labeled.size / (labeled.size + 1.0)
    sq, dot = grad_products(model, dataset.features, ref, scope, rows=candidate_indices)
    d2 = np.maximum(sq - 2.0 * dot + ref_sq, 0.0)
    scores = factor * np.sqrt(d2)
    for i in np.flatnonzero(d2 <= 1e-9 * (sq + ref_sq)):  # one row per call: memory is one row
        scores[i] = df_scores_from_embeddings(ref, grad_embeddings(
            model, dataset.features[candidate_indices[[i]]], scope=scope), labeled.size)[0]
    return scores


def _top_b(pool_indices: np.ndarray, scores: np.ndarray, b: int):
    """Top-b by descending score, ties broken by ascending dataset index, NaN
    last: the first b of the full lexsort, which sorts only the rows scored at
    or above the b-th largest score (by np.partition, NaN last) or NaN."""
    take = min(int(b), pool_indices.size)
    neg = -scores
    cut = np.partition(neg, take - 1)[take - 1] if take else np.nan  # NaN: no cut
    rows = np.flatnonzero(~(neg > cut))
    order = rows[np.lexsort((pool_indices[rows], neg[rows]))[:take]]
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
    """Predictive entropy per row with the 0 * log 0 = 0 convention: p log p
    in one buffer, +0.0 where p is not positive (NaN included)."""
    p = np.asarray(probabilities, dtype=float)
    positive = p > 0.0
    terms = np.log(p, out=np.zeros_like(p), where=positive)
    np.multiply(terms, p, out=terms, where=positive)
    return -terms.sum(axis=1)


def select_entropy(model: ModelState, dataset: Dataset, pool: PoolState,
                   b: int) -> AcquisitionBatch:
    """Top-b unlabeled points by predictive entropy."""
    if b < 1:
        raise ValueError("b must be >= 1")
    scores = entropy_scores(predict_proba(model, dataset.features, rows=pool.unlabeled))
    chosen, chosen_scores = _top_b(pool.unlabeled, scores, b)
    return AcquisitionBatch(indices=chosen, method="entropy",
                            scores=[float(s) for s in chosen_scores])


def _factored_sq_dists(a: np.ndarray, b: np.ndarray, sq, c: int, rows=None):
    """(d2, sq): squared distances to row c from the rows ``rows`` (every row
    if None) of g_i = a_i (x) b_i, from the factors alone,
    sq_i + sq_c - 2 (a_i . a_c)(b_i . b_c) with sq_i = ||g_i||^2; ``sq`` None
    takes the squared norms of every row from the same pass. b_i . b_c runs
    per ``_tiled`` tile and the rest per row by ``einsum``, which forms no
    (n, |a|) product, so a row's bits do not depend on the rows beside it.
    Cancellation leaves a residue of order eps ||g||^2 at distance 0, so
    negatives are clipped, and row c and its duplicates are set to exactly 0."""
    sel = slice(None) if rows is None else rows
    if sq is None:
        dots, b_sq = _tiled(b, lambda t: [t @ b[c], np.einsum("ij,ij->i", t, t)], (), ())
        sq = np.einsum("ij,ij->i", a, a) * b_sq
    else:
        dots = _tiled(b, lambda t: [t @ b[c]], (), rows=rows)[0]
    dots *= np.einsum("ij,j->i", a[sel], a[c])
    both = sq[sel] + sq[c]
    d2 = np.maximum(both - 2.0 * dots, 0.0)
    # only rows within the residue can be duplicates; compare those exactly
    near = np.flatnonzero(d2 <= 1e-9 * both)
    same = near if rows is None else rows[near]
    if same.size > 1 or same.size and same[0] != c:  # rows other than c itself
        near = near[(a[same] == a[c]).all(axis=1) & (b[same] == b[c]).all(axis=1)]
    d2[near] = 0.0
    return d2, sq


def kmeans_pp_indices(points, k: int, rng: Rng) -> list:
    """k-means++ seeding over rows of ``points``: first center uniform, each
    next center drawn with probability proportional to the squared distance
    D^2 to the nearest chosen center. Returns min(k, n) row indices in order.

    ``points`` is a 2-D array or a factor pair ``(a, b)`` of rows a_i (x) b_i
    (a last-layer gradient is err (x) [h, 1]): a center costs O(n(|a| + |b|))
    at most. By the reverse triangle inequality ||g_i - g_c|| >=
    | ||g_i|| - ||g_c|| |, a new center c lowers D^2 only on rows whose bound
    (||g_i|| - ||g_c||)^2 - 1e-8 (||g_i||^2 + max_j ||g_j||^2) is not above
    it (Elkan 2003): only those rows, and rows whose bound is NaN, are
    computed, and D^2 has the bits of computing every row. The first center
    reads every row, and its pass also gives the squared norms.

    When all remaining squared distances are zero (duplicate-only pools),
    falls back to a uniform draw among not-yet-chosen rows.
    """
    a, b = points if isinstance(points, tuple) else (points, np.ones((len(points), 1)))
    n = a.shape[0]
    chosen, d2 = [], np.full(n, np.inf)
    while len(chosen) < min(int(k), n):
        total = float(d2.sum())
        if not chosen or total <= 0.0:  # the first center, or a duplicate-only rest: uniform
            remaining = np.delete(np.arange(n), chosen)
            nxt = int(remaining[rng.integers(0, remaining.size)])
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        if len(chosen) == 1:
            d2, sq = _factored_sq_dists(a, b, None, nxt)
            # the margin, with max(sq) for sq_c, lies far above the rounding of D^2 and of the bound
            norm, bound = np.sqrt(sq), np.empty(n)
            margin = _SCREEN_MARGIN * (sq + sq.max()) + np.finfo(float).tiny
            continue
        bound = np.subtract(norm, norm[nxt], out=bound)
        bound *= bound
        bound -= margin
        rows = (~(bound > d2)).nonzero()[0]  # a NaN bound keeps its row
        if 2 * rows.size > n:  # most rows: every row in place, none gathered
            np.minimum(d2, _factored_sq_dists(a, b, sq, nxt)[0], out=d2)
        else:
            d2[rows] = np.minimum(d2[rows], _factored_sq_dists(a, b, sq, nxt, rows)[0])
    return chosen


def select_badge(model: ModelState, dataset: Dataset, pool: PoolState, b: int,
                 rng: Rng) -> AcquisitionBatch:
    """BADGE: k-means++ seeding over pseudo-labeled last-layer gradient
    embeddings of the pool, kept in factored form; indices returned in
    selection order."""
    if b < 1:
        raise ValueError("b must be >= 1")
    factors = last_layer_factors(model, dataset.features, rows=pool.unlabeled)
    rows = kmeans_pp_indices(factors, b, rng)
    return AcquisitionBatch(indices=pool.unlabeled[rows], method="badge", scores=None)


def _min_dist_to(points: np.ndarray, centers: np.ndarray, rows=None) -> np.ndarray:
    """Distance from each point of ``points[rows]`` (all if None) to its
    nearest center: per ``_tiled`` tile x of points, with squared norms x_sq,
    and block C of at most CHUNK_ROWS centers, ((-2 C) @ x.T + x_sq) + c_sq,
    min over C, in one reused block. The tile is the GEMM's fixed operand and
    C follows the centers alone, so a point's bits do not depend on the pool."""
    neg2c, c_sq = -2.0 * centers, np.einsum("ij,ij->i", centers, centers)
    block = np.empty((min(CHUNK_ROWS, centers.shape[0]), CHUNK_ROWS))

    def nearest(x):
        x_sq, best = np.einsum("ij,ij->i", x, x), np.full(len(x), np.inf)
        for c in range(0, centers.shape[0], CHUNK_ROWS):
            c_blk = neg2c[c:c + CHUNK_ROWS]
            d2 = np.matmul(c_blk, x.T, out=block[:len(c_blk)])
            d2 += x_sq
            d2 += c_sq[c:c + CHUNK_ROWS, None]
            np.minimum(best, d2.min(axis=0), out=best)
        return [best]
    return np.sqrt(np.maximum(_tiled(points, nearest, (), rows=rows)[0], 0.0))


def _bound_sq(feats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Upper bounds on each row's squared distance to its nearest center: min_c (c_sq - 2 c . x)
    + x_sq over ``_BOUND_CENTERS`` strided centers C, per CHUNK_ROWS**2 // |C| rows (one
    ``_min_dist_to`` block), plus a margin that is non-finite if any center is."""
    p_sq, c_sq = np.einsum("ij,ij->i", feats, feats), np.einsum("ij,ij->i", centers, centers)
    step = -(-len(centers) // _BOUND_CENTERS)
    neg2c, c_col = -2.0 * centers[::step], c_sq[::step, None]
    rows = CHUNK_ROWS * CHUNK_ROWS // len(neg2c)
    ub, block = np.empty(len(feats)), np.empty((len(neg2c), rows))
    for s in range(0, len(feats), rows):
        d2 = np.matmul(neg2c, feats[s:s + rows].T, out=block[:, :min(rows, len(feats) - s)])
        d2 += c_col
        np.add(d2.min(axis=0), p_sq[s:s + rows], out=ub[s:s + rows])
    ub += _SCREEN_MARGIN * (ub + p_sq + c_sq.max()) + np.finfo(float).tiny
    return ub


def _farthest_first(feats: np.ndarray, min_dist: np.ndarray, b: int):
    """``b`` farthest-first picks over the rows of ``feats`` from their
    nearest-center distances ``min_dist``, updated in place: (rows, scores)."""
    p_sq = np.einsum("ij,ij->i", feats, feats)
    chosen, chosen_scores = [], []
    for _ in range(b):
        pick = int(np.argmax(min_dist))
        chosen.append(pick)
        chosen_scores.append(float(min_dist[pick]))
        # a row changes only if its exact distance is below min_dist: those rows pass the screen
        # (so does NaN) and get the exact distance, whose bits do not depend on the rows taken
        approx = p_sq + p_sq[pick] - 2.0 * (feats @ feats[pick])
        bound = min_dist ** 2 * (1.0 + _SCREEN_MARGIN) + _SCREEN_MARGIN * (p_sq + p_sq[pick])
        rows = np.flatnonzero(~((approx > bound + np.finfo(float).tiny) | (min_dist <= 0.0)))
        d = np.sqrt(np.maximum(((feats[rows] - feats[pick]) ** 2).sum(axis=1), 0.0))
        min_dist[rows] = np.minimum(min_dist[rows], d)
        min_dist[pick] = -1.0  # never re-pick
    return chosen, chosen_scores


def select_kcenter(model: ModelState, dataset: Dataset, pool: PoolState,
                   b: int) -> AcquisitionBatch:
    """Greedy farthest-first coverage in penultimate feature space, seeded by
    the labeled set; ties go to the lowest dataset index. Picks from the m
    rows farthest from ``_BOUND_CENTERS`` strided centers stand if the last
    beats every such bound left out; else m grows fourfold from max(1024, 4b)."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if pool.labeled.size == 0:
        raise ValueError("k-center needs a nonempty labeled set")
    unlabeled = np.sort(pool.unlabeled)  # in dataset order: argmax ties go to the lowest index
    feats = penultimate(model, dataset.features, rows=unlabeled)
    centers = penultimate(model, dataset.features, rows=np.sort(pool.labeled))
    n, m, b = len(feats), max(4 * CHUNK_ROWS, 4 * int(b)), min(int(b), len(feats))
    min_dist, done = np.empty(n), np.zeros(n, dtype=bool)  # exact distances of the rows in done
    ub = _bound_sq(feats, centers) if m < n else None
    while m < n and np.isfinite(ub).all():
        part = np.argpartition(ub, n - m - 1)  # ub[part[n - m - 1]] is the largest bound left out
        keep, cut = np.sort(part[n - m:]), ub[part[n - m - 1]]
        new = keep[~done[keep]]
        min_dist[new], done[new] = _min_dist_to(feats, centers, new), True
        # the b-th pick's score is at most the b-th largest distance: skip picks that cannot stand
        if np.partition(min_dist[keep], m - b)[m - b] ** 2 > cut:
            rows, scores = _farthest_first(feats[keep], min_dist[keep], b)
            if scores[-1] ** 2 > cut:  # strict, so no tie crosses it
                return AcquisitionBatch(indices=unlabeled[keep[rows]], method="kcenter", scores=scores)
        m *= 4
    min_dist[~done] = _min_dist_to(feats, centers, np.flatnonzero(~done))
    rows, scores = _farthest_first(feats, min_dist, b)
    return AcquisitionBatch(indices=unlabeled[rows], method="kcenter", scores=scores)


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
