import itertools
import tracemalloc

import numpy as np
import pytest

from gradal.acquisition import (
    METHODS,
    AcquisitionBatch,
    _factored_sq_dists,
    df_score,
    df_scores,
    df_scores_from_embeddings,
    entropy_scores,
    kmeans_pp_indices,
    pseudo_label,
    pseudo_labels,
    select_badge,
    select_batch,
    select_entropy,
    select_grad,
    select_kcenter,
    select_random,
    timed_select,
)
from gradal.data import Dataset, PoolState, make_blobs
from gradal.model import (
    FULL,
    LAST_LAYER,
    ArchSpec,
    ModelState,
    TrainConfig,
    grad_embedding,
    grad_embeddings,
    init_model,
    last_layer_factors,
    mean_grad_embedding,
    penultimate,
    predict_proba,
    train,
)
from gradal.numerics import Rng


def fitted_fixture(n=60, c=3, d=4, seed=0, n_labeled=12):
    ds = make_blobs(n, c, d, spread=0.8, seed=seed)
    arch = ArchSpec(input_dim=d, n_classes=c, hidden_widths=(8, 6))
    model = train(init_model(arch, 0), ds, np.arange(n_labeled),
                  TrainConfig(learning_rate=0.01, epochs=5, seed=0))
    pool = PoolState(np.arange(n_labeled), np.arange(n_labeled, n))
    return ds, model, pool


def uniform_model(arch):
    """Zero the output layer so every class probability is 1/C."""
    m = init_model(arch, 0)
    params = m.params.copy()
    params[-(arch.penultimate_width + 1) * arch.n_classes:] = 0.0
    return ModelState(params, arch)


# ------------------------------------------------------------ pseudo-labels

def test_pseudo_label_matches_argmax():
    ds, model, _ = fitted_fixture()
    p = predict_proba(model, ds.features)
    for i in range(10):
        assert pseudo_label(model, ds.features[i]) == int(np.argmax(p[i]))


def test_pseudo_label_tie_goes_to_lowest_class():
    arch = ArchSpec(input_dim=2, n_classes=4, hidden_widths=())
    model = uniform_model(arch)
    assert pseudo_label(model, np.array([1.0, -1.0])) == 0
    labels = pseudo_labels(model, Rng(0).normal(size=(20, 2)))
    assert np.all(labels == 0)


# ------------------------------------------------------------ df scoring

def naive_df_score(model, dataset, labeled, x_index):
    """Two-gradient route: build R u {x} with the pseudo-label physically
    inserted, difference of the two mean gradients."""
    x = dataset.features[int(x_index)]
    y_hat = pseudo_label(model, x)
    aug_features = np.vstack([dataset.features[labeled], x])
    aug_labels = np.concatenate([dataset.labels[labeled], [y_hat]])
    aug = Dataset(aug_features, aug_labels, dataset.n_classes,
                  name="augmented")
    g_union = mean_grad_embedding(model, aug, np.arange(len(aug_labels)))
    g_x = grad_embedding(model, x, y_hat)
    return float(np.linalg.norm(g_union - g_x))


def test_df_score_matches_two_gradient_oracle():
    ds, model, pool = fitted_fixture()
    for x_index in pool.unlabeled[:15]:
        fast = df_score(model, ds, pool.labeled, x_index)
        slow = naive_df_score(model, ds, pool.labeled, x_index)
        assert abs(fast - slow) <= 1e-10 * max(1.0, slow)


def test_df_score_single_reference_halves_distance():
    ds, model, _ = fitted_fixture()
    labeled = np.array([0])
    x_index = 20
    score = df_score(model, ds, labeled, x_index)
    g_r = grad_embedding(model, ds.features[0], int(ds.labels[0]))
    y_hat = pseudo_label(model, ds.features[x_index])
    g_x = grad_embedding(model, ds.features[x_index], y_hat)
    assert score == pytest.approx(0.5 * np.linalg.norm(g_r - g_x), rel=1e-12)


def test_df_score_zero_when_candidate_matches_reference_mean():
    ref = Rng(3).normal(size=5)
    emb = np.vstack([ref, ref + 1.0])
    scores = df_scores_from_embeddings(ref, emb, n_reference=7)
    assert scores[0] == 0.0
    assert scores[1] == pytest.approx((7 / 8) * np.sqrt(5.0), rel=1e-12)


def test_df_scores_vectorized_agrees_with_scalar():
    ds, model, pool = fitted_fixture()
    batch = df_scores(model, ds, pool.labeled, pool.unlabeled[:10])
    for k, x_index in enumerate(pool.unlabeled[:10]):
        assert batch[k] == pytest.approx(
            df_score(model, ds, pool.labeled, x_index), rel=1e-12)


def test_df_scores_scale_monotone_in_reference_size():
    # same geometry, growing |R|: factor |R|/(|R|+1) increases toward 1
    ref = np.zeros(4)
    emb = np.ones((1, 4))
    vals = [df_scores_from_embeddings(ref, emb, n)[0] for n in (1, 2, 5, 50)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(50 / 51 * 2.0, rel=1e-12)


def test_df_scores_full_scope_supported():
    ds, model, pool = fitted_fixture()
    s = df_scores(model, ds, pool.labeled, pool.unlabeled[:5], scope=FULL)
    assert s.shape == (5,) and np.all(s >= 0.0)


def test_df_score_requires_labeled_points():
    ds, model, _ = fitted_fixture()
    with pytest.raises(ValueError):
        df_score(model, ds, [], 20)


# ------------------------------------------------------------ grad selector

def test_select_grad_is_top_b_of_scores():
    ds, model, pool = fitted_fixture()
    batch = select_grad(model, ds, pool, b=5)
    scores = df_scores(model, ds, pool.labeled, pool.unlabeled)
    order = np.lexsort((pool.unlabeled, -scores))
    assert np.array_equal(batch.indices, pool.unlabeled[order[:5]])
    assert batch.method == "grad"
    assert len(batch.scores) == 5
    assert batch.scores == sorted(batch.scores, reverse=True)


def test_select_grad_tie_breaks_by_index():
    # duplicate the pool rows so scores tie exactly; lowest indices win
    ds0 = make_blobs(30, 3, 4, spread=0.8, seed=1)
    feats = np.vstack([ds0.features, ds0.features[10:20]])
    labels = np.concatenate([ds0.labels, ds0.labels[10:20]])
    ds = Dataset(feats, labels, 3)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(6,))
    model = train(init_model(arch, 0), ds, np.arange(10),
                  TrainConfig(learning_rate=0.01, epochs=3, seed=0))
    # pool holds originals 10..19 and their duplicates 30..39
    pool = PoolState(np.arange(10), np.arange(10, 40))
    scores = df_scores(model, ds, pool.labeled, pool.unlabeled)
    # every duplicate pair caries the same score
    assert np.allclose(scores[:10], scores[20:], atol=0)
    batch = select_grad(model, ds, pool, b=30)
    for orig, dup in zip(range(10, 20), range(30, 40)):
        assert list(batch.indices).index(orig) < list(batch.indices).index(dup)


def test_select_grad_permutation_invariant():
    ds, model, pool = fitted_fixture()
    batch = select_grad(model, ds, pool, b=7)
    shuffled = PoolState(pool.labeled, Rng(5).permutation(pool.unlabeled))
    batch2 = select_grad(model, ds, shuffled, b=7)
    assert np.array_equal(batch.indices, batch2.indices)


def test_uniform_model_grad_selects_lowest_indices():
    # all-zero parameters: uniform probabilities AND constant penultimate,
    # so every candidate embedding is identical => pure index tie-break
    ds = make_blobs(40, 4, 3, spread=1.0, seed=2)
    arch = ArchSpec(input_dim=3, n_classes=4, hidden_widths=(5,))
    model = ModelState(np.zeros(arch.n_params), arch)
    pool = PoolState(np.arange(8), np.arange(8, 40))
    batch = select_grad(model, ds, pool, b=6)
    assert np.array_equal(batch.indices, np.arange(8, 14))
    assert batch.scores[0] == pytest.approx(batch.scores[-1], rel=1e-12)


# ------------------------------------------------------------ entropy

def test_entropy_values():
    assert entropy_scores(np.full((1, 10), 0.1))[0] == pytest.approx(np.log(10), rel=1e-12)
    assert entropy_scores(np.array([[0.5, 0.5]]))[0] == pytest.approx(np.log(2), rel=1e-12)
    one_hot = np.array([[1.0, 0.0, 0.0]])
    assert entropy_scores(one_hot)[0] == 0.0


def test_entropy_handles_hard_zeros():
    s = entropy_scores(np.array([[0.0, 1.0], [0.3, 0.7]]))
    assert s[0] == 0.0
    assert s[1] == pytest.approx(-(0.3 * np.log(0.3) + 0.7 * np.log(0.7)), rel=1e-12)


def test_select_entropy_is_top_b():
    ds, model, pool = fitted_fixture()
    batch = select_entropy(model, ds, pool, b=5)
    scores = entropy_scores(predict_proba(model, ds.features[pool.unlabeled]))
    order = np.lexsort((pool.unlabeled, -scores))
    assert np.array_equal(batch.indices, pool.unlabeled[order[:5]])


def test_uniform_model_entropy_selects_lowest_indices():
    ds = make_blobs(40, 4, 3, spread=1.0, seed=2)
    model = uniform_model(ArchSpec(input_dim=3, n_classes=4, hidden_widths=(5,)))
    pool = PoolState(np.arange(8), np.arange(8, 40))
    batch = select_entropy(model, ds, pool, b=6)
    assert np.array_equal(batch.indices, np.arange(8, 14))


# ------------------------------------------------------------ badge

def test_kmeans_pp_first_center_uniform():
    points = np.arange(12, dtype=float).reshape(4, 3)
    counts = np.zeros(4)
    for rep in range(10_000):
        rows = kmeans_pp_indices(points, 1, Rng(rep, "badge-first"))
        counts[rows[0]] += 1
    # each row should land near 2500; 3 sigma of Binomial(1e4, 1/4)
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)


def test_kmeans_pp_second_center_proportional_to_d2():
    # three collinear points; conditioned on first=0, P(next=2)/P(next=1) = 4
    points = np.array([[0.0], [1.0], [2.0]])
    seen = {1: 0, 2: 0}
    trials = 0
    for rep in range(30_000):
        rows = kmeans_pp_indices(points, 2, Rng(rep, "badge-second"))
        if rows[0] != 0:
            continue
        trials += 1
        seen[rows[1]] += 1
    assert trials > 5_000
    p2 = seen[2] / trials
    sigma = np.sqrt(0.8 * 0.2 / trials)
    assert abs(p2 - 0.8) <= 4 * sigma


def test_kmeans_pp_duplicate_points_fall_back_to_uniform():
    points = np.zeros((5, 2))
    rows = kmeans_pp_indices(points, 5, Rng(7, "dup"))
    assert sorted(rows) == [0, 1, 2, 3, 4]


def test_kmeans_pp_never_exceeds_population():
    points = Rng(0).normal(size=(3, 2))
    assert len(kmeans_pp_indices(points, 10, Rng(1))) == 3


def test_select_badge_duplicate_pool_picks_distant_point():
    # pool: many copies of one embedding plus one far point; after the first
    # center lands in the clump, the far point has all the d^2 mass
    ds0 = make_blobs(30, 2, 2, spread=0.4, seed=3)
    feats = np.vstack([np.tile(ds0.features[5], (9, 1)), ds0.features[:1] + 30.0])
    feats = np.vstack([ds0.features[:10], feats])
    labels = np.concatenate([ds0.labels[:10], np.full(10, ds0.labels[5])])
    ds = Dataset(feats, labels, 2)
    arch = ArchSpec(input_dim=2, n_classes=2, hidden_widths=(4,))
    model = train(init_model(arch, 0), ds, np.arange(10),
                  TrainConfig(learning_rate=0.01, epochs=5, seed=0))
    pool = PoolState(np.arange(10), np.arange(10, 20))
    for rep in range(20):
        batch = select_badge(model, ds, pool, b=2, rng=Rng(rep, "badge-far"))
        if batch.indices[0] != 19:
            assert batch.indices[1] == 19
    # determinism under a fixed stream
    a = select_badge(model, ds, pool, b=2, rng=Rng(4, "fixed"))
    b = select_badge(model, ds, pool, b=2, rng=Rng(4, "fixed"))
    assert np.array_equal(a.indices, b.indices)


def test_kmeans_pp_three_point_enumeration():
    # exact law for k=2 on {0, 1, 3}: enumerate conditional probabilities
    points = np.array([[0.0], [1.0], [3.0]])
    # conditional next-center laws given each first center
    law = {
        0: {1: 1.0 / 10.0, 2: 9.0 / 10.0},
        1: {0: 1.0 / 5.0, 2: 4.0 / 5.0},
        2: {0: 9.0 / 13.0, 1: 4.0 / 13.0},
    }
    counts = {(i, j): 0 for i in range(3) for j in range(3) if i != j}
    reps = 60_000
    for rep in range(reps):
        rows = kmeans_pp_indices(points, 2, Rng(rep, "badge-enum"))
        counts[(rows[0], rows[1])] += 1
    for (i, j), c in counts.items():
        expected = (1.0 / 3.0) * law[i][j]
        sigma = np.sqrt(expected * (1 - expected) / reps)
        assert abs(c / reps - expected) <= 4 * sigma, (i, j)


# ------------------------------------------------------------ factored kernel

def random_net_pool(seed, hidden):
    """An untrained random net and a 43-row pool whose rows 40-42 copy row 0."""
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=hidden)
    x = Rng(seed, "factored-pool").normal(size=(40, 4)) * 2.0
    return init_model(arch, seed), np.vstack([x, np.tile(x[:1], (3, 1))])


NETS = [(0, ()), (1, (5,)), (2, (8, 6)), (3, (16,))]


class RecordingRng(Rng):
    """An Rng that keeps every sampling law handed to ``choice``."""

    def __init__(self, seed, label="root"):
        super().__init__(seed, label)
        self.laws = []

    def choice(self, n, size=None, replace=True, p=None):
        self.laws.append(np.array(p))
        return super().choice(n, size=size, replace=replace, p=p)


@pytest.mark.parametrize("seed,hidden", NETS)
def test_factored_sq_dists_match_dense_oracle(seed, hidden):
    model, x = random_net_pool(seed, hidden)
    a, b = last_layer_factors(model, x)
    g = grad_embeddings(model, x, pseudo_labels(model, x))
    sq = (a * a).sum(axis=1) * (b * b).sum(axis=1)
    assert np.allclose(sq, (g * g).sum(axis=1), rtol=1e-12, atol=0.0)
    for c in range(x.shape[0]):
        dense = ((g - g[c]) ** 2).sum(axis=1)
        fact = _factored_sq_dists(a, b, sq, c)
        assert np.all(np.abs(fact - dense) <= 1e-9 * (sq + sq[c]))


@pytest.mark.parametrize("seed,hidden", NETS)
def test_factored_sq_dists_zero_chosen_and_duplicate_rows(seed, hidden):
    model, x = random_net_pool(seed, hidden)
    a, b = last_layer_factors(model, x)
    sq = (a * a).sum(axis=1) * (b * b).sum(axis=1)
    copies_of_0 = [0, 40, 41, 42]
    for c in (0, 41, 7):
        d2 = _factored_sq_dists(a, b, sq, c)
        assert d2[c] == 0.0
        assert np.all(d2 >= 0.0)
        if c in copies_of_0:
            assert np.all(d2[copies_of_0] == 0.0)
        assert np.count_nonzero(d2 == 0.0) == (4 if c in copies_of_0 else 1)


@pytest.mark.parametrize("seed,hidden", NETS)
def test_kmeans_pp_factored_law_matches_dense_law(seed, hidden):
    model, x = random_net_pool(seed, hidden)
    g = grad_embeddings(model, x, pseudo_labels(model, x))
    for rep in range(5):
        rng = RecordingRng(rep, "factored-law")
        rows = kmeans_pp_indices(last_layer_factors(model, x), 12, rng)
        assert rows == kmeans_pp_indices(g, 12, Rng(rep, "factored-law"))
        d2 = ((g - g[rows[0]]) ** 2).sum(axis=1)
        for k, law in enumerate(rng.laws, start=1):
            assert np.abs(law - d2 / d2.sum()).max() <= 1e-9
            assert np.all(law[rows[:k]] == 0.0)
            if {0, 40, 41, 42} & set(rows[:k]):
                assert np.all(law[[0, 40, 41, 42]] == 0.0)
            d2 = np.minimum(d2, ((g - g[rows[k]]) ** 2).sum(axis=1))


@pytest.mark.parametrize("scope", [LAST_LAYER, FULL])
def test_streamed_df_scores_equal_dense_scores_bitwise(scope):
    # more candidates than one 256-row chunk, so the stream has several blocks
    ds = make_blobs(700, 3, 4, spread=0.8, seed=5)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8, 6))
    model = train(init_model(arch, 0), ds, np.arange(30),
                  TrainConfig(learning_rate=0.01, epochs=3, seed=0))
    labeled, candidates = np.arange(30), np.arange(30, 700)
    ref = mean_grad_embedding(model, ds, labeled, scope=scope)
    x = ds.features[candidates]
    dense = df_scores_from_embeddings(
        ref, grad_embeddings(model, x, pseudo_labels(model, x), scope=scope), labeled.size)
    assert np.array_equal(df_scores(model, ds, labeled, candidates, scope=scope), dense)


def test_full_scope_df_scores_memory_is_bounded_by_the_chunk():
    ds = make_blobs(2_100, 4, 20, spread=1.0, seed=1)
    arch = ArchSpec(input_dim=20, n_classes=4, hidden_widths=(64, 32))
    model = init_model(arch, 0)
    candidates = np.arange(100, 2_100)
    # a 256-row chunk's embeddings, their difference from the reference and
    # its squares, plus slack; materializing all candidates takes 23 of these
    chunk_bytes = 256 * arch.n_params * 8
    tracemalloc.start()
    try:
        scores = df_scores(model, ds, np.arange(100), candidates, scope=FULL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (candidates.size,)
    assert peak < 4 * chunk_bytes


# ------------------------------------------------------------ k-center

def test_kcenter_line_example():
    # penultimate space == input space when there are no hidden layers;
    # points at 0, 1, 2, 10 with only 0 labeled: farthest-first takes 10, then 2
    feats = np.array([[0.0], [1.0], [2.0], [10.0]])
    ds = Dataset(feats, np.array([0, 1, 0, 1]), 2)
    arch = ArchSpec(input_dim=1, n_classes=2, hidden_widths=())
    model = init_model(arch, 0)
    pool = PoolState(np.array([0]), np.array([1, 2, 3]))
    batch = select_kcenter(model, ds, pool, b=2)
    assert list(batch.indices) == [3, 2]
    assert batch.scores[0] == pytest.approx(10.0)
    assert batch.scores[1] == pytest.approx(2.0)


def brute_force_radius(feats, labeled, subset):
    centers = np.vstack([feats[labeled], feats[list(subset)]])
    d = np.sqrt(((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
    return d.min(axis=1).max()


def test_kcenter_within_twice_optimal():
    rng = Rng(9)
    for trial in range(5):
        feats = rng.normal(size=(8, 2)) * 3.0
        ds = Dataset(feats, np.array([0, 1] * 4), 2)
        arch = ArchSpec(input_dim=2, n_classes=2, hidden_widths=())
        model = init_model(arch, trial)
        pool = PoolState(np.array([0]), np.arange(1, 8))
        b = 2
        batch = select_kcenter(model, ds, pool, b=b)
        greedy_radius = brute_force_radius(feats, [0], batch.indices)
        best = min(brute_force_radius(feats, [0], s)
                   for s in itertools.combinations(range(1, 8), b))
        assert greedy_radius <= 2.0 * best + 1e-9


def test_kcenter_deterministic_and_duplicate_free():
    ds, model, pool = fitted_fixture()
    a = select_kcenter(model, ds, pool, b=10)
    b = select_kcenter(model, ds, pool, b=10)
    assert np.array_equal(a.indices, b.indices)
    assert len(set(a.indices.tolist())) == 10


def test_kcenter_requires_labeled_seed():
    ds, model, _ = fitted_fixture()
    with pytest.raises(ValueError):
        select_kcenter(model, ds, PoolState(np.array([], dtype=np.int64),
                                            np.arange(10)), b=2)


# ------------------------------------------------------------ random

def test_select_random_whole_pool():
    ds, model, pool = fitted_fixture()
    batch = select_random(pool, b=pool.unlabeled.size, rng=Rng(0, "r"))
    assert sorted(batch.indices.tolist()) == sorted(pool.unlabeled.tolist())


def test_select_random_deterministic():
    _, _, pool = fitted_fixture()
    a = select_random(pool, 5, Rng(3, "sel"))
    b = select_random(pool, 5, Rng(3, "sel"))
    assert np.array_equal(a.indices, b.indices)


def test_select_random_uniform_marginals():
    pool = PoolState(np.array([0]), np.arange(1, 6))
    counts = np.zeros(6)
    reps = 10_000
    for rep in range(reps):
        batch = select_random(pool, 1, Rng(rep, "uniform-check"))
        counts[batch.indices[0]] += 1
    sigma = np.sqrt(reps * 0.2 * 0.8)
    assert np.all(np.abs(counts[1:] - reps / 5) <= 3 * sigma)


# ------------------------------------------------------------ shared contracts

def test_all_selectors_common_contract():
    ds, model, pool = fitted_fixture()
    for method in METHODS:
        batch = select_batch(method, model, ds, pool, b=6, rng=Rng(1, method))
        again = select_batch(method, model, ds, pool, b=6, rng=Rng(1, method))
        assert batch.method == method
        assert batch.indices.size == 6
        assert len(set(batch.indices.tolist())) == 6
        assert np.all(np.isin(batch.indices, pool.unlabeled))
        assert np.array_equal(batch.indices, again.indices), method


def test_selectors_clamp_batch_to_pool():
    ds, model, pool = fitted_fixture()
    small = PoolState(pool.labeled, pool.unlabeled[:3])
    for method in METHODS:
        batch = select_batch(method, model, ds, small, b=50, rng=Rng(0, method))
        assert batch.indices.size == 3, method


def test_selectors_ignore_true_pool_labels():
    # oracle honesty: corrupting unlabeled labels must not change selection
    ds, model, pool = fitted_fixture()
    poisoned_labels = ds.labels.copy()
    poisoned_labels[pool.unlabeled] = (poisoned_labels[pool.unlabeled] + 1) % ds.n_classes
    poisoned = Dataset(ds.features, poisoned_labels, ds.n_classes)
    for method in METHODS:
        a = select_batch(method, model, ds, pool, b=6, rng=Rng(2, method))
        b = select_batch(method, model, poisoned, pool, b=6, rng=Rng(2, method))
        assert np.array_equal(a.indices, b.indices), method


def test_select_batch_unknown_method():
    ds, model, pool = fitted_fixture()
    with pytest.raises(ValueError, match="unknown acquisition method"):
        select_batch("margin", model, ds, pool, 3, Rng(0))


def test_batch_rejects_duplicates():
    with pytest.raises(ValueError):
        AcquisitionBatch(indices=np.array([4, 4, 5]), method="grad")


def test_timed_select_returns_batch_and_time():
    ds, model, pool = fitted_fixture()
    batch, seconds = timed_select("entropy", model, ds, pool, 4, Rng(0))
    assert batch.indices.size == 4
    assert seconds >= 0.0
