import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from gradal import acquisition
from gradal.acquisition import (
    METHODS,
    AcquisitionBatch,
    _bound_sq,
    _factored_sq_dists,
    _farthest_first,
    _min_dist_to,
    _top_b,
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


def test_df_scores_requires_labeled_points():
    ds, model, pool = fitted_fixture()
    with pytest.raises(ValueError, match="labeled set must be nonempty"):
        df_scores(model, ds, [], pool.unlabeled)


def test_df_scores_from_embeddings_requires_a_reference():
    with pytest.raises(ValueError, match="reference set must be nonempty"):
        df_scores_from_embeddings(np.zeros(3), np.ones((2, 3)), n_reference=0)


@pytest.mark.parametrize("method", METHODS)
def test_select_batch_rejects_an_empty_batch(method):
    ds, model, pool = fitted_fixture()
    with pytest.raises(ValueError, match="b must be >= 1"):
        select_batch(method, model, ds, pool, 0, Rng(0))


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


@pytest.mark.parametrize("kind", ["ties", "nan", "inf", "signed_zero"])
def test_top_b_equals_the_full_lexsort(kind):
    # few distinct scores, so ties cross the cut; NaN sorts last, as in the lexsort
    rng = np.random.default_rng(["ties", "nan", "inf", "signed_zero"].index(kind))
    special = {"ties": [], "nan": [np.nan, -np.nan], "inf": [np.inf, -np.inf],
               "signed_zero": [0.0, -0.0]}[kind]
    for _ in range(300):
        n = int(rng.integers(1, 70))
        scores = rng.integers(0, 4, n).astype(float)
        if special:
            hit = rng.random(n) < rng.random()
            scores[hit] = rng.choice(special, hit.sum())
        pool_indices = rng.permutation(3 * n)[:n]
        for b in {1, 2, int(rng.integers(1, n + 1)), n, n + 5}:
            order = np.lexsort((pool_indices, -scores))[:b]
            got = _top_b(pool_indices, scores, b)
            assert got[0].tobytes() == pool_indices[order].tobytes()
            assert got[1].tobytes() == scores[order].tobytes()


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


def _reference_entropy_scores(p):
    """``entropy_scores`` as whole-array np.where passes: p log p where p > 0, else +0.0."""
    p = np.asarray(p, dtype=float)
    return -np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=1)


def test_entropy_handles_hard_zeros():
    s = entropy_scores(np.array([[0.0, 1.0], [0.3, 0.7]]))
    assert s[0] == 0.0
    assert s[1] == pytest.approx(-(0.3 * np.log(0.3) + 0.7 * np.log(0.7)), rel=1e-12)
    # bitwise the reference, signs of zero included: an entry that is not
    # positive (a hard or negative zero, NaN, a negative) adds +0.0
    tiny = np.nextafter(0.0, 1.0)  # the least subnormal
    batch = Rng(0, "entropy-dirichlet").dirichlet(np.full(10, 0.05), 5_000)
    for p in (np.array([[0.0, 1.0], [0.3, 0.7], [0.0, 0.0]]),
              np.array([[-0.0, 1.0], [-0.0, -0.0], [-0.0, 0.0]]),
              np.array([[tiny, 1.0 - tiny], [1e-310, 1.0], [tiny, 0.0]]),
              np.array([[np.nan, 1.0], [np.nan, np.nan], [0.4, np.nan]]),
              np.array([[-0.1, 1.1], [-1.0, 0.5], [-0.0, -2.0]]),
              batch, np.asfortranarray(batch)):  # a row sum's order follows the layout
        got, want = entropy_scores(p), _reference_entropy_scores(p)
        assert got.tobytes() == want.tobytes()
    assert np.signbit(entropy_scores(np.array([[0.0, 1.0], [-0.0, -0.0]]))).all()


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
        fact, fact_sq = _factored_sq_dists(a, b, None, c)
        assert np.allclose(fact_sq, sq, rtol=1e-14, atol=0.0)
        assert np.all(np.abs(fact - dense) <= 1e-9 * (sq + sq[c]))
        # any subset of rows gets the bits those rows have when every row is computed
        rows = np.arange(c % 3, x.shape[0], 3)
        assert _factored_sq_dists(a, b, fact_sq, c, rows)[0].tobytes() == fact[rows].tobytes()


@pytest.mark.parametrize("seed,hidden", NETS)
def test_factored_sq_dists_zero_chosen_and_duplicate_rows(seed, hidden):
    model, x = random_net_pool(seed, hidden)
    a, b = last_layer_factors(model, x)
    copies_of_0 = [0, 40, 41, 42]
    for c in (0, 41, 7):
        d2, sq = _factored_sq_dists(a, b, None, c)
        assert np.array_equal(_factored_sq_dists(a, b, sq, c, np.arange(43)[::-1])[0], d2[::-1])
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


class ScriptedRng(RecordingRng):
    """A RecordingRng that takes every center, the first one too, from a
    script; ``choice`` records the law, so that laws with NaN or inf entries,
    which a real draw rejects, are recorded too."""

    def __init__(self, script):
        super().__init__(0, "scripted")
        self.script = iter(script)

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        return next(self.script)

    def choice(self, n, size=None, replace=True, p=None):
        self.laws.append(np.array(p))
        return next(self.script)


def kmeans_pp_unpruned(points, k, rng):
    """kmeans_pp_indices with every row's D^2 recomputed for every center."""
    a, b = points if isinstance(points, tuple) else (points, np.ones((len(points), 1)))
    n = len(a)
    chosen, d2, sq = [], np.full(n, np.inf), None
    while len(chosen) < min(k, n):
        total = float(d2.sum())
        if not chosen or total <= 0.0:
            remaining = np.delete(np.arange(n), chosen)
            nxt = int(remaining[rng.integers(0, remaining.size)])
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        new, sq = _factored_sq_dists(a, b, sq, nxt)
        d2 = np.minimum(d2, new)
    return chosen


def assert_pruned_equals_unpruned(points, k, make_rng):
    """The rows and laws handed to choice, equal bitwise pruned and unpruned."""
    rng, all_rng = make_rng(), make_rng()
    rows = kmeans_pp_indices(points, k, rng)
    assert rows == kmeans_pp_unpruned(points, k, all_rng)
    assert len(rng.laws) == len(all_rng.laws) > 0
    for law, all_law in zip(rng.laws, all_rng.laws):
        assert law.tobytes() == all_law.tobytes()
    return rows, rng.laws


@pytest.mark.parametrize("seed,hidden", NETS)
def test_kmeans_pp_pruned_laws_equal_unpruned_bitwise(seed, hidden):
    model, x = random_net_pool(seed, hidden)
    factors = last_layer_factors(model, x)
    for rep in range(5):
        assert_pruned_equals_unpruned(factors, 12, lambda: RecordingRng(rep, "pruned-law"))


def test_kmeans_pp_pruned_laws_equal_unpruned_bitwise_over_several_tiles():
    # 1,000 rows: the unpruned passes read tile views, the pruned ones gather
    ds, model, pool = pool_net_fixture("10-64-32-4")
    factors = last_layer_factors(model, ds.features, rows=pool)
    for rep in range(3):
        assert_pruned_equals_unpruned(factors, 40, lambda: RecordingRng(rep, "pruned-tiles"))


def test_kmeans_pp_pruned_laws_equal_unpruned_on_duplicate_and_zero_rows():
    # 5 distinct rows 8 times over, then rows whose gradient is 0 by either factor
    a, b = Rng(0, "dup-zero").normal(size=(5, 3)), Rng(1, "dup-zero").normal(size=(5, 4))
    a, b = np.tile(a, (8, 1)), np.tile(b, (8, 1))
    a[[3, 11, 17]], b[[5, 11, 29]] = 0.0, 0.0
    for rep in range(5):
        rows, laws = assert_pruned_equals_unpruned((a, b), 12, lambda: RecordingRng(rep, "dup-zero"))
        assert sorted(rows) == sorted(set(rows))
        assert all(np.all(law[rows[:i + 1]] == 0.0) for i, law in enumerate(laws))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_pp_pruned_laws_equal_unpruned_on_non_finite_rows(bad):
    # a real draw rejects the law once a row is not finite; the scripted one
    # keeps going, so rows whose bound is NaN are screened center after center
    model, x = random_net_pool(1, (5,))
    a, b = last_layer_factors(model, x)
    a[7, 1], b[20, 2] = bad, bad
    # row 12's D^2 to rows 0-5 is inf, not NaN, and to rows 6-11 NaN: only a
    # NaN bound, which every row has once row 12 is a center, makes min see it
    points = Rng(2, "non-finite").normal(size=(13, 3))
    points[:12, 0] = np.abs(points[:12, 0]) * np.repeat([-1.0, 1.0], 6) * np.copysign(1.0, bad)
    points[12, 0] = bad
    cases = [((a, b), [3, 30, 20, 11, 7, 1]), ((a, b), [7, 20, 5, 9, 0, 1]),
             ((a, b), [4, 19, 33, 26, 12, 1]), (points, [0, 12, 3, 8, 10, 1])]
    with np.errstate(invalid="ignore", over="ignore"):
        for pts, script in cases:
            _, laws = assert_pruned_equals_unpruned(pts, 6, lambda: ScriptedRng(script))
            assert len(laws) == 5


def dense_df_scores(model, ds, labeled, candidates, scope):
    """The scores from materialized embeddings, pseudo-labeled as df_scores does."""
    ref = mean_grad_embedding(model, ds, labeled, scope=scope)
    x = ds.features[candidates]
    emb = grad_embeddings(model, x, pseudo_labels(model, x), scope=scope)
    return df_scores_from_embeddings(ref, emb, len(labeled))


@pytest.mark.parametrize("scope", [LAST_LAYER, FULL])
def test_df_scores_match_dense_oracle(scope):
    # more candidates than one 256-row chunk, so the stream has several blocks
    ds = make_blobs(700, 3, 4, spread=0.8, seed=5)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8, 6))
    model = train(init_model(arch, 0), ds, np.arange(30),
                  TrainConfig(learning_rate=0.01, epochs=3, seed=0))
    labeled, candidates = np.arange(30), np.arange(30, 700)
    dense = dense_df_scores(model, ds, labeled, candidates, scope)
    got = df_scores(model, ds, labeled, candidates, scope=scope)
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=0)


def test_df_scores_match_dense_oracle_on_default_net():
    ds = make_blobs(100, 4, 10, spread=1.0, seed=4)
    model = train(init_model(ArchSpec(input_dim=10, n_classes=4), 0), ds, np.arange(50),
                  TrainConfig(learning_rate=0.01, epochs=3, seed=0))
    labeled, candidates = np.arange(50), np.arange(50, 100)
    dense = dense_df_scores(model, ds, labeled, candidates, FULL)
    got = df_scores(model, ds, labeled, candidates, scope=FULL)
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scope", [LAST_LAYER, FULL])
def test_df_scores_rescore_exactly_near_zero(monkeypatch, scope):
    # R = {x} under x's pseudo-label: the reference is g_x itself, and the
    # factored distance leaves a residue that the exact rescoring takes to 0
    ds, model, pool = fitted_fixture()
    x = int(pool.unlabeled[0])
    labels = ds.labels.copy()
    labels[x] = pseudo_label(model, ds.features[x])
    relabeled = Dataset(ds.features, labels, ds.n_classes)
    rescored = []

    def spy(model, features, labels=None, scope=LAST_LAYER):
        rescored.append(features.copy())
        return grad_embeddings(model, features, labels, scope)

    monkeypatch.setattr("gradal.acquisition.grad_embeddings", spy)
    scores = df_scores(model, relabeled, [x], pool.unlabeled, scope=scope)
    assert scores[0] == 0.0
    assert len(rescored) == 1 and np.array_equal(rescored[0], ds.features[[x]])
    dense = dense_df_scores(model, relabeled, [x], pool.unlabeled[1:], scope)
    np.testing.assert_allclose(scores[1:], dense, rtol=1e-12, atol=0)


def test_last_layer_df_scores_memory_does_not_grow_with_the_pool():
    # the default net's widths, so a chunk's activations outweigh the
    # 8-byte score (and index) of each candidate
    ds = make_blobs(20_100, 4, 10, spread=1.0, seed=1)
    model = init_model(ArchSpec(input_dim=10, n_classes=4), 0)
    peaks = []
    for n in (2_000, 20_000):
        candidates = np.arange(100, 100 + n)
        tracemalloc.start()
        try:
            df_scores(model, ds, np.arange(100), candidates)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


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


def test_full_scope_df_scores_holds_one_chunk_of_embeddings():
    # scores come from a chunk's activations and deltas, 256 x 120 values
    # here, not from its 256 x n_params embeddings
    ds = make_blobs(2_100, 4, 20, spread=1.0, seed=1)
    arch = ArchSpec(input_dim=20, n_classes=4, hidden_widths=(64, 32))
    model = init_model(arch, 0)
    chunk_bytes = 256 * arch.n_params * 8
    tracemalloc.start()
    try:
        df_scores(model, ds, np.arange(100), np.arange(100, 2_100), scope=FULL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < chunk_bytes / 4


# ------------------------------------------------------------ k-center

def min_dist_reference(points, centers, tile=256):
    """``_min_dist_to`` written out one step per line: per zero-padded
    256-row tile x of points and block C of at most 256 centers, the squared
    distances are ((-2 C) @ x.T + p_sq) + c_sq, min over the centers."""
    p_sq = np.einsum("ij,ij->i", points, points)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    best = np.full(len(points), np.inf)
    for start in range(0, len(points), tile):
        n = min(tile, len(points) - start)
        x = np.zeros((tile, points.shape[1]))
        x[:n] = points[start:start + n]
        x_sq = np.zeros(tile)
        x_sq[:n] = p_sq[start:start + n]
        for c in range(0, len(centers), tile):
            product = (-2.0 * centers[c:c + tile]) @ x.T
            with_points = product + x_sq[None, :]
            d2 = with_points + c_sq[c:c + tile, None]
            best[start:start + n] = np.minimum(best[start:start + n], d2.min(axis=0)[:n])
    return np.sqrt(np.maximum(best, 0.0))


def kcenter_reference(feats, min_dist, b):
    """Farthest-first picks from ``min_dist``, each pick's distances
    written as one expression: (rows, scores)."""
    min_dist = min_dist.copy()
    rows, scores = [], []
    for _ in range(min(b, feats.shape[0])):
        pick = int(np.argmax(min_dist))
        rows.append(pick)
        scores.append(float(min_dist[pick]))
        d = np.sqrt(np.maximum(((feats - feats[pick]) ** 2).sum(axis=1), 0.0))
        np.minimum(min_dist, d, out=min_dist)
        min_dist[rows] = -1.0  # every pick, as np.minimum turns a -1 beside a NaN into NaN
    return rows, scores


def two_block_kcenter_fixture():
    """300 labeled centers (a full 256-center block and a 44-center tail)
    and a 1,200-point pool under a trained net."""
    ds = make_blobs(1_500, 4, 6, spread=1.0, seed=3)
    arch = ArchSpec(input_dim=6, n_classes=4, hidden_widths=(16, 8))
    model = train(init_model(arch, 0), ds, np.arange(300),
                  TrainConfig(learning_rate=0.01, epochs=2, seed=0))
    return ds, model, PoolState(np.arange(300), np.arange(300, 1_500))


def test_min_dist_to_equals_reference_bitwise_over_two_blocks():
    ds, model, pool = two_block_kcenter_fixture()
    feats = penultimate(model, ds.features[pool.unlabeled])
    centers = penultimate(model, ds.features[pool.labeled])
    got = _min_dist_to(feats, centers)
    assert got.tobytes() == min_dist_reference(feats, centers).tobytes()


def test_select_kcenter_equals_reference_bitwise_over_two_blocks():
    ds, model, pool = two_block_kcenter_fixture()
    feats = penultimate(model, ds.features[pool.unlabeled])
    centers = penultimate(model, ds.features[pool.labeled])
    rows, scores = kcenter_reference(feats, min_dist_reference(feats, centers), 40)
    batch = select_kcenter(model, ds, pool, b=40)
    assert np.array_equal(batch.indices, pool.unlabeled[rows])
    assert np.array(batch.scores).tobytes() == np.array(scores).tobytes()


def test_select_kcenter_memory_is_one_tile_beside_the_features():
    # 500 centers: a 256-center block, then a 244-center one
    ds = make_blobs(3_500, 3, 4, spread=1.0, seed=2)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,))
    model = init_model(arch, 0)
    pool = PoolState(np.arange(500), np.arange(500, 3_500))
    n = pool.unlabeled.size
    # one 256 x 256 distance block with slack, the pool's inputs and (|U|, 8)
    # features, four per-row vectors, and one tile of 256 padded rows
    bound = 256 * 256 * 8 * 1.5 + n * (4 + 8 + 4) * 8 + 256 * (4 + 8 + 8 + 3) * 8
    tracemalloc.start()
    try:
        select_kcenter(model, ds, pool, b=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_select_kcenter_equals_reference_bitwise_over_two_blocks_at_b200():
    ds, model, pool = two_block_kcenter_fixture()
    feats = penultimate(model, ds.features[pool.unlabeled])
    centers = penultimate(model, ds.features[pool.labeled])
    rows, scores = kcenter_reference(feats, min_dist_reference(feats, centers), 200)
    batch = select_kcenter(model, ds, pool, b=200)
    assert np.array_equal(batch.indices, pool.unlabeled[rows])
    assert np.array(batch.scores).tobytes() == np.array(scores).tobytes()


def _screen_pool(kind):
    """(features, labeled count) for pools that stress k-center's screen."""
    rng = np.random.default_rng(11)
    if kind == "duplicates":  # exact copies of each pick: distance 0, argmax ties
        return rng.normal(size=(6, 3))[rng.integers(0, 6, size=60)], 2
    if kind == "identical":  # every row passes the first pick's screen
        x = np.full((40, 3), 2.5)
        x[0] = 0.0
        return x, 1
    if kind == "tiny-far":  # min_dist^2 far above p_sq + f_sq
        x = rng.normal(size=(50, 4)) * 1e-6
        x[:3] = rng.normal(size=(3, 4)) * 1e3
        return x, 3
    if kind == "offset":  # distances far below the norms: the expanded form cancels
        return rng.normal(size=(60, 4)) * 1e-5 + 1e4, 2
    if kind == "underflow":  # squares of the coordinates are subnormal
        return rng.integers(-3, 4, size=(50, 3)) * 1e-161, 3
    return rng.normal(size=(30, 5)), 4  # "random"


@pytest.mark.parametrize("kind, b", [
    ("duplicates", 20), ("identical", 10), ("tiny-far", 15), ("offset", 40), ("underflow", 30),
    ("random", 26), ("random", 40),
])
def test_select_kcenter_screen_equals_reference_bitwise(kind, b):
    # a net without hidden layers keeps the features; "random" takes b = |U| and b > |U|
    x, n_labeled = _screen_pool(kind)
    ds = Dataset(x, np.arange(len(x)) % 2, 2)
    model = init_model(ArchSpec(input_dim=x.shape[1], n_classes=2, hidden_widths=()), 0)
    pool = PoolState(np.arange(n_labeled), np.arange(n_labeled, len(x)))
    feats = x[n_labeled:]
    rows, scores = kcenter_reference(feats, min_dist_reference(feats, x[:n_labeled]), b)
    batch = select_kcenter(model, ds, pool, b)
    assert np.array_equal(batch.indices, pool.unlabeled[rows])
    assert np.array(batch.scores).tobytes() == np.array(scores).tobytes()


def _large_screen_pool(kind, n=3_000):
    """(features, labeled count) for k-center pools of ``n`` rows, 100 of
    them labeled, so that the distance bounds come from every other center:
    ``_screen_pool``'s kinds at scale, and "one-sided"."""
    rng, n_labeled = np.random.default_rng(12), 100
    if kind == "duplicates":
        return rng.normal(size=(300, 8))[rng.integers(0, 300, size=n)], n_labeled
    if kind == "identical":
        x = np.full((n, 3), 2.5)
        x[:n_labeled] = 0.0
        return x, n_labeled
    if kind == "tiny-far":
        x = rng.normal(size=(n, 4)) * 1e-6
        x[:n_labeled] = rng.normal(size=(n_labeled, 4)) * 1e3
        return x, n_labeled
    if kind == "offset":
        return rng.normal(size=(n, 4)) * 1e-5 + 1e4, n_labeled
    if kind == "underflow":
        return rng.integers(-3, 4, size=(n, 3)) * 1e-161, n_labeled
    if kind == "random":
        return rng.normal(size=(n, 8)), n_labeled
    # "one-sided": centers at 0, 1, ..., 99 on a line and the pool near them, so rows near an
    # odd center are bounded at about 1 by the even ones; every 29th row sits 0.5 to one side
    # and is farther than them all, so the first m rows of largest bound do not certify
    x = np.zeros((n, 2))
    x[:n_labeled, 0] = np.arange(n_labeled)
    x[n_labeled:, 0] = rng.integers(0, n_labeled, size=n - n_labeled)
    x[n_labeled:] += rng.normal(size=(n - n_labeled, 2)) * 1e-3
    x[n_labeled::29, 1] += 0.5
    return x, n_labeled


def _counted(monkeypatch, name):
    """The point counts of every call to acquisition's ``name`` (``_bound_sq``
    or ``_min_dist_to``) from here on."""
    calls, fn = [], getattr(acquisition, name)

    def counted(points, centers, *rows):
        calls.append(len(rows[0]) if rows and rows[0] is not None else len(points))
        return fn(points, centers, *rows)
    monkeypatch.setattr(acquisition, name, counted)
    return calls


def _assert_kcenter_is_reference(x, n_labeled, b):
    # a net without hidden layers keeps the features
    ds = Dataset(x, np.arange(len(x)) % 2, 2)
    model = init_model(ArchSpec(input_dim=x.shape[1], n_classes=2, hidden_widths=()), 0)
    pool = PoolState(np.arange(n_labeled), np.arange(n_labeled, len(x)))
    feats = x[n_labeled:]
    rows, scores = kcenter_reference(feats, min_dist_reference(feats, x[:n_labeled]), b)
    batch = select_kcenter(model, ds, pool, b)
    assert np.array_equal(batch.indices, pool.unlabeled[rows])
    assert np.array(batch.scores).tobytes() == np.array(scores).tobytes()


@pytest.mark.parametrize("b", [1, 20, 300, 1_500])
@pytest.mark.parametrize("kind", ["duplicates", "identical", "tiny-far", "offset", "underflow",
                                  "random", "one-sided"])
def test_select_kcenter_bounded_pool_equals_reference_bitwise(kind, b):
    # the rows left out by the bounds can never be picked, or the pool falls back to every row
    _assert_kcenter_is_reference(*_large_screen_pool(kind), b)


def test_select_kcenter_retries_until_the_picks_are_certified(monkeypatch):
    # 1,024 rows of largest bound hold no row 0.5 off the line; 4,096 hold them all. The first
    # attempt's 20th largest distance cannot beat the bounds left out, so it makes no picks, and
    # the second computes distances only for the 3,072 rows the first did not
    bounds, calls = _counted(monkeypatch, "_bound_sq"), _counted(monkeypatch, "_min_dist_to")
    picks, farthest_first = [], _farthest_first
    monkeypatch.setattr(acquisition, "_farthest_first",
                        lambda feats, *args: picks.append(len(feats)) or farthest_first(feats, *args))
    _assert_kcenter_is_reference(*_large_screen_pool("one-sided", n=5_000), 20)
    assert bounds == [4_900]
    assert calls == [1_024, 3_072]
    assert picks == [4_096]


def test_select_kcenter_non_finite_features_take_every_row(monkeypatch):
    ds = make_blobs(3_100, 3, 4, spread=1.0, seed=4)
    model = init_model(ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,)), 0)
    model.params[0] = np.nan  # hidden unit 0 is NaN on every row
    pool = PoolState(np.arange(100), np.arange(100, 3_100))
    feats = penultimate(model, ds.features[pool.unlabeled])
    centers = penultimate(model, ds.features[pool.labeled])
    rows, scores = kcenter_reference(feats, min_dist_reference(feats, centers), 20)
    bounds, calls = _counted(monkeypatch, "_bound_sq"), _counted(monkeypatch, "_min_dist_to")
    batch = select_kcenter(model, ds, pool, b=20)
    assert bounds == [3_000]
    assert calls == [3_000]  # every row exactly
    assert np.array_equal(batch.indices, pool.unlabeled[rows])
    assert np.array(batch.scores).tobytes() == np.array(scores).tobytes()


@pytest.mark.parametrize("n_pool", [1_024, 1_025])
def test_select_kcenter_bounds_only_pools_above_four_tiles(monkeypatch, n_pool):
    ds = make_blobs(n_pool + 300, 3, 4, spread=1.0, seed=5)
    model = init_model(ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,)), 0)
    bounds, calls = _counted(monkeypatch, "_bound_sq"), _counted(monkeypatch, "_min_dist_to")
    select_kcenter(model, ds, PoolState(np.arange(300), np.arange(300, n_pool + 300)), b=20)
    if n_pool == 1_024:
        assert (bounds, calls) == ([], [1_024])
    else:
        assert bounds == [1_025]
        assert calls[0] == 1_024


@pytest.mark.parametrize("kind", ["duplicates", "identical", "tiny-far", "offset", "underflow",
                                  "random", "one-sided"])
def test_bound_sq_is_above_every_exact_distance(kind):
    # the certificate holds only if no row's exact squared distance, to the strided centers the
    # bound reads or to every center, lies above its bound
    x, n_labeled = _large_screen_pool(kind)
    feats, centers = x[n_labeled:], x[:n_labeled]
    ub = _bound_sq(feats, centers)
    assert (ub >= min_dist_reference(feats, centers[::2]) ** 2).all()
    assert (ub >= min_dist_reference(feats, centers) ** 2).all()


@pytest.mark.parametrize("center", [0, 1])  # one the bound reads, one only the margin reads
def test_bound_sq_is_not_finite_for_a_nan_center(center):
    x, n_labeled = _large_screen_pool("random")
    centers = x[:n_labeled].copy()
    centers[center, 0] = np.nan
    assert not np.isfinite(_bound_sq(x[n_labeled:], centers)).any()


def test_select_kcenter_does_not_depend_on_pool_order():
    # points at 0, 5, 5, 1 with 0 labeled: the tie at 5 goes to index 1 in any pool order
    x = np.array([[0.0], [5.0], [5.0], [1.0]])
    ds = Dataset(x, np.array([0, 1, 0, 1]), 2)
    model = init_model(ArchSpec(input_dim=1, n_classes=2, hidden_widths=()), 0)
    for order in ([1, 2, 3], [3, 2, 1], [2, 3, 1]):
        batch = select_kcenter(model, ds, PoolState(np.array([0]), np.array(order)), b=1)
        assert batch.indices.tolist() == [1], order
    ds, model, pool = two_block_kcenter_fixture()
    rng = np.random.default_rng(5)
    want = select_kcenter(model, ds, pool, b=40)
    got = select_kcenter(model, ds, PoolState(rng.permutation(pool.labeled),
                                              rng.permutation(pool.unlabeled)), b=40)
    assert np.array_equal(got.indices, want.indices)
    assert np.array(got.scores).tobytes() == np.array(want.scores).tobytes()


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


@pytest.mark.parametrize("method", METHODS)
def test_selectors_return_an_empty_batch_from_an_empty_pool(method):
    ds, model, pool = fitted_fixture()
    empty = PoolState(pool.labeled, np.array([], dtype=np.int64))
    batch = select_batch(method, model, ds, empty, b=5, rng=Rng(0, method))
    assert batch.indices.size == 0 and batch.method == method


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


def test_batch_rejects_duplicates_apart_in_any_order():
    with pytest.raises(ValueError, match="duplicate indices"):
        AcquisitionBatch(indices=np.array([9, 3, 7, 0, 3]), method="kcenter")
    assert AcquisitionBatch(indices=np.array([9, 3, 7, 0]), method="kcenter").indices.tolist() == [9, 3, 7, 0]


def test_timed_select_returns_batch_and_time():
    ds, model, pool = fitted_fixture()
    batch, seconds = timed_select("entropy", model, ds, pool, 4, Rng(0))
    assert batch.indices.size == 4
    assert seconds >= 0.0


# ------------------------------------------------------------ pool independence

POOL_NETS = {"10-64-32-4": (10, (64, 32), 4), "10-512-256-4": (10, (512, 256), 4),
             "20-128-64-10": (20, (128, 64), 10)}
POOL_CHECKS = ("predict_proba", "pseudo_labels", "pseudo_label", "penultimate",
               "last_layer_factors", "df_scores-last_layer", "df_scores-full",
               "min_dist-20", "min_dist-500", "factored_sq_dists")


@functools.lru_cache(maxsize=None)
def pool_net_fixture(net):
    """(dataset, model, 1,000-row pool): rows 0-499 are centers and labeled."""
    d, widths, c = POOL_NETS[net]
    ds = make_blobs(1_500, c, d, spread=1.0, seed=6)
    model = init_model(ArchSpec(input_dim=d, n_classes=c, hidden_widths=widths), 3)
    return ds, model, np.arange(500, 1_500)


def _per_row(check, ds, model):
    """The check's outputs, one row per dataset index of the given rows."""
    if check.startswith("min_dist"):
        centers = penultimate(model, ds.features[:int(check.split("-")[1])])
        feats = penultimate(model, ds.features)
        return lambda idx: _min_dist_to(feats[idx], centers)
    if check.startswith("df_scores"):
        scope = check.split("-")[1]
        return lambda idx: df_scores(model, ds, np.arange(30), idx, scope=scope)
    if check == "last_layer_factors":
        return lambda idx: np.hstack(last_layer_factors(model, ds.features[idx]))
    if check == "factored_sq_dists":  # k-means++'s first pass, dataset row 0 the center
        return lambda idx: _factored_sq_dists(
            *last_layer_factors(model, ds.features[np.append(idx, 0)]), None, len(idx))[0][:-1]
    fn = {"predict_proba": predict_proba, "pseudo_labels": pseudo_labels,
          "penultimate": penultimate}[check]
    return lambda idx: fn(model, ds.features[idx])


@pytest.mark.parametrize("check", POOL_CHECKS)
@pytest.mark.parametrize("net", POOL_NETS)
def test_a_points_outputs_do_not_depend_on_its_pool(net, check):
    # every pool-scale pass runs on zero-padded 256-row tiles, so a row gets
    # the same bits alone, in 37 rows, in 1,000 rows and in any order
    ds, model, pool = pool_net_fixture(net)
    perm = np.random.default_rng(0).permutation(pool.size)
    if check == "pseudo_label":
        whole = pseudo_labels(model, ds.features[pool])
        assert all(pseudo_label(model, ds.features[pool[i]]) == whole[i] for i in perm[:37])
        return
    fn = _per_row(check, ds, model)
    whole = fn(pool)
    assert fn(pool[perm]).tobytes() == whole[perm].tobytes()
    assert fn(pool[perm[:37]]).tobytes() == whole[perm[:37]].tobytes()
    for i in perm[:5]:
        assert fn(pool[[i]]).tobytes() == whole[[i]].tobytes()


def test_select_entropy_memory_is_one_pass_of_tiles():
    # the default net: a whole pool's activations, 20,000 x 768 values, would be 123 MB
    ds = make_blobs(20_100, 4, 10, spread=1.0, seed=1)
    model = init_model(ArchSpec(input_dim=10, n_classes=4), 0)
    pool = PoolState(np.arange(100), np.arange(100, 20_100))
    n = pool.unlabeled.size
    # one tile of 256 padded rows with slack; the probabilities and the
    # entropy's temporaries; the pool's inputs are read per tile, not gathered
    bound = 1.5 * 256 * (10 + 512 + 256 + 4) * 8 + n * (4 * 4) * 8
    tracemalloc.start()
    try:
        select_entropy(model, ds, pool, b=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_select_badge_memory_is_its_factors_and_one_pass_of_tiles():
    ds = make_blobs(20_100, 4, 10, spread=1.0, seed=1)
    model = init_model(ArchSpec(input_dim=10, n_classes=4), 0)
    pool = PoolState(np.arange(100), np.arange(100, 20_100))
    n = pool.unlabeled.size
    # one tile of 256 padded rows with slack; the factors err (4 wide) and h1
    # (257 wide), and a dozen per-row vectors: k-means++'s squared norms are
    # row sums per tile, not an (n, 257) square; the inputs are not gathered
    bound = 1.5 * 256 * (10 + 512 + 256 + 4) * 8 + n * (4 + 257 + 12) * 8
    tracemalloc.start()
    try:
        select_badge(model, ds, pool, b=20, rng=Rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("method", ["entropy", "kcenter", "badge"])
def test_selectors_read_the_pool_inputs_per_tile(method):
    # 256-wide inputs: a gathered copy of the 4,000-row pool's would be 8.2 MB
    ds = make_blobs(4_100, 3, 256, spread=1.0, seed=1)
    model = init_model(ArchSpec(input_dim=256, n_classes=3, hidden_widths=(8,)), 0)
    pool = PoolState(np.arange(100), np.arange(100, 4_100))
    tracemalloc.start()
    try:
        select_batch(method, model, ds, pool, b=20, rng=Rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pool.unlabeled.size * 256 * 8 / 4


@pytest.mark.parametrize("fn", [predict_proba, penultimate, last_layer_factors])
def test_inference_by_rows_equals_inference_on_the_gathered_rows(fn):
    ds, model, pool = fitted_fixture(n=600)
    rows = np.random.default_rng(3).permutation(pool.unlabeled)[:300]
    got, want = fn(model, ds.features, rows=rows), fn(model, ds.features[rows])
    assert np.hstack(got).tobytes() == np.hstack(want).tobytes()
