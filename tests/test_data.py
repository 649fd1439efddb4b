import numpy as np
import pytest

from gradal.data import (
    STD_FLOOR,
    Dataset,
    PoolState,
    SplitSpec,
    init_pool,
    load_csv,
    make_blobs,
    make_shifted,
    split,
    standardized,
    write_csv,
)


def blob_fixture(n=120, c=3, d=4, spread=0.8, seed=5):
    return make_blobs(n, c, d, spread=spread, seed=seed)


# ---------------------------------------------------------------- dataset

def test_dataset_validates_labels_in_range():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), n_classes=3)


def test_dataset_rejects_non_finite_features():
    x = np.zeros((4, 2))
    x[2, 1] = np.nan
    with pytest.raises(ValueError):
        Dataset(x, np.zeros(4, dtype=int), n_classes=1)


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(4), np.zeros(4, dtype=int), "features must be a 2-D matrix"),
    (np.zeros((4, 2)), np.zeros(3, dtype=int), "labels must be one per sample"),
], ids=["1-D-features", "short-labels"])
def test_dataset_rejects_misshapen_arrays(features, labels, message):
    with pytest.raises(ValueError, match=message):
        Dataset(features, labels, n_classes=1)


def test_dataset_requires_samples_per_class():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 1]), n_classes=3)


# ---------------------------------------------------------------- blobs

def test_make_blobs_exact_balance():
    ds = make_blobs(300, 3, 2, spread=0.5, seed=1)
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.tolist() == [100, 100, 100]


def test_make_blobs_within_one_balance():
    ds = make_blobs(301, 3, 2, spread=0.5, seed=1)
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 301


@pytest.mark.parametrize("n_classes, n_features", [(0, 2), (1, 2), (-1, 2), (2, 0), (2, -1)])
def test_make_blobs_rejects_fewer_than_2_classes_or_no_features(n_classes, n_features):
    with pytest.raises(ValueError, match="need n_classes >= 2 and n_features >= 1"):
        make_blobs(10, n_classes, n_features, spread=1.0, seed=0)


def test_make_blobs_bit_identical():
    a = make_blobs(50, 2, 3, spread=1.0, seed=9)
    b = make_blobs(50, 2, 3, spread=1.0, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_make_blobs_tiny_spread_separable_by_1nn():
    ds = make_blobs(200, 4, 3, spread=1e-6, seed=2)
    rng = np.random.default_rng(0)
    labeled = rng.choice(200, size=20, replace=False)
    rest = np.setdiff1d(np.arange(200), labeled)
    # nearest labeled neighbor classifies everything correctly
    d2 = ((ds.features[rest][:, None, :] - ds.features[labeled][None]) ** 2).sum(-1)
    pred = ds.labels[labeled][np.argmin(d2, axis=1)]
    assert np.array_equal(pred, ds.labels[rest])


# ---------------------------------------------------------------- shifted

def test_make_shifted_zero_is_identity():
    ds = blob_fixture()
    out = make_shifted(ds, np.zeros(ds.n_features))
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)


def test_make_shifted_translates():
    ds = blob_fixture()
    shift = np.arange(ds.n_features, dtype=float)
    out = make_shifted(ds, shift)
    assert np.allclose(out.features - ds.features, shift)


def test_make_shifted_dimension_mismatch():
    ds = blob_fixture()
    with pytest.raises(ValueError):
        make_shifted(ds, np.zeros(ds.n_features + 1))


# ---------------------------------------------------------------- split

def test_split_balanced_two_class_counts():
    ds = make_blobs(100, 2, 3, spread=0.5, seed=3)
    train, val, test = split(ds, SplitSpec(test_fraction=0.2, seed=0))
    assert test.size == 20
    assert np.bincount(ds.labels[test]).tolist() == [10, 10]
    assert val.size == 0
    assert train.size == 80


def test_split_disjoint_and_covering():
    ds = blob_fixture()
    train, val, test = split(
        ds, SplitSpec(test_fraction=0.25, validation_fraction=0.1, seed=4))
    merged = np.concatenate([train, val, test])
    assert np.array_equal(np.sort(merged), np.arange(ds.n_samples))


def test_split_deterministic():
    ds = blob_fixture()
    spec = SplitSpec(test_fraction=0.3, validation_fraction=0.1, seed=12)
    a = split(ds, spec)
    b = split(ds, spec)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_split_proportions_within_one_per_class():
    ds = make_blobs(233, 3, 2, spread=1.0, seed=8)
    train, _, test = split(ds, SplitSpec(test_fraction=0.2, seed=1))
    for c in range(3):
        n_c = int((ds.labels == c).sum())
        got = int((ds.labels[test] == c).sum())
        assert abs(got - 0.2 * n_c) <= 1


def test_split_rejects_tiny_class():
    x = np.vstack([np.zeros((5, 2)), np.ones((1, 2))])
    ds = Dataset(x, np.array([0, 0, 0, 0, 0, 1]), n_classes=2)
    with pytest.raises(ValueError, match="fewer than 2"):
        split(ds, SplitSpec(test_fraction=0.5, seed=0))


def test_split_spec_validates_fractions():
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.6, validation_fraction=0.5)


# ---------------------------------------------------------------- pool

def test_init_pool_sizes_and_round():
    train = np.arange(3000)
    pool = init_pool(train, 10, seed=0)
    assert pool.labeled.size == 10
    assert pool.unlabeled.size == 2990


def test_init_pool_entire_train():
    pool = init_pool(np.arange(12), 12, seed=1)
    assert pool.unlabeled.size == 0


def test_init_pool_deterministic():
    a = init_pool(np.arange(100), 7, seed=3)
    b = init_pool(np.arange(100), 7, seed=3)
    assert np.array_equal(a.labeled, b.labeled)


def test_init_pool_too_large_errors():
    with pytest.raises(ValueError):
        init_pool(np.arange(5), 6, seed=0)


def test_pool_acquire_moves_indices():
    pool = init_pool(np.arange(30), 5, seed=2)
    take = pool.unlabeled[:3]
    nxt = pool.acquire(take)
    assert nxt.labeled.size == 8
    assert np.intersect1d(nxt.labeled, nxt.unlabeled).size == 0
    union = np.union1d(nxt.labeled, nxt.unlabeled)
    assert np.array_equal(union, np.union1d(pool.labeled, pool.unlabeled))
    assert all(i in nxt.labeled for i in take)


def test_pool_acquire_rejects_non_pool_indices():
    pool = init_pool(np.arange(10), 4, seed=0)
    with pytest.raises(ValueError):
        pool.acquire(pool.labeled[:1])  # already labeled


def test_pool_acquire_rejects_duplicates():
    pool = init_pool(np.arange(10), 4, seed=0)
    i = pool.unlabeled[0]
    with pytest.raises(ValueError):
        pool.acquire(np.array([i, i]))


def test_pool_state_rejects_overlap():
    with pytest.raises(ValueError):
        PoolState(labeled=np.array([1, 2]), unlabeled=np.array([2, 3]))


# ---------------------------------------------------------------- scaler

def test_standardizer_normalizes_training_features():
    ds = blob_fixture()
    train = np.arange(0, ds.n_samples, 2)
    out = standardized(ds, train)
    assert np.all(np.abs(out.features[train].mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(out.features[train].std(axis=0) - 1.0) <= 1e-6)
    assert np.array_equal(out.labels, ds.labels)
    assert (out.n_classes, out.name) == (ds.n_classes, ds.name)


def test_standardizer_floors_constant_features():
    # column 0 is constant, column 1 varies by far less than STD_FLOOR
    feats = np.column_stack([np.ones(10), np.tile([0.0, 1e-10], 5), np.arange(10.0)])
    out = standardized(Dataset(feats, np.arange(10) % 2, 2), np.arange(10)).features
    assert np.isfinite(out).all()
    assert np.array_equal(out[:, 0], np.zeros(10))
    assert np.array_equal(out[:, 1], (feats[:, 1] - feats[:, 1].mean()) / STD_FLOOR)


# ---------------------------------------------------------------- csv

def test_load_csv_alphabetical_label_encoding(tmp_path):
    p = tmp_path / "pets.csv"
    p.write_text("a,b,label\n1,2,cat\n3,4,dog\n5,6,cat\n7,8,dog\n")
    ds = load_csv(p, label_column="label")
    assert ds.n_classes == 2
    assert ds.labels.tolist() == [0, 1, 0, 1]  # cat -> 0, dog -> 1
    assert ds.features.shape == (4, 2)


def test_load_csv_numeric_labels_sorted_numerically(tmp_path):
    p = tmp_path / "nums.csv"
    p.write_text("a,label\n1,10\n2,2\n3,10\n4,2\n")
    ds = load_csv(p, label_column="label")
    # numeric sort: 2 -> 0, 10 -> 1 (lexicographic would invert)
    assert ds.labels.tolist() == [1, 0, 1, 0]


def test_load_csv_round_trip(tmp_path):
    ds = blob_fixture(n=30, c=3, d=3)
    p = tmp_path / "out.csv"
    write_csv(ds, p)
    back = load_csv(p, label_column="label")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == ds.n_classes


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # the label column comes first, so a kept mark would prefix its name
    text = "label,a,b\ncat,1,2\ndog,3,4\ncat,5,6\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    a, b = load_csv(plain, label_column="label"), load_csv(marked, label_column="label")
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/nope.csv", label_column="label")


def test_load_csv_names_bad_row(tmp_path):
    p = tmp_path / "bad.csv"
    rows = ["a,b,label"] + ["1,2,x"] * 5 + ["1,oops,x"]  # bad cell at line 7
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="row 7"):
        load_csv(p, label_column="label")


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "nolabel.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="label column"):
        load_csv(p, label_column="label")


def test_load_csv_field_count_mismatch(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b,label\n1,2,x\n1,x\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(p, label_column="label")


def test_load_csv_empty_label_cell(tmp_path):
    p = tmp_path / "el.csv"
    p.write_text("a,label\n1,x\n2,\n")
    with pytest.raises(ValueError, match="row 3: empty label"):
        load_csv(p, label_column="label")


def _set_operation_acquire(labeled, unlabeled, indices):
    """The sorted-set form of ``acquire``: (labeled, unlabeled), or the
    message of the ValueError it raises."""
    indices = np.asarray(indices, dtype=np.int64)
    if np.setdiff1d(indices, unlabeled).size:
        return "acquired indices must come from the unlabeled pool"
    if len(np.unique(indices)) != len(indices):
        return "acquired indices contain duplicates"
    return np.sort(np.concatenate([labeled, indices])), np.setdiff1d(unlabeled, indices)


def _random_pool(rng):
    """A pool of up to 60 indices, unlabeled sorted, shuffled, or with repeats."""
    n = int(rng.integers(1, 60))
    perm = rng.permutation(n) + int(rng.integers(0, 3))
    n_labeled = int(rng.integers(0, n))
    labeled, unlabeled = perm[:n_labeled], perm[n_labeled:]
    form = rng.integers(0, 3)
    if form == 0:
        unlabeled = np.sort(unlabeled)
    elif form == 1:
        unlabeled = np.concatenate([unlabeled, rng.choice(unlabeled, 3)])
    return labeled.astype(np.int64), unlabeled.astype(np.int64)


def test_pool_acquire_equals_the_set_operation_form():
    # random pools; indices drawn from the pool, with foreign ones (labeled,
    # negative, past the end) and repeats mixed in
    rng = np.random.default_rng(0)
    errors = set()
    for trial in range(600):
        labeled, unlabeled = _random_pool(rng)
        k = int(rng.integers(0, min(8, unlabeled.size) + 1))
        indices = rng.permutation(np.unique(unlabeled))[:k]
        if trial % 4 == 1:
            extra = [-1, 10_000] + ([labeled[0]] if labeled.size else [])
            indices = np.append(indices, rng.choice(extra))
        if trial % 4 == 2 and indices.size:
            indices = np.append(indices, indices[rng.integers(0, indices.size)])
        rng.shuffle(indices)
        pool = PoolState(labeled, unlabeled)
        want = _set_operation_acquire(labeled, unlabeled, indices)
        if isinstance(want, str):
            errors.add(want)
            with pytest.raises(ValueError, match=want):
                pool.acquire(indices)
            continue
        got = pool.acquire(indices)
        assert got.labeled.dtype == got.unlabeled.dtype == np.int64
        assert got.labeled.tobytes() == want[0].tobytes()
        assert got.unlabeled.tobytes() == want[1].tobytes()
    assert len(errors) == 2


def test_pool_state_overlap_check_equals_intersect1d():
    rng = np.random.default_rng(1)
    overlapping = 0
    for _ in range(300):
        labeled = rng.integers(-3, 40, int(rng.integers(0, 10)))
        unlabeled = rng.integers(-3, 40, int(rng.integers(0, 30)))
        if np.intersect1d(labeled, unlabeled).size:
            overlapping += 1
            with pytest.raises(ValueError, match="overlap"):
                PoolState(labeled, unlabeled)
        else:
            PoolState(labeled, unlabeled)
    assert 50 < overlapping < 250
