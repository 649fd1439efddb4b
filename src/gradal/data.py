"""Datasets, splits, standardization, synthetic generators, pool state."""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Rng

STD_FLOOR = 1e-8


@dataclass(eq=False)
class Dataset:
    """Feature matrix with integer class labels.

    Labels are contiguous ids in [0, n_classes). Features are float64 and
    finite; both arrays are treated as immutable once constructed.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    name: str = "dataset"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per sample")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain NaN or Inf")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        if self.n_samples < self.n_classes:
            raise ValueError("need at least one sample per class")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """How to carve test and validation splits out of a dataset."""

    test_fraction: float = 0.2
    validation_fraction: float = 0.0
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.test_fraction + self.validation_fraction >= 1.0:
            raise ValueError("split fractions must sum to less than 1")


@dataclass
class PoolState:
    """Disjoint labeled / unlabeled index sets at an acquisition round."""

    labeled: np.ndarray
    unlabeled: np.ndarray

    def __post_init__(self):
        self.labeled = np.asarray(self.labeled, dtype=np.int64)
        self.unlabeled = np.asarray(self.unlabeled, dtype=np.int64)
        if np.isin(self.labeled, self.unlabeled).any():
            raise ValueError("labeled and unlabeled sets overlap")

    def acquire(self, indices) -> "PoolState":
        """Move ``indices`` from the unlabeled pool into the labeled set; the
        new unlabeled set is sorted and unique."""
        indices = np.asarray(indices, dtype=np.int64)
        pool = self.unlabeled
        if not (pool[1:] > pool[:-1]).all():  # as acquire leaves it, or made so
            pool = np.unique(pool)
        pos = np.searchsorted(pool, indices)
        if not ((pos < pool.size).all() and (pool[pos] == indices).all()):
            raise ValueError("acquired indices must come from the unlabeled pool")
        keep = np.ones(pool.size, dtype=bool)
        keep[pos] = False
        if pool.size - np.count_nonzero(keep) != indices.size:
            raise ValueError("acquired indices contain duplicates")
        return PoolState(np.sort(np.concatenate([self.labeled, indices])), pool[keep])


def standardized(dataset: Dataset, rows) -> Dataset:
    """``dataset`` with each feature centered on its mean over ``rows`` and
    divided by its std over ``rows``, floored at STD_FLOOR."""
    fit = dataset.features[rows]
    std = np.maximum(fit.std(axis=0), STD_FLOOR)
    return Dataset((dataset.features - fit.mean(axis=0)) / std, dataset.labels.copy(),
                   dataset.n_classes, name=dataset.name)


def _encode_labels(raw: list) -> tuple:
    """Map raw label strings to contiguous ids in numeric order, ties by text,
    or in text order if a label is not a number or is NaN."""
    unique = sorted(set(raw))
    try:
        if not np.isnan([float(v) for v in unique]).any():
            unique.sort(key=float)  # stable, so equal values keep their text order
    except ValueError:
        pass
    mapping = {value: i for i, value in enumerate(unique)}
    return np.array([mapping[v] for v in raw], dtype=np.int64), len(unique)


class ColumnError(ValueError):
    """A CSV header that lacks the requested column."""


def load_csv(path, label_column: str) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    All columns except ``label_column`` must be numeric. Labels are
    re-encoded to 0..n_classes-1 by sorted original value (``_encode_labels``),
    so the ids do not depend on the hash seed. Parse errors name the
    offending file line (header is line 1).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        if label_column not in header:
            raise ColumnError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        rows, raw_labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {line_no}: expected {len(header)} fields, got {len(row)}")
            label = row[label_idx].strip()
            if not label:
                raise ValueError(f"{path}: row {line_no}: empty label")
            values = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    col = header[i]
                    raise ValueError(
                        f"{path}: row {line_no}: non-numeric feature {cell!r} in column {col!r}"
                    ) from None
            rows.append(values)
            raw_labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    labels, n_classes = _encode_labels(raw_labels)
    features = np.array(rows, dtype=float)
    if not np.isfinite(features).all():
        bad = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
        raise ValueError(f"{path}: row {bad + 2}: non-finite feature value")
    return Dataset(features, labels, n_classes, name=path.stem)


def write_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset as CSV (features f0..fN plus the label column)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.n_features)] + [label_column])
        for x, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


def make_blobs(n_samples: int, n_classes: int, n_features: int,
               spread: float, seed: int) -> Dataset:
    """Isotropic Gaussian clusters, one per class, balanced within one sample.

    Cluster centers are drawn uniformly from [-5, 5]^d using only the seed,
    so identical arguments always produce a bit-identical dataset.
    """
    if n_classes < 2 or n_features < 1:
        raise ValueError("need n_classes >= 2 and n_features >= 1")
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    centers = Rng(seed, "blobs/centers").uniform(-5.0, 5.0, (n_classes, n_features))
    base, extra = divmod(n_samples, n_classes)
    features, labels = [], []
    for c in range(n_classes):
        count = base + (1 if c < extra else 0)
        noise = Rng(seed, f"blobs/class{c}").normal(0.0, 1.0, (count, n_features))
        features.append(centers[c] + spread * noise)
        labels.append(np.full(count, c, dtype=np.int64))
    return Dataset(
        np.vstack(features), np.concatenate(labels), n_classes,
        name=f"blobs-n{n_samples}-c{n_classes}-d{n_features}",
    )


def make_shifted(dataset: Dataset, shift) -> Dataset:
    """Translate every feature vector by ``shift``; labels unchanged."""
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (dataset.n_features,):
        raise ValueError(
            f"shift has length {shift.size}, dataset has {dataset.n_features} features"
        )
    return Dataset(
        dataset.features + shift, dataset.labels.copy(), dataset.n_classes,
        name=dataset.name + "-shifted",
    )


def split(dataset: Dataset, spec: SplitSpec):
    """Carve (train, validation, test) index sets, stratified by class.

    Per-class counts are rounded to the nearest sample, so each split's
    class proportions deviate from the requested fractions by at most one
    sample per class. Deterministic in ``spec.seed``.
    """
    if spec.stratified:  # one group per class, under its own RNG label
        groups = [(f"class{c}", np.flatnonzero(dataset.labels == c)) for c in range(dataset.n_classes)]
        small = [c for c, (_, idx) in enumerate(groups) if idx.size < 2]
        if small:
            raise ValueError(f"class {small[0]} has fewer than 2 samples; cannot stratify")
    else:
        groups = [("all", np.arange(dataset.n_samples))]
    train, val, test = [], [], []
    for group, idx in groups:
        perm = idx[Rng(spec.seed, f"split/{group}").permutation(idx.size)]
        n_test = int(spec.test_fraction * idx.size + 0.5)
        n_val = int(spec.validation_fraction * idx.size + 0.5)
        test.append(perm[:n_test])
        val.append(perm[n_test:n_test + n_val])
        train.append(perm[n_test + n_val:])
    train, val, test = (np.sort(np.concatenate(p).astype(np.int64)) for p in (train, val, test))
    if not train.size or not test.size:
        raise ValueError(f"needs a training and a test point, got {train.size} and {test.size}")
    return train, val, test


def init_pool(train: np.ndarray, initial_size: int, seed: int) -> PoolState:
    """Draw the round-0 labeled set uniformly without replacement."""
    train = np.asarray(train, dtype=np.int64)
    if initial_size > train.size:
        raise ValueError(f"initial_size {initial_size} exceeds training size {train.size}")
    rng = Rng(seed, "pool_init")
    pick = rng.choice(train.size, size=initial_size, replace=False)
    labeled = np.sort(train[pick])
    unlabeled = np.setdiff1d(train, labeled)
    return PoolState(labeled=labeled, unlabeled=unlabeled)
