import hashlib

import numpy as np
import pytest
import scipy.stats

from gradal.numerics import (
    Rng,
    _PhiloxKey,
    derive_seed,
    l2_norm,
    pca_project,
    student_t_sf,
)


# ---------------------------------------------------------------- rng

def test_rng_same_seed_same_stream():
    a = Rng(42).uniform(size=10_000)
    b = Rng(42).uniform(size=10_000)
    assert np.array_equal(a, b)


def test_rng_labels_give_distinct_streams():
    a = Rng(42, "one").uniform(size=100)
    b = Rng(42, "two").uniform(size=100)
    assert not np.array_equal(a, b)


def test_rng_derive_independent_of_parent_consumption():
    parent1 = Rng(7)
    parent2 = Rng(7)
    parent2.uniform(size=1000)  # consume only one of them
    child1 = parent1.derive("x").uniform(size=50)
    child2 = parent2.derive("x").uniform(size=50)
    assert np.array_equal(child1, child2)


def test_rng_nested_derivation_path_matters():
    a = Rng(7).derive("a").derive("b").uniform(size=10)
    b = Rng(7).derive("a/b").uniform(size=10)
    # same path string -> same stream
    assert np.array_equal(a, Rng(7, "root/a/b").uniform(size=10))
    assert np.array_equal(b, Rng(7, "root/a/b").uniform(size=10))


def test_derive_seed_stable_and_in_range():
    s1 = derive_seed(3, "init", 4)
    s2 = derive_seed(3, "init", 4)
    assert s1 == s2
    assert 0 <= s1 < 2**63
    assert derive_seed(3, "init", 5) != s1
    assert derive_seed(4, "init", 4) != s1


def test_rng_choice_without_replacement_unique():
    picks = Rng(0).choice(50, size=20, replace=False)
    assert len(np.unique(picks)) == 20


def philox_twin(seed: int, label: str) -> np.random.Generator:
    """README's keying written out: Philox keyed by the first 16 bytes of
    SHA-256("<seed>\\x1f<label>"), read little-endian."""
    digest = hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))


def draws(rng) -> list:
    return [rng.random(5), rng.normal(size=5), rng.uniform(-2.0, 3.0, size=5),
            rng.integers(0, 1000, size=5), rng.permutation(40),
            rng.choice(100, size=10, replace=False)]


@pytest.mark.parametrize("label", ["root", "init/layer0", "shuffle/epoch7",
                                   "select/badge/round3", "sélection/γ"])
def test_rng_stream_is_philox_keyed_by_sha256_of_seed_and_label(label):
    for seed in [*range(21), -5, 2**63 - 1]:
        got, want = draws(Rng(seed, label)), draws(philox_twin(seed, label))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], (seed, label)
        chained = Rng(seed, label).derive("a").derive("b")
        assert chained.random(8).tobytes() == philox_twin(seed, f"{label}/a/b").random(8).tobytes()


def numpy_choice_and_after(seed: int, *args, **kwargs):
    """numpy's own ``Generator.choice`` on a twin ``Rng``, and the next draws."""
    twin = Rng(seed, "twin")
    return np.random.Generator.choice(twin, *args, **kwargs), twin.random(3)


def single(n: int, at: int) -> np.ndarray:
    law = np.zeros(n)
    law[at] = 1.0
    return law


def normalized(weights: np.ndarray) -> np.ndarray:
    return weights / weights.sum()


LAW_SOURCE = np.random.default_rng(5)
ENDS_ZERO = LAW_SOURCE.random(30)
ENDS_ZERO[[0, -1]] = 0.0
LAWS = {
    "1": np.array([1.0]),
    "2": np.array([0.25, 0.75]),
    "940": normalized(LAW_SOURCE.random(940) ** 4),
    "25000": normalized(LAW_SOURCE.random(25_000) ** 4),
    "zeros-at-ends": normalized(ENDS_ZERO),
    "one-nonzero-first": single(9, 0),
    "one-nonzero-last": single(9, 8),
    "one-nonzero-inside": single(9, 4),
}


@pytest.mark.parametrize("name", LAWS)
def test_rng_choice_from_a_law_draws_what_numpy_draws(name):
    law = LAWS[name]
    for seed in range(40):
        rng = Rng(seed, "twin")
        got = rng.choice(law.size, p=law)
        want, after = numpy_choice_and_after(seed, law.size, p=law)
        assert type(got) is type(want) and got == want
        assert law[got] > 0.0
        assert rng.random(3).tobytes() == after.tobytes()


ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@pytest.mark.parametrize("law", [
    np.array([0.5, np.nan, 0.5]),
    np.array([0.75, -0.25, 0.5]),
    np.array([0.5, 0.5, 0.5]),
    normalized(np.arange(1.0, 11.0)) * (1 + 2 * ATOL),
], ids=["nan", "negative", "sum-1.5", "sum-off-by-2-atol"])
def test_rng_choice_rejects_a_bad_law_as_numpy_does(law):
    with pytest.raises(ValueError) as ours:
        Rng(0, "twin").choice(law.size, p=law)
    with pytest.raises(ValueError) as numpys:
        numpy_choice_and_after(0, law.size, p=law)
    assert str(ours.value) == str(numpys.value)


BASE = normalized(np.arange(1.0, 11.0))


@pytest.mark.parametrize("args, kwargs", [
    ((10,), {"p": BASE, "size": 4}),
    ((10,), {"p": BASE, "size": 4, "replace": False}),
    ((np.arange(10) * 3,), {"p": BASE}),
    ((10,), {"p": BASE.astype(np.float32)}),
    ((10,), {"p": BASE * (1 + 0.75 * ATOL)}),  # numpy's tolerance, not the short path's
    ((10,), {"p": list(BASE)}),
    ((np.int64(10),), {"p": BASE}),
    ((10,), {}),
], ids=["size", "no-replace", "array-a", "float32-p", "near-tolerance", "list-p",
        "numpy-int-a", "no-p"])
def test_rng_choice_other_forms_go_to_numpy(args, kwargs):
    for seed in range(10):
        rng = Rng(seed, "twin")
        got = rng.choice(*args, **kwargs)
        want, after = numpy_choice_and_after(seed, *args, **kwargs)
        assert type(got) is type(want) and np.array_equal(got, want)
        assert rng.random(3).tobytes() == after.tobytes()


def test_philox_key_gives_only_two_64_bit_words():
    key = _PhiloxKey((1, 2))
    assert key.generate_state(2, np.uint64) == (1, 2)
    with pytest.raises(ValueError, match="two 64-bit words"):
        key.generate_state(4, np.uint64)
    with pytest.raises(ValueError, match="two 64-bit words"):
        key.generate_state(2, np.uint32)


def test_rng_repr_names_seed_and_label():
    assert repr(Rng(3, "x")) == str(Rng(3, "x")) == "Rng(seed=3, label='x')"


# ---------------------------------------------------------------- norms

def test_l2_norm_345():
    assert l2_norm([3.0, 4.0]) == 5.0


def test_l2_norm_zero_vector():
    assert l2_norm(np.zeros(7)) == 0.0


def test_l2_norm_matches_extended_precision():
    v = Rng(1).normal(size=100)
    expected = float(np.sqrt(np.sum(np.asarray(v, dtype=np.longdouble) ** 2)))
    assert abs(l2_norm(v) - expected) <= 1e-12 * expected


# ---------------------------------------------------------------- student t

def test_student_t_sf_zero_statistic():
    assert student_t_sf(0.0, 4) == 1.0


def test_student_t_sf_t_table_critical_value():
    # two-sided 5% critical value for dof=4
    assert student_t_sf(2.776445, 4) == pytest.approx(0.05, abs=1e-4)


def test_student_t_sf_extreme_tail():
    assert student_t_sf(1e9, 4) < 1e-12


def test_student_t_sf_rejects_non_finite():
    with pytest.raises(ValueError, match="invalid statistic"):
        student_t_sf(float("nan"), 3)
    with pytest.raises(ValueError, match="invalid statistic"):
        student_t_sf(float("inf"), 3)


def test_student_t_sf_rejects_bad_dof():
    with pytest.raises(ValueError):
        student_t_sf(1.0, 0)


def test_student_t_sf_matches_scipy_grid():
    # oracle: scipy's t distribution survival function
    for dof in range(1, 41):
        for t in (0.01, 0.5, 1.0, 2.0, 3.5, 7.0, 20.0):
            expected = 2.0 * scipy.stats.t.sf(t, dof)
            assert student_t_sf(t, dof) == pytest.approx(expected, abs=1e-13)
            assert student_t_sf(-t, dof) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("dof", [200, 1000, 10000])
def test_student_t_sf_matches_scipy_at_large_dof(dof):
    for t in (0.01, 0.5, 1.0, 1.96, 3.0, 6.0):
        expected = 2.0 * scipy.stats.t.sf(t, dof)
        assert student_t_sf(t, dof) == pytest.approx(expected, abs=1e-12)


def test_student_t_sf_closed_forms_at_one_and_two_dof():
    for t in (0.01, 0.3, 1.0, 2.5, 12.0, 1e4):
        for sign in (1.0, -1.0):
            assert student_t_sf(sign * t, 1) == pytest.approx(
                1.0 - 2.0 * np.arctan(t) / np.pi, abs=1e-15)
            assert student_t_sf(sign * t, 2) == pytest.approx(
                1.0 - t / np.sqrt(2.0 + t * t), abs=1e-15)


def test_student_t_sf_monotone_in_abs_t():
    ts = np.linspace(0.0, 10.0, 200)
    ps = [student_t_sf(t, 6) for t in ts]
    assert all(ps[i + 1] <= ps[i] + 1e-15 for i in range(len(ps) - 1))


# ---------------------------------------------------------------- pca

def test_pca_line_in_3d_captures_all_variance():
    t = np.linspace(-2, 2, 40)
    pts = np.outer(t, [1.0, 2.0, -1.0]) + np.array([5.0, 1.0, 0.0])
    proj = pca_project(pts, 1)
    assert proj.shape == (40, 1)
    total_var = np.var(pts - pts.mean(axis=0), axis=0, ddof=1).sum()
    assert np.var(proj[:, 0], ddof=1) == pytest.approx(total_var, abs=1e-9)


def test_pca_two_points_symmetric():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    proj = pca_project(pts, 1)[:, 0]
    assert sorted(proj) == pytest.approx([-2.5, 2.5], abs=1e-12)


def test_pca_matches_svd_oracle():
    pts = Rng(9).normal(size=(60, 5))
    proj = pca_project(pts, 2)
    centered = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    oracle = centered @ vt[:2].T
    # sign convention may differ per component; compare up to sign
    for j in range(2):
        same = np.allclose(proj[:, j], oracle[:, j], atol=1e-8)
        flipped = np.allclose(proj[:, j], -oracle[:, j], atol=1e-8)
        assert same or flipped


def test_pca_reconstruction_error_matches_eigh_oracle():
    pts = Rng(11).normal(size=(80, 6))
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (pts.shape[0] - 1)
    vals = np.linalg.eigvalsh(cov)
    expected_residual = vals[:-2].sum()  # variance left out by top-2
    proj = pca_project(pts, 2)
    kept = np.var(proj, axis=0, ddof=1).sum()
    total = np.var(centered, axis=0, ddof=1).sum()
    assert total - kept == pytest.approx(expected_residual, abs=1e-8)


def test_pca_columns_orthogonal():
    pts = Rng(13).normal(size=(50, 4))
    proj = pca_project(pts, 3)
    for i in range(3):
        for j in range(i + 1, 3):
            a = proj[:, i] / np.linalg.norm(proj[:, i])
            b = proj[:, j] / np.linalg.norm(proj[:, j])
            assert abs(a @ b) <= 1e-8


def test_pca_identical_rows_give_zeros():
    pts = np.ones((5, 3))
    assert np.allclose(pca_project(pts, 2), 0.0)


def test_pca_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pca_project(np.ones(4), 1)
    with pytest.raises(ValueError):
        pca_project(np.ones((1, 4)), 1)
    with pytest.raises(ValueError):
        pca_project(np.ones((4, 2)), 3)
