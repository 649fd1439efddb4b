import numpy as np
import pytest
import scipy.special
import scipy.stats

from gradal.al_loop import ExperimentResult, RoundRecord
from gradal.evaluation import (
    ComparisonSlice,
    ExperimentCurves,
    PenaltyMatrix,
    bh_adjusted,
    bh_fdr,
    build_ppm,
    curves_from_results,
    loss_scores,
    paired_t_test,
)
from gradal.numerics import Rng


# ------------------------------------------------------------ paired t-test

def test_t_test_matches_scipy_on_random_fixtures():
    rng = Rng(0, "ttest")
    for trial in range(100):
        n = int(rng.integers(2, 12))
        a = rng.normal(size=n)
        b = a + rng.normal(size=n) * 0.5 + 0.1
        t, p = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic, abs=1e-6)
        assert p == pytest.approx(ref.pvalue, abs=1e-14)


def test_t_test_hand_formula_fixture():
    d = np.array([0.5, 0.2, 0.8, 0.1, 0.4])
    t, p = paired_t_test(d, np.zeros(5))
    mean = 0.4
    sd = np.sqrt(0.30 / 4)
    expected_t = mean / (sd / np.sqrt(5))
    assert t == pytest.approx(expected_t, abs=1e-9)
    # oracle: two-sided p = I_x(dof/2, 1/2) at x = dof / (dof + t^2), dof = 4
    x = 4.0 / (4.0 + expected_t ** 2)
    assert p == pytest.approx(scipy.special.betainc(2.0, 0.5, x), abs=1e-6)


def test_t_test_identical_samples():
    a = np.array([0.7, 0.8, 0.9])
    assert paired_t_test(a, a) == (0.0, 1.0)


def test_t_test_constant_nonzero_difference():
    a = np.ones(5)
    t, p = paired_t_test(a, np.zeros(5))
    assert t == np.inf and p == 0.0
    t, p = paired_t_test(np.zeros(5), a)
    assert t == -np.inf and p == 0.0


def test_t_test_antisymmetry():
    rng = Rng(4)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    t_ab, p_ab = paired_t_test(a, b)
    t_ba, p_ba = paired_t_test(b, a)
    assert t_ab == -t_ba
    assert p_ab == p_ba


def test_t_test_input_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])


# ------------------------------------------------------------ BH / FDR

def bh_oracle(p, alpha):
    """Literal step-up from the definition, quadratic and obvious."""
    p = np.asarray(p, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    k = 0
    for rank in range(1, m + 1):
        if p[order[rank - 1]] <= rank * alpha / m:
            k = rank
    reject = np.zeros(m, dtype=bool)
    reject[order[:k]] = True
    return reject


def test_bh_worked_fixture():
    # thresholds k*0.05/5 are (0.01, 0.02, 0.03, 0.04, 0.05):
    # p_(1)=0.01 and p_(2)=0.02 sit on the line, p_(3)=0.04 > 0.03,
    # so the largest passing k is 2 and step-up rejects exactly two
    p = [0.01, 0.02, 0.04, 0.30, 0.50]
    assert bh_fdr(p, 0.05).tolist() == bh_oracle(p, 0.05).tolist()
    assert bh_fdr(p, 0.05).tolist() == [True, True, False, False, False]


def test_bh_single_p():
    assert bh_fdr([0.01], 0.05).tolist() == [True]
    assert bh_fdr([0.06], 0.05).tolist() == [False]


def test_bh_all_ones():
    assert not bh_fdr(np.ones(7), 0.05).any()


def test_bh_matches_brute_force_oracle():
    rng = Rng(1, "bh")
    for trial in range(1000):
        m = int(rng.integers(1, 21))
        p = rng.uniform(0.0, 1.0, size=m)
        if trial % 3 == 0:
            p = np.round(p, 2)  # force ties
        alpha = float(rng.uniform(0.01, 0.2))
        assert np.array_equal(bh_fdr(p, alpha), bh_oracle(p, alpha)), (p, alpha)


def test_bh_monotone_in_alpha():
    rng = Rng(2, "bh-mono")
    for trial in range(200):
        p = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 15)))
        lo = bh_fdr(p, 0.02)
        hi = bh_fdr(p, 0.10)
        assert np.all(hi[lo])  # raising alpha never un-rejects


def test_bh_boundary_is_inclusive():
    # p exactly on the k*alpha/m line is rejected
    assert bh_fdr([0.05], 0.05).tolist() == [True]
    assert bh_fdr([0.025, 0.05], 0.05).tolist() == [True, True]


def test_bh_adjusted_reproduces_rejections():
    rng = Rng(3, "bh-adj")
    for trial in range(300):
        p = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 15)))
        alpha = float(rng.uniform(0.01, 0.2))
        adj = bh_adjusted(p)
        assert np.all(adj >= p - 1e-15)
        assert np.array_equal(adj <= alpha, bh_fdr(p, alpha))


def test_bh_input_validation():
    with pytest.raises(ValueError):
        bh_fdr([0.5, 1.5], 0.05)
    assert not bh_fdr([0.0, 0.5], 0.0).any()  # alpha 0 rejects nothing, p = 0 included
    with pytest.raises(ValueError):
        bh_fdr([0.5], -0.1)
    with pytest.raises(ValueError):
        bh_fdr([[0.5]], 0.05)


def test_bh_of_no_p_values_is_empty():
    assert bh_fdr([], 0.05).shape == (0,)
    assert bh_adjusted([]).shape == (0,)


# ------------------------------------------------------------ curves

def curves(acc_by_method, dataset="d", arch="a"):
    return ExperimentCurves(accuracies=acc_by_method, dataset=dataset, arch=arch)


def test_curves_validate_grid():
    with pytest.raises(ValueError):
        curves({"a": np.zeros((3, 4)), "b": np.zeros((2, 4))})
    with pytest.raises(ValueError):
        curves({"a": np.array([0.5, 0.6])})  # not 2-D
    with pytest.raises(ValueError):
        curves({})


def test_curves_reject_a_nan_accuracy():
    with pytest.raises(ValueError, match="non-finite"):
        curves({"a": np.zeros((2, 3)), "b": np.array([[0.5, np.nan, 0.5], [0.5, 0.5, 0.5]])})


def test_curves_from_results_accepts_results_or_arrays():
    grid = {"grad": [[0.5, 0.7, 0.9], [0.4, 0.6, 0.8]],
            "random": [[0.5, 0.6, 0.7], [0.4, 0.5, 0.6]]}
    results = {
        m: ExperimentResult(
            method=m, seeds=(0, 1), learning_rate=0.01,
            per_seed=[[RoundRecord(round=t, labeled_size=10 + t, test_accuracy=a,
                                   acquisition_seconds=0.0)
                       for t, a in enumerate(row)] for row in rows])
        for m, rows in grid.items()
    }
    from_results = curves_from_results(results, dataset="d", arch="a")
    from_arrays = curves_from_results(grid, dataset="d", arch="a")
    assert from_results.methods == from_arrays.methods == ("grad", "random")
    assert (from_results.dataset, from_results.arch) == (from_arrays.dataset, from_arrays.arch)
    for m in grid:
        assert np.array_equal(from_results.accuracies[m], from_arrays.accuracies[m])
        assert np.array_equal(from_arrays.accuracies[m], np.array(grid[m]))
    with pytest.raises(ValueError, match="uneven round counts"):
        curves_from_results({"grad": [[0.5, 0.7], [0.4]]})


def test_slice_rounds_skip_round_zero():
    s = ComparisonSlice("all_rounds")
    assert s.rounds(5) == [1, 2, 3, 4]
    assert ComparisonSlice("early").rounds(8) == [1, 2, 3]
    assert ComparisonSlice("late").rounds(8) == [5, 6, 7]


def test_slice_windows_clamp_to_short_experiments():
    # 2 post-acquisition rounds: early and late both use what exists
    assert ComparisonSlice("early").rounds(3) == [1, 2]
    assert ComparisonSlice("late").rounds(3) == [1, 2]


def test_slice_requires_post_acquisition_rounds():
    with pytest.raises(ValueError):
        ComparisonSlice("all_rounds").rounds(1)


def test_slice_dataset_and_arch_filters():
    c = curves({"a": np.zeros((2, 3))}, dataset="blobs-x", arch="mlp-512")
    assert ComparisonSlice("by_dataset", "blobs-x").matches(c)
    assert not ComparisonSlice("by_dataset", "other").matches(c)
    assert ComparisonSlice("by_arch", "mlp-512").matches(c)
    with pytest.raises(ValueError):
        ComparisonSlice("by_dataset")  # needs a name
    with pytest.raises(ValueError):
        ComparisonSlice("weekly")


# ------------------------------------------------------------ penalty matrix

def planted(n_seeds=6, n_points=5, gap=0.1, base_seed=0):
    """A beats B by `gap` at every seed and round; noise keeps sd > 0
    at the experiment level but the per-round differences are constant."""
    rng = Rng(base_seed, "planted")
    b = 0.5 + 0.05 * rng.normal(size=(n_seeds, n_points))
    return curves({"A": b + gap, "B": b})


def test_ppm_single_round_single_experiment():
    c = planted(n_points=2)
    ppm = build_ppm([c], ComparisonSlice("all_rounds"), alpha=0.05)
    i, j = ppm.methods.index("A"), ppm.methods.index("B")
    assert ppm.P[i, j] == 1.0
    assert ppm.P[j, i] == 0.0
    assert ppm.experiments_counted == 1


def test_ppm_no_significant_differences():
    rng = Rng(9, "null")
    shared = 0.5 + 0.02 * rng.normal(size=(4, 4))
    c = curves({"A": shared, "B": shared})
    ppm = build_ppm([c], ComparisonSlice("all_rounds"), alpha=0.05)
    assert np.all(ppm.P == 0.0)


def test_ppm_planted_dominance_two_experiments():
    exps = [planted(base_seed=0), planted(base_seed=1)]
    ppm = build_ppm(exps, ComparisonSlice("all_rounds"), alpha=0.05)
    i, j = ppm.methods.index("A"), ppm.methods.index("B")
    assert ppm.P[i, j] == 2.0  # 4 rounds x 1/4 each, twice; exact in binary
    assert ppm.P[j, i] == 0.0


def test_ppm_at_most_one_unit_per_pair_per_experiment():
    ppm = build_ppm([planted()], ComparisonSlice("all_rounds"), alpha=0.05)
    assert np.all(ppm.P <= ppm.experiments_counted)


def test_ppm_method_order_permutation():
    rng = Rng(5, "perm")
    b = 0.5 + 0.05 * rng.normal(size=(6, 4))
    fwd = curves({"A": b + 0.1, "B": b, "C": b - 0.1})
    rev = curves({"C": b - 0.1, "B": b, "A": b + 0.1})
    p1 = build_ppm([fwd], ComparisonSlice("all_rounds"))
    p2 = build_ppm([rev], ComparisonSlice("all_rounds"))
    for mi in "ABC":
        for mj in "ABC":
            v1 = p1.P[p1.methods.index(mi), p1.methods.index(mj)]
            v2 = p2.P[p2.methods.index(mi), p2.methods.index(mj)]
            assert v1 == v2, (mi, mj)


def test_ppm_rejects_mismatched_method_sets():
    a = curves({"A": np.full((3, 3), 0.5), "B": np.full((3, 3), 0.5)})
    b = curves({"A": np.full((3, 3), 0.5), "C": np.full((3, 3), 0.5)})
    with pytest.raises(ValueError):
        build_ppm([a, b], ComparisonSlice("all_rounds"))


def test_ppm_slice_filters_experiments():
    a = planted()
    a.dataset = "blobs-1"
    b = planted(base_seed=2)
    b.dataset = "blobs-2"
    ppm = build_ppm([a, b], ComparisonSlice("by_dataset", "blobs-1"))
    assert ppm.experiments_counted == 1
    with pytest.raises(ValueError):
        build_ppm([a, b], ComparisonSlice("by_dataset", "nope"))


def test_penalty_matrix_validation():
    with pytest.raises(ValueError):
        PenaltyMatrix(("A", "B"), np.array([[1.0, 0.0], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        PenaltyMatrix(("A", "B"), np.array([[0.0, -0.1], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        PenaltyMatrix(("A", "B"), np.array([[0.0, 1.5], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        PenaltyMatrix(("A", "B"), np.zeros((3, 3)), 1)


# ------------------------------------------------------------ loss scores

def test_loss_scores_zero_matrix():
    ppm = PenaltyMatrix(("A", "B", "C"), np.zeros((3, 3)), 1)
    assert loss_scores(ppm) == {"A": 0.0, "B": 0.0, "C": 0.0}


def test_loss_scores_single_win():
    P = np.zeros((3, 3))
    P[0, 1] = 1.0  # A beats B
    scores = loss_scores(PenaltyMatrix(("A", "B", "C"), P, 1))
    assert scores == {"A": 0.0, "B": pytest.approx(1 / 3), "C": 0.0}


def test_loss_scores_rank_matches_column_sums():
    rng = Rng(8)
    P = rng.uniform(0.0, 1.0, size=(4, 4))
    np.fill_diagonal(P, 0.0)
    ppm = PenaltyMatrix(("A", "B", "C", "D"), P, 2)
    scores = loss_scores(ppm)
    by_score = sorted(ppm.methods, key=scores.__getitem__)
    by_sum = sorted(ppm.methods, key=lambda m: P[:, ppm.methods.index(m)].sum())
    assert by_score == by_sum

