"""End-to-end acceptance gate: one test per criterion, A1-A9.

Each test pins its tolerances inline and uses independently computed
oracles (naive reimplementations, finite differences, scipy, exact
enumeration) rather than trusting the library's own arithmetic.
"""

import itertools
import json
import time

import numpy as np
import pytest
import scipy.stats

from gradal.acquisition import (
    METHODS,
    df_score,
    kmeans_pp_indices,
    pseudo_label,
    select_batch,
    select_kcenter,
)
from gradal.al_loop import ExperimentConfig, evaluate_accuracy, run_experiments
from gradal.cli import cmd_run, cmd_timing, fingerprint_of
from gradal.contraction import (
    ContractionConfig,
    cumulative_df_bound_check,
    run_contraction_trace,
)
from gradal.data import Dataset, PoolState, SplitSpec, init_pool, make_blobs, make_shifted, split
from gradal.evaluation import ExperimentCurves, ComparisonSlice, bh_fdr, build_ppm, paired_t_test
from gradal.model import (
    ArchSpec,
    ModelState,
    TrainConfig,
    grad_embedding,
    init_model,
    loss_mean,
    mean_grad_embedding,
    train,
)
from gradal.numerics import Rng, derive_seed


def test_a1_df_efficiency_identity():
    """Reduced-form score == naive two-gradient score, 1e-10 relative,
    100 random instances, under 5 seconds."""
    started = time.perf_counter()
    rng = Rng(0, "a1")
    for trial in range(100):
        n_ref = int(rng.integers(1, 51))
        # keep n_classes <= |R| + 1 so the union set is constructible
        c = int(rng.integers(2, min(11, n_ref + 2)))
        d = int(rng.integers(2, 8))
        width = int(rng.integers(4, 33))
        n = max(n_ref + 3, c)
        feats = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)
        ds = Dataset(feats, labels, c)
        model = init_model(
            ArchSpec(input_dim=d, n_classes=c, hidden_widths=(width,)),
            seed=trial)
        labeled = np.arange(n_ref)
        x_index = n - 1

        fast = df_score(model, ds, labeled, x_index)

        # naive route: materialize R u {x} with the pseudo-label inserted
        y_hat = pseudo_label(model, ds.features[x_index])
        aug = Dataset(
            np.vstack([feats[labeled], feats[x_index]]),
            np.concatenate([labels[labeled], [y_hat]]),
            c)
        g_union = mean_grad_embedding(model, aug, np.arange(n_ref + 1))
        g_x = grad_embedding(model, ds.features[x_index], y_hat)
        naive = float(np.linalg.norm(g_union - g_x))

        assert abs(fast - naive) <= 1e-10 * max(1.0, naive), trial
    assert time.perf_counter() - started < 5.0


def _fd_gradient(f, params, eps=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


def test_a2_gradient_finite_difference_agreement():
    """Analytic last-layer and full-scope embeddings vs central finite
    differences, 1e-4 relative, 50 random triples each, under 30 seconds."""
    started = time.perf_counter()
    rng = Rng(0, "a2")
    for trial in range(50):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        width = int(rng.integers(2, 7))
        arch = ArchSpec(input_dim=d, n_classes=c, hidden_widths=(width,))
        model = init_model(arch, seed=int(rng.integers(0, 10_000)))
        x = rng.normal(size=d)
        y = int(rng.integers(0, c))
        ds = Dataset(np.tile(x, (c, 1)), np.full(c, y), c)

        def loss_at(p, arch=arch, ds=ds):
            return loss_mean(ModelState(p, arch), ds, [0])

        fd_full = _fd_gradient(loss_at, model.params.copy())
        full = grad_embedding(model, x, y, scope="full")
        denom = max(np.linalg.norm(fd_full), 1e-12)
        assert np.linalg.norm(full - fd_full) / denom <= 1e-4, trial

        n_last = arch.embedding_dim("last_layer")
        last = grad_embedding(model, x, y, scope="last_layer")
        fd_last = fd_full[-n_last:]
        denom = max(np.linalg.norm(fd_last), 1e-12)
        assert np.linalg.norm(last - fd_last) / denom <= 1e-4, trial
    assert time.perf_counter() - started < 30.0


def test_a3_statistics_oracle_equivalence():
    """t-test vs scipy (1e-6), BH vs brute-force step-up (exact, 1000
    vectors), penalty matrix planted-dominance value exactly 2.0."""
    rng = Rng(0, "a3")
    for trial in range(100):
        n = int(rng.integers(2, 12))
        a = rng.normal(size=n)
        b = a + 0.4 * rng.normal(size=n) + 0.05
        t, p = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert abs(t - ref.statistic) <= 1e-6
        assert abs(p - ref.pvalue) <= 1e-6

    for trial in range(1000):
        m = int(rng.integers(1, 21))
        p_vec = rng.uniform(0.0, 1.0, size=m)
        if trial % 4 == 0:
            p_vec = np.round(p_vec, 2)
        alpha = float(rng.uniform(0.01, 0.25))
        order = np.argsort(p_vec, kind="stable")
        k = 0
        for rank in range(1, m + 1):
            if p_vec[order[rank - 1]] <= rank * alpha / m:
                k = rank
        oracle = np.zeros(m, dtype=bool)
        oracle[order[:k]] = True
        assert np.array_equal(bh_fdr(p_vec, alpha), oracle)

    # planted dominance: 2 experiments x 4 post-acquisition rounds, A wins
    # every test, each round credits 1/4 -> exactly 1 per experiment
    def experiment(seed):
        noise = 0.05 * Rng(seed, "a3-exp").normal(size=(6, 5))
        b_acc = 0.5 + noise
        return ExperimentCurves(accuracies={"A": b_acc + 0.1, "B": b_acc})

    ppm = build_ppm([experiment(0), experiment(1)],
                    ComparisonSlice("all_rounds"), alpha=0.05)
    i, j = ppm.methods.index("A"), ppm.methods.index("B")
    assert ppm.P[i, j] == 2.0
    assert ppm.P[j, i] == 0.0


def test_a4_selector_correctness():
    """k-center: hand enumeration + 2x-optimal bound on pools of <= 8.
    BADGE seeding: exact k-means++ law within 3 sigma over 1e4 trials.
    Every selector: deterministic, duplicate-free, inside the pool."""
    # hand enumeration: points 0, 1, 2, 10 on a line, only 0 labeled
    feats = np.array([[0.0], [1.0], [2.0], [10.0]])
    line = Dataset(feats, np.array([0, 1, 0, 1]), 2)
    ident = init_model(ArchSpec(input_dim=1, n_classes=2, hidden_widths=()), 0)
    batch = select_kcenter(ident, line, PoolState(np.array([0]), np.array([1, 2, 3])), b=2)
    assert list(batch.indices) == [3, 2]

    def radius(feats, labeled, subset):
        centers = np.vstack([feats[labeled], feats[list(subset)]])
        dist = np.sqrt(((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
        return dist.min(axis=1).max()

    rng = Rng(1, "a4-kcenter")
    for trial in range(5):
        pts = rng.normal(size=(8, 2)) * 2.0
        ds = Dataset(pts, np.array([0, 1] * 4), 2)
        model = init_model(ArchSpec(input_dim=2, n_classes=2, hidden_widths=()), trial)
        batch = select_kcenter(model, ds, PoolState(np.array([0]), np.arange(1, 8)), b=2)
        greedy = radius(pts, [0], batch.indices)
        best = min(radius(pts, [0], s) for s in itertools.combinations(range(1, 8), 2))
        assert greedy <= 2.0 * best + 1e-9

    # BADGE first center: uniform over a 4-point pool
    pts4 = np.arange(8, dtype=float).reshape(4, 2)
    counts4 = np.zeros(4)
    for rep in range(10_000):
        counts4[kmeans_pp_indices(pts4, 1, Rng(rep, "a4-first"))[0]] += 1
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts4 - 2500) <= 3 * sigma)

    # BADGE joint (first, second) law on the 3-point pool {0, 1, 3}
    pts3 = np.array([[0.0], [1.0], [3.0]])
    law = {0: {1: 1 / 10, 2: 9 / 10}, 1: {0: 1 / 5, 2: 4 / 5},
           2: {0: 9 / 13, 1: 4 / 13}}
    counts = {(i, j): 0 for i in range(3) for j in range(3) if i != j}
    reps = 10_000
    for rep in range(reps):
        rows = kmeans_pp_indices(pts3, 2, Rng(rep, "a4-badge"))
        counts[(rows[0], rows[1])] += 1
    for (i, j), c in counts.items():
        expected = (1 / 3) * law[i][j]
        sigma = np.sqrt(expected * (1 - expected) / reps)
        assert abs(c / reps - expected) <= 3 * sigma, (i, j)

    # shared selector contract on a trained fixture
    ds = make_blobs(60, 3, 4, spread=0.8, seed=0)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,))
    model = train(init_model(arch, 0), ds, np.arange(12),
                  TrainConfig(learning_rate=0.01, epochs=5, seed=0))
    pool = PoolState(np.arange(12), np.arange(12, 60))
    for method in METHODS:
        one = select_batch(method, model, ds, pool, b=6, rng=Rng(2, method))
        two = select_batch(method, model, ds, pool, b=6, rng=Rng(2, method))
        assert np.array_equal(one.indices, two.indices), method
        assert len(set(one.indices.tolist())) == 6, method
        assert np.all(np.isin(one.indices, pool.unlabeled)), method


def test_a5_desk_scale_benchmark():
    """b=20, T=10, 10 seeds on 4-class blobs: supervised accuracy in
    [92%, 98%]; every method's mean curve non-decreasing within 1 pp;
    grad's final mean >= random's final mean - 0.5 pp. Under 10 minutes."""
    started = time.perf_counter()
    ds = make_blobs(1200, 4, 10, spread=2.5, seed=11)
    split_spec = SplitSpec(test_fraction=0.2, seed=0)
    arch = ArchSpec(input_dim=10, n_classes=4, hidden_widths=(64, 32))
    train_cfg = TrainConfig(learning_rate=0.01, epochs=30, seed=0)

    train_idx, _, test_idx = split(ds, split_spec)
    supervised = train(init_model(arch, 0), ds, train_idx, train_cfg)
    supervised_acc = evaluate_accuracy(supervised, ds, test_idx)
    assert 0.92 <= supervised_acc <= 0.98

    final_means = {}
    cfgs = [ExperimentConfig(arch=arch, train=train_cfg, method=method,
                             b=20, rounds=10, seeds=tuple(range(10)),
                             initial_size=20, split_spec=split_spec)
            for method in METHODS]
    for method, result in zip(METHODS, run_experiments(cfgs, ds)):
        acc = np.array([[rec.test_accuracy for rec in seq]
                        for seq in result.per_seed])
        mean = acc.mean(axis=0)
        assert np.all(np.diff(mean) >= -0.01), (method, mean)
        final_means[method] = mean[-1]

    assert final_means["grad"] >= final_means["random"] - 0.005, final_means
    assert time.perf_counter() - started < 600.0


def test_a6_contraction_trace():
    """Full-batch descent at lr 1e-4 for 150 epochs on separable blobs:
    final discrepancy <= 0.9 x the max of the first 10 epochs, a t0 exists,
    and the tail-energy bound holds. Under 2 minutes."""
    started = time.perf_counter()
    base = make_blobs(1500, 3, 8, spread=1.0, seed=3)
    ds = Dataset(base.features * 3.0, base.labels, base.n_classes,
                 name=base.name)
    cfg = ContractionConfig(s_size=1000, subset_fraction=0.1, epochs=150,
                            learning_rate=1e-4, seed=0, scope="full",
                            hidden_widths=(64,))
    report = run_contraction_trace(cfg, ds)
    df = report.df_norms

    assert df.shape == (150,) and np.all(np.isfinite(df))
    assert df[-1] <= 0.9 * df[:10].max()
    assert report.t0_estimate is not None
    assert report.rho_hat is not None and report.rho_hat <= 1.0 + 1e-6
    lhs, rhs = cumulative_df_bound_check(df, report.t0_estimate)
    assert lhs <= rhs * (1.0 + 1e-12)
    assert time.perf_counter() - started < 120.0


def test_a7_shift_sensitivity():
    """DF score mean on a 5-sigma-shifted evaluation set strictly exceeds
    the in-distribution mean for 10/10 training seeds. Under 2 minutes."""
    started = time.perf_counter()
    spread = 1.5
    ds = make_blobs(400, 3, 8, spread=spread, seed=11)
    shift = 5.0 * spread * np.ones(8) / np.sqrt(8)
    shifted = make_shifted(ds, shift)
    arch = ArchSpec(input_dim=8, n_classes=3, hidden_widths=(16,))
    train_idx, _, test_idx = split(ds, SplitSpec(test_fraction=0.25, seed=0))

    from gradal.acquisition import df_scores

    for seed in range(10):
        model = init_model(arch, seed=derive_seed(seed, "init"))
        model = train(model, ds, train_idx,
                      TrainConfig(learning_rate=0.01, epochs=10,
                                  seed=derive_seed(seed, "train")))
        base_scores = df_scores(model, ds, train_idx, test_idx)
        shifted_scores = df_scores(model, shifted, train_idx, test_idx)
        assert shifted_scores.mean() > base_scores.mean(), seed
    assert time.perf_counter() - started < 120.0


def _normalized_results_text(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    for entry in payload["per_method"].values():
        for seq in entry["per_seed"]:
            for rec in seq:
                rec["acquisition_seconds"] = 0.0
    return json.dumps(payload, sort_keys=True, indent=2)


def test_a8_end_to_end_reproducibility(tmp_path):
    """Two cmd_run executions of one config agree byte-for-byte once the
    wall-time fields are normalized; round-0 state is method-independent."""
    config = {
        "dataset": {"kind": "blobs", "n_samples": 120, "n_classes": 3,
                    "n_features": 3, "spread": 0.8, "seed": 0},
        "split": {"test_fraction": 0.25, "seed": 0},
        "model": {"hidden_widths": [8]},
        "train": {"learning_rate": 0.01, "epochs": 2},
        "methods": ["grad", "random"],
        "seeds": [0, 1],
        "batch_size": 5,
        "rounds": 2,
        "initial_size": 6,
    }
    assert cmd_run(dict(config), out_flag=tmp_path / "first") == 0
    assert cmd_run(dict(config), out_flag=tmp_path / "second") == 0
    fp = fingerprint_of(config)
    first = _normalized_results_text(tmp_path / "first" / fp / "results.json")
    second = _normalized_results_text(tmp_path / "second" / fp / "results.json")
    assert first == second

    # shared initial state: per seed, the pre-acquisition accuracy is
    # bit-identical across methods, and the pool initializer is
    # method-blind by construction
    payload = json.loads(
        (tmp_path / "first" / fp / "results.json").read_text(encoding="utf-8"))
    per_method = payload["per_method"]
    for seed_pos in range(2):
        round0 = {m: per_method[m]["per_seed"][seed_pos][0]["test_accuracy"]
                  for m in ("grad", "random")}
        assert round0["grad"] == round0["random"]
    ds = make_blobs(120, 3, 3, spread=0.8, seed=0)
    train_idx, _, _ = split(ds, SplitSpec(test_fraction=0.25, seed=0))
    assert np.array_equal(init_pool(train_idx, 6, seed=0).labeled,
                          init_pool(train_idx, 6, seed=0).labeled)


def test_a9_timing_report(tmp_path, capsys):
    """cmd_timing completes at pool 25,000 / batch 500 and emits a
    mean +/- sd line per method; the entropy-vs-grad ordering is reported
    but deliberately not asserted."""
    config = {
        "pool_size": 25000,
        "batch_size": 500,
        "rounds": 5,
        "seed": 0,
        "methods": ["entropy", "grad"],
    }
    assert cmd_timing(dict(config), out_flag=tmp_path) == 0
    out = tmp_path / fingerprint_of(config) / "timing.json"
    payload = json.loads(out.read_text(encoding="utf-8"))
    for method in ("entropy", "grad"):
        entry = payload["per_method"][method]
        assert len(entry["round_seconds"]) == 5
        assert np.isfinite(entry["mean_seconds"]) and entry["mean_seconds"] >= 0.0
        assert np.isfinite(entry["sd_seconds"]) and entry["sd_seconds"] >= 0.0
    assert payload["entropy_faster_than_grad"] in (True, False)

    stdout = capsys.readouterr().out
    assert stdout.count("+/-") == 2
    assert "entropy faster than grad:" in stdout
