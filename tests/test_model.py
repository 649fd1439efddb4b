from dataclasses import replace

import numpy as np
import pytest

from gradal.al_loop import sweep_learning_rate
from gradal.contraction import ContractionConfig, run_contraction_trace
from gradal.data import Dataset, make_blobs
from gradal.model import (
    FULL,
    LAST_LAYER,
    ArchSpec,
    ModelState,
    TrainConfig,
    _mean_grad,
    grad_embedding,
    grad_embeddings,
    init_model,
    loss_mean,
    mean_grad_embedding,
    penultimate,
    predict_proba,
    train,
    train_stack,
)
from gradal.numerics import Rng, derive_seed, l2_norm


def tiny_dataset(n=40, c=3, d=4, seed=2, spread=0.8):
    return make_blobs(n, c, d, spread=spread, seed=seed)


def tiny_arch(d=4, c=3, widths=(6, 5)):
    return ArchSpec(input_dim=d, n_classes=c, hidden_widths=widths)


def fd_gradient(f, params, eps=1e-5):
    """Central finite differences of a scalar function of the flat params."""
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


# ---------------------------------------------------------------- init

def test_init_model_deterministic():
    arch = tiny_arch()
    a = init_model(arch, seed=5)
    b = init_model(arch, seed=5)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, init_model(arch, seed=6).params)


def test_init_model_biases_zero():
    arch = tiny_arch()
    m = init_model(arch, seed=1)
    sizes = arch.layer_sizes
    offset = 0
    for i in range(len(sizes) - 1):
        offset += sizes[i + 1] * sizes[i]
        assert np.all(m.params[offset:offset + sizes[i + 1]] == 0.0)
        offset += sizes[i + 1]


def test_init_model_weight_scale_matches_fan_in():
    # U(-b, b) has std b/sqrt(3) with b = sqrt(1/fan_in)
    arch = ArchSpec(input_dim=50, n_classes=4, hidden_widths=(80,))
    stds = []
    for seed in range(10):
        m = init_model(arch, seed)
        w1 = m.params[: 80 * 50]
        stds.append(w1.std())
    expected = np.sqrt(1.0 / 50) / np.sqrt(3.0)
    assert abs(np.mean(stds) - expected) <= 0.2 * expected


def test_model_state_validates_length():
    with pytest.raises(ValueError):
        ModelState(params=np.zeros(3), arch=tiny_arch())


# ---------------------------------------------------------------- forward

def test_predict_proba_rows_sum_to_one():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 0)
    p = predict_proba(m, ds.features)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(p > 0) and np.all(p < 1)


def test_predict_proba_uniform_when_last_layer_zero():
    arch = tiny_arch()
    m = init_model(arch, 0)
    params = m.params.copy()
    last = (arch.penultimate_width + 1) * arch.n_classes
    params[-last:] = 0.0
    p = predict_proba(ModelState(params, arch), tiny_dataset().features)
    assert np.allclose(p, 1.0 / arch.n_classes, atol=1e-12)


def test_predict_proba_matches_naive_softmax():
    # 1-layer net so logits are x @ W.T + b and easy to recompute
    arch = ArchSpec(input_dim=3, n_classes=4, hidden_widths=())
    m = init_model(arch, 3)
    x = Rng(0).normal(size=(10, 3))
    w = m.params[:12].reshape(4, 3)
    b = m.params[12:]
    logits = x @ w.T + b
    naive = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(predict_proba(m, x), naive, atol=1e-12)


def test_predict_proba_stable_for_huge_logits():
    arch = ArchSpec(input_dim=2, n_classes=3, hidden_widths=())
    m = init_model(arch, 0)
    p = predict_proba(m, np.array([[1e8, -1e8]]))
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_penultimate_nonnegative_and_deterministic():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 4)
    h1 = penultimate(m, ds.features)
    h2 = penultimate(m, ds.features)
    assert np.all(h1 >= 0.0)
    assert np.array_equal(h1, h2)
    assert h1.shape == (ds.n_samples, 5)


def test_penultimate_hand_computation():
    # one hidden unit: h = relu(2x + 1)
    arch = ArchSpec(input_dim=1, n_classes=2, hidden_widths=(1,))
    params = np.array([2.0, 1.0, 0.5, -0.5, 0.0, 0.0])  # W0=2, b0=1, W1, b1
    m = ModelState(params, arch)
    x = np.array([[1.0], [-2.0]])
    assert np.allclose(penultimate(m, x), [[3.0], [0.0]])


def test_penultimate_without_hidden_layers_is_input():
    arch = ArchSpec(input_dim=3, n_classes=2, hidden_widths=())
    m = init_model(arch, 0)
    x = Rng(1).normal(size=(5, 3))
    assert np.array_equal(penultimate(m, x), x)


# ---------------------------------------------------------------- loss

def test_loss_mean_uniform_is_log_k():
    ds = make_blobs(50, 10, 3, spread=1.0, seed=1)
    arch = ArchSpec(input_dim=3, n_classes=10, hidden_widths=(4,))
    m = init_model(arch, 0)
    params = m.params.copy()
    params[-(arch.penultimate_width + 1) * 10:] = 0.0
    loss = loss_mean(ModelState(params, arch), ds, np.arange(50))
    assert loss == pytest.approx(np.log(10.0), abs=1e-9)


def test_loss_mean_equals_per_example_average():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 7)
    idx = np.arange(ds.n_samples)
    per_example = [loss_mean(m, ds, [i]) for i in idx]
    assert loss_mean(m, ds, idx) == pytest.approx(np.mean(per_example), abs=1e-12)


def test_loss_mean_rejects_empty():
    with pytest.raises(ValueError):
        loss_mean(init_model(tiny_arch(), 0), tiny_dataset(), [])


# ---------------------------------------------------------------- training

def test_train_descends_on_single_sample():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 1)
    cfg = TrainConfig(learning_rate=0.01, epochs=1, momentum=0.0, seed=0)
    before = loss_mean(m, ds, [0])
    after = loss_mean(train(m, ds, [0], cfg), ds, [0])
    assert after < before


def test_train_separable_blobs_high_accuracy():
    ds = make_blobs(300, 3, 2, spread=0.3, seed=0)
    arch = ArchSpec(input_dim=2, n_classes=3, hidden_widths=(16,))
    m = train(init_model(arch, 0), ds, np.arange(300),
              TrainConfig(learning_rate=0.01, epochs=30, seed=1))
    pred = np.argmax(predict_proba(m, ds.features), axis=1)
    assert np.mean(pred == ds.labels) >= 0.95


def test_train_deterministic():
    ds = tiny_dataset()
    cfg = TrainConfig(learning_rate=0.005, epochs=3, seed=9)
    a = train(init_model(tiny_arch(), 2), ds, np.arange(20), cfg)
    b = train(init_model(tiny_arch(), 2), ds, np.arange(20), cfg)
    assert np.array_equal(a.params, b.params)


def test_train_divergence_names_epoch():
    base = make_blobs(30, 2, 2, spread=0.5, seed=0)
    ds = Dataset(base.features * 1e4, base.labels, 2)
    arch = ArchSpec(input_dim=2, n_classes=2, hidden_widths=(8,))
    cfg = TrainConfig(learning_rate=1e12, epochs=3, minibatch_size=1, seed=0)
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="diverged at epoch 0"):
        train(init_model(arch, 0), ds, np.arange(30), cfg)


def test_train_uses_incomplete_final_minibatch():
    # 5 points with batch 4: the trailing short minibatch must still train
    ds = tiny_dataset(n=40)
    idx = np.arange(5)
    cfg = TrainConfig(learning_rate=0.01, epochs=1, momentum=0.0,
                      minibatch_size=4, seed=3)
    full = train(init_model(tiny_arch(), 0), ds, idx, cfg)
    # same config but only the first 4 points available
    part = train(init_model(tiny_arch(), 0), ds, idx[:4], cfg)
    assert not np.array_equal(full.params, part.params)


# ---------------------------------------------------------------- lockstep engine

def _stack_args(cfg):
    return cfg.learning_rate, cfg.momentum, cfg.minibatch_size, cfg.epochs


def test_train_stack_rows_match_separate_train_calls():
    # distinct inits, seeds and labeled sets; 13 points in batches of 4
    # leave a one-point final minibatch every epoch
    ds = tiny_dataset(n=60)
    arch = tiny_arch()
    cfg = TrainConfig(learning_rate=0.05, epochs=4, minibatch_size=4, seed=0)
    inits = [init_model(arch, s) for s in range(4)]
    labeled = [np.arange(s, 60, 4)[:13] for s in range(4)]
    seeds = [11, 12, 13, 14]
    params, diverged = train_stack(arch, [m.params for m in inits], labeled, seeds, ds,
                                   *_stack_args(cfg))
    assert diverged.tolist() == [-1, -1, -1, -1]
    for m in range(4):
        alone = train(inits[m], ds, labeled[m], replace(cfg, seed=seeds[m]))
        assert np.array_equal(params[m], alone.params), m


def test_train_stack_diverging_row_leaves_other_rows_unchanged():
    # row 1 trains on points scaled by 1e150, which overflow at this rate;
    # rows 0 and 2 train on unscaled points and stay finite
    base = make_blobs(80, 3, 4, spread=0.8, seed=2)
    features = base.features.copy()
    features[60:] *= 1e150
    ds = Dataset(features, base.labels, 3)
    arch = tiny_arch()
    cfg = TrainConfig(learning_rate=1e10, epochs=6, minibatch_size=4, seed=0)
    inits = [init_model(arch, s) for s in range(3)]
    labeled = [np.arange(0, 30, 2), np.arange(60, 75), np.arange(1, 31, 2)]
    seeds = [5, 6, 7]
    with np.errstate(all="ignore"):
        params, diverged = train_stack(arch, [m.params for m in inits], labeled, seeds, ds,
                                       *_stack_args(cfg))
        with pytest.raises(ArithmeticError) as lone:
            train(inits[1], ds, labeled[1], replace(cfg, seed=seeds[1]))
    assert diverged[0] == diverged[2] == -1 and diverged[1] >= 0
    assert f"diverged at epoch {diverged[1]} at learning rate 1e+10" in str(lone.value)
    for m in (0, 2):
        alone = train(inits[m], ds, labeled[m], replace(cfg, seed=seeds[m]))
        assert np.array_equal(params[m], alone.params), m


def test_train_stack_full_batch_reproduces_contraction_trace():
    # reference: one full-batch momentum step per epoch, written out
    ds = make_blobs(60, 2, 3, spread=0.7, seed=1)
    cfg = ContractionConfig(s_size=40, subset_fraction=0.25, epochs=8, learning_rate=0.01,
                            seed=0, scope=FULL, hidden_widths=(8,), momentum=0.5)
    s, s_j = np.arange(40), np.arange(0, 40, 4)
    arch = ArchSpec(input_dim=3, n_classes=2, hidden_widths=(8,))
    init = init_model(arch, seed=derive_seed(cfg.seed, "init"))

    def discrepancy(params):
        model = ModelState(params, arch)
        return l2_norm(mean_grad_embedding(model, ds, s, FULL)
                       - mean_grad_embedding(model, ds, s_j, FULL))

    params, velocity, expected = init.params.copy(), np.zeros(arch.n_params), []
    for _ in range(cfg.epochs):
        velocity = cfg.momentum * velocity + _mean_grad(params, arch, ds.features[s], ds.labels[s])
        params = params - cfg.learning_rate * velocity
        expected.append(discrepancy(params))

    seen = []
    stacked, diverged = train_stack(arch, [init.params], [s], [cfg.seed], ds, cfg.learning_rate,
                                    cfg.momentum, 0, cfg.epochs,
                                    on_epoch=lambda epoch, p: seen.append(discrepancy(p[0])))
    report = run_contraction_trace(cfg, ds, sample_indices=s, subset_indices=s_j)
    assert diverged.tolist() == [-1]
    assert np.array_equal(stacked[0], params)
    assert seen == expected
    assert report.df_norms.tolist() == expected


# ---------------------------------------------------------------- gradients

def test_last_layer_embedding_closed_form_shape():
    arch = tiny_arch()
    m = init_model(arch, 0)
    ds = tiny_dataset()
    emb = grad_embedding(m, ds.features[0], int(ds.labels[0]), scope=LAST_LAYER)
    assert emb.shape == ((arch.penultimate_width + 1) * arch.n_classes,)


def test_last_layer_embedding_zero_at_fitted_point():
    # drive p to (almost) one-hot at the true label via huge logits
    arch = ArchSpec(input_dim=1, n_classes=2, hidden_widths=(1,))
    params = np.array([1.0, 0.0, 100.0, -100.0, 0.0, 0.0])
    m = ModelState(params, arch)
    emb = grad_embedding(m, np.array([5.0]), 0, scope=LAST_LAYER)
    assert np.all(np.abs(emb) < 1e-10)


def test_last_layer_embedding_matches_finite_differences():
    rng = Rng(12)
    for trial in range(50):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        widths = tuple(int(w) for w in rng.integers(2, 7, size=int(rng.integers(1, 3))))
        arch = ArchSpec(input_dim=d, n_classes=c, hidden_widths=widths)
        m = init_model(arch, int(rng.integers(0, 10_000)))
        x = rng.normal(size=d)
        y = int(rng.integers(0, c))
        ds = Dataset(np.tile(x, (c, 1)), np.full(c, y), c)

        analytic = grad_embedding(m, x, y, scope=LAST_LAYER)
        n_last = (arch.penultimate_width + 1) * c

        def loss_at(p):
            return loss_mean(ModelState(p, arch), ds, [0])

        fd_last = fd_gradient(loss_at, m.params.copy())[-n_last:]
        denom = max(np.linalg.norm(fd_last), 1e-12)
        assert np.linalg.norm(analytic - fd_last) / denom <= 1e-4


def test_full_embedding_matches_finite_differences():
    rng = Rng(21)
    for trial in range(10):
        arch = ArchSpec(input_dim=3, n_classes=3,
                        hidden_widths=(int(rng.integers(2, 6)),))
        m = init_model(arch, int(rng.integers(0, 10_000)))
        x = rng.normal(size=3)
        y = int(rng.integers(0, 3))
        ds = Dataset(np.tile(x, (3, 1)), np.full(3, y), 3)
        analytic = grad_embedding(m, x, y, scope=FULL)

        def loss_at(p):
            return loss_mean(ModelState(p, arch), ds, [0])

        fd = fd_gradient(loss_at, m.params.copy())
        assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-4


def test_last_layer_is_trailing_slice_of_full():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 3)
    x = ds.features[:7]
    y = ds.labels[:7]
    full = grad_embeddings(m, x, y, scope=FULL)
    last = grad_embeddings(m, x, y, scope=LAST_LAYER)
    n_last = last.shape[1]
    assert np.allclose(full[:, -n_last:], last, atol=1e-12)


def test_grad_embeddings_chunking_consistent():
    ds = tiny_dataset(n=30)
    m = init_model(tiny_arch(), 5)
    a = grad_embeddings(m, ds.features, ds.labels, scope=FULL, chunk=7)
    b = grad_embeddings(m, ds.features, ds.labels, scope=FULL, chunk=1000)
    assert np.array_equal(a, b)


def test_grad_embedding_label_out_of_range():
    m = init_model(tiny_arch(), 0)
    with pytest.raises(ValueError):
        grad_embedding(m, np.zeros(4), 3)


def test_mean_grad_embedding_singleton():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 1)
    single = grad_embedding(m, ds.features[3], int(ds.labels[3]))
    mean = mean_grad_embedding(m, ds, [3])
    assert np.allclose(single, mean, atol=1e-12)


def test_mean_grad_embedding_additivity():
    ds = tiny_dataset(n=24)
    m = init_model(tiny_arch(), 8)
    s = np.arange(0, 12)
    t = np.arange(12, 24)
    for scope in (LAST_LAYER, FULL):
        gs = mean_grad_embedding(m, ds, s, scope=scope)
        gt = mean_grad_embedding(m, ds, t, scope=scope)
        gu = mean_grad_embedding(m, ds, np.arange(24), scope=scope)
        assert np.allclose(gu, 0.5 * gs + 0.5 * gt, atol=1e-12)


def test_mean_grad_embedding_is_gradient_of_loss_mean():
    ds = tiny_dataset(n=10)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(5,))
    m = init_model(arch, 2)
    idx = np.arange(10)
    mean_emb = mean_grad_embedding(m, ds, idx, scope=FULL)

    def f(p):
        return loss_mean(ModelState(p, arch), ds, idx)

    fd = fd_gradient(f, m.params.copy())
    assert np.linalg.norm(mean_emb - fd) / np.linalg.norm(fd) <= 1e-4


def test_mean_matches_average_of_per_example_embeddings():
    # dual route: batched closed form vs explicit per-example mean
    ds = tiny_dataset(n=16)
    m = init_model(tiny_arch(), 6)
    idx = np.arange(16)
    for scope in (LAST_LAYER, FULL):
        batched = mean_grad_embedding(m, ds, idx, scope=scope)
        explicit = grad_embeddings(m, ds.features[idx], ds.labels[idx], scope=scope).mean(axis=0)
        assert np.linalg.norm(batched - explicit) <= 1e-10 * max(1.0, np.linalg.norm(explicit))


# ---------------------------------------------------------------- sweep

def test_sweep_prefers_smaller_rate_on_tie(monkeypatch):
    import gradal.al_loop as al_loop

    calls = []

    def fake_accuracy(model, dataset, test):
        calls.append(1)
        return 0.5  # every rate ties

    monkeypatch.setattr(al_loop, "evaluate_accuracy", fake_accuracy)
    ds = tiny_dataset()
    rate = al_loop.sweep_learning_rate(
        tiny_arch(), ds, np.arange(20), np.arange(20, 30),
        TrainConfig(learning_rate=0.01, epochs=1, seed=0), seed=0)
    assert rate == 0.0001  # smallest candidate wins ties
    assert len(calls) == 5


def test_sweep_picks_argmax_rate():
    from gradal.al_loop import evaluate_accuracy
    from gradal.al_loop import SWEEP_RATES

    ds = make_blobs(200, 3, 4, spread=0.5, seed=4)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,))
    base = TrainConfig(learning_rate=0.01, epochs=10, seed=0)
    tr, va = np.arange(100), np.arange(100, 200)
    rate = sweep_learning_rate(arch, ds, tr, va, base, seed=1)

    # recompute the sweep by hand: argmax accuracy, ties -> smaller rate
    from dataclasses import replace
    best, best_acc = None, -1.0
    for r in sorted(SWEEP_RATES):
        m = train(init_model(arch, seed=1), ds, tr,
                  replace(base, learning_rate=r, seed=1))
        acc = evaluate_accuracy(m, ds, va)
        if acc > best_acc:
            best, best_acc = r, acc
    assert rate == best
